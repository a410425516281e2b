//! Integration tests of the parallel scenario-sweep engine through the
//! umbrella crate: grid expansion, determinism under parallel execution,
//! and qualitative fluid-vs-packet agreement (the §4.3 validation shape)
//! — all routed through the backend-agnostic `SimBackend` layer.

use bbr_repro::experiments::compare::CONSISTENCY;
use bbr_repro::experiments::scenarios::COMBOS;
use bbr_repro::experiments::sweep::{ScenarioGrid, TopologyKind};
use bbr_repro::experiments::Effort;
use bbr_repro::fluid::topology::QdiscKind;

fn small_grid() -> ScenarioGrid {
    // 50 Mbit/s halves the packet count vs the §4.3 default capacity,
    // keeping the suite quick without changing the qualitative story.
    ScenarioGrid::new()
        .effort(Effort::Fast)
        .capacity(50.0)
        .combos(vec![COMBOS[0], COMBOS[4]])
        .flow_counts(vec![2])
        .buffers_bdp(vec![1.0, 4.0])
        .rtt_ranges(vec![(0.030, 0.040)])
        .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red])
        .duration(1.0)
        .warmup(0.25)
        .runs(1)
        .seed(42)
}

#[test]
fn grid_expansion_matches_axis_product() {
    let grid = small_grid();
    assert_eq!(grid.len(), 2 * 2 * 2);
    let pts = grid.points();
    assert_eq!(pts.len(), 8);
    // Every (combo, buffer, qdisc) combination appears exactly once.
    let mut seen = std::collections::HashSet::new();
    for p in &pts {
        let key = (
            p.combo.label,
            p.buffer_bdp.to_bits(),
            format!("{:?}", p.qdisc),
        );
        assert!(seen.insert(key), "duplicate grid point {p:?}");
    }
}

#[test]
fn parallel_run_is_deterministic() {
    // The engine runs under whatever global thread count the process has;
    // per-cell seeds derive from (grid seed, spec-content hash), so the
    // report must be bit-identical run-to-run regardless of scheduling.
    let grid = small_grid();
    let a = grid.run();
    let b = grid.run();
    assert_eq!(a.csv(), b.csv());
    assert_eq!(a.len(), 8);
    assert_eq!(a.backends, vec!["fluid", "packet"]);
    assert!(a.cells.iter().all(|c| c.outcomes.len() == 2));
    // A different seed must actually change the packet-sim columns.
    let c = small_grid().seed(43).run();
    assert_ne!(a.csv(), c.csv(), "seed must reach the packet simulator");
}

#[test]
fn fluid_and_packet_backends_agree_qualitatively() {
    // 2×2 grid (2 combos × 2 buffers), drop-tail only: the fluid model
    // and the packet simulator must tell the same coarse story — busy
    // link, no fairness collapse, bounded loss — per §4.3's validation.
    let report = small_grid().qdiscs(vec![QdiscKind::DropTail]).run();
    assert_eq!(report.len(), 4);
    for cell in &report.cells {
        let f = report.metrics(cell, "fluid").unwrap();
        let e = report.metrics(cell, "packet").unwrap();
        assert!(
            f.utilization_percent > 50.0,
            "fluid idle at {:?}",
            cell.point
        );
        assert!(
            e.utilization_percent > 50.0,
            "packet idle at {:?}",
            cell.point
        );
        assert!(f.jain > 0.5 && e.jain > 0.5, "unfair at {:?}", cell.point);
        assert!((0.0..=100.0).contains(&f.loss_percent));
        assert!((0.0..=100.0).contains(&e.loss_percent));
        // The two simulators land in the same utilization regime
        // (generous band: the packet sim has startup noise and
        // packet-granularity effects the fluid model idealizes away).
        let gap = (f.utilization_percent - e.utilization_percent).abs();
        assert!(
            gap < 40.0,
            "backends disagree by {gap} pp at {:?}",
            cell.point
        );
    }
    let mean_gap = report.mean_utilization_gap().unwrap();
    assert!(
        mean_gap < CONSISTENCY.util_pp,
        "mean utilization gap {mean_gap} pp"
    );
}

#[test]
fn parking_lot_cells_run_on_both_backends() {
    // The first genuinely new scenario family since the seed: parking-lot
    // cells flow through the very same sweep loop and SimBackend trait.
    let report = small_grid()
        .topologies(vec![TopologyKind::ParkingLot])
        .qdiscs(vec![QdiscKind::DropTail])
        .buffers_bdp(vec![3.0])
        .duration(1.5)
        .run();
    // 2 combos × 1 buffer × 1 qdisc (flow/RTT axes collapse).
    assert_eq!(report.len(), 2);
    for cell in &report.cells {
        assert_eq!(cell.point.topology, TopologyKind::ParkingLot);
        assert_eq!(cell.point.n, 3);
        let f = report.metrics(cell, "fluid").unwrap();
        let e = report.metrics(cell, "packet").unwrap();
        for (name, m) in [("fluid", f), ("packet", e)] {
            assert!(
                m.utilization_percent > 40.0,
                "{name} parking lot idle at {:?}: {}",
                cell.point,
                m.utilization_percent
            );
            assert!((0.0..=100.0).contains(&m.loss_percent), "{name} loss");
            assert!(m.jain > 0.3, "{name} jain {:.3}", m.jain);
        }
    }
    let table = report.table();
    assert!(
        table.contains("parklot"),
        "topology column missing:\n{table}"
    );
}

#[test]
fn mixed_topology_grid_is_deterministic() {
    let grid = small_grid()
        .with_parking_lot()
        .qdiscs(vec![QdiscKind::DropTail]);
    // Dumbbell 2×2 + parking lot 2×2 (buffer axis kept, flow/RTT axes
    // collapsed).
    assert_eq!(grid.len(), 4 + 4);
    let a = grid.run();
    let b = grid.run();
    assert_eq!(a.csv(), b.csv());
}

#[test]
fn chain_cells_run_on_both_backends_through_the_sweep() {
    // The ≥3-hop chain family used to be fluid-only; since the packet
    // engine learned general multi-link paths, chain cells fill both
    // backend columns and the grid has no unsupported (backend, cell)
    // pairs left.
    let report = small_grid()
        .topologies(vec![TopologyKind::Chain])
        .chain_hops(3)
        .qdiscs(vec![QdiscKind::DropTail])
        .buffers_bdp(vec![3.0])
        .duration(1.5)
        .run();
    assert_eq!(report.len(), 2); // 2 combos, collapsed flow/RTT axes
    for cell in &report.cells {
        assert_eq!(cell.point.topology, TopologyKind::Chain);
        assert_eq!(cell.point.n, 4); // hops + 1 flows
        let f = report.metrics(cell, "fluid").unwrap();
        let e = report
            .metrics(cell, "packet")
            .expect("packet must run chain cells since the path refactor");
        for (name, m) in [("fluid", f), ("packet", e)] {
            assert!(
                m.utilization_percent > 40.0,
                "{name} chain idle at {:?}: {}",
                cell.point,
                m.utilization_percent
            );
            assert!((0.0..=100.0).contains(&m.loss_percent), "{name} loss");
        }
        // Both engines land in the same utilization regime on chains.
        let gap = (f.utilization_percent - e.utilization_percent).abs();
        assert!(gap < 40.0, "chain gap {gap:.1} pp at {:?}", cell.point);
    }
    assert!(report.table().contains("chain"));
    // Determinism holds for the mixed all-topology grid too.
    let all = small_grid()
        .with_parking_lot()
        .with_chain()
        .qdiscs(vec![QdiscKind::DropTail]);
    assert_eq!(all.len(), 4 + 4 + 4);
    assert_eq!(all.run().csv(), all.run().csv());
}
