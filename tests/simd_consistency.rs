//! The SIMD-vs-scalar consistency test-matrix: the packed
//! `SimdFluidBackend` is **tolerance-bound**, not byte-bound — its
//! transcendental lane kernels (`exp4`/`pow4`/`cbrt4`) are faithful but
//! not bit-identical to libm, so it reports the distinct backend name
//! `"fluid-simd"` and promises agreement with the scalar `fluid` column
//! within the cross-backend tolerances of `tests/backend_consistency.rs`
//! (`bbr_experiments::compare::CONSISTENCY`). In practice the packed
//! engine tracks the scalar one to sub-percent throughput; the asserts
//! here check the promised contract, and a few tighter spot checks keep
//! the practical gap from regressing silently.

use bbr_repro::experiments::compare::CONSISTENCY;
use bbr_repro::experiments::scenarios::COMBOS;
use bbr_repro::experiments::sweep::{Backend, ScenarioGrid, TopologyKind};
use bbr_repro::fluid::backend::FluidBackend;
use bbr_repro::fluidbatch::SimdFluidBackend;
use bbr_repro::scenario::{CcaKind, QdiscKind, RunOutcome, ScenarioSpec, SimBackend};
use proptest::prelude::*;

/// The tolerance contract shared with `tests/backend_consistency.rs`.
fn assert_within_tolerances(scalar: &RunOutcome, simd: &RunOutcome, ctx: &dyn std::fmt::Debug) {
    let util_gap = (scalar.utilization_percent - simd.utilization_percent).abs();
    assert!(
        util_gap < CONSISTENCY.util_pp,
        "utilization gap {util_gap:.2} pp out of tolerance: {ctx:?}"
    );
    let jain_gap = (scalar.jain - simd.jain).abs();
    assert!(
        jain_gap < CONSISTENCY.jain,
        "Jain gap {jain_gap:.3} out of tolerance: {ctx:?}"
    );
}

/// Per-family consistency on a hand-picked spec set covering every
/// topology family, all four CCAs, both qdiscs, and mixed-CCA cells —
/// with a tighter-than-contract throughput spot check (the packed
/// kernels agree to well under 1% in practice).
#[test]
fn per_family_simd_consistency() {
    let specs = [
        ScenarioSpec::dumbbell(1, 50.0, 0.010, 1.0).duration(0.8),
        ScenarioSpec::dumbbell(6, 100.0, 0.010, 4.0)
            .ccas(vec![CcaKind::BbrV1, CcaKind::BbrV2])
            .qdisc(QdiscKind::Red)
            .duration(0.7),
        ScenarioSpec::dumbbell(3, 80.0, 0.008, 2.0)
            .ccas(vec![CcaKind::Cubic, CcaKind::Reno])
            .rtt_range(0.010, 0.020)
            .duration(0.6),
        ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0)
            .ccas(vec![CcaKind::BbrV1])
            .duration(0.6),
        ScenarioSpec::parking_lot(60.0, 60.0, 0.012, 1.0)
            .ccas(vec![CcaKind::BbrV2, CcaKind::Cubic])
            .qdisc(QdiscKind::Red)
            .duration(0.5),
        ScenarioSpec::chain(3, 100.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV1])
            .duration(0.5),
        ScenarioSpec::chain(5, 50.0, 0.010, 1.0)
            .ccas(vec![CcaKind::Reno, CcaKind::BbrV2])
            .qdisc(QdiscKind::Red)
            .duration(0.4),
    ];
    let scalar = FluidBackend::coarse();
    let simd = SimdFluidBackend::coarse();
    for spec in &specs {
        let want = scalar.run(spec, 7);
        let got = simd.run(spec, 7);
        assert_eq!(got.backend, "fluid-simd", "distinct column name");
        assert_within_tolerances(&want, &got, &spec.topology);
        // Practical-gap regression guard: mean rates within 1%.
        let a: f64 = want.flows.iter().map(|f| f.throughput_mbps).sum();
        let b: f64 = got.flows.iter().map(|f| f.throughput_mbps).sum();
        assert!(
            (a - b).abs() <= 0.01 * a.max(1.0),
            "throughput drifted >1%: scalar {a:.3} vs simd {b:.3} ({:?})",
            spec.topology
        );
    }
}

/// The grid engine end to end: `Backend::FluidSimd` reports its own
/// `"fluid-simd"` column, covers exactly the cells the scalar grid
/// covers, and every cell's metrics honor the tolerance contract.
#[test]
fn grid_simd_consistency() {
    let grid = ScenarioGrid::new()
        .capacity(50.0)
        .combos(vec![COMBOS[1], COMBOS[5]])
        .flow_counts(vec![2, 5])
        .buffers_bdp(vec![1.0, 4.0])
        .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red])
        .topologies(vec![
            TopologyKind::Dumbbell,
            TopologyKind::ParkingLot,
            TopologyKind::Chain,
        ])
        .duration(0.4)
        .warmup(0.1);
    let scalar = grid.clone().backend(Backend::Fluid).run();
    let simd = grid.clone().backend(Backend::FluidSimd).run();
    assert_eq!(scalar.backends, vec!["fluid"]);
    assert_eq!(simd.backends, vec!["fluid-simd"]);
    assert_eq!(scalar.len(), simd.len());
    for (a, b) in scalar.cells.iter().zip(&simd.cells) {
        let m = scalar.metrics(a, "fluid").expect("scalar cell");
        let s = simd.metrics(b, "fluid-simd").expect("simd cell");
        let util_gap = (m.utilization_percent - s.utilization_percent).abs();
        let jain_gap = (m.jain - s.jain).abs();
        assert!(
            util_gap < CONSISTENCY.util_pp && jain_gap < CONSISTENCY.jain,
            "grid cell out of tolerance ({util_gap:.2} pp, {jain_gap:.3}): {:?}",
            a.point
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Any spec the sweep grid can emit agrees scalar-vs-SIMD within the
    // cross-backend tolerances, whatever the pack composition: the grid
    // batch hands the packed engine every expanded cell at once, so
    // same-structure cells pack four-wide and stragglers pad. Tiny
    // windows keep this cheap.
    #[test]
    fn any_grid_spec_simd_within_tolerances(
        combo_a in 0usize..7,
        combo_b in 0usize..7,
        n in 1usize..5,
        extra_n in 1usize..5,
        buffer in 0.5f64..4.0,
        red in proptest::bool::ANY,
        topo in 0usize..3,
    ) {
        let grid = ScenarioGrid::new()
            .capacity(20.0)
            .combos(vec![COMBOS[combo_a], COMBOS[combo_b]])
            .flow_counts(vec![n, n + extra_n])
            .buffers_bdp(vec![buffer, 2.0 * buffer])
            .qdiscs(vec![if red { QdiscKind::Red } else { QdiscKind::DropTail }])
            .topologies(vec![match topo {
                0 => TopologyKind::Dumbbell,
                1 => TopologyKind::ParkingLot,
                _ => TopologyKind::Chain,
            }])
            .duration(0.3)
            .warmup(0.1)
            .runs(1);
        let specs: Vec<ScenarioSpec> = grid.points().iter().map(|p| grid.spec_for(p)).collect();
        let jobs: Vec<(&ScenarioSpec, u64)> = specs
            .iter()
            .map(|s| (s, grid.cell_seed(s)))
            .collect();
        let batch = bbr_repro::scenario::BatchSimBackend::run_batch(
            &SimdFluidBackend::coarse(),
            &jobs,
        );
        let scalar = FluidBackend::coarse();
        for ((spec, seed), out) in jobs.iter().zip(&batch) {
            let want = scalar.run(spec, *seed);
            prop_assert_eq!(out.backend, "fluid-simd");
            let util_gap = (want.utilization_percent - out.utilization_percent).abs();
            let jain_gap = (want.jain - out.jain).abs();
            prop_assert!(
                util_gap < CONSISTENCY.util_pp && jain_gap < CONSISTENCY.jain,
                "{:?}: util gap {} pp, jain gap {}",
                spec.topology, util_gap, jain_gap
            );
        }
    }
}
