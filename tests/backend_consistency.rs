//! Cross-backend consistency through the unified `SimBackend` layer: the
//! paper's model-vs-simulation validation (§4.3) as executable checks,
//! the seed-derivation regression pins, and a property test that every
//! spec the sweep grid can emit runs on both backends.

use bbr_repro::experiments::compare::{CONSISTENCY, UNIVERSE};
use bbr_repro::experiments::scenarios::{COMBOS, DEPLOY_COMBOS};
use bbr_repro::experiments::sweep::{ScenarioGrid, TopologyKind};
use bbr_repro::fluid::prelude::*;
use bbr_repro::packetsim::backend::PacketBackend;
use bbr_repro::scenario::{CcaKind, CustomLink, CustomRoute, QdiscKind};
use proptest::prelude::*;

fn backends() -> Vec<Box<dyn SimBackend>> {
    vec![
        Box::new(FluidBackend::coarse()),
        Box::new(PacketBackend::new(1)),
    ]
}

#[test]
fn cubic_vs_bbrv1_dumbbell_agrees_across_backends() {
    // The paper's validation claim, as a hard check: for a 2-flow
    // CUBIC-vs-BBRv1 dumbbell, the fluid model and the packet simulator
    // must agree on bottleneck utilization and Jain fairness within the
    // consistency gates.
    let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
        .ccas(vec![CcaKind::Cubic, CcaKind::BbrV1])
        .duration(3.0)
        .warmup(1.0);
    let fluid = FluidBackend::coarse().run(&spec, 11);
    let packet = PacketBackend::new(1).run(&spec, 11);

    for o in [&fluid, &packet] {
        assert!(
            o.utilization_percent > 60.0,
            "{} idle: {:.1} %",
            o.backend,
            o.utilization_percent
        );
        assert_eq!(o.flows.len(), 2);
        assert_eq!(o.flows[0].cca, CcaKind::Cubic);
        assert_eq!(o.flows[1].cca, CcaKind::BbrV1);
    }
    let util_gap = (fluid.utilization_percent - packet.utilization_percent).abs();
    assert!(
        util_gap < CONSISTENCY.util_pp,
        "utilization gap {util_gap:.1} pp (fluid {:.1} vs packet {:.1})",
        fluid.utilization_percent,
        packet.utilization_percent
    );
    let jain_gap = (fluid.jain - packet.jain).abs();
    assert!(
        jain_gap < CONSISTENCY.jain,
        "Jain gap {jain_gap:.3} (fluid {:.3} vs packet {:.3})",
        fluid.jain,
        packet.jain
    );
}

#[test]
fn parking_lot_story_matches_across_backends() {
    // Both backends must reproduce the qualitative parking-lot outcome:
    // the multi-hop flow loses against both single-hop competitors.
    let spec = ScenarioSpec::parking_lot(50.0, 40.0, 0.010, 3.0)
        .ccas(vec![CcaKind::BbrV2])
        .duration(3.0)
        .warmup(1.0);
    for backend in backends() {
        let o = backend.run(&spec, 5);
        let t = o.throughputs();
        assert!(
            t[0] < t[1] && t[0] < t[2],
            "{}: multi-hop {:.1} vs {:.1}/{:.1}",
            backend.name(),
            t[0],
            t[1],
            t[2]
        );
        assert_eq!(o.per_link_utilization.len(), 2);
    }
}

#[test]
fn chain_story_matches_across_backends_within_tolerance() {
    // The last fluid-only scenario family, now on both engines: a
    // 3-hop chain must tell the same story on the fluid model and the
    // packet simulator — every hop busy, the end-to-end flow losing to
    // each single-hop cross flow — with the headline utilization inside
    // a quantitative tolerance band.
    let spec = ScenarioSpec::chain(3, 30.0, 0.010, 3.0)
        .ccas(vec![CcaKind::BbrV1])
        .duration(3.0)
        .warmup(1.0);
    let fluid = FluidBackend::coarse().run(&spec, 5);
    let packet = PacketBackend::new(1).run(&spec, 5);
    for o in [&fluid, &packet] {
        assert_eq!(o.flows.len(), 4);
        assert_eq!(o.per_link_utilization.len(), 3);
        let t = o.throughputs();
        for j in 1..4 {
            assert!(
                t[0] < t[j],
                "{}: e2e {:.1} vs cross-{j} {:.1}",
                o.backend,
                t[0],
                t[j]
            );
        }
        for (j, u) in o.per_link_utilization.iter().enumerate() {
            assert!(*u > 50.0, "{}: hop {j} idle ({u:.1} %)", o.backend);
        }
    }
    let gap = (fluid.utilization_percent - packet.utilization_percent).abs();
    assert!(
        gap < CONSISTENCY.util_pp,
        "chain utilization gap {gap:.1} pp (fluid {:.1} vs packet {:.1})",
        fluid.utilization_percent,
        packet.utilization_percent
    );
    let jain_gap = (fluid.jain - packet.jain).abs();
    assert!(
        jain_gap < CONSISTENCY.jain,
        "chain Jain gap {jain_gap:.3} (fluid {:.3} vs packet {:.3})",
        fluid.jain,
        packet.jain
    );
}

#[test]
fn bbrv2_deploy_dumbbell_agrees_across_backends() {
    // The deployment-grade tier maps to the same fluid BBRv2 model, so
    // its fluid-vs-packet gap must stay inside the same §4.3-style
    // tolerances as the classic tier — the `figures drift` audit
    // measures *where* inside that band each tier sits.
    let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
        .ccas(vec![CcaKind::BbrV2Deploy, CcaKind::Cubic])
        .duration(3.0)
        .warmup(1.0);
    let fluid = FluidBackend::coarse().run(&spec, 11);
    let packet = PacketBackend::new(1).run(&spec, 11);
    for o in [&fluid, &packet] {
        assert!(
            o.utilization_percent > 60.0,
            "{} idle: {:.1} %",
            o.backend,
            o.utilization_percent
        );
        // Outcomes report the spec's CCA tag, not the fluid model that
        // backs it.
        assert_eq!(o.flows[0].cca, CcaKind::BbrV2Deploy);
        assert_eq!(o.flows[1].cca, CcaKind::Cubic);
    }
    let util_gap = (fluid.utilization_percent - packet.utilization_percent).abs();
    assert!(
        util_gap < CONSISTENCY.util_pp,
        "utilization gap {util_gap:.1} pp (fluid {:.1} vs packet {:.1})",
        fluid.utilization_percent,
        packet.utilization_percent
    );
    let jain_gap = (fluid.jain - packet.jain).abs();
    assert!(
        jain_gap < CONSISTENCY.jain,
        "Jain gap {jain_gap:.3} (fluid {:.3} vs packet {:.3})",
        fluid.jain,
        packet.jain
    );
}

#[test]
fn bbrv2_deploy_runs_on_every_topology_family() {
    // Packet-backend coverage of the new tier across all three families
    // (the sweepability half is covered by the drift grid tests).
    for topo in [
        TopologyKind::Dumbbell,
        TopologyKind::ParkingLot,
        TopologyKind::Chain,
    ] {
        let grid = ScenarioGrid::new()
            .capacity(20.0)
            .combos(vec![DEPLOY_COMBOS[0]])
            .flow_counts(vec![3])
            .buffers_bdp(vec![2.0])
            .topologies(vec![topo])
            .duration(0.6)
            .warmup(0.2)
            .runs(1);
        for pt in grid.points() {
            let spec = grid.spec_for(&pt);
            spec.validate().unwrap();
            let o = PacketBackend::new(1).run(&spec, grid.cell_seed(&spec));
            assert_eq!(o.flows.len(), spec.n_flows());
            assert!(o.utilization_percent > 0.0, "{topo:?} moved no traffic");
            for f in &o.flows {
                assert_eq!(f.cca, CcaKind::BbrV2Deploy);
            }
        }
    }
}

#[test]
fn churn_is_honored_consistently_across_backends() {
    // A flow that exists for only the middle half of the window must
    // lose throughput on *both* engines, and the always-on competitor
    // must gain on both — churn is a scenario property, not a
    // backend-specific feature.
    let base = ScenarioSpec::dumbbell(2, 30.0, 0.010, 2.0)
        .ccas(vec![CcaKind::Reno])
        .duration(4.0)
        .warmup(1.0);
    let churned = base.clone().flow_window(1, 1.0, 3.0);
    for backend in backends() {
        let full = backend.run(&base, 17);
        let part = backend.run(&churned, 17);
        assert!(
            part.flows[1].throughput_mbps < 0.8 * full.flows[1].throughput_mbps,
            "{}: churned flow kept its throughput ({:.2} vs {:.2})",
            backend.name(),
            part.flows[1].throughput_mbps,
            full.flows[1].throughput_mbps
        );
        assert!(
            part.flows[0].throughput_mbps > full.flows[0].throughput_mbps,
            "{}: always-on flow failed to absorb freed capacity",
            backend.name()
        );
    }
}

#[test]
fn dumbbell_lowerings_carry_bit_equal_delays() {
    // Both engines lower a spec through the one shared layout
    // (`ScenarioSpec::layout`): each fluid link and packet link has the
    // same delay and a rate of exactly capacity·10⁶/8 bytes/s, each fluid
    // path and packet flow crosses the same links with the same access
    // and return delays, and the packet headline is the fluid network's
    // first minimum-capacity link, all to the bit. Dumbbells (default
    // and custom RTT spread), parking lots, chains, Custom specs (an
    // explicit access dumbbell and generated universe cells), and the
    // lowering pins' specs, where the packet buffer roundings differ.
    use bbr_repro::fluid::backend::network_for_spec;
    use bbr_repro::packetsim::backend::path_network_for_spec;
    use bbr_repro::scenario::dumbbell_access_delays;
    use bbr_repro::scenario::universe::generate_scenario;
    let mut specs = Vec::new();
    for n in [1, 5] {
        let default = ScenarioSpec::dumbbell(n, 100.0, 0.010, 2.0);
        specs.push(default.clone().rtt_range(0.021, 0.077));
        specs.push(default);
    }
    specs.push(ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0));
    specs.push(ScenarioSpec::parking_lot(40.0, 32.0, 0.007, 1.0));
    specs.push(ScenarioSpec::chain(3, 100.0, 0.010, 2.0));
    specs.push(ScenarioSpec::chain(4, 80.0, 0.007, 1.0));
    specs.push(ScenarioSpec::dumbbell_with_access(
        100.0,
        0.010,
        1.0,
        &[0.0056, 0.013, 0.0],
    ));
    specs.push(generate_scenario(1, 25).spec);
    specs.push(ScenarioSpec::dumbbell(3, 24.0, 0.010, 0.1));
    specs.push(ScenarioSpec::dumbbell_with_access(
        24.0,
        0.010,
        0.1,
        &dumbbell_access_delays(3, 0.010, 0.030, 0.040),
    ));
    specs.push(ScenarioSpec::parking_lot(24.0, 19.2, 0.010, 0.1));
    specs.push(ScenarioSpec::chain(3, 24.0, 0.010, 0.1));
    specs.push(generate_scenario(1, 6).spec);
    for spec in &specs {
        let net = network_for_spec(spec);
        let path = path_network_for_spec(spec);
        let topo = format!("{:?}", spec.topology);
        assert_eq!(net.links.len(), path.links.len(), "{topo}");
        for (j, (l, pl)) in net.links.iter().zip(&path.links).enumerate() {
            let what = format!("link {j} of {topo}");
            let rate = l.capacity * 1e6 / 8.0;
            assert_eq!(rate.to_bits(), pl.rate.to_bits(), "{what}");
            assert_eq!(l.prop_delay.to_bits(), pl.prop_delay.to_bits(), "{what}");
        }
        assert_eq!(net.paths.len(), spec.n_flows(), "{topo}");
        assert_eq!(path.flows.len(), spec.n_flows(), "{topo}");
        for (i, (p, f)) in net.paths.iter().zip(&path.flows).enumerate() {
            let what = format!("flow {i} of {topo}");
            let links: Vec<u32> = p.links.iter().map(|l| l.0 as u32).collect();
            assert_eq!(links, f.links, "{what}");
            assert_eq!(
                p.extra_fwd_delay.to_bits(),
                f.access_delay.to_bits(),
                "{what}"
            );
            assert_eq!(p.extra_bwd_delay.to_bits(), f.bwd_delay.to_bits(), "{what}");
        }
        let mut observed = 0;
        for (j, l) in net.links.iter().enumerate() {
            if l.capacity < net.links[observed].capacity {
                observed = j;
            }
        }
        assert_eq!(path.headline, observed, "headline of {topo}");
    }
}

#[test]
fn pinned_cell_seeds_are_stable() {
    // Regression pin for the seed-derivation scheme: seeds are a pure
    // function of (grid seed, spec contents). If this test fails, the
    // stable hash or the mixing changed and every recorded sweep seed
    // silently moves — bump these constants only on a deliberate format
    // change.
    let grid = ScenarioGrid::new().seed(42);
    let pts = grid.points();
    let s0 = grid.cell_seed(&grid.spec_for(&pts[0]));
    let s1 = grid.cell_seed(&grid.spec_for(&pts[1]));
    assert_eq!(s0, 0xd5db_5d8c_8e59_0972, "cell 0 seed moved");
    assert_eq!(s1, 0x2d2e_8530_2e4b_cda1, "cell 1 seed moved");
}

#[test]
fn cell_seeds_are_independent_of_grid_position() {
    // The footgun this scheme fixes: inserting an axis used to reshuffle
    // every per-cell seed because seeds came from the cell *index*.
    let base = ScenarioGrid::new().seed(42);
    let widened = ScenarioGrid::new()
        .seed(42)
        .qdiscs(vec![QdiscKind::Red, QdiscKind::DropTail]) // extra + reordered axis
        .flow_counts(vec![7, 4]);
    for pt in base.points() {
        let spec = base.spec_for(&pt);
        let twin = widened
            .points()
            .into_iter()
            .map(|p| widened.spec_for(&p))
            .find(|s| *s == spec)
            .expect("original cell must survive axis insertion");
        assert_eq!(base.cell_seed(&spec), widened.cell_seed(&twin));
    }
}

/// Strategy emitting arbitrary *valid* `Topology::Custom` scenarios:
/// 2–4 flows over a shared hub bottleneck, each flow optionally behind
/// a private access link, with randomized capacities, per-hop delays,
/// buffers, and per-route extra delays. Parameters follow the universe
/// generator's regime rules (bottleneck-first link table, access links
/// ≥ 2.5× the hub, ≥ 45-packet buffers, a rate-based CCA), because that
/// is the regime in which the fluid abstraction makes a quantitative
/// claim — the property under test is that *every* such spec validates
/// and lands inside the tolerance gates on both engines.
struct ArbitraryCustomSpec;

impl Strategy for ArbitraryCustomSpec {
    type Value = ScenarioSpec;

    fn generate(&self, rng: &mut TestRng) -> ScenarioSpec {
        let draw = |lo: f64, hi: f64, rng: &mut TestRng| lo + (hi - lo) * rng.next_f64();
        let buffered = |cap: f64, delay: f64, bdp: f64| CustomLink {
            capacity: cap,
            delay,
            // Same floor as the universe generator: 45 packets, so the
            // packet engine stays out of its sub-packet-buffer regime.
            buffer_bdp: bdp.max(67_500.0 * 8.0 / (cap * 1e6 * delay)),
        };
        let n = 2 + (rng.next_u64() % 3) as usize;
        let hub_cap = draw(8.0, 16.0, rng);
        let hub = buffered(hub_cap, draw(0.002, 0.006, rng), draw(2.0, 4.0, rng));
        let mut links = vec![hub];
        let mut routes = Vec::with_capacity(n);
        for _ in 0..n {
            let direct = rng.next_u64() & 1 == 0;
            let extras = (draw(0.001, 0.004, rng), draw(0.001, 0.004, rng));
            if direct {
                routes.push(CustomRoute::new(vec![0], extras.0, extras.1));
            } else {
                links.push(buffered(
                    draw(2.5 * hub_cap, 4.0 * hub_cap, rng),
                    draw(0.002, 0.006, rng),
                    draw(2.0, 4.0, rng),
                ));
                routes.push(CustomRoute::new(
                    vec![links.len() - 1, 0],
                    extras.0,
                    extras.1,
                ));
            }
        }
        ScenarioSpec::custom(links, routes)
            .ccas(vec![CcaKind::BbrV2])
            .duration(4.0)
            .warmup(1.0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Arbitrary valid custom topologies must agree across the fluid and
    // packet engines within the universe tolerance gates
    // (`bbr_experiments::compare::UNIVERSE`): the differential-harness
    // claim as a property rather than a pinned grid.
    #[test]
    fn arbitrary_custom_specs_agree_across_backends(spec in ArbitraryCustomSpec) {
        prop_assert!(spec.validate().is_ok(), "strategy emitted invalid spec {spec:?}");
        let fluid = FluidBackend::coarse().run(&spec, 23);
        let packet = PacketBackend::new(1).run(&spec, 23);
        for o in [&fluid, &packet] {
            prop_assert_eq!(o.flows.len(), spec.n_flows());
            prop_assert!(o.utilization_percent > 50.0,
                "{} idle on {}: {:.1} %", o.backend, spec.describe(), o.utilization_percent);
        }
        let util_gap = (fluid.utilization_percent - packet.utilization_percent).abs();
        prop_assert!(util_gap < UNIVERSE.util_pp,
            "utilization gap {util_gap:.1} pp (fluid {:.1} vs packet {:.1})",
            fluid.utilization_percent, packet.utilization_percent);
        let jain_gap = (fluid.jain - packet.jain).abs();
        prop_assert!(jain_gap < UNIVERSE.jain,
            "Jain gap {jain_gap:.3} (fluid {:.3} vs packet {:.3})", fluid.jain, packet.jain);
        let loss_gap = (fluid.loss_percent - packet.loss_percent).abs();
        prop_assert!(loss_gap < UNIVERSE.loss_pp,
            "loss gap {loss_gap:.2} pp (fluid {:.2} vs packet {:.2})",
            fluid.loss_percent, packet.loss_percent);
    }

    // Any spec the grid can emit must run on both backends without
    // panicking and produce sane metrics (tiny windows keep this cheap).
    #[test]
    fn any_grid_spec_runs_on_both_backends(
        combo in 0usize..7,
        n in 1usize..4,
        buffer in 0.5f64..4.0,
        red in proptest::bool::ANY,
        topo in 0usize..3,
    ) {
        let grid = ScenarioGrid::new()
            .capacity(20.0)
            .combos(vec![COMBOS[combo]])
            .flow_counts(vec![n])
            .buffers_bdp(vec![buffer])
            .qdiscs(vec![if red { QdiscKind::Red } else { QdiscKind::DropTail }])
            .topologies(vec![match topo {
                0 => TopologyKind::Dumbbell,
                1 => TopologyKind::ParkingLot,
                // Runs on both backends since the path-network refactor.
                _ => TopologyKind::Chain,
            }])
            .duration(0.4)
            .warmup(0.1)
            .runs(1);
        for pt in grid.points() {
            let spec = grid.spec_for(&pt);
            prop_assert!(spec.validate().is_ok(), "grid emitted invalid spec {spec:?}");
            let seed = grid.cell_seed(&spec);
            for backend in backends() {
                if !backend.supports(&spec) {
                    continue;
                }
                let o = backend.run(&spec, seed);
                prop_assert_eq!(o.flows.len(), spec.n_flows());
                prop_assert!((0.0..=100.0 + 1e-9).contains(&o.loss_percent));
                prop_assert!(o.utilization_percent.is_finite());
                prop_assert!(o.jain <= 1.0 + 1e-9);
            }
        }
    }
}
