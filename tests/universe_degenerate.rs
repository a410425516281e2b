//! Degenerate corners of the generated scenario universes: intervals
//! where *no* flow is active, flows whose every window closes before the
//! warm-up ends, Poisson arrival processes that never produce an
//! arrival, and the single-link `Topology::Custom` "dumbbell" that must
//! reproduce `Topology::Dumbbell` byte for byte on every engine wherever
//! the packet engine's two buffer roundings agree (see
//! `ScenarioSpec::layout`), as they do at the parameters used here. These
//! are the cells a seeded universe sweep will eventually draw; each must
//! simulate to defined, NaN-free metrics rather than a 0/0.

use bbr_repro::fluid::backend::FluidBackend;
use bbr_repro::fluidbatch::BatchedFluidBackend;
use bbr_repro::packetsim::backend::PacketBackend;
use bbr_repro::scenario::{
    CcaKind, CustomLink, CustomRoute, FlowSchedule, FlowWindow, RunOutcome, ScenarioSpec,
    SimBackend,
};

fn backends() -> Vec<Box<dyn SimBackend>> {
    vec![
        Box::new(FluidBackend::coarse()),
        Box::new(BatchedFluidBackend::coarse()),
        Box::new(PacketBackend::new(1)),
    ]
}

fn assert_no_nan(out: &RunOutcome, backend: &str) {
    for (name, v) in [
        ("jain", out.jain),
        ("loss", out.loss_percent),
        ("occupancy", out.occupancy_percent),
        ("utilization", out.utilization_percent),
        ("jitter", out.jitter_ms),
    ] {
        assert!(v.is_finite(), "{backend}: {name} is {v}");
    }
    for f in &out.flows {
        assert!(f.throughput_mbps.is_finite(), "{backend}: flow throughput");
    }
    for v in out
        .per_link_occupancy
        .iter()
        .chain(&out.per_link_utilization)
    {
        assert!(v.is_finite(), "{backend}: per-link metric is {v}");
    }
}

#[test]
fn zero_flow_interval_mid_run_keeps_metrics_defined() {
    // Both flows share a mid-run silence: the link carries *nothing*
    // between t=1 and t=2 while the measurement window spans the gap.
    // Aggregates must average through the dead interval, not NaN on it.
    let spec = ScenarioSpec::dumbbell(2, 30.0, 0.010, 2.0)
        .ccas(vec![CcaKind::BbrV2])
        .duration(3.0)
        .warmup(0.25)
        .flow_schedule(
            0,
            FlowSchedule::new(vec![
                FlowWindow::new(0.0, 1.0),
                FlowWindow::starting_at(2.0),
            ]),
        )
        .flow_schedule(
            1,
            FlowSchedule::new(vec![
                FlowWindow::new(0.0, 1.0),
                FlowWindow::starting_at(2.0),
            ]),
        );
    assert!(spec.validate().is_ok());
    for b in backends() {
        let out = b.run(&spec, 5);
        assert_no_nan(&out, b.name());
        for f in &out.flows {
            assert!(
                f.throughput_mbps > 1.0,
                "{}: flow starved across the gap ({:.2} Mbit/s)",
                b.name(),
                f.throughput_mbps
            );
        }
        // A third of the measurement window is dead air, so the link
        // cannot look saturated end to end.
        assert!(
            out.utilization_percent < 90.0,
            "{}: zero-flow interval not reflected ({:.1} %)",
            b.name(),
            out.utilization_percent
        );
    }
    // The fluid engines agree to the bit even across the dead interval.
    assert_eq!(
        FluidBackend::coarse().run(&spec, 5),
        BatchedFluidBackend::coarse().run(&spec, 5)
    );
}

#[test]
fn flow_whose_windows_all_close_before_warmup_measures_zero() {
    // Every window of flow 1 closes before the spec's warm-up length
    // has elapsed: the flow exists only during the transient and is long
    // gone for most of the run. Spec window times are measured from the
    // start of the measurement window (the packet engine shifts them by
    // `spec.warmup`; the fluid engines have no warm-up cut), so on every
    // backend the flow may show at most its small active-fraction
    // residual — bounded well below a live flow's share — and nothing
    // may NaN anywhere.
    let spec = ScenarioSpec::dumbbell(2, 30.0, 0.010, 2.0)
        .ccas(vec![CcaKind::Reno])
        .duration(1.5)
        .warmup(0.5)
        .flow_schedule(
            1,
            FlowSchedule::new(vec![FlowWindow::new(0.0, 0.2), FlowWindow::new(0.25, 0.4)]),
        );
    assert!(spec.validate().is_ok());
    for b in backends() {
        let out = b.run(&spec, 9);
        assert_no_nan(&out, b.name());
        // 0.35 s of activity in a 1.5 s run at a ≤15 Mbit/s fair share:
        // anything near a live flow's throughput means the stop leaked.
        assert!(
            out.flows[1].throughput_mbps < 5.0,
            "{}: a flow gone before warm-up still measured {:.2} Mbit/s",
            b.name(),
            out.flows[1].throughput_mbps
        );
        assert!(
            out.flows[0].throughput_mbps > 10.0,
            "{}: the always-on flow must be unaffected",
            b.name()
        );
    }
    // The fluid engines agree to the bit on the transient-only flow.
    assert_eq!(
        FluidBackend::coarse().run(&spec, 9),
        BatchedFluidBackend::coarse().run(&spec, 9)
    );
}

#[test]
fn never_activating_poisson_schedule_is_empty_and_inert() {
    // With a mean silent period 50× the horizon, this seed's Poisson
    // process produces no arrival at all — the schedule is *empty*, the
    // degenerate limit the generator documents. An empty schedule is
    // valid and means "never sends".
    let sched = FlowSchedule::poisson(7, 50.0, 1.0, 1.0);
    assert!(
        sched.windows.is_empty(),
        "expected a never-activating draw, got {:?}",
        sched.windows
    );
    assert_eq!(sched, FlowSchedule::never());

    let spec = ScenarioSpec::dumbbell(2, 30.0, 0.010, 2.0)
        .ccas(vec![CcaKind::BbrV2])
        .duration(1.0)
        .warmup(0.25)
        .flow_schedule(1, sched);
    assert!(spec.validate().is_ok());
    for b in backends() {
        let out = b.run(&spec, 13);
        assert_no_nan(&out, b.name());
        assert_eq!(
            out.flows[1].throughput_mbps,
            0.0,
            "{}: a never-activating flow must deliver nothing",
            b.name()
        );
        assert!(
            out.flows[0].throughput_mbps > 10.0,
            "{}: the solo survivor must fill the link",
            b.name()
        );
    }
}

#[test]
fn single_link_custom_dumbbell_is_byte_identical_to_dumbbell() {
    // The acid test of the Custom lowering: a one-link Custom spec whose
    // routes reproduce the dumbbell's evenly spread access delays must
    // yield *the same* network on every engine at these parameters, where
    // the dumbbell's and Custom's packet buffer roundings agree — so the
    // outcomes match under `RunOutcome: PartialEq`, which compares every
    // f64 exactly.
    let (n, capacity, delay, buffer_bdp) = (3usize, 30.0, 0.010, 2.0);
    let dumbbell = ScenarioSpec::dumbbell(n, capacity, delay, buffer_bdp)
        .ccas(vec![CcaKind::BbrV2, CcaKind::Reno])
        .duration(1.5)
        .warmup(0.25);

    // `ScenarioSpec::dumbbell` spreads propagation RTTs evenly over
    // [3·2·delay/2, 4·2·delay/2]; each sender's one-way access delay is
    // (rtt/2 − delay), and the return path adds the bottleneck delay
    // once more for a symmetric RTT.
    let (rtt_lo, rtt_hi) = (3.0 * delay, 4.0 * delay);
    let routes = (0..n)
        .map(|i| {
            let frac = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.5
            };
            let rtt = rtt_lo + frac * (rtt_hi - rtt_lo);
            let access = (rtt / 2.0 - delay).max(0.0);
            CustomRoute::new(vec![0], access, access + delay)
        })
        .collect();
    let custom = ScenarioSpec::custom(
        vec![CustomLink {
            capacity,
            delay,
            buffer_bdp,
        }],
        routes,
    )
    .ccas(vec![CcaKind::BbrV2, CcaKind::Reno])
    .duration(1.5)
    .warmup(0.25);
    assert!(custom.validate().is_ok());

    // Same engine, same seed, both topologies: byte-identical outcomes
    // on the scalar fluid model, the batched integrator, and the packet
    // simulator alike.
    for b in backends() {
        let d = b.run(&dumbbell, 17);
        let c = b.run(&custom, 17);
        assert_eq!(
            d,
            c,
            "{}: custom single-link dumbbell diverged from Topology::Dumbbell",
            b.name()
        );
    }

    // The two specs still hash apart — Custom cells get their own store
    // keys even when they simulate identically.
    assert_ne!(dumbbell.stable_hash(), custom.stable_hash());
}
