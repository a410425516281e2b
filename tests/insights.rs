//! Integration tests: the paper's Insights 1–6 (§6.1) reproduced on the
//! fluid model with coarse (fast) numerics.

use bbr_repro::fluid::cca::CcaKind;
use bbr_repro::fluid::prelude::*;

fn run_combo(kinds: &[CcaKind], buffer_bdp: f64, qdisc: QdiscKind) -> AggregateMetrics {
    let scenario = Scenario::dumbbell(10, 100.0, 0.010, buffer_bdp, qdisc)
        .rtt_range(0.030, 0.040)
        .config(ModelConfig::coarse());
    let mut sim = scenario.build(kinds).expect("valid scenario");
    sim.run(5.0)
}

#[test]
fn insight1_loss_rates_of_ccas() {
    // BBRv1 causes considerable loss (up to ~20 %), loss-sensitive CCAs
    // stay around or below ~1 % under drop-tail.
    let bbr1 = run_combo(&[CcaKind::BbrV1], 1.0, QdiscKind::DropTail);
    assert!(
        bbr1.loss_percent > 5.0,
        "BBRv1 shallow-buffer loss = {:.2} %, expected substantial",
        bbr1.loss_percent
    );
    assert!(bbr1.loss_percent <= 25.0);
    for kinds in [[CcaKind::Reno], [CcaKind::Cubic], [CcaKind::BbrV2]] {
        let m = run_combo(&kinds, 2.0, QdiscKind::DropTail);
        assert!(
            m.loss_percent < 2.0,
            "{}: loss = {:.2} %",
            kinds[0],
            m.loss_percent
        );
    }
}

#[test]
fn insight2_bbrv1_unfair_to_loss_based() {
    // Near starvation of Reno in shallow drop-tail buffers...
    let shallow = run_combo(&[CcaKind::BbrV1, CcaKind::Reno], 1.0, QdiscKind::DropTail);
    assert!(
        shallow.jain < 0.75,
        "shallow-buffer Jain = {:.3}, expected strong unfairness",
        shallow.jain
    );
    let bbr_rate: f64 = shallow.mean_rates.iter().step_by(2).sum::<f64>();
    let reno_rate: f64 = shallow.mean_rates.iter().skip(1).step_by(2).sum::<f64>();
    assert!(
        bbr_rate > 3.0 * reno_rate,
        "BBRv1 {bbr_rate:.1} vs Reno {reno_rate:.1} Mbit/s"
    );
    // ...improving in large drop-tail buffers where the 2-BDP window
    // becomes effective.
    let deep = run_combo(&[CcaKind::BbrV1, CcaKind::Reno], 6.0, QdiscKind::DropTail);
    assert!(
        deep.jain > shallow.jain + 0.1,
        "deep {:.3} vs shallow {:.3}",
        deep.jain,
        shallow.jain
    );
    // Under RED the unfairness persists at every buffer size.
    let red = run_combo(&[CcaKind::BbrV1, CcaKind::Reno], 6.0, QdiscKind::Red);
    assert!(red.jain < 0.75, "RED deep-buffer Jain = {:.3}", red.jain);
}

#[test]
fn insight3_bbrv1_utilization_and_bufferbloat() {
    for qdisc in [QdiscKind::DropTail, QdiscKind::Red] {
        let m = run_combo(&[CcaKind::BbrV1], 2.0, qdisc);
        assert!(
            m.utilization_percent > 95.0,
            "{qdisc:?}: utilization {:.1} %",
            m.utilization_percent
        );
    }
    // Bufferbloat under drop-tail: most of the buffer stays occupied.
    let m = run_combo(&[CcaKind::BbrV1], 2.0, QdiscKind::DropTail);
    assert!(
        m.occupancy_percent > 50.0,
        "occupancy {:.1} %",
        m.occupancy_percent
    );
}

#[test]
fn insight4_bbrv2_achieves_redesign_goals() {
    let v1 = run_combo(&[CcaKind::BbrV1], 3.0, QdiscKind::DropTail);
    let v2 = run_combo(&[CcaKind::BbrV2], 3.0, QdiscKind::DropTail);
    // Reduced buffer usage and loss vs BBRv1.
    assert!(
        v2.occupancy_percent < v1.occupancy_percent,
        "v2 occ {:.1} vs v1 occ {:.1}",
        v2.occupancy_percent,
        v1.occupancy_percent
    );
    assert!(v2.loss_percent < v1.loss_percent);
    // Fairness towards loss-based CCAs restored in drop-tail buffers.
    let mix = run_combo(&[CcaKind::BbrV2, CcaKind::Reno], 2.0, QdiscKind::DropTail);
    let v1mix = run_combo(&[CcaKind::BbrV1, CcaKind::Reno], 2.0, QdiscKind::DropTail);
    assert!(
        mix.jain > v1mix.jain,
        "BBRv2/Reno Jain {:.3} must beat BBRv1/Reno {:.3}",
        mix.jain,
        v1mix.jain
    );
}

#[test]
fn insight5_bufferbloat_with_loose_inflight_hi() {
    use bbr_repro::fluid::cca::{BbrV2, FluidCca, WhiInit};
    // With a tight inflight_hi the absolute queue stays flat; with an
    // unset/loose one (deep-buffer start-up), occupancy grows.
    let mut occ = Vec::new();
    for init in [WhiInit::Tight { factor: 1.25 }, WhiInit::Unset] {
        // Reference-implementation inflight_lo semantics (unset until
        // loss), under which the 2-BDP fallback can bind.
        let cfg = ModelConfig {
            bbr2_wlo_unset: true,
            ..ModelConfig::coarse()
        };
        let scenario = Scenario::dumbbell(10, 100.0, 0.010, 6.0, QdiscKind::DropTail)
            .rtt_range(0.030, 0.040)
            .config(cfg);
        let mut sim = scenario
            .build_with(|_i, hint, cfg| {
                Box::new(BbrV2::with_whi_init(hint, cfg, init)) as Box<dyn FluidCca>
            })
            .unwrap();
        occ.push(sim.run(5.0).occupancy_percent);
    }
    assert!(
        occ[1] > occ[0],
        "unset inflight_hi must buffer more: tight {:.1} % vs unset {:.1} %",
        occ[0],
        occ[1]
    );
}

#[test]
fn insight6_bbrv2_vs_loss_based_under_red() {
    // BBRv2 claims more than its fair share against Reno/CUBIC under
    // RED, where the loss-based CCAs' higher loss sensitivity shows.
    for partner in [CcaKind::Reno, CcaKind::Cubic] {
        let m = run_combo(&[CcaKind::BbrV2, partner], 2.0, QdiscKind::Red);
        let v2: f64 = m.mean_rates.iter().step_by(2).sum();
        let other: f64 = m.mean_rates.iter().skip(1).step_by(2).sum();
        assert!(
            v2 > other,
            "BBRv2 {v2:.1} vs {partner} {other:.1} Mbit/s under RED"
        );
    }
}
