//! Integration tests: qualitative agreement between the fluid model and
//! the packet-level simulator — the essence of the paper's validation
//! methodology (§4).

use bbr_repro::fluid::cca::CcaKind;
use bbr_repro::fluid::prelude::*;
use bbr_repro::packetsim::dumbbell::{run_dumbbell, DumbbellSpec, PacketSimReport};
use bbr_repro::packetsim::engine::SimConfig;

fn fluid(kinds: &[CcaKind], buffer: f64, qdisc: QdiscKind) -> AggregateMetrics {
    let scenario = Scenario::dumbbell(6, 100.0, 0.010, buffer, qdisc)
        .rtt_range(0.030, 0.040)
        .config(ModelConfig::coarse());
    let mut sim = scenario.build(kinds).expect("valid scenario");
    sim.run(4.0)
}

fn packet(kinds: &[CcaKind], buffer: f64, qdisc: QdiscKind) -> PacketSimReport {
    let spec = DumbbellSpec::new(6, 100.0, 0.010, buffer, qdisc)
        .rtt_range(0.030, 0.040)
        .ccas(kinds.to_vec());
    let cfg = SimConfig {
        duration: 5.0,
        warmup: 1.0,
        seed: 11,
        ..Default::default()
    };
    run_dumbbell(&spec, &cfg)
}

#[test]
fn both_simulators_show_bbrv1_dominating_reno() {
    let f = fluid(&[CcaKind::BbrV1, CcaKind::Reno], 1.0, QdiscKind::DropTail);
    let p = packet(&[CcaKind::BbrV1, CcaKind::Reno], 1.0, QdiscKind::DropTail);
    let f_ratio = f.mean_rates[0] / f.mean_rates[1].max(0.01);
    let p_bbr: f64 = p.flows.iter().step_by(2).map(|x| x.throughput_mbps).sum();
    let p_reno: f64 = p
        .flows
        .iter()
        .skip(1)
        .step_by(2)
        .map(|x| x.throughput_mbps)
        .sum();
    assert!(f_ratio > 2.0, "fluid ratio {f_ratio:.2}");
    assert!(
        p_bbr > 2.0 * p_reno,
        "packet: BBRv1 {p_bbr:.1} vs Reno {p_reno:.1}"
    );
}

#[test]
fn both_simulators_show_bbrv1_loss_decreasing_with_buffer() {
    let f1 = fluid(&[CcaKind::BbrV1], 1.0, QdiscKind::DropTail);
    let f4 = fluid(&[CcaKind::BbrV1], 4.0, QdiscKind::DropTail);
    assert!(
        f1.loss_percent > f4.loss_percent,
        "fluid: {:.2} % @1BDP vs {:.2} % @4BDP",
        f1.loss_percent,
        f4.loss_percent
    );
    let p1 = packet(&[CcaKind::BbrV1], 1.0, QdiscKind::DropTail);
    let p4 = packet(&[CcaKind::BbrV1], 4.0, QdiscKind::DropTail);
    assert!(
        p1.loss_percent > p4.loss_percent,
        "packet: {:.2} % @1BDP vs {:.2} % @4BDP",
        p1.loss_percent,
        p4.loss_percent
    );
}

#[test]
fn both_simulators_show_full_bbrv1_utilization() {
    let f = fluid(&[CcaKind::BbrV1], 2.0, QdiscKind::DropTail);
    let p = packet(&[CcaKind::BbrV1], 2.0, QdiscKind::DropTail);
    assert!(
        f.utilization_percent > 95.0,
        "fluid {}",
        f.utilization_percent
    );
    assert!(
        p.utilization_percent > 90.0,
        "packet {}",
        p.utilization_percent
    );
}

#[test]
fn both_simulators_show_homogeneous_fairness() {
    // One shared kind drives both backends since the CCA unification.
    for kind in [CcaKind::Reno, CcaKind::BbrV2] {
        let f = fluid(&[kind], 2.0, QdiscKind::DropTail);
        let p = packet(&[kind], 2.0, QdiscKind::DropTail);
        assert!(f.jain > 0.85, "fluid {kind}: jain {:.3}", f.jain);
        assert!(p.jain > 0.7, "packet {kind}: jain {:.3}", p.jain);
    }
}

#[test]
fn red_reduces_queueing_for_bbrv1_in_both() {
    let f_dt = fluid(&[CcaKind::BbrV1], 2.0, QdiscKind::DropTail);
    let f_red = fluid(&[CcaKind::BbrV1], 2.0, QdiscKind::Red);
    assert!(
        f_red.occupancy_percent < f_dt.occupancy_percent,
        "fluid: RED {:.1} % vs drop-tail {:.1} %",
        f_red.occupancy_percent,
        f_dt.occupancy_percent
    );
    let p_dt = packet(&[CcaKind::BbrV1], 2.0, QdiscKind::DropTail);
    let p_red = packet(&[CcaKind::BbrV1], 2.0, QdiscKind::Red);
    assert!(
        p_red.occupancy_percent < p_dt.occupancy_percent,
        "packet: RED {:.1} % vs drop-tail {:.1} %",
        p_red.occupancy_percent,
        p_dt.occupancy_percent
    );
}

#[test]
fn jitter_is_underestimated_by_the_fluid_model() {
    // §4.3.5 / Insight 9: fluid models cannot capture packet-granularity
    // jitter; the experiment jitter exceeds the model's.
    let f = fluid(&[CcaKind::Reno], 2.0, QdiscKind::DropTail);
    let p = packet(&[CcaKind::Reno], 2.0, QdiscKind::DropTail);
    assert!(
        p.jitter_ms > f.jitter_ms,
        "packet jitter {:.4} ms must exceed fluid jitter {:.4} ms",
        p.jitter_ms,
        f.jitter_ms
    );
}
