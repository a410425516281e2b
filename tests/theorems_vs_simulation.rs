//! Integration tests: the §5 closed-form equilibria against the *full*
//! fluid model (not just the reduced one) — theory and simulation must
//! agree on the macroscopic operating point.

use bbr_repro::analysis::reduced_v1::ReducedParams;
use bbr_repro::analysis::reduced_v2;
use bbr_repro::fluid::cca::CcaKind;
use bbr_repro::fluid::prelude::*;

#[test]
fn theorem1_queue_matches_full_model() {
    // Deep buffer, homogeneous BBRv1, equal RTTs: the full fluid model
    // should settle near q* = d·C (RTT doubles: τ → 2·τ_prop).
    let d = 0.032; // total propagation RTT
    let spec = ScenarioSpec::dumbbell(5, 100.0, 0.010, 6.0)
        .rtt_range(d, d)
        .ccas(vec![CcaKind::BbrV1]);
    let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
    sim.run(6.0);
    sim.reset_metrics();
    let m = sim.run(4.0);
    let q_star = d * 100.0; // Mbit
                            // Buffer: 6 × link BDP = 6 × 100 Mbit/s × 10 ms = 6 Mbit.
    let buffer = 6.0 * 100.0 * 0.010;
    let occ_star = 100.0 * q_star / buffer;
    assert!(
        (m.occupancy_percent - occ_star).abs() < 0.35 * occ_star,
        "occupancy {:.1} % vs Theorem-1 prediction {:.1} %",
        m.occupancy_percent,
        occ_star
    );
}

#[test]
fn theorem3_loss_matches_full_model() {
    // Shallow buffer: Theorem 3 predicts aggregate rate 5N/(4N+1)·C,
    // i.e. loss ≈ 1 − (4N+1)/(5N) (≈ 17.1 % for N = 10, ignoring the
    // probing microstructure). The full model should produce loss in
    // that ballpark.
    let n = 10;
    let p = ReducedParams::new(n, 100.0, 0.035);
    let predicted = 100.0 * (1.0 - 100.0 / (n as f64 * p.eq_rate_shallow()));
    let spec = ScenarioSpec::dumbbell(n, 100.0, 0.010, 0.5)
        .rtt_range(0.030, 0.040)
        .ccas(vec![CcaKind::BbrV1]);
    let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
    sim.run(3.0);
    sim.reset_metrics();
    let m = sim.run(3.0);
    assert!(
        (m.loss_percent - predicted).abs() < 8.0,
        "loss {:.1} % vs Theorem-3 prediction {predicted:.1} %",
        m.loss_percent
    );
}

#[test]
fn theorem4_queue_matches_full_model() {
    // BBRv2 in a deep buffer with equal RTTs: Theorem 4 predicts
    // q* = (N−1)/(4N+1)·d·C — far below BBRv1's d·C. The full model has
    // probing/cruising microstructure, so check (a) the time-average is
    // in the right region and (b) clearly below BBRv1's equilibrium.
    let d = 0.032;
    let n = 5;
    let spec = ScenarioSpec::dumbbell(n, 100.0, 0.010, 6.0)
        .rtt_range(d, d)
        .ccas(vec![CcaKind::BbrV2]);
    let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
    sim.run(6.0);
    sim.reset_metrics();
    let m = sim.run(4.0);
    let p = ReducedParams::new(n, 100.0, d);
    let q_v2 = reduced_v2::eq_queue(&p);
    let q_v1 = p.eq_queue_deep();
    let buffer = 6.0 * 100.0 * 0.010;
    let occ_v2 = 100.0 * q_v2 / buffer;
    let occ_v1 = 100.0 * q_v1 / buffer;
    assert!(
        m.occupancy_percent < 0.5 * (occ_v2 + occ_v1),
        "BBRv2 occupancy {:.2} % should be near {occ_v2:.2} %, far below BBRv1's {occ_v1:.2} %",
        m.occupancy_percent
    );
}

#[test]
fn bbrv2_fairness_beats_bbrv1_in_deep_buffers_with_rtt_heterogeneity() {
    // Theorem 4's equilibrium is inherently fair; Theorem 1's need not
    // be. With heterogeneous RTTs in deep buffers the fluid model shows
    // BBRv1 RTT-unfairness (§4.3.1) while BBRv2 converges close to fair.
    let mk = |kind: CcaKind| {
        let spec = ScenarioSpec::dumbbell(6, 100.0, 0.010, 6.0)
            .rtt_range(0.030, 0.040)
            .ccas(vec![kind]);
        let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
        sim.run(5.0);
        sim.reset_metrics();
        sim.run(5.0).jain
    };
    let v1 = mk(CcaKind::BbrV1);
    let v2 = mk(CcaKind::BbrV2);
    assert!(
        v2 >= v1 - 0.02,
        "BBRv2 Jain {v2:.3} should not be below BBRv1's {v1:.3}"
    );
}
