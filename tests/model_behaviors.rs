//! Integration tests of finer fluid-model behaviours: the RTT
//! unfairness of BBRv1 in deep buffers (§4.3.1), ProbeRTT cycling,
//! multi-link loss accumulation, and RED-vs-drop-tail contrasts.

use std::sync::Arc;

use bbr_repro::experiments::tracefmt::CellTrace;
use bbr_repro::fluid::cca::{AnyCca, BbrV1, CcaKind};
use bbr_repro::fluid::prelude::*;
use bbr_repro::fluid::topology::{LinkId, LinkSpec, Network, PathSpec};
use bbr_telemetry::trace::{Recorder, TraceConfig};
use bbr_telemetry::MemorySink;

/// Run `sim` for `duration` seconds under an in-memory recorder that
/// samples every `stride` coarse integration steps.
fn run_traced(sim: &mut Simulator, stride: usize, duration: f64) -> (AggregateMetrics, CellTrace) {
    let sink = Arc::new(MemorySink::new());
    let config = TraceConfig {
        interval: stride as f64 * ModelConfig::coarse().dt,
        ..TraceConfig::default()
    };
    sim.record(Recorder::new(config, sink.clone()));
    let metrics = sim.run(duration);
    (metrics, CellTrace::from_events(&sink.take(), 0))
}

#[test]
fn bbrv1_rtt_unfairness_in_deep_buffers() {
    // §4.3.1: in deep drop-tail buffers the fluid model predicts that
    // BBRv1 flows with *lower* RTT are throttled by their smaller 2-BDP
    // window, so higher-RTT flows win. Use a strong RTT difference.
    let spec = ScenarioSpec::dumbbell_with_access(100.0, 0.010, 6.0, &[0.002, 0.040])
        .ccas(vec![CcaKind::BbrV1]);
    let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
    sim.run(6.0);
    sim.reset_metrics();
    let m = sim.run(6.0);
    let low_rtt = m.mean_rates[0];
    let high_rtt = m.mean_rates[1];
    assert!(
        high_rtt > 1.3 * low_rtt,
        "deep buffer: high-RTT flow {high_rtt:.1} must beat low-RTT flow {low_rtt:.1}"
    );
}

#[test]
fn bbrv1_probe_rtt_cycle_in_full_model() {
    // A single BBRv1 flow with an empty-queue equilibrium never
    // re-observes a smaller RTT, so it enters ProbeRTT every 10 s and
    // dips its rate to 4 segments/RTT for 200 ms.
    let spec =
        ScenarioSpec::dumbbell_with_access(50.0, 0.010, 2.0, &[0.0056]).ccas(vec![CcaKind::BbrV1]);
    let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
    let (_, trace) = run_traced(&mut sim, 20, 11.0);
    let flow = &trace.flows[0];
    // Find the minimum rate after t = 9.5 s: the ProbeRTT dip.
    let min_after: f64 = flow
        .t
        .iter()
        .zip(&flow.rate_mbps)
        .filter(|(t, _)| **t > 9.5)
        .map(|(_, x)| *x)
        .fold(f64::INFINITY, f64::min);
    let mss = ModelConfig::default().mss;
    let dip_bound = 8.0 * mss / 0.0312; // well below cruise, near 4 MSS/RTT
    assert!(
        min_after < dip_bound,
        "expected a ProbeRTT dip below {dip_bound:.2} Mbit/s, got min {min_after:.2}"
    );
    // And the rate before 9.5 s stays high.
    let min_before: f64 = flow
        .t
        .iter()
        .zip(&flow.rate_mbps)
        .filter(|(t, _)| **t > 1.0 && **t < 9.0)
        .map(|(_, x)| *x)
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_before > 10.0,
        "no dip expected before 9.5 s, got min {min_before:.2}"
    );
}

#[test]
fn multi_link_path_accumulates_latency_and_loss() {
    // Two queued links in series: the path RTT includes both queues and
    // the path loss approximates the sum of link losses (Eq. (7)).
    let cfg = ModelConfig::coarse();
    let net = Network {
        links: vec![
            LinkSpec {
                capacity: 50.0,
                buffer: 0.5,
                prop_delay: 0.010,
                qdisc: QdiscKind::DropTail,
            },
            LinkSpec {
                capacity: 45.0,
                buffer: 0.5,
                prop_delay: 0.010,
                qdisc: QdiscKind::DropTail,
            },
        ],
        paths: vec![PathSpec {
            links: vec![LinkId(0), LinkId(1)],
            extra_fwd_delay: 0.005,
            extra_bwd_delay: 0.005,
        }],
    };
    let hint = bbr_repro::fluid::cca::ScenarioHint {
        capacity: 45.0,
        prop_rtt: net.prop_rtt(0),
        n_agents: 1,
        buffer: 0.5,
        agent_index: 0,
    };
    let agents = vec![AnyCca::BbrV1(BbrV1::new(&hint, &cfg).with_x_btl(48.0))];
    let mut sim = Simulator::new(net, cfg, agents, &[]).unwrap();
    let (metrics, trace) = run_traced(&mut sim, 50, 3.0);
    // Propagation RTT: 0.005 + 0.01 + 0.02 (two links) + 0.005 = 0.03 s…
    // here both links have 0.01 s: prop RTT = 0.03 s.
    let prop = 0.03;
    // The second (slower) link must queue at some point; at the sample
    // of maximum backlog, the path RTT must include that queueing delay.
    let (k, frac) = trace.links[1]
        .queue_frac
        .iter()
        .cloned()
        .enumerate()
        .fold((0, 0.0), |acc, (i, q)| if q > acc.1 { (i, q) } else { acc });
    let q2 = frac * 0.5; // Mbit: both buffers hold 0.5 Mbit
    let tau = trace.flows[0].rtt_s[k];
    assert!(q2 > 0.0, "the 45 Mbit/s link must be the queueing point");
    assert!(
        tau > prop + 0.9 * q2 / 45.0,
        "path RTT {tau:.4} must include the queueing delay {q2:.3} of link 2"
    );
    // Utilization of the downstream bottleneck approaches 100 %.
    assert!(metrics.per_link_utilization[1] > 90.0);
}

#[test]
fn red_keeps_loss_spread_over_buffer_sizes() {
    // Fig. 7b: under RED the loss of BBRv1 stays substantial across
    // buffer sizes (no shallow-to-deep cliff like drop-tail).
    let loss_at = |buffer: f64| {
        let spec = ScenarioSpec::dumbbell(10, 100.0, 0.010, buffer)
            .qdisc(QdiscKind::Red)
            .rtt_range(0.030, 0.040)
            .ccas(vec![CcaKind::BbrV1]);
        let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
        sim.run(4.0).loss_percent
    };
    let shallow = loss_at(1.0);
    let deep = loss_at(6.0);
    assert!(shallow > 3.0, "RED shallow loss {shallow:.2} %");
    assert!(deep > 1.0, "RED deep loss {deep:.2} %");
    // Drop-tail, by contrast, almost eliminates loss in deep buffers.
    let dt_deep = {
        let spec = ScenarioSpec::dumbbell(10, 100.0, 0.010, 6.0)
            .rtt_range(0.030, 0.040)
            .ccas(vec![CcaKind::BbrV1]);
        let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
        sim.run(4.0).loss_percent
    };
    assert!(
        dt_deep < deep + 2.0,
        "drop-tail deep loss {dt_deep:.2} % vs RED deep loss {deep:.2} %"
    );
}

#[test]
fn bbrv2_probe_cycle_period_scales_with_agent_index() {
    // Eq. (24): T_pbw = min(63 τ_min, 2 + i/N) — later agents probe
    // later, desynchronizing the fleet. Check through telemetry that two
    // agents' m_crs phases differ.
    // RTT 50 ms so 63·τ_min > 2 s and the wall-clock interval 2 + i/N
    // (distinct per agent) decides the period.
    let spec = ScenarioSpec::dumbbell_with_access(50.0, 0.010, 2.0, &[0.015, 0.015])
        .ccas(vec![CcaKind::BbrV2]);
    let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
    let (_, trace) = run_traced(&mut sim, 20, 4.0);
    let crs0 = trace.signal(0, "m_crs").value;
    let crs1 = trace.signal(1, "m_crs").value;
    let differing = crs0
        .iter()
        .zip(&crs1)
        .filter(|(a, b)| (*a - *b).abs() > 0.5)
        .count();
    assert!(
        differing > 0,
        "agents with different probe periods must desynchronize"
    );
}

#[test]
fn modelled_startup_converges_and_exits() {
    // Extension: with `model_startup`, a single BBRv2 flow starts from a
    // 10-segment estimate, ramps at 2/ln 2, leaves start-up, and still
    // reaches full utilization.
    let cfg = ModelConfig {
        model_startup: true,
        ..ModelConfig::coarse()
    };
    let spec =
        ScenarioSpec::dumbbell_with_access(50.0, 0.010, 2.0, &[0.0056]).ccas(vec![CcaKind::BbrV2]);
    let mut sim = Simulator::for_spec(&spec, cfg).unwrap();
    let (_, trace) = run_traced(&mut sim, 50, 4.0);
    let flow = &trace.flows[0];
    // Early rate is small (no mid-flight initialization).
    assert!(
        flow.rate_mbps[0] < 15.0,
        "start-up must begin small, got {:.1}",
        flow.rate_mbps[0]
    );
    // Start-up mode ends within the run.
    let stu = trace.signal(0, "m_stu").value;
    assert!(stu[0] > 0.5, "flow must begin in start-up");
    assert!(
        stu.last().unwrap() < &0.5,
        "flow must have left start-up by t = 4 s"
    );
    // And the link ends up utilized.
    let late_mean: f64 = flow
        .t
        .iter()
        .zip(&flow.rate_mbps)
        .filter(|(t, _)| **t > 2.0)
        .map(|(_, x)| *x)
        .sum::<f64>()
        / flow.t.iter().filter(|t| **t > 2.0).count() as f64;
    assert!(late_mean > 40.0, "late mean rate {late_mean:.1} of 50");
}
