//! Trace-validation figures: Fig. 1 (Reno vs BBRv1 competition), Fig. 2
//! (BBR fluid variables), Figs. 4/5 (BBRv1/BBRv2 model-vs-experiment
//! traces), Figs. 11/12 (Reno/CUBIC traces).
//!
//! The single-sender validation setting of §4.2: C = 100 Mbit/s,
//! bottleneck delay 10 ms, access delay 5.6 ms, 1-BDP buffer.

use std::sync::Arc;

use bbr_fluid_core::cca::CcaKind;
use bbr_fluid_core::prelude::*;
use bbr_packetsim::backend::path_network_for_spec;
use bbr_packetsim::engine::SimConfig;
use bbr_packetsim::path::run_path;
use bbr_telemetry::trace::{Recorder, TraceConfig};
use bbr_telemetry::MemorySink;

use crate::aggregate::model_config;
use crate::figures::FigureOutput;
use crate::table;
use crate::tracefmt::CellTrace;
use crate::Effort;

const CAPACITY: f64 = 100.0;
const BOTTLENECK_DELAY: f64 = 0.010;
const ACCESS_DELAY: f64 = 0.0056;

/// Run `run` with an in-memory recorder sampling every `interval`
/// seconds attached, and assemble what it recorded. The recorder is
/// attached explicitly, so only this run's events are collected.
fn recorded(interval: f64, run: impl FnOnce(Recorder)) -> CellTrace {
    let sink = Arc::new(MemorySink::new());
    let config = TraceConfig {
        interval,
        ..TraceConfig::default()
    };
    run(Recorder::new(config, sink.clone()));
    CellTrace::from_events(&sink.take(), 0)
}

/// The validation dumbbell: one sender per entry of `kinds`, each with
/// the §4.2 access delay, sharing a 1-BDP bottleneck. Both engines run
/// this one spec.
fn validation_spec(kinds: &[CcaKind], qdisc: QdiscKind) -> ScenarioSpec {
    let access = vec![ACCESS_DELAY; kinds.len()];
    ScenarioSpec::dumbbell_with_access(CAPACITY, BOTTLENECK_DELAY, 1.0, &access)
        .qdisc(qdisc)
        .ccas(kinds.to_vec())
}

/// Run the fluid model on `spec` and return its trace, including the
/// model-internal signals (`x_dlv`, `loss`, `x_btl`, ...).
fn model_trace(spec: &ScenarioSpec, duration: f64, effort: Effort) -> CellTrace {
    let cfg = model_config(effort);
    let dt = cfg.dt;
    let mut sim = Simulator::for_spec(spec, cfg).unwrap();
    // ≈ 2000 samples regardless of step size.
    let stride = ((duration / dt) / 2000.0).ceil().max(1.0);
    recorded(stride * dt, |rec| {
        sim.record(rec);
        sim.run(duration);
    })
}

/// Run the packet simulator on `spec` and return its trace, binned at
/// `bin`.
fn experiment_trace(spec: &ScenarioSpec, duration: f64, bin: f64) -> CellTrace {
    let net = path_network_for_spec(spec);
    recorded(bin, |rec| {
        let cfg = SimConfig {
            duration,
            warmup: 0.0,
            seed: 7,
            recorder: Some(rec),
            ..Default::default()
        };
        run_path(&net, &cfg);
    })
}

/// The value of a series sampled at times `ts` at (approximately) time
/// `t`: the first sample at or after `t`, or the last one.
fn at(ts: &[f64], values: &[f64], t: f64) -> f64 {
    values[ts.partition_point(|v| *v < t).min(ts.len() - 1)]
}

/// Fig. 1: sending rates of one Reno and one BBRv1 flow competing in a
/// 1-BDP drop-tail buffer over 9 s, in percent of link bandwidth.
pub fn fig01(effort: Effort) -> FigureOutput {
    let duration = if effort.is_fast() { 3.0 } else { 9.0 };
    let spec = validation_spec(&[CcaKind::Reno, CcaKind::BbrV1], QdiscKind::DropTail);
    let model = model_trace(&spec, duration, effort);
    let exp = experiment_trace(&spec, duration, 0.25);

    let step = if effort.is_fast() { 0.25 } else { 0.5 };
    let mut rows = Vec::new();
    let mut t = step;
    let rate = |trace: &CellTrace, flow: usize, t: f64| {
        let f = &trace.flows[flow];
        at(&f.t, &f.rate_mbps, t)
    };
    while t <= duration + 1e-9 {
        rows.push(vec![
            table::f1(t),
            table::f1(100.0 * rate(&model, 0, t) / CAPACITY),
            table::f1(100.0 * rate(&model, 1, t) / CAPACITY),
            table::f1(100.0 * rate(&exp, 0, t) / CAPACITY),
            table::f1(100.0 * rate(&exp, 1, t) / CAPACITY),
        ]);
        t += step;
    }
    let header = vec![
        "t[s]".into(),
        "model Reno [%]".into(),
        "model BBRv1 [%]".into(),
        "exp Reno [%]".into(),
        "exp BBRv1 [%]".into(),
    ];
    let report = table::render(
        "Fig. 1 — Reno vs BBRv1 sending rates (% of link bandwidth)",
        &header,
        &rows,
    );
    FigureOutput {
        id: "fig01",
        title: "Reno vs BBRv1 competition",
        csv: vec![("fig01.csv".into(), table::to_csv(&header, &rows))],
        report,
    }
}

/// Fig. 2: interplay of the BBR fluid-model variables for a single flow
/// (a: BBRv1 over 1 s; b: BBRv2 over 0.5 s), rates normalized to the
/// link capacity.
pub fn fig02(effort: Effort) -> FigureOutput {
    let mut report = String::new();
    let mut csv = Vec::new();
    // (a) BBRv1.
    {
        let spec = validation_spec(&[CcaKind::BbrV1], QdiscKind::DropTail);
        let trace = model_trace(&spec, 1.0, effort);
        let f = &trace.flows[0];
        let [x_dlv, x_btl, x_max] = ["x_dlv", "x_btl", "x_max"].map(|name| trace.signal(0, name));
        let header: Vec<String> = vec![
            "t[s]".into(),
            "x [%]".into(),
            "x_dlv [%]".into(),
            "x_btl [%]".into(),
            "x_max [%]".into(),
        ];
        let mut rows = Vec::new();
        let mut t = 0.05;
        while t <= 1.0 + 1e-9 {
            rows.push(vec![
                format!("{t:.2}"),
                table::f1(100.0 * at(&f.t, &f.rate_mbps, t) / CAPACITY),
                table::f1(100.0 * at(&x_dlv.t, &x_dlv.value, t) / CAPACITY),
                table::f1(100.0 * at(&x_btl.t, &x_btl.value, t) / CAPACITY),
                table::f1(100.0 * at(&x_max.t, &x_max.value, t) / CAPACITY),
            ]);
            t += 0.05;
        }
        report.push_str(&table::render(
            "Fig. 2a — BBRv1 fluid variables (single flow, % of capacity)",
            &header,
            &rows,
        ));
        csv.push(("fig02a.csv".into(), table::to_csv(&header, &rows)));
    }
    // (b) BBRv2: rate and inflight limits.
    {
        let spec = validation_spec(&[CcaKind::BbrV2], QdiscKind::DropTail);
        let trace = model_trace(&spec, 0.5, effort);
        let f = &trace.flows[0];
        let [x_btl, w, w_hi, v] =
            ["x_btl", "w_bdp_est", "w_hi", "v"].map(|name| trace.signal(0, name));
        let bdp = CAPACITY * 2.0 * (ACCESS_DELAY + BOTTLENECK_DELAY);
        let header: Vec<String> = vec![
            "t[s]".into(),
            "x [%]".into(),
            "x_btl [%]".into(),
            "w [%BDP]".into(),
            "w_hi [%BDP]".into(),
            "v [%BDP]".into(),
        ];
        let mut rows = Vec::new();
        let mut t = 0.025;
        while t <= 0.5 + 1e-9 {
            rows.push(vec![
                format!("{t:.3}"),
                table::f1(100.0 * at(&f.t, &f.rate_mbps, t) / CAPACITY),
                table::f1(100.0 * at(&x_btl.t, &x_btl.value, t) / CAPACITY),
                table::f1(100.0 * at(&w.t, &w.value, t) / bdp),
                table::f1(100.0 * at(&w_hi.t, &w_hi.value, t) / bdp),
                table::f1(100.0 * at(&v.t, &v.value, t) / bdp),
            ]);
            t += 0.025;
        }
        report.push('\n');
        report.push_str(&table::render(
            "Fig. 2b — BBRv2 fluid variables (single flow)",
            &header,
            &rows,
        ));
        csv.push(("fig02b.csv".into(), table::to_csv(&header, &rows)));
    }
    FigureOutput {
        id: "fig02",
        title: "BBR fluid-model variable interplay",
        report,
        csv,
    }
}

/// Shared generator for the single-flow trace-validation figures
/// (Figs. 4, 5, 11, 12): model vs experiment under drop-tail and RED;
/// rate in % of capacity, queue in % of buffer, loss in %, RTT as
/// relative excess delay in %.
fn trace_validation(
    id: &'static str,
    title: &'static str,
    kind: CcaKind,
    duration_full: f64,
    effort: Effort,
) -> FigureOutput {
    let duration = if effort.is_fast() { 3.0 } else { duration_full };
    let step = duration / 15.0;
    let prop_rtt = 2.0 * (ACCESS_DELAY + BOTTLENECK_DELAY);
    let mut report = String::new();
    let mut csv = Vec::new();
    for (qdisc, label) in [(QdiscKind::DropTail, "drop-tail"), (QdiscKind::Red, "RED")] {
        let spec = validation_spec(&[kind], qdisc);
        let model = model_trace(&spec, duration, effort);
        let exp = experiment_trace(&spec, duration, step.min(0.25));
        let header: Vec<String> = [
            "t[s]",
            "m rate[%]",
            "m queue[%]",
            "m loss[%]",
            "m rtt[+%]",
            "e rate[%]",
            "e queue[%]",
            "e loss[%]",
            "e rtt[+%]",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let (mf, ml, m_loss) = (&model.flows[0], &model.links[0], model.signal(0, "loss"));
        let (ef, el) = (&exp.flows[0], &exp.links[0]);
        let mut rows = Vec::new();
        let mut t = step;
        while t <= duration + 1e-9 {
            let m_rtt_excess = 100.0 * (at(&mf.t, &mf.rtt_s, t) / prop_rtt - 1.0);
            let e_srtt = at(&ef.t, &ef.rtt_s, t);
            let e_rtt_excess = if e_srtt > 0.0 {
                100.0 * (e_srtt / prop_rtt - 1.0)
            } else {
                0.0
            };
            rows.push(vec![
                table::f1(t),
                table::f1(100.0 * at(&mf.t, &mf.rate_mbps, t) / CAPACITY),
                table::f1(100.0 * at(&ml.t, &ml.queue_frac, t)),
                table::f1(100.0 * at(&m_loss.t, &m_loss.value, t)),
                table::f1(m_rtt_excess),
                table::f1(100.0 * at(&ef.t, &ef.rate_mbps, t) / CAPACITY),
                table::f1(100.0 * at(&el.t, &el.queue_frac, t)),
                table::f1(100.0 * at(&el.t, &el.loss_frac, t)),
                table::f1(e_rtt_excess),
            ]);
            t += step;
        }
        report.push_str(&table::render(
            &format!("{title} — {label} (m = model, e = experiment)"),
            &header,
            &rows,
        ));
        report.push('\n');
        csv.push((
            format!("{id}_{}.csv", label.replace('-', "")),
            table::to_csv(&header, &rows),
        ));
    }
    FigureOutput {
        id,
        title,
        report,
        csv,
    }
}

/// Fig. 4: BBRv1 trace validation (7 s).
pub fn fig04(effort: Effort) -> FigureOutput {
    trace_validation(
        "fig04",
        "Fig. 4 — BBRv1 trace validation",
        CcaKind::BbrV1,
        7.0,
        effort,
    )
}

/// Fig. 5: BBRv2 trace validation (30 s; shows the ProbeRTT dips).
pub fn fig05(effort: Effort) -> FigureOutput {
    trace_validation(
        "fig05",
        "Fig. 5 — BBRv2 trace validation",
        CcaKind::BbrV2,
        30.0,
        effort,
    )
}

/// Fig. 11: Reno trace validation (30 s).
pub fn fig11(effort: Effort) -> FigureOutput {
    trace_validation(
        "fig11",
        "Fig. 11 — Reno trace validation",
        CcaKind::Reno,
        30.0,
        effort,
    )
}

/// Fig. 12: CUBIC trace validation (30 s).
pub fn fig12(effort: Effort) -> FigureOutput {
    trace_validation(
        "fig12",
        "Fig. 12 — CUBIC trace validation",
        CcaKind::Cubic,
        30.0,
        effort,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig01_fast_produces_rows_and_starvation_signal() {
        let out = fig01(Effort::Fast);
        assert!(out.report.contains("Reno"));
        assert_eq!(out.csv.len(), 1);
        // BBRv1 should clearly dominate Reno in the model by the end.
        let last = out.report.lines().last().unwrap();
        let cols: Vec<&str> = last.split_whitespace().collect();
        let m_reno: f64 = cols[1].parse().unwrap();
        let m_bbr: f64 = cols[2].parse().unwrap();
        assert!(
            m_bbr > m_reno,
            "model must show BBRv1 ({m_bbr}) above Reno ({m_reno})"
        );
    }

    #[test]
    fn fig02_fast_has_both_panels() {
        let out = fig02(Effort::Fast);
        assert!(out.report.contains("Fig. 2a"));
        assert!(out.report.contains("Fig. 2b"));
        assert_eq!(out.csv.len(), 2);
    }

    #[test]
    fn fig04_fast_has_both_disciplines() {
        let out = fig04(Effort::Fast);
        assert!(out.report.contains("drop-tail"));
        assert!(out.report.contains("RED"));
        assert_eq!(out.csv.len(), 2);
    }
}
