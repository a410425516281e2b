//! Fluid-vs-packet drift audit: quantifies exactly where the fluid
//! abstraction departs from faithful packet dynamics.
//!
//! The audit runs both backends over a pinned paper-shaped grid (all
//! three topology families, BBR-centric CCA mixes including both BBRv2
//! fidelity tiers) and reduces every cell to a per-metric divergence —
//! utilization, Jain fairness, and loss deltas — plus a normalized
//! divergence score used to rank the worst cells. The report is emitted
//! as machine-readable JSON (the campaign crate's deterministic
//! hand-rolled writer, so floats round-trip exactly) and is exercised in
//! CI through `figures drift --fast`.
//!
//! The score normalizes each delta by the [`CONSISTENCY`] gates, the
//! tolerances `tests/backend_consistency.rs` holds the engines to, so
//! `score ≈ 1` means "a cell at the edge of what the consistency suite
//! tolerates" and the worst-cell ranking is directly comparable across
//! metrics.

use std::sync::Arc;

use crate::aggregate::model_config;
use crate::compare::{self, Delta, CONSISTENCY};
use crate::scenarios::{COMBOS, DEPLOY_COMBOS};
use crate::sweep::{Backend, ScenarioGrid, SweepReport, TopologyKind};
use crate::tracefmt::CellTrace;
use crate::Effort;
use bbr_campaign::json::Json;
use bbr_fluid_core::backend::FluidBackend;
use bbr_packetsim::backend::PacketBackend;
use bbr_scenario::{QdiscKind, ScenarioSpec, SimBackend};
use bbr_telemetry::trace::TraceConfig;
use bbr_telemetry::MemorySink;

/// Utilization tolerance (percentage points) the consistency suite
/// allows: [`CONSISTENCY`]`.util_pp`.
pub const UTIL_TOLERANCE_PP: f64 = CONSISTENCY.util_pp;
/// Jain-index tolerance the consistency suite allows:
/// [`CONSISTENCY`]`.jain`.
pub const JAIN_TOLERANCE: f64 = CONSISTENCY.jain;

/// The pinned paper-shaped audit grid. Fixed seed, fixed axes: the
/// report is a deterministic function of the effort preset, so two
/// audits of the same tree are diffable cell-by-cell.
pub fn drift_grid(effort: Effort) -> ScenarioGrid {
    let base = ScenarioGrid::new()
        .effort(effort)
        .backend(Backend::Both)
        .topologies(vec![
            TopologyKind::Dumbbell,
            TopologyKind::ParkingLot,
            TopologyKind::Chain,
        ])
        .seed(1889);
    match effort {
        // Paper-scale: the BBR-centric legend plus the deploy tier,
        // two buffer regimes, both qdiscs.
        Effort::Full => base
            .combos(
                [COMBOS[0], COMBOS[4], COMBOS[5]]
                    .into_iter()
                    .chain(DEPLOY_COMBOS)
                    .collect(),
            )
            .flow_counts(vec![10])
            .buffers_bdp(vec![1.0, 4.0])
            .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red]),
        // CI smoke: both BBRv2 tiers head-to-head, small cells.
        Effort::Fast => base
            .combos(vec![COMBOS[4], DEPLOY_COMBOS[0], DEPLOY_COMBOS[1]])
            .flow_counts(vec![4])
            .buffers_bdp(vec![1.0, 4.0])
            .qdiscs(vec![QdiscKind::DropTail])
            .duration(1.5)
            .warmup(0.5),
    }
}

/// One audited cell: scenario coordinates, both backends' headline
/// metrics, and the packet-minus-fluid delta.
#[derive(Debug, Clone)]
pub struct DriftCell {
    pub topology: &'static str,
    pub combo: &'static str,
    pub n: usize,
    pub buffer_bdp: f64,
    pub qdisc: QdiscKind,
    pub seed: u64,
    /// (utilization %, Jain, loss %) under the fluid model.
    pub fluid: (f64, f64, f64),
    /// (utilization %, Jain, loss %) under the packet simulator.
    pub packet: (f64, f64, f64),
    /// packet − fluid on each metric.
    pub delta: Delta,
}

impl DriftCell {
    /// Tolerance-normalized divergence under [`CONSISTENCY`] (see module
    /// docs).
    pub fn score(&self) -> f64 {
        self.delta.score(&CONSISTENCY)
    }
}

/// The audit result: every cell in grid order plus a worst-first
/// ranking.
#[derive(Debug, Clone)]
pub struct DriftReport {
    pub effort: Effort,
    pub capacity: f64,
    pub duration: f64,
    pub cells: Vec<DriftCell>,
    /// Indices into `cells`, sorted by descending score.
    pub ranking: Vec<usize>,
}

/// Run the pinned audit grid on both backends and reduce it.
pub fn run_drift(effort: Effort) -> DriftReport {
    let grid = drift_grid(effort);
    from_sweep(&grid.run(), effort)
}

/// Reduce an already-evaluated sweep (must contain `fluid` and `packet`
/// columns) into a drift report. Cells where either backend did not run
/// are skipped.
pub fn from_sweep(report: &SweepReport, effort: Effort) -> DriftReport {
    let mut cells = Vec::new();
    for cell in &report.cells {
        let (Some(f), Some(p)) = (
            report.metrics(cell, "fluid"),
            report.metrics(cell, "packet"),
        ) else {
            continue;
        };
        cells.push(DriftCell {
            topology: cell.point.topology.label(),
            combo: cell.point.combo.label,
            n: cell.point.n,
            buffer_bdp: cell.point.buffer_bdp,
            qdisc: cell.point.qdisc,
            seed: cell.seed,
            fluid: f.headline(),
            packet: p.headline(),
            delta: Delta::between(f, p),
        });
    }
    let scores: Vec<Option<f64>> = cells.iter().map(|c| Some(c.score())).collect();
    DriftReport {
        effort,
        capacity: report.capacity,
        duration: report.duration,
        cells,
        ranking: compare::rank_worst_first(&scores),
    }
}

impl DriftReport {
    /// Mean absolute utilization gap over all audited cells (pp).
    pub fn mean_abs_util_gap_pp(&self) -> f64 {
        compare::mean_abs_util_gap(self.cells.iter().map(|c| c.delta)).unwrap_or(0.0)
    }

    /// The worst `k` cells by score, worst first.
    pub fn worst(&self, k: usize) -> Vec<&DriftCell> {
        self.ranking
            .iter()
            .take(k)
            .map(|&i| &self.cells[i])
            .collect()
    }

    /// Machine-readable form (schema `drift-report/v1`).
    pub fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("topology".into(), Json::str(c.topology)),
                    ("combo".into(), Json::str(c.combo)),
                    ("n".into(), Json::Num(c.n as f64)),
                    ("buffer_bdp".into(), Json::Num(c.buffer_bdp)),
                    ("qdisc".into(), Json::str(format!("{:?}", c.qdisc))),
                    ("seed".into(), Json::hex(c.seed)),
                    ("fluid".into(), compare::metrics_json(c.fluid)),
                    ("packet".into(), compare::metrics_json(c.packet)),
                    ("delta".into(), Json::Obj(c.delta.json_fields())),
                    ("score".into(), Json::Num(c.score())),
                ])
            })
            .collect();
        let ranking: Vec<Json> = self.ranking.iter().map(|&i| Json::Num(i as f64)).collect();
        Json::Obj(vec![
            ("schema".into(), Json::str("drift-report/v1")),
            ("effort".into(), Json::str(self.effort.tag())),
            ("capacity_mbps".into(), Json::Num(self.capacity)),
            ("duration_s".into(), Json::Num(self.duration)),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("cells".into(), Json::Num(self.cells.len() as f64)),
                    (
                        "mean_abs_utilization_gap_pp".into(),
                        Json::Num(self.mean_abs_util_gap_pp()),
                    ),
                ]),
            ),
            ("cells".into(), Json::Arr(cells)),
            ("worst_cells".into(), Json::Arr(ranking)),
        ])
    }

    /// Human-readable summary: headline gap plus the worst cells.
    pub fn table(&self) -> String {
        let mut out = format!(
            "Drift audit ({} mode): {} cells, mean |Δutil| = {:.2} pp\n",
            self.effort.tag(),
            self.cells.len(),
            self.mean_abs_util_gap_pp(),
        );
        out.push_str("worst cells (score = tolerance-normalized divergence):\n");
        for c in self.worst(5) {
            out.push_str(&format!(
                "  {:>8} {:<13} buf={:.0} {:?}: Δutil {:+.1} pp, Δjain {:+.3}, Δloss {:+.2} pp (score {:.2})\n",
                c.topology, c.combo, c.buffer_bdp, c.qdisc,
                c.delta.util_pp, c.delta.jain, c.delta.loss_pp, c.score(),
            ));
        }
        out
    }
}

/// Utilization-fraction gap above which two traces count as diverged
/// (`|util_fluid − util_packet| > 0.25` at one aligned sample): the
/// [`CONSISTENCY`] utilization tolerance, expressed as a fraction of
/// capacity.
pub const TRACE_GAP_THRESHOLD: f64 = CONSISTENCY.util_pp / 100.0;

/// Width (s) of the sliding window the worst-divergence search uses.
pub const TRACE_WINDOW_S: f64 = 0.25;

/// Trace-level drift of one audited cell: where (in time, and in which
/// CCA phase) the fluid trajectory departs from the packet one, not
/// just by how much at the end of the run.
#[derive(Debug, Clone)]
pub struct TraceCellDiff {
    /// Topology label of the cell.
    pub topology: &'static str,
    /// CCA-mix label of the cell.
    pub combo: &'static str,
    /// Buffer (BDP multiples) of the cell.
    pub buffer_bdp: f64,
    /// Queuing discipline of the cell.
    pub qdisc: QdiscKind,
    /// Seed both engines ran with.
    pub seed: u64,
    /// Aligned bottleneck-utilization samples compared.
    pub samples: usize,
    /// Engine time (s) of the first aligned sample whose gap exceeds
    /// [`TRACE_GAP_THRESHOLD`]; `None` when the traces never diverge.
    pub first_divergence_s: Option<f64>,
    /// Start (s) of the worst [`TRACE_WINDOW_S`]-wide window.
    pub worst_window_start_s: f64,
    /// Mean gap inside that worst window.
    pub worst_window_gap: f64,
    /// Mean absolute gap over every aligned sample.
    pub mean_gap: f64,
    /// Drift attribution by the packet flow-0 CCA phase active at each
    /// aligned sample: `(phase, samples, mean gap, max gap)`, in first-
    /// seen order.
    pub phases: Vec<PhaseDrift>,
}

/// Per-phase slice of a [`TraceCellDiff`].
#[derive(Debug, Clone)]
pub struct PhaseDrift {
    /// CCA phase name (packet engine flow 0).
    pub phase: String,
    /// Aligned samples attributed to this phase.
    pub samples: usize,
    /// Mean gap while this phase was active.
    pub mean_gap: f64,
    /// Largest gap while this phase was active.
    pub max_gap: f64,
}

/// The trace-diff audit: [`TraceCellDiff`]s for every cell of the
/// pinned [`drift_grid`], in grid order (schema `trace-diff/v1`).
#[derive(Debug, Clone)]
pub struct TraceAudit {
    /// Effort preset the audit ran under.
    pub effort: Effort,
    /// Sample interval (s) both recorders used.
    pub interval: f64,
    /// Per-cell diffs, in grid order.
    pub cells: Vec<TraceCellDiff>,
}

/// Record one engine run of `spec` under an in-memory flight recorder
/// and assemble its lane-0 trace. The recorder is process-global, so
/// audits run cells sequentially — correctness over parallelism here.
fn record_cell(
    backend: &dyn SimBackend,
    spec: &ScenarioSpec,
    seed: u64,
    interval: f64,
) -> CellTrace {
    let sink = Arc::new(MemorySink::new());
    {
        let _guard = bbr_telemetry::trace::install(
            TraceConfig {
                interval,
                ..TraceConfig::default()
            },
            sink.clone(),
        );
        let _ = backend.run(spec, seed);
    }
    CellTrace::from_events(&sink.take(), 0)
}

/// The bottleneck-utilization series of a recorded cell: the link with
/// the most samples, ties broken by highest mean utilization. The
/// packet engine records only its bottleneck link, the fluid engine all
/// links — this picks comparable series from both.
fn bottleneck_series(cell: &CellTrace) -> Option<(&[f64], &[f64])> {
    cell.links
        .iter()
        .filter(|l| !l.t.is_empty())
        .max_by(|a, b| {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            (a.t.len(), mean(&a.util_frac))
                .partial_cmp(&(b.t.len(), mean(&b.util_frac)))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|l| (l.t.as_slice(), l.util_frac.as_slice()))
}

/// Align two recorded cells on the sample grid and reduce the gap
/// series (plus the packet flow-0 phase timeline) to a
/// [`TraceCellDiff`]'s divergence fields.
fn diff_traces(
    fluid: &CellTrace,
    packet: &CellTrace,
    interval: f64,
) -> (usize, Option<f64>, f64, f64, f64, Vec<PhaseDrift>) {
    let (Some((ft, fu)), Some((pt, pu))) = (bottleneck_series(fluid), bottleneck_series(packet))
    else {
        return (0, None, 0.0, 0.0, 0.0, Vec::new());
    };
    // Index fluid samples by grid slot; both engines sample on the same
    // interval but not necessarily at the same phase within it.
    let slot = |t: f64| (t / interval).round() as i64;
    let mut fluid_at = std::collections::HashMap::new();
    for (i, &t) in ft.iter().enumerate() {
        fluid_at.insert(slot(t), fu[i]);
    }
    let mut aligned: Vec<(f64, f64, String)> = Vec::new();
    for (i, &t) in pt.iter().enumerate() {
        if let Some(&f) = fluid_at.get(&slot(t)) {
            let gap = (f - pu[i]).abs();
            aligned.push((t, gap, packet.phase_at(0, t).to_string()));
        }
    }
    if aligned.is_empty() {
        return (0, None, 0.0, 0.0, 0.0, Vec::new());
    }
    let first_divergence_s = aligned
        .iter()
        .find(|(_, gap, _)| *gap > TRACE_GAP_THRESHOLD)
        .map(|(t, _, _)| *t);
    let mean_gap = aligned.iter().map(|(_, g, _)| g).sum::<f64>() / aligned.len() as f64;
    // Worst sliding window of ~TRACE_WINDOW_S consecutive samples.
    let w = ((TRACE_WINDOW_S / interval).round() as usize).max(1);
    let mut worst_start = aligned[0].0;
    let mut worst_gap = 0.0;
    for start in 0..aligned.len() {
        let end = (start + w).min(aligned.len());
        let win = &aligned[start..end];
        let g = win.iter().map(|(_, g, _)| g).sum::<f64>() / win.len() as f64;
        if g > worst_gap {
            worst_gap = g;
            worst_start = win[0].0;
        }
    }
    // Attribute every aligned sample to the packet CCA phase active at
    // that time, in first-seen order.
    let mut phases: Vec<PhaseDrift> = Vec::new();
    for (_, gap, phase) in &aligned {
        match phases.iter_mut().find(|p| &p.phase == phase) {
            Some(p) => {
                p.samples += 1;
                p.mean_gap += gap;
                p.max_gap = p.max_gap.max(*gap);
            }
            None => phases.push(PhaseDrift {
                phase: phase.clone(),
                samples: 1,
                mean_gap: *gap,
                max_gap: *gap,
            }),
        }
    }
    for p in &mut phases {
        p.mean_gap /= p.samples as f64;
    }
    (
        aligned.len(),
        first_divergence_s,
        worst_start,
        worst_gap,
        mean_gap,
        phases,
    )
}

/// Run the trace-diff audit over the pinned [`drift_grid`]: every cell
/// recorded on the fluid engine and the packet engine under an
/// in-memory flight recorder, series aligned per cell, divergence
/// reduced to first-divergence time, per-phase attribution, and the
/// worst window.
pub fn run_trace_audit(effort: Effort) -> TraceAudit {
    let grid = drift_grid(effort);
    let fluid = FluidBackend::new(model_config(effort));
    let packet = PacketBackend::new(1);
    let interval = bbr_telemetry::trace::DEFAULT_INTERVAL;
    let mut cells = Vec::new();
    for pt in grid.points() {
        let spec = grid.spec_for(&pt);
        let seed = grid.cell_seed(&spec);
        let f_cell = record_cell(&fluid, &spec, seed, interval);
        let p_cell = record_cell(&packet, &spec, seed, interval);
        let (samples, first_divergence_s, worst_window_start_s, worst_window_gap, mean_gap, phases) =
            diff_traces(&f_cell, &p_cell, interval);
        cells.push(TraceCellDiff {
            topology: pt.topology.label(),
            combo: pt.combo.label,
            buffer_bdp: pt.buffer_bdp,
            qdisc: pt.qdisc,
            seed,
            samples,
            first_divergence_s,
            worst_window_start_s,
            worst_window_gap,
            mean_gap,
            phases,
        });
    }
    TraceAudit {
        effort,
        interval,
        cells,
    }
}

impl TraceAudit {
    /// Machine-readable form (schema `trace-diff/v1`).
    /// `first_divergence_s` is `-1` for cells whose traces never cross
    /// the threshold (the JSON writer has no null).
    pub fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                let phases: Vec<Json> = c
                    .phases
                    .iter()
                    .map(|p| {
                        Json::Obj(vec![
                            ("phase".into(), Json::str(p.phase.clone())),
                            ("samples".into(), Json::Num(p.samples as f64)),
                            ("mean_gap".into(), Json::Num(p.mean_gap)),
                            ("max_gap".into(), Json::Num(p.max_gap)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("topology".into(), Json::str(c.topology)),
                    ("combo".into(), Json::str(c.combo)),
                    ("buffer_bdp".into(), Json::Num(c.buffer_bdp)),
                    ("qdisc".into(), Json::str(format!("{:?}", c.qdisc))),
                    ("seed".into(), Json::hex(c.seed)),
                    ("samples".into(), Json::Num(c.samples as f64)),
                    (
                        "first_divergence_s".into(),
                        Json::Num(c.first_divergence_s.unwrap_or(-1.0)),
                    ),
                    (
                        "worst_window_start_s".into(),
                        Json::Num(c.worst_window_start_s),
                    ),
                    ("worst_window_gap".into(), Json::Num(c.worst_window_gap)),
                    ("mean_gap".into(), Json::Num(c.mean_gap)),
                    ("phases".into(), Json::Arr(phases)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str("trace-diff/v1")),
            ("effort".into(), Json::str(self.effort.tag())),
            ("interval_s".into(), Json::Num(self.interval)),
            ("gap_threshold".into(), Json::Num(TRACE_GAP_THRESHOLD)),
            ("window_s".into(), Json::Num(TRACE_WINDOW_S)),
            ("cells".into(), Json::Arr(cells)),
        ])
    }

    /// Human-readable per-cell summary.
    pub fn table(&self) -> String {
        let mut out = format!(
            "Trace diff ({} mode): {} cells aligned at {} ms\n",
            self.effort.tag(),
            self.cells.len(),
            self.interval * 1e3,
        );
        for c in &self.cells {
            let first = match c.first_divergence_s {
                Some(t) => format!("first div {t:.2} s"),
                None => "never diverges".to_string(),
            };
            let mut phases: Vec<&PhaseDrift> = c.phases.iter().collect();
            phases.sort_by(|a, b| {
                b.mean_gap
                    .partial_cmp(&a.mean_gap)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let attribution: Vec<String> = phases
                .iter()
                .take(3)
                .map(|p| format!("{} {:.2}", p.phase, p.mean_gap))
                .collect();
            out.push_str(&format!(
                "  {:>8} {:<13} buf={:.0} {:?}: {first}, worst window [{:.2} s] gap {:.2}, \
                 drift by phase: {}\n",
                c.topology,
                c.combo,
                c.buffer_bdp,
                c.qdisc,
                c.worst_window_start_s,
                c.worst_window_gap,
                attribution.join(", "),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_grid_is_pinned_and_covers_both_tiers() {
        let g = drift_grid(Effort::Fast);
        // 3 combos × 2 buffers × 3 topologies (parking-lot and chain
        // collapse the flow/RTT axes like every sweep does).
        assert_eq!(g.len(), 18);
        let labels: Vec<&str> = g.points().iter().map(|p| p.combo.label).collect();
        assert!(labels.contains(&"BBRv2"));
        assert!(labels.contains(&"BBRv2D"));
        assert!(labels.contains(&"BBRv2D/BBRv2"));
    }

    #[test]
    fn trace_diff_reduces_aligned_series() {
        use crate::tracefmt::LinkSeries;
        let interval = 0.01;
        let series = |utils: &[f64]| {
            let mut l = LinkSeries::default();
            for (i, &u) in utils.iter().enumerate() {
                l.t.push(i as f64 * interval);
                l.util_frac.push(u);
                l.queue_frac.push(0.0);
                l.loss_frac.push(0.0);
            }
            l
        };
        // Fluid sits at 1.0; packet matches for 5 samples then drops to
        // 0.4 (gap 0.6 > threshold) from t = 0.05 on.
        let mut fluid = CellTrace::default();
        fluid.links.push(series(&[1.0; 10]));
        let mut packet = CellTrace::default();
        packet
            .links
            .push(series(&[1.0, 1.0, 1.0, 1.0, 1.0, 0.4, 0.4, 0.4, 0.4, 0.4]));
        packet
            .phases
            .push(vec![(0.045, "Startup".into(), "Drain".into())]);
        let (samples, first, worst_start, worst_gap, mean_gap, phases) =
            diff_traces(&fluid, &packet, interval);
        assert_eq!(samples, 10);
        assert_eq!(first, Some(0.05));
        assert!(worst_gap > 0.5, "worst window gap {worst_gap}");
        assert!(worst_start >= 0.04, "worst window starts at the drop");
        assert!((mean_gap - 0.3).abs() < 1e-9);
        // Attribution: the gap lives entirely in the Drain phase.
        let drain = phases.iter().find(|p| p.phase == "Drain").unwrap();
        assert!((drain.mean_gap - 0.6).abs() < 1e-9);
        assert_eq!(drain.samples, 5);
        let startup = phases.iter().find(|p| p.phase == "Startup").unwrap();
        assert_eq!(startup.mean_gap, 0.0);
        // Empty traces reduce to an empty diff, not a panic.
        let (n, f, _, _, _, ph) = diff_traces(&CellTrace::default(), &packet, interval);
        assert_eq!((n, f, ph.len()), (0, None, 0));
    }

    #[test]
    fn trace_audit_serializes_with_sentinel_divergence() {
        // One synthetic audit cell round-trips through the JSON layer;
        // the full pinned-grid audit runs in CI (`drift --trace` smoke).
        let audit = TraceAudit {
            effort: Effort::Fast,
            interval: 0.01,
            cells: vec![TraceCellDiff {
                topology: "dumbbell",
                combo: "BBRv2D",
                buffer_bdp: 1.0,
                qdisc: QdiscKind::DropTail,
                seed: 0xabc,
                samples: 100,
                first_divergence_s: None,
                worst_window_start_s: 0.5,
                worst_window_gap: 0.1,
                mean_gap: 0.05,
                phases: vec![PhaseDrift {
                    phase: "ProbeBwUp".into(),
                    samples: 40,
                    mean_gap: 0.07,
                    max_gap: 0.2,
                }],
            }],
        };
        let text = audit.to_json().to_compact_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.field("schema").unwrap().as_str(),
            Some("trace-diff/v1")
        );
        let cells = parsed.field("cells").unwrap().as_arr().unwrap();
        let first = cells[0].field("first_divergence_s").unwrap().as_f64();
        assert_eq!(first, Some(-1.0), "no-divergence sentinel");
        let phases = cells[0].field("phases").unwrap().as_arr().unwrap();
        assert_eq!(
            phases[0].field("phase").unwrap().as_str(),
            Some("ProbeBwUp")
        );
        let table = audit.table();
        assert!(table.contains("never diverges"), "{table}");
        assert!(table.contains("ProbeBwUp 0.07"), "{table}");
    }

    #[test]
    fn fast_audit_runs_and_serializes() {
        let report = run_drift(Effort::Fast);
        assert_eq!(report.cells.len(), 18);
        assert_eq!(report.ranking.len(), 18);
        // Ranking is worst-first.
        for w in report.ranking.windows(2) {
            assert!(report.cells[w[0]].score() >= report.cells[w[1]].score());
        }
        // The JSON round-trips through the campaign parser.
        let text = report.to_json().to_compact_string();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.field("schema").unwrap().as_str(),
            Some("drift-report/v1")
        );
        let cells = parsed.field("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 18);
        let seed = cells[0].field("seed").unwrap().as_hex_u64().unwrap();
        assert_eq!(seed, report.cells[0].seed);
        let score = cells[0].field("score").unwrap().as_f64().unwrap();
        assert_eq!(score.to_bits(), report.cells[0].score().to_bits());
    }
}
