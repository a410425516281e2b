//! Universe sweep: run a generated scenario universe
//! (`bbr_scenario::universe`) cross-backend and reduce every cell to a
//! drift-style divergence record.
//!
//! Where the drift audit (`crate::drift`) compares the fluid and packet
//! engines over a *pinned, hand-picked* grid, the universe sweep
//! compares them over a *machine-generated* one: seeded star / tree /
//! fat-tree / random-mesh topologies with varied per-hop RTT and
//! bandwidth, and flow schedules from steady to multi-interval on/off
//! to Poisson arrival/departure processes. Every cell is judged against
//! the [`UNIVERSE`] gates of the differential harness
//! ([`crate::compare`]), so the report answers one question at scale:
//! *does the fluid abstraction hold across topology space, or only on
//! the three families the paper picked?*
//!
//! Determinism: the report (and its CSV rendering) is a pure function
//! of `(seed, cells, effort, backend)` — generated specs are
//! deterministic, per-cell seeds derive from the spec contents via
//! [`crate::sweep::mix_seed`], and both engines are deterministic given
//! a seed — so two same-seed invocations emit byte-identical CSVs (a CI
//! gate).

use std::time::Instant;

use bbr_campaign::json::Json;
use bbr_fluidbatch::{BatchedFluidBackend, SimdFluidBackend};
use bbr_packetsim::backend::PacketBackend;
use bbr_scenario::universe::{generate_universe, GeneratedScenario};
use bbr_scenario::{ScenarioSpec, SimBackend, Topology};

use crate::aggregate::{model_config, CellMetrics};
use crate::compare::{self, run_column, Delta, UNIVERSE};
use crate::sweep::{mix_seed, Backend};
use crate::table;
use crate::Effort;

/// One swept universe cell: generation coordinates, per-backend
/// headline metrics, and (when both engines ran) the divergence.
#[derive(Debug, Clone)]
pub struct UniverseCell {
    /// Position in the universe (0-based; same as the generator's).
    pub index: usize,
    /// Topology-family label (`star` / `tree` / `fattree` / `mesh`).
    pub family: &'static str,
    /// Schedule-shape label (`steady` / `windows` / `poisson`).
    pub schedule: &'static str,
    /// Flow count of the generated spec.
    pub flows: usize,
    /// Link count of the generated topology.
    pub links: usize,
    /// `ScenarioSpec::stable_hash` of the cell.
    pub spec_hash: u64,
    /// Seed both engines received.
    pub seed: u64,
    /// (utilization %, Jain, loss %) under the fluid model, when it ran.
    pub fluid: Option<(f64, f64, f64)>,
    /// (utilization %, Jain, loss %) under the packet simulator, when it
    /// ran.
    pub packet: Option<(f64, f64, f64)>,
    /// packet − fluid on each metric, when both engines ran.
    pub delta: Option<Delta>,
}

impl UniverseCell {
    /// Tolerance-normalized divergence under [`UNIVERSE`], when both
    /// engines ran.
    pub fn score(&self) -> Option<f64> {
        self.delta.map(|d| d.score(&UNIVERSE))
    }
}

/// The universe sweep result: every cell in generation order plus a
/// worst-first ranking of the compared cells.
#[derive(Debug, Clone)]
pub struct UniverseReport {
    /// Universe seed the cells were generated from.
    pub universe_seed: u64,
    /// Effort preset the engines ran under.
    pub effort: Effort,
    /// Backend column names, in `(fluid, packet)` order where present.
    pub backends: Vec<&'static str>,
    /// Wall-clock seconds of the sweep (reporting only — never rendered
    /// into the CSV or JSON, which must stay byte-stable across runs).
    pub wall_seconds: f64,
    /// Every cell, in generation order.
    pub cells: Vec<UniverseCell>,
    /// Indices of compared cells, sorted by descending score.
    pub ranking: Vec<usize>,
}

/// Generate the `cells`-cell universe seeded by `seed` and sweep it on
/// the selected backend(s). `Backend::Both` produces the full
/// divergence report; single-backend selections fill only that column
/// (no deltas). The fluid selections all report under the `"fluid"`
/// column via the batched engine (byte-identical to the scalar one by
/// contract), except `Backend::FluidSimd`, which runs the packed engine
/// under its tolerance-bound `"fluid-simd"` name.
pub fn run_universe(seed: u64, cells: usize, effort: Effort, backend: Backend) -> UniverseReport {
    let t0 = Instant::now();
    let universe = generate_universe(seed, cells);
    let tasks: Vec<(ScenarioSpec, u64)> = universe
        .iter()
        .map(|c| {
            let cell_seed = mix_seed(seed, c.spec.stable_hash());
            (c.spec.clone(), cell_seed)
        })
        .collect();
    let fluid_backend: Option<Box<dyn SimBackend>> = match backend {
        Backend::Fluid | Backend::FluidBatch | Backend::Both => {
            Some(Box::new(BatchedFluidBackend::new(model_config(effort))))
        }
        Backend::FluidSimd => Some(Box::new(SimdFluidBackend::new(model_config(effort)))),
        Backend::Packet => None,
    };
    let packet_backend: Option<Box<dyn SimBackend>> = match backend {
        Backend::Packet | Backend::Both => Some(Box::new(PacketBackend::new(1))),
        _ => None,
    };
    let jobs: Vec<(&ScenarioSpec, u64)> = tasks.iter().map(|(spec, seed)| (spec, *seed)).collect();
    let column = |b: &dyn SimBackend| run_column(b, &jobs, |o| CellMetrics::from(&o));
    let fluid_col = fluid_backend.as_deref().map(column);
    let packet_col = packet_backend.as_deref().map(column);
    let mut backends = Vec::new();
    if let Some(b) = &fluid_backend {
        backends.push(b.name());
    }
    if let Some(b) = &packet_backend {
        backends.push(b.name());
    }
    let cells: Vec<UniverseCell> = universe
        .iter()
        .zip(&tasks)
        .enumerate()
        .map(|(i, (g, (spec, cell_seed)))| {
            reduce_cell(i, g, spec, *cell_seed, &fluid_col, &packet_col)
        })
        .collect();
    let scores: Vec<Option<f64>> = cells.iter().map(UniverseCell::score).collect();
    let ranking = compare::rank_worst_first(&scores);
    UniverseReport {
        universe_seed: seed,
        effort,
        backends,
        wall_seconds: t0.elapsed().as_secs_f64(),
        cells,
        ranking,
    }
}

fn reduce_cell(
    index: usize,
    generated: &GeneratedScenario,
    spec: &ScenarioSpec,
    seed: u64,
    fluid_col: &Option<Vec<Option<CellMetrics>>>,
    packet_col: &Option<Vec<Option<CellMetrics>>>,
) -> UniverseCell {
    let fluid = fluid_col.as_ref().and_then(|c| c[index]);
    let packet = packet_col.as_ref().and_then(|c| c[index]);
    let delta = fluid.zip(packet).map(|(f, p)| Delta::between(&f, &p));
    let links = match &spec.topology {
        Topology::Custom { links, .. } => links.len(),
        _ => 0,
    };
    UniverseCell {
        index,
        family: generated.family.label(),
        schedule: generated.schedule.label(),
        flows: spec.n_flows(),
        links,
        spec_hash: spec.stable_hash(),
        seed,
        fluid: fluid.map(|m| m.headline()),
        packet: packet.map(|m| m.headline()),
        delta,
    }
}

impl UniverseReport {
    /// Compared cells (both engines ran).
    pub fn compared(&self) -> usize {
        self.cells.iter().filter(|c| c.delta.is_some()).count()
    }

    /// Compared cells outside at least one tolerance gate.
    pub fn violations(&self) -> Vec<&UniverseCell> {
        self.cells
            .iter()
            .filter(|c| c.delta.is_some_and(|d| !UNIVERSE.admits(&d)))
            .collect()
    }

    /// Mean absolute utilization gap over compared cells (pp).
    pub fn mean_abs_util_gap_pp(&self) -> f64 {
        compare::mean_abs_util_gap(self.cells.iter().filter_map(|c| c.delta)).unwrap_or(0.0)
    }

    /// The worst `k` compared cells by score, worst first.
    pub fn worst(&self, k: usize) -> Vec<&UniverseCell> {
        self.ranking
            .iter()
            .take(k)
            .map(|&i| &self.cells[i])
            .collect()
    }

    /// Machine-readable form (schema `universe-report/v1`). Fully
    /// deterministic: wall-clock time is deliberately excluded.
    pub fn to_json(&self) -> Json {
        let cells: Vec<Json> = self
            .cells
            .iter()
            .map(|c| {
                let mut fields = vec![
                    ("index".into(), Json::Num(c.index as f64)),
                    ("family".into(), Json::str(c.family)),
                    ("schedule".into(), Json::str(c.schedule)),
                    ("flows".into(), Json::Num(c.flows as f64)),
                    ("links".into(), Json::Num(c.links as f64)),
                    ("spec".into(), Json::hex(c.spec_hash)),
                    ("seed".into(), Json::hex(c.seed)),
                ];
                if let Some(f) = c.fluid {
                    fields.push(("fluid".into(), compare::metrics_json(f)));
                }
                if let Some(p) = c.packet {
                    fields.push(("packet".into(), compare::metrics_json(p)));
                }
                if let Some(d) = c.delta {
                    let mut delta = d.json_fields();
                    delta.push(("score".into(), Json::Num(d.score(&UNIVERSE))));
                    // 1/0 — the deterministic writer has no boolean type.
                    let within = if UNIVERSE.admits(&d) { 1.0 } else { 0.0 };
                    delta.push(("within_gates".into(), Json::Num(within)));
                    fields.push(("delta".into(), Json::Obj(delta)));
                }
                Json::Obj(fields)
            })
            .collect();
        let ranking: Vec<Json> = self.ranking.iter().map(|&i| Json::Num(i as f64)).collect();
        Json::Obj(vec![
            ("schema".into(), Json::str("universe-report/v1")),
            ("universe_seed".into(), Json::hex(self.universe_seed)),
            ("effort".into(), Json::str(self.effort.tag())),
            (
                "backends".into(),
                Json::Arr(self.backends.iter().map(|b| Json::str(*b)).collect()),
            ),
            ("gates".into(), UNIVERSE.to_json()),
            (
                "summary".into(),
                Json::Obj(vec![
                    ("cells".into(), Json::Num(self.cells.len() as f64)),
                    ("compared".into(), Json::Num(self.compared() as f64)),
                    (
                        "violations".into(),
                        Json::Num(self.violations().len() as f64),
                    ),
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

    fn header(&self) -> Vec<String> {
        let mut h: Vec<String> = [
            "index", "family", "schedule", "flows", "links", "spec", "seed",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for b in &self.backends {
            for metric in ["util%", "jain", "loss%"] {
                h.push(format!("{metric}[{b}]"));
            }
        }
        h.extend(
            ["d_util_pp", "d_jain", "d_loss_pp", "score", "within"]
                .iter()
                .map(|s| s.to_string()),
        );
        h
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.cells
            .iter()
            .map(|c| {
                let mut row = vec![
                    c.index.to_string(),
                    c.family.to_string(),
                    c.schedule.to_string(),
                    c.flows.to_string(),
                    c.links.to_string(),
                    format!("{:016x}", c.spec_hash),
                    format!("{:016x}", c.seed),
                ];
                for b in &self.backends {
                    let m = if *b == "packet" { c.packet } else { c.fluid };
                    match m {
                        Some((util, jain, loss)) => {
                            row.push(table::f1(util));
                            row.push(table::f3(jain));
                            row.push(table::f3(loss));
                        }
                        None => row.extend(["-", "-", "-"].map(String::from)),
                    }
                }
                match c.delta {
                    Some(d) => {
                        row.push(format!("{:+.1}", d.util_pp));
                        row.push(format!("{:+.3}", d.jain));
                        row.push(format!("{:+.2}", d.loss_pp));
                        row.push(table::f3(d.score(&UNIVERSE)));
                        row.push(if UNIVERSE.admits(&d) { "yes" } else { "NO" }.to_string());
                    }
                    None => row.extend(["-", "-", "-", "-", "-"].map(String::from)),
                }
                row
            })
            .collect()
    }

    /// CSV rendering (the byte-stability gate compares this).
    pub fn csv(&self) -> String {
        table::to_csv(&self.header(), &self.rows())
    }

    /// Human-readable summary: headline numbers, gate verdict, worst
    /// cells.
    pub fn table(&self) -> String {
        let mut out = format!(
            "Universe sweep: {} generated cells (seed {:#x}) × {{{}}} — {:.2} s wall\n",
            self.cells.len(),
            self.universe_seed,
            self.backends.join(", "),
            self.wall_seconds,
        );
        if self.compared() > 0 {
            let violations = self.violations();
            out.push_str(&format!(
                "compared {} cells: mean |Δutil| = {:.2} pp, {} outside tolerance gates \
                 (|Δutil| ≤ {} pp, |Δjain| ≤ {}, |Δloss| ≤ {} pp)\n",
                self.compared(),
                self.mean_abs_util_gap_pp(),
                violations.len(),
                UNIVERSE.util_pp,
                UNIVERSE.jain,
                UNIVERSE.loss_pp,
            ));
            out.push_str("worst cells (score = tolerance-normalized divergence):\n");
            for c in self.worst(5) {
                let d = c.delta.expect("ranking holds compared cells only");
                out.push_str(&format!(
                    "  #{:<5} {:>7}/{:<7} {} flows, {} links: Δutil {:+.1} pp, \
                     Δjain {:+.3}, Δloss {:+.2} pp (score {:.2}{})\n",
                    c.index,
                    c.family,
                    c.schedule,
                    c.flows,
                    c.links,
                    d.util_pp,
                    d.jain,
                    d.loss_pp,
                    d.score(&UNIVERSE),
                    if UNIVERSE.admits(&d) {
                        ""
                    } else {
                        ", OUTSIDE GATES"
                    },
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_sweep_is_deterministic_and_serializes() {
        let a = run_universe(0x5eed, 12, Effort::Fast, Backend::Both);
        let b = run_universe(0x5eed, 12, Effort::Fast, Backend::Both);
        assert_eq!(a.cells.len(), 12);
        assert_eq!(a.backends, vec!["fluid", "packet"]);
        assert_eq!(a.compared(), 12, "both engines must run every cell");
        assert_eq!(a.csv(), b.csv(), "same seed must give byte-identical CSV");
        assert_eq!(
            a.to_json().to_compact_string(),
            b.to_json().to_compact_string()
        );
        let parsed = Json::parse(&a.to_json().to_compact_string()).unwrap();
        assert_eq!(
            parsed.field("schema").unwrap().as_str(),
            Some("universe-report/v1")
        );
        let cells = parsed.field("cells").unwrap().as_arr().unwrap();
        assert_eq!(cells.len(), 12);
        // Ranking is worst-first over compared cells.
        for w in a.ranking.windows(2) {
            let score = |i: usize| a.cells[i].score().unwrap();
            assert!(score(w[0]) >= score(w[1]));
        }
        // Every generated cell of this small smoke universe is within
        // the tolerance gates (the CI sweep enforces this at 64 cells,
        // the acceptance run at 1000+).
        assert!(
            a.violations().is_empty(),
            "cells outside gates: {:?}",
            a.violations()
        );
    }

    #[test]
    fn single_backend_sweeps_skip_deltas() {
        let r = run_universe(7, 6, Effort::Fast, Backend::Fluid);
        assert_eq!(r.backends, vec!["fluid"]);
        assert_eq!(r.compared(), 0);
        assert!(r.ranking.is_empty());
        assert!(r
            .cells
            .iter()
            .all(|c| c.fluid.is_some() && c.packet.is_none()));
        // CSV renders "-" columns instead of omitting them.
        let csv = r.csv();
        assert!(csv.lines().nth(1).unwrap().ends_with("-,-,-,-,-"));
    }
}
