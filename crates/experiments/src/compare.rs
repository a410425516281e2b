//! The differential harness: every cross-backend comparison in this
//! crate (the aggregate figures, `figures drift`, `figures universe`,
//! `figures simd-check`) and the consistency tests read their
//! tolerances, deltas and column runs from here.
//!
//! * [`Gates`] and its two table entries, [`CONSISTENCY`] and
//!   [`UNIVERSE`].
//! * [`Delta`]: `other − reference` on utilization, Jain and loss, and
//!   its tolerance-normalized [`Delta::score`].
//! * [`rank_worst_first`] and [`mean_abs_util_gap`]: the two reductions
//!   every report prints.
//! * [`run_column`]: the one rule for running a backend over a list of
//!   `(spec, seed)` jobs.
//!
//! The table holds values, not operators: each check keeps its own
//! comparison. `figures simd-check` and the consistency tests gate
//! utilization and Jain with a strict `<`; the universe sweep gates all
//! three metrics inclusively through [`Gates::admits`].

use std::cmp::Ordering;

use bbr_campaign::json::Json;
use bbr_scenario::{RunOutcome, ScenarioSpec, SimBackend};
use rayon::prelude::*;

use crate::aggregate::CellMetrics;

/// Tolerances on the three metrics a comparison gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gates {
    /// Utilization gap, in percentage points.
    pub util_pp: f64,
    /// Jain-index gap.
    pub jain: f64,
    /// Loss gap, in percentage points.
    pub loss_pp: f64,
}

/// The cross-backend consistency contract of the paper's validation
/// (§4.3): utilization within 25 pp and Jain within 0.35. The packet
/// engine is held to it by `tests/backend_consistency.rs`, and the
/// `fluid-simd` engine promises it against `fluid`. No loss bound
/// exists: `loss_pp` only normalizes [`Delta::score`], weighing 5 pp of
/// loss like a full utilization tolerance.
pub const CONSISTENCY: Gates = Gates {
    util_pp: 25.0,
    jain: 0.35,
    loss_pp: 5.0,
};

/// The generated-universe gates, all three enforced. They share the
/// consistency utilization bound but widen Jain and loss: generated
/// cells include multi-hop contention and flow churn, where packet
/// restart transients (STARTUP loss bursts, BBR flow-join standoff) and
/// multi-flow fairness tails are known fluid blind spots. Calibrated on
/// the 1024-cell seed-1889 reference universe (observed maxima: 19.5 pp
/// utilization, 0.39 Jain, 8.5 pp loss) with at least 20 % headroom on
/// every axis.
pub const UNIVERSE: Gates = Gates {
    util_pp: 25.0,
    jain: 0.5,
    loss_pp: 12.0,
};

impl Gates {
    /// Whether every metric of `d` lies within its gate, inclusive
    /// (`|Δ| <= gate`).
    pub fn admits(&self, d: &Delta) -> bool {
        d.util_pp.abs() <= self.util_pp
            && d.jain.abs() <= self.jain
            && d.loss_pp.abs() <= self.loss_pp
    }

    /// The gates as a JSON object, keyed like [`Delta::json_fields`].
    pub fn to_json(&self) -> Json {
        Json::Obj(pp_fields(self.util_pp, self.jain, self.loss_pp))
    }
}

/// `other − reference` on each gated metric of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Utilization gap (percentage points).
    pub util_pp: f64,
    /// Jain-index gap.
    pub jain: f64,
    /// Loss gap (percentage points).
    pub loss_pp: f64,
}

impl Delta {
    /// The gaps of `other` against `reference` (packet − fluid when the
    /// reference is the fluid model).
    pub fn between(reference: &CellMetrics, other: &CellMetrics) -> Self {
        Self {
            util_pp: other.utilization_percent - reference.utilization_percent,
            jain: other.jain - reference.jain,
            loss_pp: other.loss_percent - reference.loss_percent,
        }
    }

    /// Tolerance-normalized divergence, `|Δutil|/u + |Δjain|/j +
    /// |Δloss|/l`, summed in that order. A score near 1 is a cell at the
    /// edge of `gates`, so rankings compare across metrics.
    pub fn score(&self, gates: &Gates) -> f64 {
        self.util_pp.abs() / gates.util_pp
            + self.jain.abs() / gates.jain
            + self.loss_pp.abs() / gates.loss_pp
    }

    /// The gaps as JSON fields (`utilization_pp`, `jain`, `loss_pp`).
    pub fn json_fields(&self) -> Vec<(String, Json)> {
        pp_fields(self.util_pp, self.jain, self.loss_pp)
    }
}

fn pp_fields(util_pp: f64, jain: f64, loss_pp: f64) -> Vec<(String, Json)> {
    vec![
        ("utilization_pp".into(), Json::Num(util_pp)),
        ("jain".into(), Json::Num(jain)),
        ("loss_pp".into(), Json::Num(loss_pp)),
    ]
}

/// One engine's `(utilization %, Jain, loss %)` as a JSON object.
pub fn metrics_json((util, jain, loss): (f64, f64, f64)) -> Json {
    Json::Obj(vec![
        ("utilization_percent".into(), Json::Num(util)),
        ("jain".into(), Json::Num(jain)),
        ("loss_percent".into(), Json::Num(loss)),
    ])
}

/// Indices of the scored entries, highest score first. `None` entries
/// are dropped. The sort is stable, so ties keep index order, and a NaN
/// compares equal to everything.
pub fn rank_worst_first(scores: &[Option<f64>]) -> Vec<usize> {
    let mut ranking: Vec<usize> = (0..scores.len()).filter(|&i| scores[i].is_some()).collect();
    ranking.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap_or(Ordering::Equal));
    ranking
}

/// Mean absolute utilization gap (pp) over `deltas`; `None` when there
/// are none.
pub fn mean_abs_util_gap(deltas: impl IntoIterator<Item = Delta>) -> Option<f64> {
    let gaps: Vec<f64> = deltas.into_iter().map(|d| d.util_pp.abs()).collect();
    (!gaps.is_empty()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64)
}

/// Run `backend` over `jobs` and return one reduced outcome per job, in
/// job order.
///
/// * A job whose spec the backend does not support
///   ([`SimBackend::supports`]) comes back `None`.
/// * A backend with a batch view ([`SimBackend::as_batch`]) gets every
///   supported job in one `run_batch` call.
/// * Any other backend runs one job per task across the rayon pool.
///
/// `reduce` runs where each outcome lands: on the worker thread for
/// per-job backends. A caller that keeps only [`CellMetrics`] therefore
/// never holds the full outcomes, and each outcome is freed on the
/// thread that allocated it.
///
/// `run_batch` is bit-identical to per-job `run` by contract, so the
/// column never depends on which path ran or on the thread count.
pub fn run_column<T: Send>(
    backend: &dyn SimBackend,
    jobs: &[(&ScenarioSpec, u64)],
    reduce: impl Fn(RunOutcome) -> T + Sync,
) -> Vec<Option<T>> {
    match backend.as_batch() {
        Some(batch) => {
            let supported: Vec<usize> = (0..jobs.len())
                .filter(|&i| backend.supports(jobs[i].0))
                .collect();
            let batch_jobs: Vec<(&ScenarioSpec, u64)> =
                supported.iter().map(|&i| jobs[i]).collect();
            let mut column: Vec<Option<T>> = jobs.iter().map(|_| None).collect();
            for (&i, out) in supported.iter().zip(batch.run_batch(&batch_jobs)) {
                column[i] = Some(reduce(out));
            }
            column
        }
        None => jobs
            .par_iter()
            .map(|&(spec, seed)| {
                backend
                    .supports(spec)
                    .then(|| reduce(backend.run(spec, seed)))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbr_fluid_core::backend::FluidBackend;
    use bbr_fluidbatch::BatchedFluidBackend;
    use bbr_scenario::{BatchSimBackend, CcaKind, QdiscKind};

    fn metrics(util: f64, jain: f64, loss: f64) -> CellMetrics {
        CellMetrics {
            utilization_percent: util,
            jain,
            loss_percent: loss,
            ..CellMetrics::default()
        }
    }

    #[test]
    fn delta_is_other_minus_reference_and_score_keeps_the_drift_bits() {
        let fluid = metrics(91.3, 0.97, 0.4);
        let packet = metrics(78.6, 0.81, 2.9);
        let d = Delta::between(&fluid, &packet);
        assert_eq!(d.util_pp, 78.6 - 91.3);
        assert_eq!(d.jain, 0.81 - 0.97);
        assert_eq!(d.loss_pp, 2.9 - 0.4);
        assert!(d.util_pp < 0.0 && d.jain < 0.0 && d.loss_pp > 0.0);
        // The drift audit's score formula before the harness existed.
        let old = (78.6f64 - 91.3).abs() / 25.0
            + (0.81f64 - 0.97).abs() / 0.35
            + (2.9f64 - 0.4).abs() / 5.0;
        assert_eq!(d.score(&CONSISTENCY).to_bits(), old.to_bits());
        // Swapping the engines flips every sign and keeps the score.
        let back = Delta::between(&packet, &fluid);
        assert_eq!(back.util_pp, -d.util_pp);
        assert_eq!(back.score(&CONSISTENCY).to_bits(), old.to_bits());
    }

    #[test]
    fn universe_gates_are_inclusive() {
        let at = Delta {
            util_pp: -UNIVERSE.util_pp,
            jain: UNIVERSE.jain,
            loss_pp: UNIVERSE.loss_pp,
        };
        assert!(UNIVERSE.admits(&at), "a cell exactly at every gate passes");
        for above in [
            Delta {
                util_pp: UNIVERSE.util_pp.next_up(),
                ..at
            },
            Delta {
                jain: -UNIVERSE.jain.next_up(),
                ..at
            },
            Delta {
                loss_pp: UNIVERSE.loss_pp.next_up(),
                ..at
            },
        ] {
            assert!(!UNIVERSE.admits(&above), "{above:?} passed");
        }
        let nan = Delta {
            jain: f64::NAN,
            ..at
        };
        assert!(!UNIVERSE.admits(&nan), "a NaN gap is never admitted");
    }

    #[test]
    fn ranking_is_worst_first_stable_and_skips_unscored() {
        let scores = [
            Some(1.0),
            None,
            Some(3.0),
            Some(1.0),
            Some(0.5),
            None,
            Some(3.0),
        ];
        assert_eq!(rank_worst_first(&scores), vec![2, 6, 0, 3, 4]);
        assert!(rank_worst_first(&[None, None]).is_empty());
        assert_eq!(mean_abs_util_gap(Vec::<Delta>::new()), None);
        let d = |util_pp: f64| Delta {
            util_pp,
            jain: 0.0,
            loss_pp: 0.0,
        };
        assert_eq!(mean_abs_util_gap([d(-3.0), d(1.0)]), Some(2.0));
    }

    /// Fluid under another name, refusing specs with more than two flows;
    /// `batch` chooses whether it exposes a batch view.
    struct TwoFlowsOnly {
        batch: bool,
    }

    impl SimBackend for TwoFlowsOnly {
        fn name(&self) -> &'static str {
            "two-flows-only"
        }
        fn supports(&self, spec: &ScenarioSpec) -> bool {
            spec.n_flows() <= 2
        }
        fn run(&self, spec: &ScenarioSpec, seed: u64) -> RunOutcome {
            assert!(self.supports(spec), "run on an unsupported spec");
            FluidBackend::coarse().run(spec, seed)
        }
        fn as_batch(&self) -> Option<&dyn BatchSimBackend> {
            self.batch.then_some(self as &dyn BatchSimBackend)
        }
    }

    impl BatchSimBackend for TwoFlowsOnly {}

    fn tiny(n: usize) -> ScenarioSpec {
        ScenarioSpec::dumbbell(n, 20.0, 0.010, 2.0).duration(0.05)
    }

    #[test]
    fn run_column_leaves_unsupported_jobs_empty() {
        let specs = [tiny(2), tiny(3), tiny(1)];
        let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 1)).collect();
        for batch in [false, true] {
            let column = run_column(&TwoFlowsOnly { batch }, &jobs, |o| o.flows.len());
            assert_eq!(column.len(), 3);
            assert!(column[1].is_none(), "batch={batch}");
            assert_eq!((column[0], column[2]), (Some(2), Some(1)));
        }
    }

    #[test]
    fn run_column_on_the_batch_engine_equals_per_job_runs() {
        let specs = [
            tiny(3).ccas(vec![CcaKind::BbrV1, CcaKind::Cubic]),
            ScenarioSpec::parking_lot(30.0, 24.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV2])
                .qdisc(QdiscKind::Red)
                .duration(0.05),
            ScenarioSpec::chain(3, 30.0, 0.010, 1.0).duration(0.05),
        ];
        let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().zip(5..).collect();
        let backend = BatchedFluidBackend::coarse();
        let column = run_column(&backend, &jobs, |o| o);
        for ((spec, seed), out) in jobs.iter().zip(column) {
            assert_eq!(out, Some(backend.run(spec, *seed)));
        }
    }
}
