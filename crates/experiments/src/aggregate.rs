//! The aggregate validation sweep behind Figs. 6–10 (and the short-RTT
//! replicas, Figs. 13–17): every CCA combo × buffer sizes 1–7 BDP ×
//! {drop-tail, RED}, evaluated on both the fluid model and the packet
//! simulator, yielding Jain fairness, loss, buffer occupancy,
//! utilization, and jitter.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use bbr_campaign::run_column;
use bbr_fluid_core::prelude::*;
use bbr_fluidbatch::BatchedFluidBackend;
use bbr_packetsim::backend::PacketBackend;
use bbr_scenario::RunOutcome;

use crate::scenarios::{CampaignParams, Combo, COMBOS};
use crate::Effort;

/// The seed of every aggregate-figure cell. The packet engine derives
/// its runs' seeds from it; the fluid model ignores it.
const FIGURE_SEED: u64 = 42;

/// The five §4.3 metrics of one simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellMetrics {
    pub jain: f64,
    pub loss_percent: f64,
    pub occupancy_percent: f64,
    pub utilization_percent: f64,
    pub jitter_ms: f64,
}

impl From<&RunOutcome> for CellMetrics {
    fn from(o: &RunOutcome) -> Self {
        Self {
            jain: o.jain,
            loss_percent: o.loss_percent,
            occupancy_percent: o.occupancy_percent,
            utilization_percent: o.utilization_percent,
            jitter_ms: o.jitter_ms,
        }
    }
}

impl CellMetrics {
    /// `(utilization %, Jain, loss %)`: the three metrics the
    /// differential harness ([`crate::compare`]) gates.
    pub fn headline(&self) -> (f64, f64, f64) {
        (self.utilization_percent, self.jain, self.loss_percent)
    }

    pub fn get(&self, metric: Metric) -> f64 {
        match metric {
            Metric::Jain => self.jain,
            Metric::Loss => self.loss_percent,
            Metric::Occupancy => self.occupancy_percent,
            Metric::Utilization => self.utilization_percent,
            Metric::Jitter => self.jitter_ms,
        }
    }
}

/// Which of the five aggregate metrics a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    Jain,
    Loss,
    Occupancy,
    Utilization,
    Jitter,
}

impl Metric {
    pub fn label(&self) -> &'static str {
        match self {
            Metric::Jain => "Jain fairness",
            Metric::Loss => "Loss [%]",
            Metric::Occupancy => "Buffer occupancy [%]",
            Metric::Utilization => "Utilization [%]",
            Metric::Jitter => "Jitter [ms]",
        }
    }
}

/// Results of a full sweep under one queuing discipline.
#[derive(Debug, Clone)]
pub struct SweepTable {
    pub buffers: Vec<f64>,
    /// `cells[combo_index][buffer_index] = (model, experiment)`.
    pub cells: Vec<Vec<(CellMetrics, CellMetrics)>>,
}

/// The integration configuration of the given effort (coarse step for
/// fast mode, a fine 20 µs step otherwise): the one effort → config map,
/// which sweeps, campaigns, the drift audit and every figure read.
/// Figures that set other model knobs start from it.
pub fn model_config(effort: Effort) -> ModelConfig {
    if effort.is_fast() {
        ModelConfig::coarse()
    } else {
        ModelConfig {
            dt: 2e-5,
            ..ModelConfig::default()
        }
    }
}

/// Buffer sizes of the sweep (1–7 BDP; reduced in fast mode).
pub fn buffer_sizes(effort: Effort) -> Vec<f64> {
    if effort.is_fast() {
        vec![1.0, 4.0]
    } else {
        (1..=7).map(|b| b as f64).collect()
    }
}

/// Run (or fetch from the in-process cache) the full sweep.
pub fn sweep(p: &CampaignParams, qdisc: QdiscKind, effort: Effort) -> Arc<SweepTable> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<SweepTable>>>> = OnceLock::new();
    let key = format!("{}-{}-{:?}-{:?}", p.n, p.bottleneck_delay, qdisc, effort);
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return hit.clone();
    }
    let buffers = buffer_sizes(effort);
    let combos: Vec<&Combo> = if effort.is_fast() {
        vec![&COMBOS[0], &COMBOS[3], &COMBOS[4]]
    } else {
        COMBOS.iter().collect()
    };
    let specs: Vec<ScenarioSpec> = combos
        .iter()
        .flat_map(|combo| buffers.iter().map(|&b| p.dumbbell_spec(combo, b, qdisc)))
        .collect();
    let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, FIGURE_SEED)).collect();
    // The batched fluid engine is bit-identical to the scalar one, and
    // the packet cells spread over the pool: same table, less wall time.
    let column = |backend: &dyn SimBackend| -> Vec<CellMetrics> {
        run_column(backend, &jobs, |o| CellMetrics::from(&o))
            .into_iter()
            .map(|m| m.expect("dumbbells run on every backend"))
            .collect()
    };
    let model = column(&BatchedFluidBackend::new(model_config(effort)));
    let experiment = column(&PacketBackend::new(p.runs));
    let pairs: Vec<(CellMetrics, CellMetrics)> = model.into_iter().zip(experiment).collect();
    let cells = pairs
        .chunks(buffers.len())
        .map(|row| row.to_vec())
        .collect();
    let table = Arc::new(SweepTable { buffers, cells });
    cache.lock().unwrap().insert(key, table.clone());
    table
}

/// The combo labels actually included at the given effort.
pub fn combo_labels(effort: Effort) -> Vec<&'static str> {
    if effort.is_fast() {
        vec![COMBOS[0].label, COMBOS[3].label, COMBOS[4].label]
    } else {
        COMBOS.iter().map(|c| c.label).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_cells_produce_sane_metrics() {
        let p = CampaignParams::default_rtt().fast();
        let table = sweep(&p, QdiscKind::DropTail, Effort::Fast);
        assert_eq!(table.cells.len(), combo_labels(Effort::Fast).len());
        assert_eq!(combo_labels(Effort::Fast)[0], COMBOS[0].label);
        for &(m, e) in table.cells.iter().flatten() {
            assert!(m.jain > 0.0 && m.jain <= 1.0);
            assert!((0.0..=100.0).contains(&m.loss_percent));
            assert!((0.0..=100.0).contains(&m.occupancy_percent));
            assert!(m.utilization_percent > 10.0);
            assert!(e.jain > 0.0 && e.jain <= 1.0);
            assert!(e.utilization_percent > 10.0);
        }
    }

    #[test]
    fn buffer_sizes_presets() {
        assert_eq!(buffer_sizes(Effort::Full).len(), 7);
        assert_eq!(buffer_sizes(Effort::Fast).len(), 2);
    }
}
