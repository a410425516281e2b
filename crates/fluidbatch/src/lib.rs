//! Batched fluid backends: whole sweep grids integrated in lockstep
//! waves on the fluid engine of `bbr-fluid-core`
//! (`bbr_fluid_core::sim::LockstepSim`).
//!
//! The paper's fluid-model results come from sweeping many (CCA, qdisc,
//! topology, RTT, flow-count) configurations. This crate packs each
//! wave of N scenarios into the engine's contiguous per-flow/per-link
//! lanes, which advance through one shared step loop with per-lane
//! termination masks and per-flow activation masks (flow churn), so
//! heterogeneous specs — different flow counts, durations, churn
//! windows, and topologies across the dumbbell/parking-lot/chain
//! families — batch together, and fans the waves out across the rayon
//! pool.
//!
//! [`BatchedFluidBackend`] runs `f64` lanes, one scenario per lane.
//! [`SimdFluidBackend`] runs `F64x4` lanes, four same-structure
//! scenarios per lane (see [`packed`], which holds the packed agents
//! and queue kernels). The step loop, history arena and metrics are the
//! engine's; this crate holds the wave runner and the packing.
//!
//! # Identity contract
//!
//! [`BatchedFluidBackend`] reports the name `"fluid"`: it is an
//! *execution strategy* over the same fluid model, not a different
//! simulator. Its lanes are the lanes `FluidBackend` runs one at a time,
//! so for every spec its outcomes are **byte-identical** to
//! `FluidBackend` with the same `ModelConfig`, and result-store keys,
//! campaign caches, and pinned hashes produced by either are
//! interchangeable (`tests/fluidbatch_equivalence.rs` holds the
//! equivalence test-matrix).
//!
//! ```
//! use bbr_fluid_core::backend::FluidBackend;
//! use bbr_fluidbatch::BatchedFluidBackend;
//! use bbr_scenario::{BatchSimBackend, CcaKind, ScenarioSpec, SimBackend};
//!
//! let a = ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
//!     .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
//!     .duration(1.0);
//! let b = ScenarioSpec::parking_lot(50.0, 40.0, 0.010, 2.0)
//!     .ccas(vec![CcaKind::Cubic])
//!     .duration(0.5);
//! let batch = BatchedFluidBackend::coarse().run_batch(&[(&a, 1), (&b, 2)]);
//! assert_eq!(batch[0], FluidBackend::coarse().run(&a, 1));
//! assert_eq!(batch[1], FluidBackend::coarse().run(&b, 2));
//! ```

pub mod packed;

use bbr_fluid_core::backend::outcome_from_metrics;
use bbr_fluid_core::cca::AnyCca;
use bbr_fluid_core::config::ModelConfig;
use bbr_fluid_core::lanes::Lanes;
use bbr_fluid_core::sim::{LaneAgent, LockstepSim};
use bbr_scenario::{BatchSimBackend, RunOutcome, ScenarioSpec, SimBackend};
use rayon::prelude::*;

pub use crate::packed::SimdFluidBackend;

/// The telemetry hook is process-global and every engine run emits
/// `Wave` events into it, so each unit test here and in `packed` that
/// runs an engine holds this lock (via [`telemetry_serial`]): a test
/// that installs a sink then captures only its own waves.
#[cfg(test)]
pub(crate) static TELEMETRY_TEST_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Hold [`TELEMETRY_TEST_SERIAL`]; a test that panicked while holding it
/// does not fail the others.
#[cfg(test)]
pub(crate) fn telemetry_serial() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_TEST_SERIAL
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Default cap on the summed flow count of one lockstep wave.
///
/// A wave's working set (histories, agents, lookup tables) should stay
/// cache-resident across steps; bounding the summed flow count bounds
/// it. Purely an execution knob — wave splitting cannot change results,
/// since every lane is independent. Measured on the pinned bench grids,
/// small waves win on a single cache-bound core (throughput is flat up
/// to ~24 summed flows and decays ~10% by 96), so the default keeps a
/// wave at a couple of typical lanes; widen it for SIMD/multicore
/// experiments where cross-lane parallelism pays.
pub const DEFAULT_WAVE_FLOW_BUDGET: usize = 16;

/// The batched fluid integrator as a [`SimBackend`] /
/// [`BatchSimBackend`].
#[derive(Debug, Clone)]
pub struct BatchedFluidBackend {
    cfg: ModelConfig,
    wave_flow_budget: usize,
}

impl BatchedFluidBackend {
    /// Backend with an explicit integration configuration.
    pub fn new(cfg: ModelConfig) -> Self {
        Self {
            cfg,
            wave_flow_budget: DEFAULT_WAVE_FLOW_BUDGET,
        }
    }

    /// Backend with the coarse (fast) integration step — the usual
    /// choice for sweeps and tests, and the one matching
    /// `FluidBackend::coarse()`.
    pub fn coarse() -> Self {
        Self::new(ModelConfig::coarse())
    }

    /// Override the summed-flow budget of one lockstep wave (execution
    /// knob only; results are invariant). Values below 1 mean one lane
    /// per wave.
    pub fn wave_flow_budget(mut self, flows: usize) -> Self {
        self.wave_flow_budget = flows.max(1);
        self
    }

    /// How many lockstep waves [`BatchSimBackend::run_batch`] would
    /// split `jobs` into under the *current* thread count — the
    /// fan-out width the rayon pool gets. Introspection only (wave
    /// splitting never changes results); lets tests and tuning scripts
    /// verify the thread-aware sizing without private access.
    pub fn wave_count(&self, jobs: &[(&ScenarioSpec, u64)]) -> usize {
        self.waves(jobs).len()
    }

    /// Split jobs into waves whose summed flow counts stay within the
    /// budget (every wave holds at least one job).
    ///
    /// The configured budget is additionally tightened to
    /// `ceil(total_flows / threads)` so a multi-thread pool always gets
    /// at least one wave per worker: a small batch split by the
    /// cache-residency cap alone can yield fewer waves than threads and
    /// leave cores idle. Wave splitting is result-invariant (every lane
    /// is independent), so this only moves work, never bits.
    fn waves(&self, jobs: &[(&ScenarioSpec, u64)]) -> Vec<Vec<usize>> {
        let total: usize = jobs.iter().map(|(spec, _)| spec.n_flows()).sum();
        let threads = rayon::current_num_threads().max(1);
        let budget = self.wave_flow_budget.min(total.div_ceil(threads)).max(1);
        let mut waves = Vec::with_capacity(total.div_ceil(budget));
        let mut start = 0;
        let mut flows = 0;
        for (idx, (spec, _)) in jobs.iter().enumerate() {
            let f = spec.n_flows();
            if idx > start && flows + f > budget {
                waves.push((start..idx).collect());
                start = idx;
                flows = 0;
            }
            flows += f;
        }
        if start < jobs.len() {
            waves.push((start..jobs.len()).collect());
        }
        waves
    }
}

impl SimBackend for BatchedFluidBackend {
    /// `"fluid"`, deliberately: outcomes are bit-identical to
    /// `FluidBackend`'s, so stores and reports treat them as the same
    /// column (see the crate docs' identity contract).
    fn name(&self) -> &'static str {
        "fluid"
    }

    fn run(&self, spec: &ScenarioSpec, seed: u64) -> RunOutcome {
        self.run_batch(&[(spec, seed)])
            .pop()
            .expect("one job in, one outcome out")
    }

    fn as_batch(&self) -> Option<&dyn BatchSimBackend> {
        Some(self)
    }
}

impl BatchSimBackend for BatchedFluidBackend {
    /// Integrate every job's scenario in lockstep waves, waves fanned
    /// out across the rayon pool (each wave is an independent batch, so
    /// parallelizing them cannot change a bit of any outcome — and a
    /// multi-core sweep keeps its thread-level speedup on top of the
    /// batch engine's per-core one). The fluid model is deterministic,
    /// so the seeds are ignored (as in `FluidBackend`); outcomes come
    /// back in job order.
    fn run_batch(&self, jobs: &[(&ScenarioSpec, u64)]) -> Vec<RunOutcome> {
        run_waves::<AnyCca>(&self.cfg, jobs, self.name(), self.waves(jobs))
    }
}

/// The wave runner of both backends. Each wave lists job indices, and
/// [`LockstepSim`] fills its lanes with `WIDTH` consecutive ones.
/// Validates, integrates the waves across the rayon pool, reports each
/// to the telemetry hook and returns the outcomes, named `name`, in job
/// order.
fn run_waves<A: LaneAgent>(
    cfg: &ModelConfig,
    jobs: &[(&ScenarioSpec, u64)],
    name: &'static str,
    waves: Vec<Vec<usize>>,
) -> Vec<RunOutcome> {
    // The same inputs `Simulator::for_spec` refuses (e.g. a zero step
    // size), refused before any wave is built.
    cfg.validate().expect("invalid model configuration");
    for (spec, _) in jobs {
        spec.validate().expect("invalid scenario spec");
    }
    let mut done: Vec<(usize, RunOutcome)> = waves
        .par_iter()
        .map(|wave| {
            // Wave-level telemetry: one relaxed atomic load on the no-op
            // path; the clock is only read (and the event only built)
            // when a sink is listening, so an uninstrumented sweep pays
            // nothing per wave.
            let t0 = bbr_telemetry::enabled().then(std::time::Instant::now);
            let specs: Vec<&ScenarioSpec> = wave.iter().map(|&i| jobs[i].0).collect();
            let metrics = LockstepSim::<A>::for_specs(&specs, cfg.clone()).run();
            if let Some(t0) = t0 {
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                bbr_telemetry::emit(|| bbr_telemetry::Event::Wave {
                    lanes: specs.len(),
                    flows: specs.iter().map(|s| s.n_flows()).sum(),
                    // Members over lane slots: 1.0 for `f64` lanes; a
                    // ragged pack's padding shows up as < 1.0.
                    occupancy: specs.len() as f64
                        / (specs.len().div_ceil(A::V::WIDTH) * A::V::WIDTH) as f64,
                    wall_ms,
                });
            }
            wave.iter()
                .zip(&metrics)
                .map(|(&i, m)| {
                    let mut out = outcome_from_metrics(jobs[i].0, m);
                    out.backend = name;
                    (i, out)
                })
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbr_fluid_core::backend::FluidBackend;
    use bbr_scenario::CcaKind;

    fn specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
                .duration(1.0),
            ScenarioSpec::dumbbell(4, 100.0, 0.010, 1.0)
                .ccas(vec![CcaKind::Cubic])
                .duration(0.8),
            ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0)
                .ccas(vec![CcaKind::BbrV2])
                .duration(0.6),
            ScenarioSpec::chain(3, 100.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV1])
                .duration(0.5),
        ]
    }

    #[test]
    fn batch_is_bit_identical_to_scalar_across_families() {
        let _serial = telemetry_serial();
        let specs = specs();
        let jobs: Vec<(&ScenarioSpec, u64)> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s, i as u64))
            .collect();
        let batch = BatchedFluidBackend::coarse().run_batch(&jobs);
        let scalar = FluidBackend::coarse();
        for ((spec, seed), out) in jobs.iter().zip(&batch) {
            assert_eq!(out, &scalar.run(spec, *seed), "{:?}", spec.topology);
        }
    }

    #[test]
    fn ragged_durations_terminate_lanes_independently() {
        let _serial = telemetry_serial();
        // Same spec at three window lengths in one batch: the masks end
        // each lane on its own step count, and every lane still matches
        // its scalar run exactly.
        let base = ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1]);
        let specs: Vec<ScenarioSpec> = [0.3, 1.1, 0.7]
            .iter()
            .map(|d| base.clone().duration(*d))
            .collect();
        let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 0)).collect();
        let batch = BatchedFluidBackend::coarse().run_batch(&jobs);
        let scalar = FluidBackend::coarse();
        for (spec, out) in specs.iter().zip(&batch) {
            assert_eq!(out, &scalar.run(spec, 0), "duration {}", spec.duration);
        }
        // Durations differ, so the outcomes must too (the masks really
        // stopped integrating, rather than sharing one window).
        assert_ne!(batch[0], batch[1]);
    }

    #[test]
    fn wave_splitting_is_invisible_in_results() {
        let _serial = telemetry_serial();
        let specs = specs();
        let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 0)).collect();
        let one_wave = BatchedFluidBackend::coarse()
            .wave_flow_budget(1000)
            .run_batch(&jobs);
        let lane_per_wave = BatchedFluidBackend::coarse()
            .wave_flow_budget(1)
            .run_batch(&jobs);
        assert_eq!(one_wave, lane_per_wave);
    }

    #[test]
    fn scalar_entry_point_and_batch_view() {
        let _serial = telemetry_serial();
        let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0)
            .ccas(vec![CcaKind::Reno])
            .duration(0.5);
        let b = BatchedFluidBackend::coarse();
        assert_eq!(b.name(), "fluid");
        assert!(b.as_batch().is_some());
        assert_eq!(b.run(&spec, 3), FluidBackend::coarse().run(&spec, 3));
        // The fluid model ignores seeds, batched or not.
        assert_eq!(b.run(&spec, 1), b.run(&spec, 999));
    }

    #[test]
    fn waves_emit_telemetry_when_a_sink_listens() {
        let _serial = telemetry_serial();
        let capture = std::sync::Arc::new(bbr_telemetry::MemorySink::new());
        let specs = specs();
        let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 0)).collect();
        let without_sink = BatchedFluidBackend::coarse().run_batch(&jobs);
        let with_sink = {
            let _guard = bbr_telemetry::install(capture.clone());
            BatchedFluidBackend::coarse().run_batch(&jobs)
        };
        // Instrumentation is observation only: identical outcomes.
        assert_eq!(without_sink, with_sink);
        let events = capture.take();
        let mut lanes = 0;
        let mut flows = 0;
        for ev in events.iter() {
            let bbr_telemetry::Event::Wave {
                lanes: l,
                flows: f,
                occupancy,
                wall_ms,
            } = ev
            else {
                continue;
            };
            assert!(*l >= 1 && *f >= *l && *wall_ms >= 0.0);
            assert!(
                (0.0..=1.0).contains(occupancy),
                "occupancy out of range: {occupancy}"
            );
            lanes += l;
            flows += f;
        }
        // Every job lands in exactly one wave, and no other test of this
        // binary runs an engine while the sink is installed.
        assert_eq!(lanes, jobs.len());
        let total: usize = specs.iter().map(|s| s.n_flows()).sum();
        assert_eq!(flows, total);
    }

    #[test]
    #[should_panic(expected = "invalid scenario spec")]
    fn invalid_specs_are_rejected_before_any_integration() {
        let bad = ScenarioSpec::dumbbell(0, 50.0, 0.010, 1.0);
        let _ = BatchedFluidBackend::coarse().run_batch(&[(&bad, 0)]);
    }
}
