//! Thread-count invariance and wave fan-out of the batch engines.
//!
//! The batch backend fans lockstep waves out over the rayon pool (the
//! workspace's offline shim, which really spreads work across
//! `std::thread::scope` workers — see `shims/rayon`). Two contracts are
//! pinned here:
//!
//! * **Byte-identity is thread-count independent.** Wave splitting is
//!   thread-aware (more threads → more, smaller waves), but every lane
//!   integrates independently and per-agent interior state (e.g.
//!   CUBIC's `k_memo` replay cache) never crosses a wave boundary, so
//!   outcomes must be bitwise the same at any thread count. Same for
//!   the packed SIMD engine: pack grouping ignores the pool entirely.
//! * **Parallel execution actually engages** for wave sets bigger than
//!   the pool — the fan-out is real threads, not a sequential loop.
//!
//! Every test here mutates the global thread override, so they all
//! serialize on one mutex (the override is process-global).

use std::sync::Mutex;

use bbr_repro::experiments::scenarios::COMBOS;
use bbr_repro::experiments::sweep::{Backend, ScenarioGrid, TopologyKind};
use bbr_repro::fluidbatch::{BatchedFluidBackend, SimdFluidBackend};
use bbr_repro::scenario::{BatchSimBackend, CcaKind, QdiscKind, ScenarioSpec};
use rayon::prelude::*;

static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("thread pool configuration");
    let out = f();
    rayon::ThreadPoolBuilder::new()
        .num_threads(0)
        .build_global()
        .expect("thread pool configuration");
    out
}

/// A small mixed grid heavy on CUBIC cells (the `k_memo` replay cache
/// is the one piece of interior mutability in the per-agent state).
fn grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .capacity(40.0)
        .combos(vec![COMBOS[1], COMBOS[5]]) // CUBIC and a mixed combo
        .flow_counts(vec![3, 6])
        .buffers_bdp(vec![1.0, 4.0])
        .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red])
        .topologies(vec![TopologyKind::Dumbbell, TopologyKind::Chain])
        .duration(0.4)
        .warmup(0.1)
}

#[test]
fn batch_byte_identity_holds_across_thread_counts() {
    let _guard = THREAD_OVERRIDE.lock().unwrap();
    let grid = grid().backend(Backend::Fluid);
    let csv_1t = with_threads(1, || grid.run().csv());
    for threads in [2usize, 4, 7] {
        let csv_nt = with_threads(threads, || grid.run().csv());
        assert_eq!(
            csv_1t, csv_nt,
            "batch CSV drifted between 1 and {threads} threads"
        );
    }
}

#[test]
fn simd_outcomes_identical_across_thread_counts() {
    let _guard = THREAD_OVERRIDE.lock().unwrap();
    // Specs chosen to pack four-wide with a padded straggler pack, so
    // both full and partial packs cross the thread-count comparison.
    let specs: Vec<ScenarioSpec> = (0..6)
        .map(|i| {
            ScenarioSpec::dumbbell(4, 60.0, 0.010, 1.0 + i as f64 * 0.5)
                .ccas(vec![CcaKind::Cubic, CcaKind::BbrV2])
                .duration(0.5)
        })
        .collect();
    let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 0)).collect();
    let backend = SimdFluidBackend::coarse();
    let out_1t = with_threads(1, || backend.run_batch(&jobs));
    let out_4t = with_threads(4, || backend.run_batch(&jobs));
    assert_eq!(out_1t, out_4t, "packed outcomes depend on thread count");
}

#[test]
fn wave_sizing_tracks_the_thread_count() {
    let _guard = THREAD_OVERRIDE.lock().unwrap();
    // 4 jobs x 8 flows: the 16-flow cache budget alone would make 2
    // waves and leave a 4-thread pool half idle; the thread-aware
    // budget tightens to 8 flows and fills every worker.
    let specs: Vec<ScenarioSpec> = (0..4)
        .map(|i| ScenarioSpec::dumbbell(8, 50.0, 0.010, 1.0 + i as f64).duration(0.2))
        .collect();
    let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 0)).collect();
    let backend = BatchedFluidBackend::coarse();
    assert_eq!(with_threads(1, || backend.wave_count(&jobs)), 2);
    assert_eq!(with_threads(4, || backend.wave_count(&jobs)), 4);
    // A big job list is still bounded by the cache-residency budget,
    // not chopped into ever-smaller pieces.
    let many: Vec<ScenarioSpec> = (0..40)
        .map(|i| ScenarioSpec::dumbbell(4, 50.0, 0.010, 1.0 + i as f64 * 0.1).duration(0.2))
        .collect();
    let jobs: Vec<(&ScenarioSpec, u64)> = many.iter().map(|s| (s, 0)).collect();
    assert_eq!(with_threads(4, || backend.wave_count(&jobs)), 10);
}

#[test]
fn parallel_execution_engages_for_a_large_wave_set() {
    let _guard = THREAD_OVERRIDE.lock().unwrap();
    // The same par_iter shape `run_batch` fans waves out with, with a
    // wave-sized sleep so the pool provably spreads the items over
    // more than one OS thread (the shim's workers claim indices
    // dynamically; a sequential fallback would see exactly one id).
    let ids: Vec<String> = with_threads(4, || {
        (0..24u32)
            .collect::<Vec<_>>()
            .par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                format!("{:?}", std::thread::current().id())
            })
            .collect()
    });
    let mut uniq = ids;
    uniq.sort();
    uniq.dedup();
    assert!(
        uniq.len() > 1,
        "wave fan-out stayed on a single thread under a 4-thread pool"
    );
}
