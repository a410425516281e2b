//! Observer-effect tests for the `bbr_telemetry::trace` flight recorder.
//!
//! The recorder's contract (see `docs/OBSERVABILITY.md`) is that it is
//! strictly advisory: installing a sink must never change what any
//! engine computes. These tests pin that down at two levels —
//! `RunOutcome` equality per backend (including the byte-level store
//! encoding of the outcome, so a traced campaign can never poison a
//! result store), and whole-worker shard files written with and without
//! a recorder installed.

use std::sync::{Arc, Mutex, MutexGuard};

use bbr_campaign::store::record_to_line;
use bbr_campaign::{
    run_worker, BackendFactory, BackendSel, CampaignPlan, CellKey, PlannedCell, ResultStore,
};
use bbr_experiments::campaign::build_backend;
use bbr_fluid_core::backend::FluidBackend;
use bbr_fluidbatch::{BatchedFluidBackend, SimdFluidBackend};
use bbr_packetsim::backend::PacketBackend;
use bbr_scenario::{CcaKind, QdiscKind, ScenarioSpec, SimBackend};
use bbr_telemetry::trace::{install, TraceConfig};
use bbr_telemetry::MemorySink;
use proptest::prelude::*;

/// The trace recorder is process-global, so every test that installs
/// one serializes on this lock; otherwise a parallel test's guard drop
/// could uninstall the recorder mid-run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every engine the workspace exposes, under the store column name its
/// records would be filed under.
fn engines() -> Vec<(&'static str, Box<dyn SimBackend>)> {
    vec![
        ("fluid", Box::new(FluidBackend::coarse())),
        ("fluid", Box::new(BatchedFluidBackend::coarse())),
        ("fluid-simd", Box::new(SimdFluidBackend::coarse())),
        ("packet", Box::new(PacketBackend::new(1))),
    ]
}

/// Run `spec` twice on `backend` — bare, then under a fully-enabled
/// recorder — and require identical outcomes and identical store-line
/// bytes. Returns how many trace events the traced run emitted, so
/// callers can also assert the recorder actually saw the run.
fn assert_observer_free(
    name: &str,
    backend: &dyn SimBackend,
    spec: &ScenarioSpec,
    seed: u64,
) -> usize {
    let bare = backend.run(spec, seed);
    let sink = Arc::new(MemorySink::new());
    let traced = {
        let _guard = install(TraceConfig::default(), sink.clone());
        backend.run(spec, seed)
    };
    assert_eq!(
        bare,
        traced,
        "{name}: installing a recorder changed the outcome of {}",
        spec.describe()
    );
    let key = CellKey {
        spec_hash: spec.stable_hash(),
        seed,
        backend: name.to_string(),
        run_index: 0,
    };
    assert_eq!(
        record_to_line(&key, &bare),
        record_to_line(&key, &traced),
        "{name}: store encoding diverged under tracing for {}",
        spec.describe()
    );
    sink.take().len()
}

/// Hand-picked scenarios covering the recorder's interesting paths:
/// every CCA tier (so the packet engine's CCA state machines all run
/// under a recorder), both qdiscs, flow churn, and every topology
/// builder.
fn pinned_specs() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec::dumbbell(2, 20.0, 0.010, 1.0)
            .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
            .duration(0.5)
            .warmup(0.1),
        ScenarioSpec::dumbbell(2, 20.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV2, CcaKind::Cubic])
            .qdisc(QdiscKind::Red)
            .duration(0.5)
            .warmup(0.1),
        ScenarioSpec::dumbbell(2, 20.0, 0.010, 1.0)
            .ccas(vec![CcaKind::BbrV2Deploy, CcaKind::BbrV2Deploy])
            .duration(0.5)
            .warmup(0.1),
        // Churn: flow 1 arrives late and leaves early, so the recorder
        // sees lanes activate and deactivate mid-run.
        ScenarioSpec::dumbbell(2, 20.0, 0.010, 1.0)
            .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
            .duration(0.6)
            .warmup(0.1)
            .flow_window(1, 0.15, 0.45),
        ScenarioSpec::parking_lot(20.0, 15.0, 0.005, 1.0)
            .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
            .duration(0.5)
            .warmup(0.1),
        ScenarioSpec::chain(3, 20.0, 0.005, 1.0)
            .ccas(vec![CcaKind::BbrV1, CcaKind::Cubic])
            .duration(0.5)
            .warmup(0.1),
    ]
}

#[test]
fn tracing_never_changes_any_engine_outcome_on_pinned_cells() {
    let _s = serial();
    for spec in pinned_specs() {
        for (name, backend) in engines() {
            if !backend.supports(&spec) {
                continue;
            }
            let events = assert_observer_free(name, backend.as_ref(), &spec, 42);
            // The packed SIMD engine carries no recorder (its vector
            // kernels are deliberately trace-free; use `"fluid"` to
            // trace a cell) — it must still be observer-effect-free,
            // but emits nothing.
            if name != "fluid-simd" {
                assert!(
                    events > 0,
                    "{name}: a fully-enabled recorder saw no events for {}",
                    spec.describe()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized observer-effect check: small dumbbell cells with a
    /// random CCA tier, buffer, qdisc, duration, and optional churn
    /// must produce identical outcomes with and without a recorder on
    /// all four engines.
    #[test]
    fn tracing_never_changes_random_dumbbell_cells(
        flows in 1usize..4,
        buffer in 0.5f64..3.0,
        duration in 0.3f64..0.6,
        cca_ix in 0usize..5,
        red in proptest::bool::ANY,
        churn in proptest::bool::ANY,
        seed in 0u64..1_000,
    ) {
        let _s = serial();
        let cca = [
            CcaKind::Reno,
            CcaKind::Cubic,
            CcaKind::BbrV1,
            CcaKind::BbrV2,
            CcaKind::BbrV2Deploy,
        ][cca_ix];
        let mut spec = ScenarioSpec::dumbbell(flows, 20.0, 0.010, buffer)
            .ccas(vec![cca; flows])
            .duration(duration)
            .warmup(duration * 0.2)
            .qdisc(if red { QdiscKind::Red } else { QdiscKind::DropTail });
        if churn && flows > 1 {
            spec = spec.flow_window(flows - 1, duration * 0.2, duration * 0.7);
        }
        for (name, backend) in engines() {
            if backend.supports(&spec) {
                assert_observer_free(name, backend.as_ref(), &spec, seed);
            }
        }
    }
}

#[test]
fn worker_shard_files_are_byte_identical_under_tracing() {
    let _s = serial();

    // A two-cell, two-backend plan: enough to exercise the batched
    // fluid path (workers hand their shard to `run_batch` in one
    // lockstep chunk) and the per-entry packet path.
    let plan = CampaignPlan {
        effort: "fast".to_string(),
        backends: vec![
            BackendSel {
                name: "fluid".to_string(),
                runs: 1,
            },
            BackendSel {
                name: "packet".to_string(),
                runs: 1,
            },
        ],
        cells: vec![
            PlannedCell {
                spec: ScenarioSpec::dumbbell(2, 20.0, 0.010, 1.0)
                    .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
                    .duration(0.5)
                    .warmup(0.1),
                seed: 7,
            },
            PlannedCell {
                spec: ScenarioSpec::dumbbell(2, 20.0, 0.010, 2.0)
                    .ccas(vec![CcaKind::BbrV2, CcaKind::Cubic])
                    .qdisc(QdiscKind::Red)
                    .duration(0.5)
                    .warmup(0.1),
                seed: 8,
            },
        ],
    };
    let factory: &BackendFactory = &build_backend;

    let base = std::env::temp_dir().join(format!("bbr-trace-observer-{}", std::process::id()));
    let bare_dir = base.join("bare");
    let traced_dir = base.join("traced");
    for dir in [&bare_dir, &traced_dir] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create store dir");
        plan.save(dir).expect("save plan");
    }

    let bare = run_worker(&bare_dir, 0, 1, factory).expect("bare worker");
    let sink = Arc::new(MemorySink::new());
    let traced = {
        let _guard = install(TraceConfig::default(), sink.clone());
        run_worker(&traced_dir, 0, 1, factory).expect("traced worker")
    };
    assert_eq!(bare.computed, traced.computed);
    assert!(
        !sink.take().is_empty(),
        "the recorder must observe a worker's runs"
    );

    let bare_bytes = std::fs::read(ResultStore::shard_path(&bare_dir, 0)).expect("bare shard");
    let traced_bytes =
        std::fs::read(ResultStore::shard_path(&traced_dir, 0)).expect("traced shard");
    assert!(!bare_bytes.is_empty(), "the worker must write records");
    assert_eq!(
        bare_bytes, traced_bytes,
        "a traced campaign worker wrote different store bytes"
    );

    std::fs::remove_dir_all(&base).unwrap();
}
