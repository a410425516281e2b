//! The batch-vs-scalar equivalence test-matrix: `BatchedFluidBackend`
//! must be **byte-identical** to the scalar `FluidBackend` for every
//! spec the sweep grid can emit — per topology family, for ragged batch
//! shapes, through the grid engine, and through the campaign store
//! cache. This is the contract that lets the batch engine share the
//! `"fluid"` store-key namespace: a record is the same record no matter
//! which engine computed it.
//!
//! All comparisons are `assert_eq!` on `RunOutcome` / CSV strings —
//! `PartialEq` on `f64` fields means bit-level agreement, no tolerances.

use bbr_repro::campaign::ResultStore;
use bbr_repro::experiments::aggregate::model_config;
use bbr_repro::experiments::scenarios::{CampaignParams, COMBOS};
use bbr_repro::experiments::sweep::{Backend, ScenarioGrid, TopologyKind};
use bbr_repro::experiments::Effort;
use bbr_repro::fluid::backend::FluidBackend;
use bbr_repro::fluid::config::ModelConfig;
use bbr_repro::fluidbatch::BatchedFluidBackend;
use bbr_repro::scenario::{BatchSimBackend, CcaKind, QdiscKind, ScenarioSpec, SimBackend};
use proptest::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bbr-fb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One batch of `specs` (seeds 1000, 1001, ...) on the batched engine
/// equals per-spec scalar runs under the same configuration, bit for bit.
fn assert_batch_matches_scalar(cfg: ModelConfig, specs: &[ScenarioSpec]) {
    let jobs: Vec<(&ScenarioSpec, u64)> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s, 1000 + i as u64))
        .collect();
    let batch = BatchedFluidBackend::new(cfg.clone()).run_batch(&jobs);
    let scalar = FluidBackend::new(cfg);
    assert_eq!(batch.len(), jobs.len());
    for ((spec, seed), out) in jobs.iter().zip(&batch) {
        let want = scalar.run(spec, *seed);
        assert_eq!(out, &want, "family {:?} diverged", spec.topology);
        assert_eq!(out.backend, "fluid", "batch shares the fluid namespace");
    }
}

/// Byte-identity on a hand-picked spec set covering every topology
/// family, all four CCAs, both qdiscs, and heterogeneous mixes.
#[test]
fn per_family_byte_identity() {
    let specs = [
        ScenarioSpec::dumbbell(1, 50.0, 0.010, 1.0).duration(0.8),
        ScenarioSpec::dumbbell(6, 100.0, 0.010, 4.0)
            .ccas(vec![CcaKind::BbrV1, CcaKind::BbrV2])
            .qdisc(QdiscKind::Red)
            .duration(0.7),
        ScenarioSpec::dumbbell(3, 80.0, 0.008, 2.0)
            .ccas(vec![CcaKind::Cubic, CcaKind::Reno])
            .rtt_range(0.010, 0.020)
            .duration(0.6),
        ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0)
            .ccas(vec![CcaKind::BbrV1])
            .duration(0.6),
        ScenarioSpec::parking_lot(60.0, 60.0, 0.012, 1.0)
            .ccas(vec![CcaKind::BbrV2, CcaKind::Cubic])
            .qdisc(QdiscKind::Red)
            .duration(0.5),
        ScenarioSpec::chain(3, 100.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV1])
            .duration(0.5),
        ScenarioSpec::chain(5, 50.0, 0.010, 1.0)
            .ccas(vec![CcaKind::Reno, CcaKind::BbrV2])
            .qdisc(QdiscKind::Red)
            .duration(0.4),
    ];
    assert_batch_matches_scalar(ModelConfig::coarse(), &specs);
}

/// The aggregate figures (Figs. 6–10, 13–17) run the batched engine at
/// Full effort: a 20 µs step at the default sigmoid sharpness, not
/// `coarse()`. One §4.3 dumbbell (N = 10) per qdisc, on a short window.
#[test]
fn full_effort_paper_dumbbells_byte_identity() {
    let p = CampaignParams::default_rtt();
    let specs = [
        p.dumbbell_spec(&COMBOS[2], 2.0, QdiscKind::DropTail),
        p.dumbbell_spec(&COMBOS[6], 2.0, QdiscKind::Red),
    ]
    .map(|spec| spec.duration(0.3).warmup(0.1));
    assert_batch_matches_scalar(model_config(Effort::Full), &specs);
}

/// Ragged batches: sizes 1, N homogeneous, and N with mixed flow
/// counts/durations/topologies in one lockstep wave. Termination masks
/// must end each lane exactly where the scalar engine would.
#[test]
fn ragged_batch_shapes() {
    let backend = BatchedFluidBackend::coarse().wave_flow_budget(1000);
    let scalar = FluidBackend::coarse();

    // Size 1.
    let solo = ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0).duration(0.5);
    assert_eq!(backend.run_batch(&[(&solo, 3)]), vec![scalar.run(&solo, 3)]);

    // N identical specs: every lane returns the identical outcome.
    let jobs: Vec<(&ScenarioSpec, u64)> = (0..5).map(|i| (&solo, i)).collect();
    let outs = backend.run_batch(&jobs);
    for out in &outs {
        assert_eq!(out, &outs[0]);
    }
    assert_eq!(outs[0], scalar.run(&solo, 0));

    // N with mixed flow counts, durations, and families — all in ONE
    // wave (budget above the summed flow count), so the masks, not wave
    // splitting, handle the raggedness.
    let mixed = vec![
        ScenarioSpec::dumbbell(1, 50.0, 0.010, 1.0).duration(0.9),
        ScenarioSpec::dumbbell(7, 100.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV2, CcaKind::Reno])
            .duration(0.3),
        ScenarioSpec::chain(4, 80.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV1])
            .duration(0.55),
        ScenarioSpec::parking_lot(100.0, 70.0, 0.010, 2.0)
            .ccas(vec![CcaKind::Cubic])
            .duration(0.7),
        ScenarioSpec::dumbbell(2, 50.0, 0.010, 4.0).duration(0.0004), // rounds to ~4 steps
    ];
    let jobs: Vec<(&ScenarioSpec, u64)> = mixed.iter().map(|s| (s, 9)).collect();
    for (out, spec) in backend.run_batch(&jobs).iter().zip(&mixed) {
        assert_eq!(out, &scalar.run(spec, 9), "mixed lane {:?}", spec.topology);
    }
}

/// The grid engine: `Backend::FluidBatch` must render the exact same
/// report (CSV bytes) as `Backend::Fluid`, including unsupported-cell
/// handling and cell ordering.
#[test]
fn grid_csv_byte_identity() {
    let grid = ScenarioGrid::new()
        .capacity(50.0)
        .combos(vec![COMBOS[1], COMBOS[5]])
        .flow_counts(vec![2, 5])
        .buffers_bdp(vec![1.0, 4.0])
        .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red])
        .topologies(vec![
            TopologyKind::Dumbbell,
            TopologyKind::ParkingLot,
            TopologyKind::Chain,
        ])
        .duration(0.4)
        .warmup(0.1);
    let scalar = grid.clone().backend(Backend::Fluid).run();
    let batched = grid.clone().backend(Backend::FluidBatch).run();
    assert_eq!(scalar.backends, batched.backends, "same column name");
    assert_eq!(scalar.csv(), batched.csv());
}

/// The campaign store cache: a store populated by the batch engine must
/// serve a scalar-planned grid (and vice versa) with zero recomputation
/// and byte-identical reports — the "cache keys stay valid" guarantee.
#[test]
fn store_cache_interchangeability() {
    let grid = ScenarioGrid::new()
        .capacity(40.0)
        .combos(vec![COMBOS[0], COMBOS[4]])
        .flow_counts(vec![3])
        .buffers_bdp(vec![1.0, 4.0])
        .qdiscs(vec![QdiscKind::DropTail])
        .topologies(vec![TopologyKind::Dumbbell, TopologyKind::Chain])
        .duration(0.4)
        .warmup(0.1);

    // Populate a store through the batched engine.
    let dir = temp_dir("store");
    let mut store = ResultStore::open(&dir).unwrap();
    let batch_grid = grid.clone().backend(Backend::FluidBatch);
    let (batch_report, stats) = batch_grid.run_cached(&mut store).unwrap();
    assert_eq!(stats.cached, 0);
    assert!(stats.computed > 0);

    // The scalar-selected grid plans the same keys: everything is a
    // cache hit, nothing is recomputed, and the report is identical.
    let scalar_grid = grid.clone().backend(Backend::Fluid);
    let (scalar_report, stats) = scalar_grid.run_cached(&mut store).unwrap();
    assert_eq!(stats.computed, 0, "batch-written records serve scalar");
    assert_eq!(scalar_report.csv(), batch_report.csv());

    // And both equal a direct (uncached) scalar run.
    assert_eq!(scalar_grid.run().csv(), scalar_report.csv());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Churn (lane activation masks): batched integration of specs with
/// per-flow start/stop windows must stay byte-identical to the scalar
/// engine — including lanes mixing churned and churn-free specs, late
/// starters, early stoppers, flows that never run, and windows that
/// outlive the measurement window.
#[test]
fn churned_lanes_byte_identical_to_scalar() {
    let specs = [
        // Late joiner + early leaver in one dumbbell.
        ScenarioSpec::dumbbell(3, 50.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
            .duration(0.8)
            .flow_window(1, 0.2, f64::INFINITY)
            .flow_window(2, 0.0, 0.5),
        // Same spec churn-free, sharing the wave with churned lanes.
        ScenarioSpec::dumbbell(3, 50.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
            .duration(0.8),
        // Chain whose end-to-end flow exists only mid-window.
        ScenarioSpec::chain(3, 60.0, 0.010, 2.0)
            .ccas(vec![CcaKind::Cubic])
            .duration(0.6)
            .flow_window(0, 0.1, 0.4),
        // Parking lot with a cross flow that never starts in-window.
        ScenarioSpec::parking_lot(80.0, 60.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV2])
            .duration(0.5)
            .flow_window(2, 5.0, f64::INFINITY),
        // Window extending past the run: active from mid-window to a
        // stop the integration never reaches.
        ScenarioSpec::dumbbell(2, 40.0, 0.010, 1.0)
            .duration(0.5)
            .flow_window(1, 0.25, 9.0),
    ];
    let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 77)).collect();
    let scalar = FluidBackend::coarse();
    // One wave and lane-per-wave must both match the scalar engine.
    for budget in [1usize, 1000] {
        let batch = BatchedFluidBackend::coarse()
            .wave_flow_budget(budget)
            .run_batch(&jobs);
        for ((spec, seed), out) in jobs.iter().zip(&batch) {
            assert_eq!(
                out,
                &scalar.run(spec, *seed),
                "churned lane diverged (budget {budget}): {:?} churn {:?}",
                spec.topology,
                spec.churn
            );
        }
    }
    // Churn really changed the churned cells (the masks are live).
    let churned = BatchedFluidBackend::coarse().run(&specs[0], 77);
    let free = BatchedFluidBackend::coarse().run(&specs[1], 77);
    assert_ne!(churned, free);
}

/// The grid engine's churn axis: batch vs scalar CSV byte-identity must
/// survive churned cells (activation masks inside lockstep waves).
#[test]
fn churned_grid_csv_byte_identity() {
    let grid = ScenarioGrid::new()
        .capacity(40.0)
        .combos(vec![COMBOS[0], COMBOS[5]])
        .flow_counts(vec![3])
        .buffers_bdp(vec![2.0])
        .qdiscs(vec![QdiscKind::DropTail])
        .topologies(vec![
            TopologyKind::Dumbbell,
            TopologyKind::ParkingLot,
            TopologyKind::Chain,
        ])
        .with_churn()
        .duration(0.4)
        .warmup(0.1);
    let scalar = grid.clone().backend(Backend::Fluid).run();
    let batched = grid.clone().backend(Backend::FluidBatch).run();
    assert_eq!(scalar.csv(), batched.csv());
}

/// `try_run` on the batch backend behaves like any other backend's.
#[test]
fn batch_backend_try_run() {
    let b = BatchedFluidBackend::coarse();
    let ok = ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0).duration(0.3);
    assert_eq!(b.try_run(&ok, 1).unwrap(), b.run(&ok, 1));
    assert!(b
        .try_run(&ScenarioSpec::dumbbell(0, 50.0, 0.010, 1.0), 0)
        .is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Any spec the grid can emit, in any ragged batch size (1, N, N
    // with mixed flow counts — the batch holds *every* expanded cell of
    // a multi-axis grid), is byte-identical to the scalar engine. Tiny
    // windows keep this cheap.
    #[test]
    fn any_grid_batch_matches_scalar(
        combo_a in 0usize..7,
        combo_b in 0usize..7,
        n in 1usize..5,
        extra_n in 1usize..5,
        buffer in 0.5f64..4.0,
        red in proptest::bool::ANY,
        topo in 0usize..3,
        budget in 1usize..12,
    ) {
        let grid = ScenarioGrid::new()
            .capacity(20.0)
            .combos(vec![COMBOS[combo_a], COMBOS[combo_b]])
            .flow_counts(vec![n, n + extra_n])
            .buffers_bdp(vec![buffer])
            .qdiscs(vec![if red { QdiscKind::Red } else { QdiscKind::DropTail }])
            .topologies(vec![match topo {
                0 => TopologyKind::Dumbbell,
                1 => TopologyKind::ParkingLot,
                _ => TopologyKind::Chain,
            }])
            .duration(0.3)
            .warmup(0.1)
            .runs(1);
        let specs: Vec<ScenarioSpec> = grid.points().iter().map(|p| grid.spec_for(p)).collect();
        let jobs: Vec<(&ScenarioSpec, u64)> = specs
            .iter()
            .map(|s| (s, grid.cell_seed(s)))
            .collect();
        // Random wave budgets exercise every split shape, including
        // single-lane waves and whole-batch waves.
        let batch = BatchedFluidBackend::coarse().wave_flow_budget(budget).run_batch(&jobs);
        let scalar = FluidBackend::coarse();
        for ((spec, seed), out) in jobs.iter().zip(&batch) {
            prop_assert_eq!(out, &scalar.run(spec, *seed));
        }
    }
}
