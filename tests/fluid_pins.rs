//! Bit pins of fluid-model outcomes.
//!
//! The scalar `FluidBackend` and the packed `SimdFluidBackend` are pinned
//! at `ModelConfig::coarse()` on one cell per topology family, CCA family
//! and qdisc, plus a churned cell and a generated `Topology::Custom`
//! cell. `tests/packet_path_pins.rs` guards the packet engine the same
//! way. The batch engine is held to the scalar bits by
//! `tests/fluidbatch_equivalence.rs`, so these pins also cover the
//! `"fluid"` column of every sweep and store.
//!
//! `SimdFluidBackend` is also pinned the way `grid-simd` runs it: a full
//! and a ragged pack at `model_config(Effort::Full)` through one
//! `run_batch` call with interleaved jobs.
//!
//! `FluidBackend` is pinned at `model_config(Effort::Full)` on the §4.3
//! N = 10 dumbbells. `Simulator` is pinned on what only its API offers:
//! explicit agents (`Simulator::new` with insight 5's
//! `BbrV2::with_whi_init`), an open-ended `run → reset_metrics → run`,
//! and a recorded trace (event counts per kind plus a hash of its
//! `trace/v1` lines).
//!
//! The packed engine gets its own expected vector: its transcendental
//! kernels are tolerance-bound, not bit-bound, against libm, and the
//! generated cell already differs from the scalar engine in the last
//! bits of its loss. If a deliberate engine change moves these numbers,
//! re-pin them in the same commit and say why.

use std::sync::Arc;

use bbr_repro::experiments::aggregate::model_config;
use bbr_repro::experiments::scenarios::{CampaignParams, COMBOS};
use bbr_repro::experiments::tracefmt::TraceRecord;
use bbr_repro::experiments::Effort;
use bbr_repro::fluid::backend::{hint_for_flow, network_for_spec, FluidBackend};
use bbr_repro::fluid::cca::{AnyCca, BbrV2, WhiInit};
use bbr_repro::fluid::config::ModelConfig;
use bbr_repro::fluid::metrics::AggregateMetrics;
use bbr_repro::fluid::sim::Simulator;
use bbr_repro::fluidbatch::SimdFluidBackend;
use bbr_repro::scenario::universe::generate_scenario;
use bbr_repro::scenario::{
    BatchSimBackend, CcaKind, QdiscKind, RunOutcome, ScenarioSpec, SimBackend,
};
use bbr_trace::{MemorySink, Recorder, TraceConfig};

/// The field layout of `tests/packet_path_pins.rs`.
fn bits(outcome: &RunOutcome) -> Vec<u64> {
    let mut v = vec![
        outcome.jain.to_bits(),
        outcome.loss_percent.to_bits(),
        outcome.occupancy_percent.to_bits(),
        outcome.utilization_percent.to_bits(),
        outcome.jitter_ms.to_bits(),
    ];
    v.extend(outcome.flows.iter().map(|f| f.throughput_mbps.to_bits()));
    v.extend(outcome.per_link_occupancy.iter().map(|x| x.to_bits()));
    v.extend(outcome.per_link_utilization.iter().map(|x| x.to_bits()));
    v
}

fn short(spec: ScenarioSpec) -> ScenarioSpec {
    spec.duration(1.0).warmup(0.25)
}

/// Run `spec` on both fluid engines and compare each to its pin.
fn assert_pinned(spec: &ScenarioSpec, fluid: &[u64], simd: &[u64], what: &str) {
    assert_eq!(
        bits(&FluidBackend::coarse().run(spec, 7)),
        fluid,
        "{what}: scalar fluid drifted"
    );
    assert_eq!(
        bits(&SimdFluidBackend::coarse().run(spec, 7)),
        simd,
        "{what}: fluid-simd drifted"
    );
}

#[test]
fn mixed_cca_droptail_dumbbell_is_pinned() {
    let spec = short(ScenarioSpec::dumbbell(3, 40.0, 0.010, 2.0).ccas(vec![
        CcaKind::BbrV1,
        CcaKind::Reno,
        CcaKind::Cubic,
    ]));
    assert_pinned(
        &spec,
        &[
            0x3fea6269169b2b47, // jain
            0x3f80a452ec8d3c20, // loss %
            0x40275375f0847ff6, // occupancy %
            0x4055640016981bf8, // utilization %
            0x3f9cd0aceab1e801, // jitter ms
            0x40333d7ee52c67b3, // tput flow 0
            0x401db34b7c177a0a, // tput flow 1
            0x4020974a824af51a, // tput flow 2
            0x40275375f0847ff6, // link 0 occupancy
            0x4055640016981bf8, // link 0 utilization
        ],
        &[
            0x3fea6269169b2b47, // jain
            0x3f80a452ec8d3c20, // loss %
            0x40275375f0847ff6, // occupancy %
            0x4055640016981bf8, // utilization %
            0x3f9cd0aceab1e801, // jitter ms
            0x40333d7ee52c67b3, // tput flow 0
            0x401db34b7c177a0a, // tput flow 1
            0x4020974a824af51a, // tput flow 2
            0x40275375f0847ff6, // link 0 occupancy
            0x4055640016981bf8, // link 0 utilization
        ],
        "BBRv1/RENO/CUBIC dumbbell",
    );
}

#[test]
fn red_dumbbell_with_short_rtts_is_pinned() {
    let spec = short(
        ScenarioSpec::dumbbell(4, 50.0, 0.010, 1.0)
            .ccas(vec![CcaKind::BbrV2, CcaKind::Cubic])
            .qdisc(QdiscKind::Red)
            .rtt_range(0.010, 0.020),
    );
    assert_pinned(
        &spec,
        &[
            0x3fee4e472b9bfc2b, // jain
            0x0000000000000000, // loss %
            0x0000000000000000, // occupancy %
            0x40561c8f5f17d961, // utilization %
            0x0000000000000000, // jitter ms
            0x402b57106b13fafa, // tput flow 0
            0x4020e23ddc4ad29a, // tput flow 1
            0x402b57106b13fafa, // tput flow 2
            0x4020e23ddc4ad29a, // tput flow 3
            0x0000000000000000, // link 0 occupancy
            0x40561c8f5f17d961, // link 0 utilization
        ],
        &[
            0x3fee4e472b9bfc2b, // jain
            0x0000000000000000, // loss %
            0x0000000000000000, // occupancy %
            0x40561c8f5f17d961, // utilization %
            0x0000000000000000, // jitter ms
            0x402b57106b13fafa, // tput flow 0
            0x4020e23ddc4ad29a, // tput flow 1
            0x402b57106b13fafa, // tput flow 2
            0x4020e23ddc4ad29a, // tput flow 3
            0x0000000000000000, // link 0 occupancy
            0x40561c8f5f17d961, // link 0 utilization
        ],
        "BBRv2/CUBIC RED dumbbell",
    );
}

#[test]
fn red_parking_lot_is_pinned() {
    let spec = short(
        ScenarioSpec::parking_lot(40.0, 32.0, 0.010, 3.0)
            .ccas(vec![CcaKind::BbrV2])
            .qdisc(QdiscKind::Red),
    );
    assert_pinned(
        &spec,
        &[
            0x3fef3c1a72752fd0, // jain
            0x3fd08b5e6f6c2f3a, // loss %
            0x3fd45b579c06d76b, // occupancy %
            0x40589e1722d83167, // utilization %
            0x3f8518475a67f891, // jitter ms
            0x402f7cb91ae67573, // tput flow 0
            0x4035b53ca4f70843, // tput flow 1
            0x402fbe05846c38c4, // tput flow 2
            0x3fc440d4579f1602, // link 0 occupancy
            0x3fd45b579c06d76b, // link 1 occupancy
            0x40575c7450572686, // link 0 utilization
            0x40589e1722d83167, // link 1 utilization
        ],
        &[
            0x3fef3c1a72752fd0, // jain
            0x3fd08b5e6f6c2f3a, // loss %
            0x3fd45b579c06d76b, // occupancy %
            0x40589e1722d83167, // utilization %
            0x3f8518475a67f891, // jitter ms
            0x402f7cb91ae67573, // tput flow 0
            0x4035b53ca4f70843, // tput flow 1
            0x402fbe05846c38c4, // tput flow 2
            0x3fc440d4579f1602, // link 0 occupancy
            0x3fd45b579c06d76b, // link 1 occupancy
            0x40575c7450572686, // link 0 utilization
            0x40589e1722d83167, // link 1 utilization
        ],
        "BBRv2 RED parking lot",
    );
}

#[test]
fn chain_is_pinned() {
    let spec =
        short(ScenarioSpec::chain(3, 50.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1, CcaKind::Reno]));
    assert_pinned(
        &spec,
        &[
            0x3fe67495cef6914d, // jain
            0x40197823e707282b, // loss %
            0x4008c7cc0597e4ee, // occupancy %
            0x405341aeee3c9c97, // utilization %
            0x3f9ede4397117395, // jitter ms
            0x404055e4faa6bdea, // tput flow 0
            0x4019e7f838a1b64b, // tput flow 1
            0x403ae6b3c2e72947, // tput flow 2
            0x401a03e2504bbf18, // tput flow 3
            0x4008c7cc0597e4ee, // link 0 occupancy
            0x405215a3e6b7450b, // link 1 occupancy
            0x3ffd0bf257eaef06, // link 2 occupancy
            0x405341aeee3c9c97, // link 0 utilization
            0x4059000000000680, // link 1 utilization
            0x40531120437a514d, // link 2 utilization
        ],
        &[
            0x3fe67495cef6914d, // jain
            0x40197823e707282b, // loss %
            0x4008c7cc0597e4ee, // occupancy %
            0x405341aeee3c9c97, // utilization %
            0x3f9ede4397117395, // jitter ms
            0x404055e4faa6bdea, // tput flow 0
            0x4019e7f838a1b64b, // tput flow 1
            0x403ae6b3c2e72947, // tput flow 2
            0x401a03e2504bbf18, // tput flow 3
            0x4008c7cc0597e4ee, // link 0 occupancy
            0x405215a3e6b7450b, // link 1 occupancy
            0x3ffd0bf257eaef06, // link 2 occupancy
            0x405341aeee3c9c97, // link 0 utilization
            0x4059000000000680, // link 1 utilization
            0x40531120437a514d, // link 2 utilization
        ],
        "BBRv1/RENO chain",
    );
}

#[test]
fn churned_dumbbell_is_pinned() {
    let spec = short(
        ScenarioSpec::dumbbell(3, 50.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV2, CcaKind::Cubic])
            .flow_window(1, 0.2, 0.7),
    );
    assert_pinned(
        &spec,
        &[
            0x3feaae60738266c2, // jain
            0x0000000000000000, // loss %
            0x0000000000000000, // occupancy %
            0x4054c1c179185953, // utilization %
            0x0000000000000000, // jitter ms
            0x40323873e98fab71, // tput flow 0
            0x401469bc416772d5, // tput flow 1
            0x403236befec379d1, // tput flow 2
            0x0000000000000000, // link 0 occupancy
            0x4054c1c179185953, // link 0 utilization
        ],
        &[
            0x3feaae60738266c2, // jain
            0x0000000000000000, // loss %
            0x0000000000000000, // occupancy %
            0x4054c1c179185953, // utilization %
            0x0000000000000000, // jitter ms
            0x40323873e98fab71, // tput flow 0
            0x401469bc416772d5, // tput flow 1
            0x403236befec379d1, // tput flow 2
            0x0000000000000000, // link 0 occupancy
            0x4054c1c179185953, // link 0 utilization
        ],
        "churned BBRv2/CUBIC dumbbell",
    );
}

#[test]
fn generated_custom_topology_is_pinned() {
    let spec = generate_scenario(1, 25).spec;
    assert_pinned(
        &spec,
        &[
            0x3feff0053eda6edb, // jain
            0x3cbafc9ad22d5025, // loss %
            0x40206d1446410d13, // occupancy %
            0x4058fff27e06c421, // utilization %
            0x3fa090e0b33b1c1f, // jitter ms
            0x4007365b08ffccfb, // tput flow 0
            0x4005ec30822321a3, // tput flow 1
            0x4008c9b692b92ba3, // tput flow 2
            0x4006f3440a2cde3c, // tput flow 3
            0x40206d1446410d13, // link 0 occupancy
            0x0000000000000000, // link 1 occupancy
            0x0000000000000000, // link 2 occupancy
            0x4058fff27e06c421, // link 0 utilization
            0x403a45e358fc2dba, // link 1 utilization
            0x40307a1661c915dd, // link 2 utilization
        ],
        &[
            0x3feff0053eda6edb, // jain
            0x3cbafc9ad22d5022, // loss %
            0x40206d1446410d13, // occupancy %
            0x4058fff27e06c421, // utilization %
            0x3fa090e0b33b1c1f, // jitter ms
            0x4007365b08ffccfb, // tput flow 0
            0x4005ec30822321a3, // tput flow 1
            0x4008c9b692b92ba3, // tput flow 2
            0x4006f3440a2cde3c, // tput flow 3
            0x40206d1446410d13, // link 0 occupancy
            0x0000000000000000, // link 1 occupancy
            0x0000000000000000, // link 2 occupancy
            0x4058fff27e06c421, // link 0 utilization
            0x403a45e358fc2dba, // link 1 utilization
            0x40307a1661c915dd, // link 2 utilization
        ],
        "generated Custom cell",
    );
}

/// `grid-simd`'s shape: full packs at Full effort, not one-member packs
/// at `coarse()`. Two packs go through one `run_batch` call with their
/// jobs interleaved, so grouping and job order are pinned too: a full
/// 4-member pack (BBRv2/CUBIC, drop-tail, 0.5, 1, 2 and 8 BDP) and a
/// ragged 3-member pack (BBRv1/RENO, RED, 1, 2 and 4 BDP) whose padding
/// lane replicates member 0.
#[test]
fn full_effort_packs_are_pinned() {
    let full = |bdp: f64| {
        ScenarioSpec::dumbbell(3, 10.0, 0.010, bdp)
            .ccas(vec![CcaKind::BbrV2, CcaKind::Cubic])
            .duration(0.5)
    };
    let ragged = |bdp: f64| {
        ScenarioSpec::dumbbell(2, 50.0, 0.010, bdp)
            .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
            .qdisc(QdiscKind::Red)
            .duration(0.5)
    };
    let specs = [
        full(0.5),
        ragged(1.0),
        full(1.0),
        ragged(2.0),
        full(2.0),
        ragged(4.0),
        full(8.0),
    ];
    let jobs: Vec<(&ScenarioSpec, u64)> = specs.iter().map(|s| (s, 7)).collect();
    let outs = SimdFluidBackend::new(model_config(Effort::Full)).run_batch(&jobs);
    let pins: [&[u64]; 7] = [
        // BBRv2/CUBIC drop-tail, 0.5 BDP
        &[
            0x3fee43d74b523757, // jain
            0x39c7b546ff2f6179, // loss %
            0x3fcc32542393d818, // occupancy %
            0x40582b0abb723ecb, // utilization %
            0x3f727957a0568d22, // jitter ms
            0x400d4e5aa39863fc, // tput flow 0
            0x40012285e1075253, // tput flow 1
            0x400f0640a2f51948, // tput flow 2
            0x3fcc32542393d818, // link 0 occupancy
            0x40582b0abb723ecb, // link 0 utilization
        ],
        // BBRv1/RENO RED, 1 BDP
        &[
            0x3fe51e11aaac93a2, // jain
            0x3fce540bf16dee7a, // loss %
            0x3fc25b6ecf4deea8, // occupancy %
            0x4050a31150eb42d9, // utilization %
            0x3f48314146bee7c2, // jitter ms
            0x403cf369a998d9b6, // tput flow 0
            0x401304d337a31221, // tput flow 1
            0x3fc25b6ecf4deea8, // link 0 occupancy
            0x4050a31150eb42d9, // link 0 utilization
        ],
        // BBRv2/CUBIC drop-tail, 1 BDP
        &[
            0x3fee9710b9f7ef2b, // jain
            0x399495a548c985ec, // loss %
            0x3fb1d206bfaffd70, // occupancy %
            0x4056faced83b703f, // utilization %
            0x3f76a10881690d95, // jitter ms
            0x400b9366a2be1f27, // tput flow 0
            0x4001231e21b17661, // tput flow 1
            0x400cef457338b53c, // tput flow 2
            0x3fb1d206bfaffd70, // link 0 occupancy
            0x4056faced83b703f, // link 0 utilization
        ],
        // BBRv1/RENO RED, 2 BDP
        &[
            0x3fe51dec407c70b8, // jain
            0x3fc2f0f7fab861f3, // loss %
            0x3fb6ee13a3d13be0, // occupancy %
            0x4050a31150eb42d9, // utilization %
            0x3f50b37714c2c33c, // jitter ms
            0x403cf369a998d9b6, // tput flow 0
            0x401304407575fd1b, // tput flow 1
            0x3fb6ee13a3d13be0, // link 0 occupancy
            0x4050a31150eb42d9, // link 0 utilization
        ],
        // BBRv2/CUBIC drop-tail, 2 BDP
        &[
            0x3feeb728e91dcc6b, // jain
            0x3858f50771ab40e9, // loss %
            0x3fa1ee7961a7b76f, // occupancy %
            0x405693b0f10afdaf, // utilization %
            0x3f76d3df2a70be94, // jitter ms
            0x400b9366a2be1f27, // tput flow 0
            0x4001231ce0c55d31, // tput flow 1
            0x400b9ddc31acb6f7, // tput flow 2
            0x3fa1ee7961a7b76f, // link 0 occupancy
            0x405693b0f10afdaf, // link 0 utilization
        ],
        // BBRv1/RENO RED, 4 BDP
        &[
            0x3fe51dd3d830b276, // jain
            0x3fb56d02146f0d72, // loss %
            0x3fa9f02253e4593a, // occupancy %
            0x4050a31150eb42d9, // utilization %
            0x3f54011d32f2e1a0, // jitter ms
            0x403cf369a998d9b6, // tput flow 0
            0x401303e0b913a6ca, // tput flow 1
            0x3fa9f02253e4593a, // link 0 occupancy
            0x4050a31150eb42d9, // link 0 utilization
        ],
        // BBRv2/CUBIC drop-tail, 8 BDP
        &[
            0x3feeb728e91dcc6b, // jain
            0x35d8f50771ab40ee, // loss %
            0x3f81ee7961a7b76f, // occupancy %
            0x405693b0f10afdaf, // utilization %
            0x3f76d3df2a70be94, // jitter ms
            0x400b9366a2be1f27, // tput flow 0
            0x4001231ce0c55d31, // tput flow 1
            0x400b9ddc31acb6f7, // tput flow 2
            0x3f81ee7961a7b76f, // link 0 occupancy
            0x405693b0f10afdaf, // link 0 utilization
        ],
    ];
    assert_eq!(outs.len(), pins.len());
    for ((spec, out), pin) in specs.iter().zip(&outs).zip(pins) {
        assert_eq!(out.backend, "fluid-simd");
        assert_eq!(
            bits(out),
            pin,
            "{:?}: fluid-simd pack drifted",
            spec.topology
        );
    }
}

/// The `bits` layout for a `Simulator`'s `AggregateMetrics`, led by the
/// measured duration.
fn metric_bits(m: &AggregateMetrics) -> Vec<u64> {
    let mut v = vec![
        m.duration.to_bits(),
        m.jain.to_bits(),
        m.loss_percent.to_bits(),
        m.occupancy_percent.to_bits(),
        m.utilization_percent.to_bits(),
        m.jitter_ms.to_bits(),
    ];
    v.extend(m.mean_rates.iter().map(|x| x.to_bits()));
    v.extend(m.per_link_occupancy.iter().map(|x| x.to_bits()));
    v.extend(m.per_link_utilization.iter().map(|x| x.to_bits()));
    v
}

/// `FluidBackend` at `model_config(Effort::Full)` (a 20 µs step) on the
/// §4.3 N = 10 dumbbells that `tests/fluidbatch_equivalence.rs` checks
/// the batch engine against: one per qdisc.
#[test]
fn full_effort_paper_dumbbells_are_pinned() {
    let p = CampaignParams::default_rtt();
    let specs = [
        p.dumbbell_spec(&COMBOS[2], 2.0, QdiscKind::DropTail),
        p.dumbbell_spec(&COMBOS[6], 2.0, QdiscKind::Red),
    ]
    .map(|spec| spec.duration(0.3).warmup(0.1));
    let pins: [&[u64]; 2] = [
        // COMBOS[2], drop-tail, 2 BDP
        &[
            0x3fedef72d578cef5, // jain
            0x0000000000000000, // loss %
            0x0000000000000000, // occupancy %
            0x4054355db1861c12, // utilization %
            0x0000000000000000, // jitter ms
            0x40250001a186fed5, // tput flow 0
            0x4017fef88df4db55, // tput flow 1
            0x4024b4237fa89f5b, // tput flow 2
            0x4017f66c76baa9e6, // tput flow 3
            0x40246846ff5147f9, // tput flow 4
            0x4017ee9331d2fa74, // tput flow 5
            0x40243fcb25ea1872, // tput flow 6
            0x4017e75466d0266a, // tput flow 7
            0x40240000000027de, // tput flow 8
            0x4017e09c3c378b60, // tput flow 9
            0x0000000000000000, // link 0 occupancy
            0x4054355db1861c12, // link 0 utilization
        ],
        // COMBOS[6], RED, 2 BDP
        &[
            0x3fec070ec3647698, // jain
            0x0000000000000000, // loss %
            0x0000000000000000, // occupancy %
            0x4052e69561809ca3, // utilization %
            0x0000000000000000, // jitter ms
            0x4024bd32af86f521, // tput flow 0
            0x401662b3d9eb0eb5, // tput flow 1
            0x4024accd59d15d29, // tput flow 2
            0x4014754d1dfe215a, // tput flow 3
            0x4025140e5955768f, // tput flow 4
            0x4012d2bef13d0c57, // tput flow 5
            0x4024f703e6843b2f, // tput flow 6
            0x40116ba00d8ccc66, // tput flow 7
            0x4024de21754b9270, // tput flow 8
            0x4010346aea956289, // tput flow 9
            0x0000000000000000, // link 0 occupancy
            0x4052e69561809ca3, // link 0 utilization
        ],
    ];
    let backend = FluidBackend::new(model_config(Effort::Full));
    for (spec, pin) in specs.iter().zip(pins) {
        assert_eq!(
            bits(&backend.run(spec, 1000)),
            pin,
            "{:?}: Full-effort fluid drifted",
            spec.qdisc
        );
    }
}

/// `Simulator::new` on explicit agents, as insight 5 builds them: ten
/// BBRv2 flows whose `inflight_hi` starts tight or unset, under the
/// reference implementation's unset-`inflight_lo` semantics.
#[test]
fn explicit_whi_init_agents_are_pinned() {
    let cfg = ModelConfig {
        bbr2_wlo_unset: true,
        ..ModelConfig::coarse()
    };
    let net =
        network_for_spec(&ScenarioSpec::dumbbell(10, 100.0, 0.010, 6.0).rtt_range(0.030, 0.040));
    let pins: [(WhiInit, &[u64]); 2] = [
        (
            WhiInit::Tight { factor: 1.25 },
            &[
                0x3feffffffffffcb3, // duration s
                0x3fefffa79d3a0847, // jain
                0x3c14cc49dbe73efb, // loss %
                0x4015bc1677ee9c57, // occupancy %
                0x4059000000000680, // utilization %
                0x3f93dab2118e0a51, // jitter ms
                0x4023d8452321ba79, // tput flow 0
                0x4023e7231f1d6485, // tput flow 1
                0x4023effcb1382111, // tput flow 2
                0x4023fd2e2979dfb2, // tput flow 3
                0x40240cff2c91062c, // tput flow 4
                0x402418e69642d84a, // tput flow 5
                0x40242348d0df657b, // tput flow 6
                0x40242d9890975014, // tput flow 7
                0x402433a5c138b2fd, // tput flow 8
                0x40244094305bb8b4, // tput flow 9
                0x4015bc1677ee9c57, // link 0 occupancy
                0x4059000000000680, // link 0 utilization
            ],
        ),
        (
            WhiInit::Unset,
            &[
                0x3feffffffffffcb3, // duration s
                0x3feff9f67fdb1795, // jain
                0x3ed2928246f006ed, // loss %
                0x4048813f566281e2, // occupancy %
                0x4059000000000680, // utilization %
                0x3fabe24f6564a990, // jitter ms
                0x4024f93a62542a4b, // tput flow 0
                0x4023e4dbed510a64, // tput flow 1
                0x4023ec7157a782a2, // tput flow 2
                0x40242e050579ca84, // tput flow 3
                0x40246e5e8dca89cf, // tput flow 4
                0x4024ad5bbca7ce33, // tput flow 5
                0x4024ea54ec577313, // tput flow 6
                0x402525a67a6c9521, // tput flow 7
                0x40255f693451334a, // tput flow 8
                0x402597727be19970, // tput flow 9
                0x4048813f566281e2, // link 0 occupancy
                0x4059000000000680, // link 0 utilization
            ],
        ),
    ];
    for (init, pin) in pins {
        let agents = (0..10)
            .map(|i| AnyCca::BbrV2(BbrV2::with_whi_init(&hint_for_flow(&net, i), &cfg, init)))
            .collect();
        let mut sim = Simulator::new(net.clone(), cfg.clone(), agents, &[]).unwrap();
        assert_eq!(metric_bits(&sim.run(1.0)), pin, "{init:?} drifted");
    }
}

/// An open-ended `Simulator` run in two windows: the second `run` after
/// `reset_metrics` measures only its own 0.4 s, from the state the first
/// left behind.
#[test]
fn run_reset_run_is_pinned() {
    let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
        .ccas(vec![CcaKind::BbrV1, CcaKind::Cubic])
        .rtt_range(0.020, 0.030);
    let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
    let first = sim.run(0.6);
    sim.reset_metrics();
    let second = sim.run(0.4);
    assert_eq!(
        metric_bits(&first),
        &[
            0x3fe3333333333173, // duration s
            0x3febf0ab68d3100b, // jain
            0x3e29c3c3ea4470af, // loss %
            0x40243eb60d91cec9, // occupancy %
            0x4057194f71ebcd6c, // utilization %
            0x3f945db4f5d52d0a, // jitter ms
            0x40402d4ad4d78cd5, // tput flow 0
            0x402cfd9e848c0a45, // tput flow 1
            0x40243eb60d91cec9, // link 0 occupancy
            0x4057194f71ebcd6c, // link 0 utilization
        ],
        "first window drifted"
    );
    assert_eq!(
        metric_bits(&second),
        &[
            0x3fd99999999997a6, // duration s
            0x3fe9090d7a1bcfe7, // jain
            0x3fa558b6074b7eb5, // loss %
            0x40509d36c87137ad, // occupancy %
            0x4059000000000253, // utilization %
            0x3fa1518d0acca25c, // jitter ms
            0x40436d7499d383c6, // tput flow 0
            0x40280ac607a1e29d, // tput flow 1
            0x40509d36c87137ad, // link 0 occupancy
            0x4059000000000253, // link 0 utilization
        ],
        "window after reset drifted"
    );
}

/// A `Simulator::record` run at `TraceConfig::default()`: the count of
/// each event kind, and an FNV-1a hash over the `trace/v1` lines in
/// recording order.
#[test]
fn recorded_trace_is_pinned() {
    let spec = ScenarioSpec::dumbbell(4, 50.0, 0.010, 2.0).ccas(vec![
        CcaKind::BbrV1,
        CcaKind::BbrV2,
        CcaKind::Reno,
        CcaKind::Cubic,
    ]);
    let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
    let sink = Arc::new(MemorySink::new());
    sim.record(Recorder::new(TraceConfig::default(), sink.clone()));
    sim.run(1.0);
    let events = sink.take();
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for e in &events {
        for b in TraceRecord::from_event(e).to_line().bytes().chain([b'\n']) {
            hash = (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        ["flow", "link", "phase", "signal"].map(count),
        [400, 100, 0, 3000],
        "event counts per kind drifted"
    );
    assert_eq!(hash, 0xcdf36d1ec5d58d43, "trace lines drifted");
}
