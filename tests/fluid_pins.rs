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
//! The packed engine gets its own expected vector: its transcendental
//! kernels are tolerance-bound, not bit-bound, against libm, and the
//! generated cell already differs from the scalar engine in the last
//! bits of its loss. If a deliberate engine change moves these numbers,
//! re-pin them in the same commit and say why.

use bbr_repro::experiments::aggregate::model_config;
use bbr_repro::experiments::Effort;
use bbr_repro::fluid::backend::FluidBackend;
use bbr_repro::fluidbatch::SimdFluidBackend;
use bbr_repro::scenario::universe::generate_scenario;
use bbr_repro::scenario::{
    BatchSimBackend, CcaKind, QdiscKind, RunOutcome, ScenarioSpec, SimBackend,
};

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
