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
//! The packed engine gets its own expected vector: its transcendental
//! kernels are tolerance-bound, not bit-bound, against libm, and the
//! generated cell already differs from the scalar engine in the last
//! bits of its loss. If a deliberate engine change moves these numbers,
//! re-pin them in the same commit and say why.

use bbr_repro::fluid::backend::FluidBackend;
use bbr_repro::fluidbatch::SimdFluidBackend;
use bbr_repro::scenario::universe::generate_scenario;
use bbr_repro::scenario::{CcaKind, QdiscKind, RunOutcome, ScenarioSpec, SimBackend};

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
