//! Byte-exact pins of packet-simulator outcomes across the path-network
//! refactor.
//!
//! The bit patterns below were captured from the *pre-refactor* packet
//! backend (hand-wired dumbbell/parking-lot runners, before
//! `PathNetwork` existed). The refactored engine expresses those
//! topologies as degenerate path networks; these tests assert it still
//! produces the exact same bits — the refactor is a re-organization,
//! never a behaviour change. If a deliberate engine change moves these
//! numbers, re-pin them in the same commit and say why.

use bbr_repro::packetsim::backend::PacketBackend;
use bbr_repro::scenario::universe::generate_scenario;
use bbr_repro::scenario::{CcaKind, QdiscKind, RunOutcome, ScenarioSpec, SimBackend};

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

#[test]
fn dumbbell_outcome_is_byte_identical_to_pre_refactor_pin() {
    // 3 heterogeneous flows, 2 averaged seeds — exercises the averaging
    // path and the staggered starts.
    let spec = ScenarioSpec::dumbbell(3, 40.0, 0.010, 2.0)
        .ccas(vec![CcaKind::BbrV1, CcaKind::Reno, CcaKind::Cubic])
        .duration(2.0)
        .warmup(0.5);
    let out = PacketBackend::new(2).run(&spec, 7);
    assert_eq!(
        bits(&out),
        vec![
            0x3fd71f82d2feef46, // jain
            0x4018cc9c7efe9f78, // loss %
            0x4054d3ebbece2800, // occupancy %
            0x4058ffd70a3d70a4, // utilization %
            0x3fdec09af26544d0, // jitter ms
            0x404275810624dd2f, // tput flow 0
            0x3fdf1a9fbe76c8b4, // tput flow 1
            0x3ff0cccccccccccd, // tput flow 2
            0x4054d3ebbece2800, // link 0 occupancy
            0x4058ffd70a3d70a4, // link 0 utilization
        ],
        "dumbbell-as-degenerate-path drifted from the pre-refactor engine"
    );
}

#[test]
fn parking_lot_outcome_is_byte_identical_to_pre_refactor_pin() {
    let spec = ScenarioSpec::parking_lot(40.0, 32.0, 0.010, 3.0)
        .ccas(vec![CcaKind::BbrV2])
        .qdisc(QdiscKind::Red)
        .duration(2.0)
        .warmup(0.5);
    let out = PacketBackend::new(1).run(&spec, 11);
    // Re-pinned when the lowering split flow 0's return and flow 2's
    // access delay as the fluid model does: every flow now has a 30 ms
    // propagation RTT, where the pre-refactor bits gave flow 0 50 ms.
    assert_eq!(
        bits(&out),
        vec![
            0x3feeda5096e0f61c, // jain
            0x4004a5f4525ccfc0, // loss %
            0x4003f80eefed2175, // occupancy % (headline = slower link 1)
            0x403f4b3333333333, // utilization %
            0x3fbf351268d184dd, // jitter ms
            0x400dced916872b02, // tput flow 0 (multi-hop)
            0x40155604189374bc, // tput flow 1
            0x40183126e978d4fe, // tput flow 2
            0x400282b8df76aa8a, // link 0 occupancy
            0x4003f80eefed2175, // link 1 occupancy
            0x40379c28f5c28f5c, // link 0 utilization
            0x403f4b3333333333, // link 1 utilization
        ],
        "parking-lot-as-path drifted from the pre-refactor engine"
    );
}

// Pins for the engine's ACK path, retransmission timer and event queue,
// captured before the linear-time engine rework. Each cell reaches a
// corner the two pins above do not: heavy RED loss, the campaign's CCA
// mix, the deploy-tier BBRv2 on a multi-hop chain, churn, and a
// generated Custom topology. All but the churned cell fire at least one
// retransmission timeout.

fn short(spec: ScenarioSpec) -> ScenarioSpec {
    spec.duration(1.0).warmup(0.25)
}

fn pin_bits(spec: &ScenarioSpec) -> Vec<u64> {
    bits(&PacketBackend::new(1).run(spec, 7))
}

#[test]
fn heavy_red_loss_with_two_timeouts_is_pinned() {
    let spec = short(
        ScenarioSpec::dumbbell(4, 50.0, 0.010, 0.25)
            .ccas(vec![CcaKind::Cubic])
            .qdisc(QdiscKind::Red),
    );
    assert_eq!(
        pin_bits(&spec),
        vec![
            0x3fef84a45e9e1292, // jain
            0x4031c92d1130c8b6, // loss %
            0x40013c68661ae955, // occupancy %
            0x4025be76c8b43958, // utilization %
            0x3fc4cba0165a379e, // jitter ms
            0x3ff3c6a7ef9db22d, // tput flow 0
            0x3ff3645a1cac0831, // tput flow 1
            0x3fef7ced916872b0, // tput flow 2
            0x3ff676c8b4395810, // tput flow 3
            0x40013c68661ae955, // link 0 occupancy
            0x4025be76c8b43958, // link 0 utilization
        ],
        "RED dumbbell with timeouts drifted"
    );
}

#[test]
fn campaign_mix_dumbbell_is_pinned() {
    let spec = short(
        ScenarioSpec::dumbbell(4, 50.0, 0.010, 1.0)
            .ccas(vec![CcaKind::BbrV2, CcaKind::Cubic])
            .qdisc(QdiscKind::DropTail),
    );
    assert_eq!(
        pin_bits(&spec),
        vec![
            0x3fec3ca238813839, // jain
            0x0000000000000000, // loss %
            0x404a1e2db5a7468e, // occupancy %
            0x4058a45a1cac0831, // utilization %
            0x3fcc81a97cc4ecdc, // jitter ms
            0x4030020c49ba5e35, // tput flow 0
            0x40259374bc6a7efa, // tput flow 1
            0x4030926e978d4fdf, // tput flow 2
            0x4016395810624dd3, // tput flow 3
            0x404a1e2db5a7468e, // link 0 occupancy
            0x4058a45a1cac0831, // link 0 utilization
        ],
        "BBRv2/CUBIC dumbbell drifted"
    );
}

#[test]
fn deploy_tier_chain_is_pinned() {
    let spec = short(ScenarioSpec::chain(3, 50.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV2Deploy]));
    assert_eq!(
        pin_bits(&spec),
        vec![
            0x3fea43060f78571d, // jain
            0x400556a449c313ab, // loss %
            0x401ec3a768201a42, // occupancy %
            0x4047449ba5e353f8, // utilization %
            0x3fb936173732e842, // jitter ms
            0x4009ba5e353f7cee, // tput flow 0 (end to end)
            0x4033c6a7ef9db22d, // tput flow 1
            0x40354fdf3b645a1d, // tput flow 2
            0x4035e04189374bc7, // tput flow 3
            0x401ec3a768201a42, // link 0 occupancy
            0x401f9466bee6cf4f, // link 1 occupancy
            0x4003c36998316eaa, // link 2 occupancy
            0x4047449ba5e353f8, // link 0 utilization
            0x404899999999999a, // link 1 utilization
            0x40493f7ced916873, // link 2 utilization
        ],
        "BBRv2D chain drifted"
    );
}

#[test]
fn churned_deploy_tier_dumbbell_is_pinned() {
    let spec = short(
        ScenarioSpec::dumbbell(3, 50.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV2Deploy, CcaKind::Cubic])
            .flow_window(1, 0.4, 0.9),
    );
    assert_eq!(
        pin_bits(&spec),
        vec![
            0x3fefb43e446df1e4, // jain
            0x4018c4e6d4c10216, // loss %
            0x403d579143974d93, // occupancy %
            0x4054b7ced916872b, // utilization %
            0x3fc92e0f0d0a5f1c, // jitter ms
            0x402ded916872b021, // tput flow 0
            0x4027b020c49ba5e3, // tput flow 1 (churned)
            0x402c3f7ced916873, // tput flow 2
            0x403d579143974d93, // link 0 occupancy
            0x4054b7ced916872b, // link 0 utilization
        ],
        "churned BBRv2D/CUBIC dumbbell drifted"
    );
}

#[test]
fn generated_custom_topology_is_pinned() {
    let spec = generate_scenario(1, 25).spec;
    assert_eq!(
        pin_bits(&spec),
        vec![
            0x3fee933d20a4eeeb, // jain
            0x0000000000000000, // loss %
            0x404e259c26f62de2, // occupancy %
            0x4058fe95fcd41542, // utilization %
            0x3fe388cec915b143, // jitter ms
            0x4000d916872b020c, // tput flow 0
            0x400d04189374bc6a, // tput flow 1
            0x4003cccccccccccd, // tput flow 2
            0x400af9db22d0e560, // tput flow 3
            0x404e259c26f62de2, // link 0 occupancy
            0x3fdd7e6344d4a84a, // link 1 occupancy
            0x3fde7ab0cd291e8d, // link 2 occupancy
            0x4058fe95fcd41542, // link 0 utilization
            0x40340f20269d210a, // link 1 utilization
            0x40349a9a8ef8ead7, // link 2 utilization
        ],
        "generated Custom cell drifted"
    );
}
