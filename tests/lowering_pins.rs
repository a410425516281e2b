//! Bit pins of the two topology lowerings: the fluid `network_for_spec`
//! and the packet `path_network_for_spec`.
//!
//! The outcome pins (`fluid_pins.rs`, `packet_path_pins.rs`) run specs
//! whose parameters make the packet engine's two buffer roundings agree,
//! so they cannot see a lowering that switches a family from one
//! rounding to the other. The packet engine sizes dumbbell and
//! parking-lot buffers as `buffer_bdp * capacity * 1e6 / 8.0 * delay`,
//! and chain and Custom buffers as `buffer_bdp * rate * delay` with
//! `rate = capacity * 1e6 / 8.0`. At 24 Mbit/s, 10 ms and 0.1 BDP the
//! first gives 3000.0000000000005 bytes and the second 3000.0.
//!
//! These specs sit where the two differ, and every field of both
//! lowerings is pinned as `to_bits` hex: link capacity or rate, buffer
//! and delay; each route's links and forward and return delays; the
//! packet starts, stops and gaps, and the headline link. The values were
//! captured before the per-family builders were folded into one layout,
//! and must not move.

use std::fmt::Write;

use bbr_repro::fluid::backend::network_for_spec;
use bbr_repro::packetsim::backend::path_network_for_spec;
use bbr_repro::scenario::universe::generate_scenario;
use bbr_repro::scenario::{dumbbell_access_delays, ScenarioSpec};

/// Every pinned field of both lowerings of `spec`, one line per link,
/// route or flow.
fn lowering_bits(spec: &ScenarioSpec) -> String {
    let h = |v: f64| format!("{:016x}", v.to_bits());
    let mut out = String::new();
    let net = network_for_spec(spec);
    for (i, l) in net.links.iter().enumerate() {
        let (c, b, d) = (h(l.capacity), h(l.buffer), h(l.prop_delay));
        writeln!(out, "fluid link {i}: capacity {c} buffer {b} delay {d}").unwrap();
    }
    for (i, p) in net.paths.iter().enumerate() {
        let links: Vec<usize> = p.links.iter().map(|l| l.0).collect();
        let (f, b) = (h(p.extra_fwd_delay), h(p.extra_bwd_delay));
        writeln!(out, "fluid path {i}: links {links:?} fwd {f} bwd {b}").unwrap();
    }
    let path = path_network_for_spec(spec);
    for (i, l) in path.links.iter().enumerate() {
        let (r, b, d) = (h(l.rate), h(l.buffer), h(l.prop_delay));
        writeln!(out, "packet link {i}: rate {r} buffer {b} delay {d}").unwrap();
    }
    for (i, f) in path.flows.iter().enumerate() {
        let (a, b) = (h(f.access_delay), h(f.bwd_delay));
        let (links, start, stop) = (&f.links, h(f.start), h(f.stop));
        let gaps: Vec<String> = f
            .gaps
            .iter()
            .map(|&(off, on)| format!("{}..{}", h(off), h(on)))
            .collect();
        let gaps = gaps.join(", ");
        writeln!(
            out,
            "packet flow {i}: links {links:?} fwd {a} bwd {b} start {start} stop {stop} gaps [{gaps}]"
        )
        .unwrap();
    }
    writeln!(out, "packet headline {}", path.headline).unwrap();
    out
}

/// Both roundings differ here: the dumbbell's packet buffer is
/// `buffer_bdp * capacity * 1e6 / 8.0 * delay` = 3000.0000000000005
/// bytes (`40a7700000000001`).
#[test]
fn dumbbell_lowering_is_pinned() {
    let spec = ScenarioSpec::dumbbell(3, 24.0, 0.010, 0.1);
    assert_eq!(lowering_bits(&spec), DUMBBELL);
}

/// The one-link Custom twin of the dumbbell above: the same fluid
/// network and packet delays, but the Custom rounding gives the packet
/// buffer 3000.0 bytes (`40a7700000000000`).
#[test]
fn access_dumbbell_twin_lowering_is_pinned() {
    let access = dumbbell_access_delays(3, 0.010, 0.030, 0.040);
    let spec = ScenarioSpec::dumbbell_with_access(24.0, 0.010, 0.1, &access);
    assert_eq!(lowering_bits(&spec), ACCESS_TWIN);
}

/// Both parking-lot buffers are sized on the first link's BDP with the
/// dumbbell rounding; the headline is the slower second link.
#[test]
fn parking_lot_lowering_is_pinned() {
    let spec = ScenarioSpec::parking_lot(24.0, 19.2, 0.010, 0.1);
    assert_eq!(lowering_bits(&spec), PARKING_LOT);
}

/// The chain's packet buffers take the Custom rounding (3000.0 bytes).
#[test]
fn chain_lowering_is_pinned() {
    let spec = ScenarioSpec::chain(3, 24.0, 0.010, 0.1);
    assert_eq!(lowering_bits(&spec), CHAIN);
}

/// A generated fat-tree cell with multi-link routes and a two-window
/// schedule on flow 1; link 5's packet buffer (`40f07abfffffffff`) would
/// differ under the dumbbell rounding.
#[test]
fn generated_custom_lowering_is_pinned() {
    let spec = generate_scenario(1, 6).spec;
    assert_eq!(lowering_bits(&spec), GENERATED_CUSTOM);
}

const DUMBBELL: &str = "\
fluid link 0: capacity 4038000000000000 buffer 3f989374bc6a7efb delay 3f847ae147ae147b
fluid path 0: links [0] fwd 3f747ae147ae147a bwd 3f8eb851eb851eb8
fluid path 1: links [0] fwd 3f7eb851eb851eba bwd 3f91eb851eb851ec
fluid path 2: links [0] fwd 3f847ae147ae147b bwd 3f947ae147ae147b
packet link 0: rate 4146e36000000000 buffer 40a7700000000001 delay 3f847ae147ae147b
packet flow 0: links [0] fwd 3f747ae147ae147a bwd 3f8eb851eb851eb8 start 0000000000000000 stop 7ff0000000000000 gaps []
packet flow 1: links [0] fwd 3f7eb851eb851eba bwd 3f91eb851eb851ec start 3f747ae147ae147b stop 7ff0000000000000 gaps []
packet flow 2: links [0] fwd 3f847ae147ae147b bwd 3f947ae147ae147b start 3f847ae147ae147b stop 7ff0000000000000 gaps []
packet headline 0
";

const ACCESS_TWIN: &str = "\
fluid link 0: capacity 4038000000000000 buffer 3f989374bc6a7efb delay 3f847ae147ae147b
fluid path 0: links [0] fwd 3f747ae147ae147a bwd 3f8eb851eb851eb8
fluid path 1: links [0] fwd 3f7eb851eb851eba bwd 3f91eb851eb851ec
fluid path 2: links [0] fwd 3f847ae147ae147b bwd 3f947ae147ae147b
packet link 0: rate 4146e36000000000 buffer 40a7700000000000 delay 3f847ae147ae147b
packet flow 0: links [0] fwd 3f747ae147ae147a bwd 3f8eb851eb851eb8 start 0000000000000000 stop 7ff0000000000000 gaps []
packet flow 1: links [0] fwd 3f7eb851eb851eba bwd 3f91eb851eb851ec start 3f747ae147ae147b stop 7ff0000000000000 gaps []
packet flow 2: links [0] fwd 3f847ae147ae147b bwd 3f947ae147ae147b start 3f847ae147ae147b stop 7ff0000000000000 gaps []
packet headline 0
";

const PARKING_LOT: &str = "\
fluid link 0: capacity 4038000000000000 buffer 3f989374bc6a7efb delay 3f847ae147ae147b
fluid link 1: capacity 4033333333333333 buffer 3f989374bc6a7efb delay 3f847ae147ae147b
fluid path 0: links [0, 1] fwd 3f747ae147ae147b bwd 3f747ae147ae147b
fluid path 1: links [0] fwd 3f747ae147ae147b bwd 3f8eb851eb851eb8
fluid path 2: links [1] fwd 3f8eb851eb851eb8 bwd 3f747ae147ae147b
packet link 0: rate 4146e36000000000 buffer 40a7700000000001 delay 3f847ae147ae147b
packet link 1: rate 41424f8000000000 buffer 40a7700000000001 delay 3f847ae147ae147b
packet flow 0: links [0, 1] fwd 3f747ae147ae147b bwd 3f747ae147ae147b start 0000000000000000 stop 7ff0000000000000 gaps []
packet flow 1: links [0] fwd 3f747ae147ae147b bwd 3f8eb851eb851eb8 start 3f747ae147ae147b stop 7ff0000000000000 gaps []
packet flow 2: links [1] fwd 3f8eb851eb851eb8 bwd 3f747ae147ae147b start 3f847ae147ae147b stop 7ff0000000000000 gaps []
packet headline 1
";

const CHAIN: &str = "\
fluid link 0: capacity 4038000000000000 buffer 3f989374bc6a7efb delay 3f847ae147ae147b
fluid link 1: capacity 4038000000000000 buffer 3f989374bc6a7efb delay 3f847ae147ae147b
fluid link 2: capacity 4038000000000000 buffer 3f989374bc6a7efb delay 3f847ae147ae147b
fluid path 0: links [0, 1, 2] fwd 3f747ae147ae147b bwd 3f747ae147ae147b
fluid path 1: links [0] fwd 3f747ae147ae147b bwd 3f9999999999999a
fluid path 2: links [1] fwd 3f8eb851eb851eb8 bwd 3f8eb851eb851eb8
fluid path 3: links [2] fwd 3f9999999999999a bwd 3f747ae147ae147b
packet link 0: rate 4146e36000000000 buffer 40a7700000000000 delay 3f847ae147ae147b
packet link 1: rate 4146e36000000000 buffer 40a7700000000000 delay 3f847ae147ae147b
packet link 2: rate 4146e36000000000 buffer 40a7700000000000 delay 3f847ae147ae147b
packet flow 0: links [0, 1, 2] fwd 3f747ae147ae147b bwd 3f747ae147ae147b start 0000000000000000 stop 7ff0000000000000 gaps []
packet flow 1: links [0] fwd 3f747ae147ae147b bwd 3f9999999999999a start 3f747ae147ae147b stop 7ff0000000000000 gaps []
packet flow 2: links [1] fwd 3f8eb851eb851eb8 bwd 3f8eb851eb851eb8 start 3f847ae147ae147b stop 7ff0000000000000 gaps []
packet flow 3: links [2] fwd 3f9999999999999a bwd 3f747ae147ae147b start 3f8eb851eb851eb8 stop 7ff0000000000000 gaps []
packet headline 0
";

const GENERATED_CUSTOM: &str = "\
fluid link 0: capacity 402646dcc4b4d9da buffer 3fe147ae147ae148 delay 3f69bd530e1b53be
fluid link 1: capacity 40301125c79cbe70 buffer 3fe147ae147ae147 delay 3f721c7815513432
fluid link 2: capacity 4038c5c35ef0b040 buffer 3fe147ae147ae147 delay 3f6eab726426d279
fluid link 3: capacity 40415ae95646ae1c buffer 3fe3a7dd59f9ea82 delay 3f758cfaef40f88e
fluid link 4: capacity 404424c69a6b191d buffer 3fe147ae147ae148 delay 3f628b9e429c679e
fluid link 5: capacity 404812f15c925b8b buffer 3fe147ae147ae148 delay 3f646b0425478ba6
fluid path 0: links [3, 2, 0] fwd 3f64dc85d2a471a4 bwd 3f69bbcf41f4fa2c
fluid path 1: links [5, 4, 1] fwd 3f5288c8e24a9099 bwd 3f705b38300133a8
fluid path 2: links [3, 2, 0] fwd 3f66e2833c747d7c bwd 3f669bb084d7e826
packet link 0: rate 41353eac62880912 buffer 40f07ac000000000 delay 3f69bd530e1b53be
packet link 1: rate 413ea534d722ef1b buffer 40f07ac000000000 delay 3f721c7815513432
packet link 2: rate 41479ffa05f6c1d6 buffer 40f07ac000000000 delay 3f6eab726426d279
packet link 3: rate 41508d172f0b7fe3 buffer 40f2bec294e2daa9 delay 3f758cfaef40f88e
packet link 4: rate 415335e2771bcaff buffer 40f07ac000000000 delay 3f628b9e429c679e
packet link 5: rate 4156f570b62c83d5 buffer 40f07abfffffffff delay 3f646b0425478ba6
packet flow 0: links [3, 2, 0] fwd 3f64dc85d2a471a4 bwd 3f69bbcf41f4fa2c start 0000000000000000 stop 7ff0000000000000 gaps []
packet flow 1: links [5, 4, 1] fwd 3f5288c8e24a9099 bwd 3f705b38300133a8 start 3ff0147ae147ae14 stop 7ff0000000000000 gaps [40046a6c0b10e160..40094f996b7ec490]
packet flow 2: links [3, 2, 0] fwd 3f66e2833c747d7c bwd 3f669bb084d7e826 start 3f847ae147ae147b stop 7ff0000000000000 gaps []
packet headline 0
";
