//! Constants conformance for the packet-level BBR tiers.
//!
//! The published BBR constants, on which independent BBR and BBRv2
//! implementations agree: ProbeRTT of 200 ms every 10 s, a
//! 10 s min-RTT window, a startup gain of 2/ln 2 ≈ 2.89, a minimum
//! window of 4 packets, and BBRv2's 2 % loss threshold with 1.25 / 0.9
//! probe gains. Each tier is checked only for the constants it defines,
//! so a silent edit to any of them fails here.

use std::f64::consts::LN_2;

use super::{bbrv1, bbrv2, bbrv2_deploy};

/// Startup gain 2/ln 2 ≈ 2.885 (rounded in the implementations).
fn assert_startup_gain(tier: &str, gain: f64) {
    assert!(
        (gain - 2.0 / LN_2).abs() < 1e-3,
        "{tier}: startup gain {gain} is not 2/ln 2"
    );
}

/// ProbeRTT lasts 200 ms and comes due after 10 s without a new min RTT.
fn assert_probe_rtt(tier: &str, duration: f64, min_rtt_window: f64) {
    assert_eq!(duration, 0.2, "{tier}: ProbeRTT duration");
    assert_eq!(min_rtt_window, 10.0, "{tier}: min-RTT window");
}

#[test]
fn bbrv1_matches_the_published_constants() {
    assert_startup_gain("BBRv1", bbrv1::STARTUP_GAIN);
    assert_probe_rtt("BBRv1", bbrv1::PROBE_RTT_DURATION, bbrv1::MIN_RTT_WINDOW);
    assert_eq!(bbrv1::GAIN_CYCLE[0], 1.25, "BBRv1 probe-up gain");
}

#[test]
fn classic_bbrv2_matches_the_published_constants() {
    assert_startup_gain("BBRv2", bbrv2::STARTUP_GAIN);
    assert_probe_rtt("BBRv2", bbrv2::PROBE_RTT_DURATION, bbrv2::MIN_RTT_WINDOW);
    assert_eq!(bbrv2::LOSS_THRESH, 0.02, "BBRv2 loss threshold");
}

#[test]
fn deploy_bbrv2_matches_the_published_constants() {
    use bbrv2_deploy as d;
    assert_startup_gain("BBRv2D", d::STARTUP_GAIN);
    assert_probe_rtt("BBRv2D", d::PROBE_RTT_DURATION, d::MIN_RTT_WINDOW);
    assert_eq!(d::LOSS_THRESH, 0.02, "BBRv2D loss threshold");
    assert_eq!(d::BW_PROBE_UP_GAIN, 1.25, "BBRv2D probe-up gain");
    assert_eq!(d::BW_PROBE_DOWN_GAIN, 0.9, "BBRv2D probe-down gain");
    assert_eq!(d::MIN_CWND_SEGMENTS, 4.0, "BBRv2D minimum cwnd (packets)");
}
