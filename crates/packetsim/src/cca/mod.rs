//! Packet-level congestion-control algorithms.
//!
//! The engine feeds each flow's CCA with per-ACK rate samples (delivery
//! rate, RTT, round tracking — the signals the BBR papers call the "rate
//! sample") plus loss and timeout notifications; the CCA answers with a
//! congestion window (bytes) and a pacing rate (bytes/s).

pub mod bbr_common;
pub mod bbrv1;
pub mod bbrv2;
pub mod bbrv2_deploy;
#[cfg(test)]
mod conformance;
pub mod cubic;
pub mod reno;

pub use bbr_common::{WindowedMax, WindowedMin};
pub use bbrv1::BbrV1Pkt;
pub use bbrv2::BbrV2Pkt;
pub use bbrv2_deploy::BbrV2DeployPkt;
pub use cubic::CubicPkt;
pub use reno::RenoPkt;

// The CCA tag is shared with the fluid model through the backend-agnostic
// scenario layer; only the packet-level state machines live here.
pub use bbr_scenario::CcaKind;

use bbr_trace::Recorder;

/// Per-ACK sample handed to the CCA.
#[derive(Debug, Clone, Copy)]
pub struct RateSample {
    /// Current time (s).
    pub now: f64,
    /// Delivery rate measured over the acked packet's flight (bytes/s).
    pub delivery_rate: f64,
    /// RTT sample of the acked packet (s); NaN for retransmits.
    pub rtt: f64,
    /// Bytes newly acknowledged by this ACK.
    pub newly_acked: f64,
    /// Total bytes delivered so far on this flow.
    pub delivered: f64,
    /// `delivered` at the time the acked packet was sent (round
    /// tracking).
    pub pkt_delivered_at_send: f64,
    /// Bytes currently in flight (after this ACK).
    pub inflight: f64,
    /// Smoothed RTT (s).
    pub srtt: f64,
    /// Windowed minimum RTT (s).
    pub min_rtt: f64,
}

/// A packet-level congestion controller.
pub trait PacketCca: Send {
    /// Process an ACK.
    fn on_ack(&mut self, rs: &RateSample);
    /// A loss-based congestion event (at most once per RTT of losses).
    fn on_congestion_event(&mut self, now: f64, inflight: f64);
    /// Every individual lost packet (BBRv2 loss-rate accounting).
    fn on_packet_lost(&mut self, _now: f64, _bytes: f64) {}
    /// Retransmission timeout.
    fn on_rto(&mut self, now: f64);
    /// Current congestion window (bytes).
    fn cwnd(&self) -> f64;
    /// Current pacing rate (bytes/s); `f64::INFINITY` for unpaced CCAs.
    fn pacing_rate(&self) -> f64;
    /// Algorithm identifier.
    fn kind(&self) -> CcaKind;
    /// Attach the recorder this controller reports its phase and signal
    /// events to, labelled with its flow index `id`. Advisory only:
    /// implementations must keep both where no control decision ever
    /// reads them.
    fn set_trace_id(&mut self, _id: usize, _rec: &Recorder) {}
}

/// Build a packet CCA. `mss` in bytes; `seed` individualizes randomized
/// choices (BBRv1's probing phase, BBRv2's probe interval).
pub fn build(kind: CcaKind, mss: f64, seed: u64) -> Box<dyn PacketCca> {
    match kind {
        CcaKind::Reno => Box::new(RenoPkt::new(mss)),
        CcaKind::Cubic => Box::new(CubicPkt::new(mss)),
        CcaKind::BbrV1 => Box::new(BbrV1Pkt::new(mss, seed)),
        CcaKind::BbrV2 => Box::new(BbrV2Pkt::new(mss, seed)),
        CcaKind::BbrV2Deploy => Box::new(BbrV2DeployPkt::new(mss, seed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_all() {
        for kind in CcaKind::ALL {
            let cca = build(kind, 1500.0, 7);
            assert_eq!(cca.kind(), kind);
            assert!(cca.cwnd() >= 1500.0);
            assert!(cca.pacing_rate() > 0.0);
        }
    }
}
