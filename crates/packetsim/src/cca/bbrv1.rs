//! Packet-level BBRv1 (Cardwell et al., and paper §3.1): Startup, Drain,
//! ProbeBW with the 8-phase gain cycle
//! `[5/4, 3/4, 1, 1, 1, 1, 1, 1]`, ProbeRTT with a 4-segment window,
//! a windowed-max bottleneck-bandwidth filter, a 10 s windowed-min
//! RTprop filter, and the 2×BDP congestion window. Loss-insensitive.

use bbr_trace::Recorder;

use crate::cca::bbr_common::CcaTrace;
use crate::cca::{CcaKind, PacketCca, RateSample, WindowedMax};

pub(crate) const STARTUP_GAIN: f64 = 2.885; // 2/ln 2
const DRAIN_GAIN: f64 = 1.0 / 2.885;
pub(crate) const PROBE_RTT_DURATION: f64 = 0.2;
pub(crate) const MIN_RTT_WINDOW: f64 = 10.0;
/// Max-bandwidth filter window: 10 round trips (packet-timed, as in the
/// reference implementation — a wall-clock window would evict the high
/// samples during loss-recovery stalls and collapse the rate).
const BW_WINDOW_ROUNDS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

impl State {
    /// Stable wire tag for `trace/v1` phase events.
    pub fn name(self) -> &'static str {
        match self {
            State::Startup => "Startup",
            State::Drain => "Drain",
            State::ProbeBw => "ProbeBw",
            State::ProbeRtt => "ProbeRtt",
        }
    }
}

#[derive(Debug, Clone)]
pub struct BbrV1Pkt {
    mss: f64,
    state: State,
    /// Max-filtered delivery rate (bytes/s).
    bw_filter: WindowedMax,
    /// RTprop estimate (s) and when it was last refreshed.
    rtprop: f64,
    rtprop_stamp: f64,
    /// Gain-cycle phase index and entry time.
    cycle_idx: usize,
    cycle_stamp: f64,
    /// Startup plateau detection.
    full_bw: f64,
    full_bw_count: u32,
    /// ProbeRTT bookkeeping.
    probe_rtt_done: f64,
    /// Round tracking.
    next_round_delivered: f64,
    round_start: bool,
    round_count: u64,
    pacing_gain: f64,
    cwnd_gain: f64,
    last_inflight: f64,
    /// Flight-recorder hook; no control decision reads it.
    trace: CcaTrace,
}

pub(crate) const GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

impl BbrV1Pkt {
    pub fn new(mss: f64, seed: u64) -> Self {
        // Randomized initial probing phase (any but the drain phase),
        // derived deterministically from the seed.
        let phase = {
            let r = (seed.wrapping_mul(6364136223846793005).wrapping_add(1)) >> 33;
            let p = (r % 7) as usize;
            if p >= 1 {
                p + 1
            } else {
                p
            }
        };
        Self {
            mss,
            state: State::Startup,
            bw_filter: WindowedMax::new(),
            rtprop: f64::INFINITY,
            rtprop_stamp: 0.0,
            cycle_idx: phase % 8,
            cycle_stamp: 0.0,
            full_bw: 0.0,
            full_bw_count: 0,
            probe_rtt_done: 0.0,
            next_round_delivered: 0.0,
            round_start: false,
            round_count: 0,
            pacing_gain: STARTUP_GAIN,
            cwnd_gain: STARTUP_GAIN,
            last_inflight: 0.0,
            trace: CcaTrace::default(),
        }
    }

    /// Switch state, recording the transition as a trace phase event.
    fn enter(&mut self, state: State, now: f64) {
        if state != self.state {
            self.trace.phase(now, self.state.name(), state.name());
        }
        self.state = state;
    }

    /// Bottleneck-bandwidth estimate (bytes/s).
    pub fn btlbw(&self) -> f64 {
        self.bw_filter.max()
    }

    /// Estimated BDP (bytes).
    pub fn bdp(&self) -> f64 {
        if self.rtprop.is_finite() && self.btlbw() > 0.0 {
            self.btlbw() * self.rtprop
        } else {
            10.0 * self.mss
        }
    }

    pub fn state(&self) -> State {
        self.state
    }

    fn advance_cycle(&mut self, rs: &RateSample) {
        let elapsed = rs.now - self.cycle_stamp;
        let should_advance = match GAIN_CYCLE[self.cycle_idx] {
            g if g > 1.0 => {
                // Probe phase: hold for a full RTprop and until the pipe
                // was actually probed (inflight reached the target).
                elapsed > self.rtprop
            }
            g if g < 1.0 => {
                // Drain phase: leave early once the queue is drained.
                elapsed > self.rtprop || rs.inflight <= self.bdp()
            }
            _ => elapsed > self.rtprop,
        };
        if should_advance {
            self.cycle_idx = (self.cycle_idx + 1) % 8;
            self.cycle_stamp = rs.now;
        }
        self.pacing_gain = GAIN_CYCLE[self.cycle_idx];
    }

    fn check_full_pipe(&mut self) {
        if !self.round_start {
            return;
        }
        let bw = self.btlbw();
        if bw > self.full_bw * 1.25 {
            self.full_bw = bw;
            self.full_bw_count = 0;
        } else {
            self.full_bw_count += 1;
        }
    }
}

impl PacketCca for BbrV1Pkt {
    fn on_ack(&mut self, rs: &RateSample) {
        // Round tracking: a round ends when a packet sent after the
        // previous round's end is acked.
        self.round_start = rs.pkt_delivered_at_send >= self.next_round_delivered;
        if self.round_start {
            self.next_round_delivered = rs.delivered;
            self.round_count += 1;
        }
        self.last_inflight = rs.inflight;

        // Bandwidth filter over the last 10 packet-timed rounds.
        if rs.delivery_rate > 0.0 {
            let before = self.trace.on().then(|| self.bw_filter.max());
            self.bw_filter
                .update(self.round_count as f64, rs.delivery_rate, BW_WINDOW_ROUNDS);
            if let Some(before) = before {
                let after = self.bw_filter.max();
                if after != before {
                    self.trace.signal(rs.now, "btlbw", after * 8.0 / 1e6);
                }
            }
        }

        // RTprop filter (10 s window).
        if rs.rtt.is_finite() {
            if rs.rtt < self.rtprop {
                self.rtprop = rs.rtt;
                self.rtprop_stamp = rs.now;
                self.trace.signal(rs.now, "rtprop", self.rtprop);
            } else if rs.now - self.rtprop_stamp > MIN_RTT_WINDOW
                && self.state != State::ProbeRtt
                && self.state != State::Startup
            {
                // RTprop expired: enter ProbeRTT.
                self.enter(State::ProbeRtt, rs.now);
                self.probe_rtt_done = rs.now + PROBE_RTT_DURATION;
            }
        }

        match self.state {
            State::Startup => {
                self.check_full_pipe();
                if self.full_bw_count >= 3 {
                    self.enter(State::Drain, rs.now);
                }
                self.pacing_gain = STARTUP_GAIN;
                self.cwnd_gain = STARTUP_GAIN;
            }
            State::Drain => {
                self.pacing_gain = DRAIN_GAIN;
                self.cwnd_gain = STARTUP_GAIN;
                if rs.inflight <= self.bdp() {
                    self.enter(State::ProbeBw, rs.now);
                    self.cycle_stamp = rs.now;
                    self.cwnd_gain = 2.0;
                }
            }
            State::ProbeBw => {
                self.cwnd_gain = 2.0;
                self.advance_cycle(rs);
            }
            State::ProbeRtt => {
                self.pacing_gain = 1.0;
                if rs.now >= self.probe_rtt_done && rs.rtt.is_finite() {
                    self.rtprop = self.rtprop.min(rs.rtt);
                    self.rtprop_stamp = rs.now;
                    self.enter(State::ProbeBw, rs.now);
                    self.cycle_stamp = rs.now;
                    self.cwnd_gain = 2.0;
                }
            }
        }
    }

    fn on_congestion_event(&mut self, _now: f64, _inflight: f64) {
        // BBRv1 ignores loss entirely (the root of the paper's Insights
        // 1–3).
    }

    fn on_rto(&mut self, _now: f64) {
        // Keep the model; a real implementation would enter conservation,
        // but BBRv1's rate is not loss-driven.
    }

    fn cwnd(&self) -> f64 {
        if self.state == State::ProbeRtt {
            // 4 segments (paper §3.1).
            4.0 * self.mss
        } else {
            (self.cwnd_gain * self.bdp()).max(4.0 * self.mss)
        }
    }

    fn pacing_rate(&self) -> f64 {
        let bw = self.btlbw();
        if bw <= 0.0 {
            // No estimate yet: pace the initial window over a nominal 1 ms.
            return 10.0 * self.mss / 1e-3;
        }
        self.pacing_gain * bw
    }

    fn kind(&self) -> CcaKind {
        CcaKind::BbrV1
    }

    fn set_trace_id(&mut self, id: usize, rec: &Recorder) {
        self.trace.attach(id, rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(now: f64, rate: f64, rtt: f64, delivered: f64, inflight: f64) -> RateSample {
        RateSample {
            now,
            delivery_rate: rate,
            rtt,
            newly_acked: 1500.0,
            delivered,
            pkt_delivered_at_send: delivered - 10.0 * 1500.0,
            inflight,
            srtt: rtt,
            min_rtt: rtt,
        }
    }

    #[test]
    fn startup_exits_on_bw_plateau() {
        let mut b = BbrV1Pkt::new(1500.0, 1);
        let mut delivered = 0.0;
        let rate = 1e6;
        // Constant delivery rate: after ≥3 rounds with <25 % growth the
        // flow leaves Startup.
        for k in 0..40 {
            delivered += 15_000.0;
            let mut rs = sample(k as f64 * 0.04, rate, 0.04, delivered, 5.0 * 1500.0);
            rs.pkt_delivered_at_send = delivered; // force round starts
            b.on_ack(&rs);
            if b.state() != State::Startup {
                break;
            }
        }
        assert_ne!(b.state(), State::Startup);
    }

    #[test]
    fn probe_bw_cycles_through_gains() {
        let mut b = BbrV1Pkt::new(1500.0, 1);
        b.state = State::ProbeBw;
        b.rtprop = 0.04;
        b.rtprop_stamp = 0.0;
        let mut seen = std::collections::HashSet::new();
        let mut delivered = 0.0;
        for k in 0..200 {
            delivered += 15_000.0;
            let now = k as f64 * 0.01;
            b.on_ack(&sample(now, 1e6, 0.04, delivered, 1e5));
            seen.insert((b.pacing_gain * 100.0) as i64);
        }
        assert!(seen.contains(&125), "must probe at 5/4: {seen:?}");
        assert!(seen.contains(&75), "must drain at 3/4");
        assert!(seen.contains(&100));
    }

    #[test]
    fn cwnd_is_two_bdp_in_probe_bw() {
        let mut b = BbrV1Pkt::new(1500.0, 1);
        b.state = State::ProbeBw;
        b.cwnd_gain = 2.0;
        b.rtprop = 0.04;
        b.bw_filter.update(0.0, 1e6, 10.0);
        assert!((b.cwnd() - 2.0 * 1e6 * 0.04).abs() < 1e-6);
    }

    #[test]
    fn probe_rtt_cwnd_is_four_segments() {
        let mut b = BbrV1Pkt::new(1500.0, 1);
        b.state = State::ProbeRtt;
        assert_eq!(b.cwnd(), 4.0 * 1500.0);
    }

    #[test]
    fn loss_does_not_change_anything() {
        let mut b = BbrV1Pkt::new(1500.0, 1);
        b.bw_filter.update(0.0, 1e6, 10.0);
        b.rtprop = 0.04;
        let cwnd = b.cwnd();
        let rate = b.pacing_rate();
        b.on_congestion_event(1.0, 1e5);
        assert_eq!(b.cwnd(), cwnd);
        assert_eq!(b.pacing_rate(), rate);
    }

    #[test]
    fn initial_phase_varies_with_seed() {
        let phases: std::collections::HashSet<usize> = (0..20)
            .map(|s| BbrV1Pkt::new(1500.0, s).cycle_idx)
            .collect();
        assert!(phases.len() > 2, "seeds should spread phases: {phases:?}");
        // The drain phase (index 1) is never the starting phase.
        assert!(!phases.contains(&1));
    }
}
