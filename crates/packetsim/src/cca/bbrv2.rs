//! Packet-level BBRv2, written from the paper's §3.1 description of the
//! algorithm: Startup/Drain as in v1, then a ProbeBW cycle of
//! Refill → Up → Down → Cruise. Probing happens every
//! `min(62·RTprop, rand(2, 3) s)`; Up paces at 5/4 until the inflight
//! reaches 5/4·BDP or round loss exceeds 2 %; `inflight_hi` tracks the
//! maximum tenable inflight (β = 0.7 cut on excessive loss, at most once
//! per round); Down paces at 3/4 until the inflight reaches
//! `min(BDP, 0.85·inflight_hi)`; Cruise bounds the window by
//! `inflight_lo`, which starts from the window at the moment of loss and
//! is β-reduced per loss event. ProbeRTT halves the window to BDP/2.

use bbr_trace::Recorder;

use crate::cca::bbr_common::CcaTrace;
use crate::cca::{CcaKind, PacketCca, RateSample};

pub(crate) const STARTUP_GAIN: f64 = 2.885;
const DRAIN_GAIN: f64 = 1.0 / 2.885;
const BETA: f64 = 0.7;
const HEADROOM: f64 = 0.85;
pub(crate) const LOSS_THRESH: f64 = 0.02;
pub(crate) const PROBE_RTT_DURATION: f64 = 0.2;
pub(crate) const MIN_RTT_WINDOW: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Startup,
    Drain,
    /// ProbeBW sub-states.
    Refill,
    Up,
    Down,
    Cruise,
    ProbeRtt,
}

impl State {
    /// Stable wire tag for `trace/v1` phase events.
    pub fn name(self) -> &'static str {
        match self {
            State::Startup => "Startup",
            State::Drain => "Drain",
            State::Refill => "Refill",
            State::Up => "Up",
            State::Down => "Down",
            State::Cruise => "Cruise",
            State::ProbeRtt => "ProbeRtt",
        }
    }
}

#[derive(Debug, Clone)]
pub struct BbrV2Pkt {
    mss: f64,
    state: State,
    /// Max delivery rate of the current and the previous probing cycle
    /// (bytes/s); BtlBw is their maximum ("the maximum delivery rate from
    /// the last two ProbeBW periods", paper §3.1).
    bw_cur: f64,
    bw_prev: f64,
    rtprop: f64,
    rtprop_stamp: f64,
    /// Long-term and short-term inflight bounds (bytes).
    inflight_hi: f64,
    inflight_lo: f64,
    /// Time the last bandwidth probe (Up phase) started.
    probe_stamp: f64,
    /// Deterministic pseudo-random probe interval in [2, 3] s.
    probe_wall_interval: f64,
    /// Loss accounting per round.
    lost_in_round: f64,
    delivered_in_round: f64,
    round_delivered_mark: f64,
    hi_cut_this_round: bool,
    /// Startup plateau detection.
    full_bw: f64,
    full_bw_count: u32,
    probe_rtt_done: f64,
    /// Min RTT observed *during* the current ProbeRTT window; adopted as
    /// the new RTprop at exit (even if higher than the old estimate).
    probe_rtt_min: f64,
    state_stamp: f64,
    pacing_gain: f64,
    /// inflight_hi growth amount per round during Up (segments).
    up_growth: f64,
    last_inflight: f64,
    /// Flight-recorder hook; no control decision reads it.
    trace: CcaTrace,
}

impl BbrV2Pkt {
    pub fn new(mss: f64, seed: u64) -> Self {
        let r = (seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            >> 33) as f64
            / (1u64 << 31) as f64;
        Self {
            mss,
            state: State::Startup,
            bw_cur: 0.0,
            bw_prev: 0.0,
            rtprop: f64::INFINITY,
            rtprop_stamp: 0.0,
            inflight_hi: f64::INFINITY,
            inflight_lo: f64::INFINITY,
            probe_stamp: 0.0,
            probe_wall_interval: 2.0 + r.clamp(0.0, 1.0),
            lost_in_round: 0.0,
            delivered_in_round: 0.0,
            round_delivered_mark: 0.0,
            hi_cut_this_round: false,
            full_bw: 0.0,
            full_bw_count: 0,
            probe_rtt_done: 0.0,
            probe_rtt_min: f64::INFINITY,
            state_stamp: 0.0,
            pacing_gain: STARTUP_GAIN,
            up_growth: 1.0,
            last_inflight: 0.0,
            trace: CcaTrace::default(),
        }
    }

    /// Bottleneck-bandwidth estimate (bytes/s): max over the last two
    /// probing cycles.
    pub fn btlbw(&self) -> f64 {
        self.bw_cur.max(self.bw_prev)
    }

    /// Test/report hook: seed the bandwidth estimate.
    pub fn force_btlbw(&mut self, bw: f64) {
        self.bw_cur = bw;
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

    /// Drain target `min(BDP, 0.85·inflight_hi)`.
    fn drain_target(&self) -> f64 {
        self.bdp().min(HEADROOM * self.inflight_hi)
    }

    /// Loss rate within the current round.
    fn round_loss_rate(&self) -> f64 {
        let total = self.delivered_in_round + self.lost_in_round;
        if total > 0.0 {
            self.lost_in_round / total
        } else {
            0.0
        }
    }

    /// Time between bandwidth probes: `min(62·RTprop, rand(2,3) s)`.
    fn probe_interval(&self) -> f64 {
        if self.rtprop.is_finite() {
            (62.0 * self.rtprop).min(self.probe_wall_interval)
        } else {
            self.probe_wall_interval
        }
    }

    fn check_full_pipe(&mut self, round_start: bool) {
        if !round_start {
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

    fn enter(&mut self, state: State, now: f64) {
        if state != self.state {
            self.trace.phase(now, self.state.name(), state.name());
        }
        self.state = state;
        self.state_stamp = now;
    }
}

impl PacketCca for BbrV2Pkt {
    fn on_ack(&mut self, rs: &RateSample) {
        // Round tracking.
        let round_start = rs.pkt_delivered_at_send >= self.round_delivered_mark;
        if round_start {
            self.round_delivered_mark = rs.delivered;
            self.lost_in_round = 0.0;
            self.delivered_in_round = 0.0;
            self.hi_cut_this_round = false;
        }
        self.delivered_in_round += rs.newly_acked;
        self.last_inflight = rs.inflight;

        // Bandwidth filter: running max within the current probing cycle.
        if rs.delivery_rate > 0.0 {
            let before = self.trace.on().then(|| self.btlbw());
            self.bw_cur = self.bw_cur.max(rs.delivery_rate);
            if let Some(before) = before {
                let after = self.btlbw();
                if after != before {
                    self.trace.signal(rs.now, "btlbw", after * 8.0 / 1e6);
                }
            }
        }

        // RTprop.
        if rs.rtt.is_finite() {
            if rs.rtt < self.rtprop {
                self.rtprop = rs.rtt;
                self.rtprop_stamp = rs.now;
                self.trace.signal(rs.now, "rtprop", self.rtprop);
            } else if rs.now - self.rtprop_stamp > MIN_RTT_WINDOW
                && !matches!(self.state, State::ProbeRtt | State::Startup)
            {
                self.enter(State::ProbeRtt, rs.now);
                self.probe_rtt_done = rs.now + PROBE_RTT_DURATION;
                self.probe_rtt_min = f64::INFINITY;
            }
        }

        match self.state {
            State::Startup => {
                self.pacing_gain = STARTUP_GAIN;
                self.check_full_pipe(round_start);
                let excess_loss =
                    self.round_loss_rate() > LOSS_THRESH && self.lost_in_round > 3.0 * self.mss;
                if self.full_bw_count >= 3 || excess_loss {
                    if excess_loss {
                        // The paper's Insight 5 mechanism: startup loss
                        // materializes the initial inflight_hi.
                        self.inflight_hi = rs.inflight.max(self.bdp());
                        self.trace
                            .signal(rs.now, "inflight_hi", self.inflight_hi / self.mss);
                    }
                    self.enter(State::Drain, rs.now);
                }
            }
            State::Drain => {
                self.pacing_gain = DRAIN_GAIN;
                if rs.inflight <= self.bdp() {
                    self.enter(State::Cruise, rs.now);
                    self.probe_stamp = rs.now;
                }
            }
            State::Refill => {
                self.pacing_gain = 1.0;
                // One round of refilling the pipe, then probe up.
                if rs.now - self.state_stamp >= self.rtprop.min(0.5) {
                    self.enter(State::Up, rs.now);
                    self.up_growth = 1.0;
                }
            }
            State::Up => {
                self.pacing_gain = 1.25;
                // Grow inflight_hi while it is the binding constraint and
                // loss stays tolerable (additive-exponential growth).
                if self.inflight_hi.is_finite()
                    && rs.inflight >= 0.98 * self.inflight_hi
                    && self.round_loss_rate() <= LOSS_THRESH
                {
                    if round_start {
                        self.up_growth *= 2.0;
                    }
                    self.inflight_hi +=
                        self.up_growth * self.mss * rs.newly_acked / rs.inflight.max(self.mss);
                    self.trace
                        .signal(rs.now, "inflight_hi", self.inflight_hi / self.mss);
                }
                let inflight_done = rs.inflight >= 1.25 * self.bdp();
                let loss_done =
                    self.round_loss_rate() > LOSS_THRESH && self.lost_in_round > 3.0 * self.mss;
                if inflight_done || loss_done {
                    if loss_done && !self.hi_cut_this_round {
                        // β-cut of inflight_hi, at most once per round.
                        let base = if self.inflight_hi.is_finite() {
                            self.inflight_hi
                        } else {
                            rs.inflight
                        };
                        self.inflight_hi = (BETA * base).max(4.0 * self.mss);
                        self.trace
                            .signal(rs.now, "inflight_hi", self.inflight_hi / self.mss);
                        self.hi_cut_this_round = true;
                    } else if self.inflight_hi.is_finite() {
                        self.inflight_hi = self.inflight_hi.max(rs.inflight);
                        self.trace
                            .signal(rs.now, "inflight_hi", self.inflight_hi / self.mss);
                    }
                    self.enter(State::Down, rs.now);
                }
            }
            State::Down => {
                self.pacing_gain = 0.75;
                if rs.inflight <= self.drain_target() {
                    self.enter(State::Cruise, rs.now);
                }
            }
            State::Cruise => {
                self.pacing_gain = 1.0;
                if rs.now - self.probe_stamp >= self.probe_interval() {
                    // Time to probe for bandwidth again: a new probing
                    // cycle begins.
                    self.inflight_lo = f64::INFINITY; // short-term bound reset
                    self.probe_stamp = rs.now;
                    self.bw_prev = self.bw_cur;
                    self.bw_cur = 0.0;
                    self.enter(State::Refill, rs.now);
                }
            }
            State::ProbeRtt => {
                self.pacing_gain = 1.0;
                // Re-measure RTprop from the samples observed during the
                // probe window itself. Adopting their min at exit — even
                // when it is *higher* than the old estimate — is what lets
                // a path whose base RTT stepped up (reroute, churn) shed a
                // stale RTprop instead of keeping the lifetime min forever.
                if rs.rtt.is_finite() {
                    self.probe_rtt_min = self.probe_rtt_min.min(rs.rtt);
                }
                // Exit on the deadline unconditionally; a non-finite RTT on
                // the deadline ack (retransmit) must not strand the flow in
                // ProbeRTT's halved window.
                if rs.now >= self.probe_rtt_done {
                    if self.probe_rtt_min.is_finite() {
                        self.rtprop = self.probe_rtt_min;
                        self.trace.signal(rs.now, "rtprop", self.rtprop);
                    }
                    self.rtprop_stamp = rs.now;
                    self.enter(State::Cruise, rs.now);
                }
            }
        }
    }

    fn on_congestion_event(&mut self, now: f64, inflight: f64) {
        // Contract: this simplified tier maintains the short-term bound
        // only in Cruise, per the paper's §3.1 description where
        // `inflight_lo` constrains the cruising window. During Down the
        // flow is already draining toward the headroom target, and
        // Refill/Up losses β-cut `inflight_hi` through the in-state loss
        // accounting, so folding `inflight_lo` in there would
        // double-penalize the probe. Deployment BBRv2 maintains the bound
        // across the whole ProbeBW cycle — that semantics lives in
        // `CcaKind::BbrV2Deploy` (`bbrv2_deploy.rs`). This narrowing is
        // pinned by `losses_outside_cruise_leave_inflight_lo_alone` and
        // by the byte-exact packet-path pins.
        if self.state == State::Cruise {
            // inflight_lo starts from the window at the moment of loss and
            // shrinks by β per loss event (paper §3.1).
            let base = if self.inflight_lo.is_finite() {
                self.inflight_lo
            } else {
                self.cwnd().min(inflight.max(4.0 * self.mss))
            };
            self.inflight_lo = (BETA * base).max(4.0 * self.mss);
            self.trace
                .signal(now, "inflight_lo", self.inflight_lo / self.mss);
        }
    }

    fn on_packet_lost(&mut self, _now: f64, bytes: f64) {
        self.lost_in_round += bytes;
    }

    fn on_rto(&mut self, now: f64) {
        self.inflight_lo = 4.0 * self.mss;
        self.trace
            .signal(now, "inflight_lo", self.inflight_lo / self.mss);
    }

    fn cwnd(&self) -> f64 {
        let bdp = self.bdp();
        match self.state {
            State::ProbeRtt => (0.5 * bdp).max(4.0 * self.mss),
            State::Startup | State::Drain => (STARTUP_GAIN * bdp)
                .min(self.inflight_hi)
                .max(4.0 * self.mss),
            State::Cruise => {
                // min(2·BDP, headroom·inflight_hi, inflight_lo).
                let mut w = 2.0 * bdp;
                if self.inflight_hi.is_finite() {
                    w = w.min(HEADROOM * self.inflight_hi);
                }
                w.min(self.inflight_lo).max(4.0 * self.mss)
            }
            State::Refill | State::Up => (2.0 * bdp).min(self.inflight_hi).max(4.0 * self.mss),
            State::Down => {
                // Headroom applies while draining, so the inflight can
                // actually reach the drain target min(BDP, 0.85·w_hi).
                let mut w = 2.0 * bdp;
                if self.inflight_hi.is_finite() {
                    w = w.min(HEADROOM * self.inflight_hi);
                }
                w.max(4.0 * self.mss)
            }
        }
    }

    fn pacing_rate(&self) -> f64 {
        let bw = self.btlbw();
        if bw <= 0.0 {
            return 10.0 * self.mss / 1e-3;
        }
        self.pacing_gain * bw
    }

    fn kind(&self) -> CcaKind {
        CcaKind::BbrV2
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
            pkt_delivered_at_send: delivered,
            inflight,
            srtt: rtt,
            min_rtt: rtt,
        }
    }

    #[test]
    fn startup_exits_to_drain_then_cruise() {
        let mut b = BbrV2Pkt::new(1500.0, 3);
        let mut delivered = 0.0;
        for k in 0..40 {
            delivered += 15_000.0;
            b.on_ack(&sample(k as f64 * 0.04, 1e6, 0.04, delivered, 5.0 * 1500.0));
            if b.state() == State::Cruise {
                break;
            }
        }
        assert_eq!(b.state(), State::Cruise);
    }

    #[test]
    fn cruise_probes_after_interval() {
        let mut b = BbrV2Pkt::new(1500.0, 3);
        b.rtprop = 0.04;
        b.rtprop_stamp = 0.0;
        b.enter(State::Cruise, 0.0);
        b.probe_stamp = 0.0;
        b.force_btlbw(1e6);
        // Probe interval = min(62·0.04 = 2.48, rand(2,3)).
        let interval = b.probe_interval();
        assert!((2.0..=2.48).contains(&interval), "interval {interval}");
        let mut delivered = 1e6;
        for k in 0..400 {
            delivered += 1500.0;
            let now = k as f64 * 0.01;
            b.on_ack(&sample(now, 1e6, 0.0401, delivered, 5_000.0));
            if b.state() != State::Cruise {
                break;
            }
        }
        assert_eq!(b.state(), State::Refill);
    }

    #[test]
    fn up_exits_on_inflight_and_cuts_on_loss() {
        let mut b = BbrV2Pkt::new(1500.0, 3);
        b.rtprop = 0.04;
        b.rtprop_stamp = 0.0;
        b.force_btlbw(1e6);
        b.enter(State::Up, 0.0);
        // Inflight above 1.25·BDP → Down.
        let bdp = b.bdp();
        b.on_ack(&sample(0.01, 1e6, 0.0401, 1e6, 1.3 * bdp));
        assert_eq!(b.state(), State::Down);

        // Loss-triggered exit applies the β cut.
        let mut b2 = BbrV2Pkt::new(1500.0, 3);
        b2.rtprop = 0.04;
        b2.rtprop_stamp = 0.0;
        b2.force_btlbw(1e6);
        b2.inflight_hi = 100_000.0;
        b2.enter(State::Up, 0.0);
        for _ in 0..10 {
            b2.on_packet_lost(0.01, 1500.0);
        }
        b2.delivered_in_round = 100_000.0; // ~13 % loss
        let mut rs = sample(0.01, 1e6, 0.0401, 1e6, 0.5 * b2.bdp());
        rs.pkt_delivered_at_send = -1.0; // avoid round reset
        b2.on_ack(&rs);
        assert_eq!(b2.state(), State::Down);
        assert!((b2.inflight_hi - 70_000.0).abs() < 1.0);
    }

    #[test]
    fn down_drains_to_headroom_target() {
        let mut b = BbrV2Pkt::new(1500.0, 3);
        b.rtprop = 0.04;
        b.rtprop_stamp = 0.0;
        b.force_btlbw(1e6);
        b.inflight_hi = 40_000.0;
        b.enter(State::Down, 0.0);
        let target = b.drain_target();
        assert!((target - 0.85 * 40_000.0).abs() < 1.0);
        let mut rs = sample(0.01, 1e6, 0.0401, 1e6, target - 1.0);
        rs.pkt_delivered_at_send = -1.0;
        b.on_ack(&rs);
        assert_eq!(b.state(), State::Cruise);
    }

    #[test]
    fn cruise_loss_sets_and_shrinks_inflight_lo() {
        let mut b = BbrV2Pkt::new(1500.0, 3);
        b.rtprop = 0.04;
        b.force_btlbw(1e6);
        b.enter(State::Cruise, 0.0);
        assert!(b.inflight_lo.is_infinite());
        b.on_congestion_event(1.0, 30_000.0);
        let lo1 = b.inflight_lo;
        assert!(lo1.is_finite());
        b.on_congestion_event(1.1, 30_000.0);
        assert!((b.inflight_lo - BETA * lo1).abs() < 1.0);
    }

    #[test]
    fn probe_rtt_window_is_half_bdp() {
        let mut b = BbrV2Pkt::new(1500.0, 3);
        b.rtprop = 0.04;
        b.force_btlbw(1e6);
        b.enter(State::ProbeRtt, 0.0);
        assert!((b.cwnd() - 0.5 * 1e6 * 0.04).abs() < 1e-6);
    }

    #[test]
    fn probe_rtt_remeasures_rtprop_upward_after_step_rtt() {
        // Regression: rtprop used to be a lifetime min folded with
        // `rtprop.min(rs.rtt)` at ProbeRTT exit, so a base-RTT step from
        // 40 ms to 80 ms (multi-link reroute, churn) left the estimate at
        // 40 ms forever.
        let mut b = BbrV2Pkt::new(1500.0, 3);
        b.force_btlbw(1e6);
        b.enter(State::Cruise, 0.0);
        b.probe_stamp = 0.0;
        b.rtprop = 0.04;
        b.rtprop_stamp = 0.0;
        // The base RTT has stepped to 80 ms; once the 10 s window expires
        // the flow enters ProbeRTT...
        let mut rs = sample(10.5, 1e6, 0.08, 1e6, 5_000.0);
        rs.pkt_delivered_at_send = -1.0;
        b.on_ack(&rs);
        assert_eq!(b.state(), State::ProbeRtt);
        assert_eq!(b.rtprop, 0.04, "probe window not over yet");
        // ...and at the deadline adopts the 80 ms samples observed during
        // the probe window, re-measuring *upward*.
        let mut rs2 = sample(10.5 + PROBE_RTT_DURATION, 1e6, 0.08, 1e6, 5_000.0);
        rs2.pkt_delivered_at_send = -1.0;
        b.on_ack(&rs2);
        assert_eq!(b.state(), State::Cruise);
        assert_eq!(b.rtprop, 0.08);
    }

    #[test]
    fn probe_rtt_exits_on_deadline_even_with_non_finite_rtt() {
        // Regression: the exit gate was `now >= deadline && rtt.is_finite()`,
        // so a retransmit's NaN RTT on the deadline ack stranded the flow
        // in ProbeRTT's halved window indefinitely.
        let mut b = BbrV2Pkt::new(1500.0, 3);
        b.rtprop = 0.04;
        b.force_btlbw(1e6);
        b.enter(State::ProbeRtt, 0.0);
        b.probe_rtt_done = 0.2;
        let mut rs = sample(0.25, 1e6, f64::NAN, 1e6, 5_000.0);
        rs.pkt_delivered_at_send = -1.0;
        b.on_ack(&rs);
        assert_eq!(b.state(), State::Cruise);
        // No finite sample was seen during the probe window, so the old
        // estimate stands rather than being clobbered.
        assert_eq!(b.rtprop, 0.04);
    }

    #[test]
    fn losses_outside_cruise_leave_inflight_lo_alone() {
        // Explicit contract (see on_congestion_event): the simplified tier
        // maintains the short-term bound only in Cruise. The deploy tier
        // (`BbrV2Deploy`) maintains it across the whole ProbeBW cycle.
        for st in [State::Down, State::Refill, State::Up, State::Startup] {
            let mut b = BbrV2Pkt::new(1500.0, 3);
            b.rtprop = 0.04;
            b.force_btlbw(1e6);
            b.enter(st, 0.0);
            b.on_congestion_event(1.0, 30_000.0);
            assert!(b.inflight_lo.is_infinite(), "inflight_lo moved in {st:?}");
        }
    }

    #[test]
    fn probe_interval_randomized_by_seed() {
        let a = BbrV2Pkt::new(1500.0, 1).probe_wall_interval;
        let b = BbrV2Pkt::new(1500.0, 2).probe_wall_interval;
        assert!(a != b);
        assert!((2.0..=3.0).contains(&a));
        assert!((2.0..=3.0).contains(&b));
    }
}
