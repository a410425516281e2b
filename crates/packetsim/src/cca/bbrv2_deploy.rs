//! Deployment-grade packet-level BBRv2 (`CcaKind::BbrV2Deploy`) — the
//! high-fidelity CCA tier, modeled on the deployed state machines (the
//! Linux/QUIC BBRv2 drafts) rather than the paper's simplified §3.1
//! description that [`super::bbrv2::BbrV2Pkt`] implements. Differences
//! from the simplified tier:
//!
//! * **Windowed filters.** The bottleneck-bandwidth estimate is a
//!   windowed max over the last 10 *packet-timed rounds* (monotonic
//!   deque, [`WindowedMax`]) instead of a two-epoch max; RTprop is a
//!   windowed min over the last 10 s ([`WindowedMin`]) instead of a
//!   lifetime min, so a base-RTT step re-measures upward within one
//!   window even without ProbeRTT.
//! * **Full bound set.** Short-term bounds `inflight_lo`/`bw_lo` are
//!   maintained on loss in *every* ProbeBW sub-state (β-cut per
//!   congestion event, reset when a new probe cycle starts), and
//!   long-term bounds `inflight_hi`/`bw_hi` are cut on excessive probe
//!   loss. The delivery model is `rate = min(max_bw, bw_hi, bw_lo)`.
//! * **ProbeBW cycle order** Down → Cruise → Refill → Up as deployed
//!   (the simplified tier enters Cruise straight from Drain), with
//!   Down pacing at 0.9 and Refill lasting exactly one packet-timed
//!   round.
//! * **Idle restart.** An ACK gap longer than 1 s resets the ProbeBW
//!   machine into Cruise instead of letting a stale probe phase pace a
//!   freshly restarting flow.
//!
//! The two tiers deliberately coexist: every scenario that named
//! `CcaKind::BbrV2` before this variant existed keeps its byte-exact
//! behaviour, and the `figures drift` audit quantifies where the fluid
//! abstraction departs from each tier.

use bbr_trace::Recorder;

use crate::cca::bbr_common::{CcaTrace, WindowedMax, WindowedMin};
use crate::cca::{CcaKind, PacketCca, RateSample};

pub(crate) const STARTUP_GAIN: f64 = 2.885;
const DRAIN_GAIN: f64 = 1.0 / 2.885;
const BETA: f64 = 0.7;
const HEADROOM: f64 = 0.85;
pub(crate) const LOSS_THRESH: f64 = 0.02;
pub(crate) const PROBE_RTT_DURATION: f64 = 0.2;
pub(crate) const MIN_RTT_WINDOW: f64 = 10.0;
/// Bandwidth filter length in packet-timed rounds (deployed BBRv2 uses
/// round-timed, not wall-timed, windows so loss-recovery stalls cannot
/// evict the high samples).
const BW_WINDOW_ROUNDS: f64 = 10.0;
pub(crate) const BW_PROBE_UP_GAIN: f64 = 1.25;
pub(crate) const BW_PROBE_DOWN_GAIN: f64 = 0.9;
const PROBE_BW_CWND_GAIN: f64 = 2.0;
const PROBE_RTT_CWND_GAIN: f64 = 0.5;
const FULL_BW_THRESH: f64 = 1.25;
const FULL_BW_COUNT_REQ: u32 = 3;
pub(crate) const MIN_CWND_SEGMENTS: f64 = 4.0;
/// ACK gap that counts as an application-limited idle period.
const IDLE_RESTART_THRESHOLD: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Startup,
    Drain,
    /// ProbeBW sub-states, in deployed cycle order.
    ProbeBwDown,
    ProbeBwCruise,
    ProbeBwRefill,
    ProbeBwUp,
    ProbeRtt,
}

impl State {
    /// True for any ProbeBW sub-state.
    pub fn is_probe_bw(self) -> bool {
        matches!(
            self,
            State::ProbeBwDown | State::ProbeBwCruise | State::ProbeBwRefill | State::ProbeBwUp
        )
    }

    /// Stable wire tag for `trace/v1` phase events.
    pub fn name(self) -> &'static str {
        match self {
            State::Startup => "Startup",
            State::Drain => "Drain",
            State::ProbeBwDown => "ProbeBwDown",
            State::ProbeBwCruise => "ProbeBwCruise",
            State::ProbeBwRefill => "ProbeBwRefill",
            State::ProbeBwUp => "ProbeBwUp",
            State::ProbeRtt => "ProbeRtt",
        }
    }
}

#[derive(Debug, Clone)]
pub struct BbrV2DeployPkt {
    mss: f64,
    state: State,
    /// Windowed max delivery rate over the last `BW_WINDOW_ROUNDS`
    /// packet-timed rounds (bytes/s).
    bw_filter: WindowedMax,
    /// Windowed min RTT over the last `MIN_RTT_WINDOW` seconds.
    rtprop_filter: WindowedMin,
    /// Time the RTprop estimate last decreased (or ProbeRTT completed);
    /// ProbeRTT triggers when this is `MIN_RTT_WINDOW` stale.
    rtprop_stamp: f64,
    /// Long-term bounds: cut on excessive loss while probing Up.
    inflight_hi: f64,
    bw_hi: f64,
    /// Short-term bounds: β-cut per congestion event in any ProbeBW
    /// sub-state, reset when the next probe cycle starts.
    inflight_lo: f64,
    bw_lo: f64,
    /// Packet-timed round counting.
    round_count: u64,
    round_delivered_mark: f64,
    /// Loss accounting per round.
    lost_in_round: f64,
    delivered_in_round: f64,
    hi_cut_this_round: bool,
    /// Startup plateau detection.
    full_bw: f64,
    full_bw_count: u32,
    /// Time the last bandwidth probe cycle started (Cruise entry clock).
    probe_stamp: f64,
    /// Deterministic pseudo-random probe interval in [2, 3] s.
    probe_wall_interval: f64,
    /// Round at which Refill started (Refill lasts exactly one round).
    refill_round: u64,
    probe_rtt_done: f64,
    state_stamp: f64,
    pacing_gain: f64,
    /// inflight_hi growth amount per round during Up (segments).
    up_growth: f64,
    /// Time of the previous ACK (idle-restart detection).
    last_ack: f64,
    /// Flight-recorder hook; no control decision reads it.
    trace: CcaTrace,
}

impl BbrV2DeployPkt {
    pub fn new(mss: f64, seed: u64) -> Self {
        let r = (seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407)
            >> 33) as f64
            / (1u64 << 31) as f64;
        Self {
            mss,
            state: State::Startup,
            bw_filter: WindowedMax::new(),
            rtprop_filter: WindowedMin::new(),
            rtprop_stamp: 0.0,
            inflight_hi: f64::INFINITY,
            bw_hi: f64::INFINITY,
            inflight_lo: f64::INFINITY,
            bw_lo: f64::INFINITY,
            round_count: 0,
            round_delivered_mark: 0.0,
            lost_in_round: 0.0,
            delivered_in_round: 0.0,
            hi_cut_this_round: false,
            full_bw: 0.0,
            full_bw_count: 0,
            probe_stamp: 0.0,
            probe_wall_interval: 2.0 + r.clamp(0.0, 1.0),
            refill_round: 0,
            probe_rtt_done: 0.0,
            state_stamp: 0.0,
            pacing_gain: STARTUP_GAIN,
            up_growth: 1.0,
            last_ack: 0.0,
            trace: CcaTrace::default(),
        }
    }

    /// Bandwidth estimate used for pacing and BDP:
    /// `min(windowed max, bw_hi, bw_lo)` (bytes/s).
    pub fn btlbw(&self) -> f64 {
        self.bw_filter.max().min(self.bw_hi).min(self.bw_lo)
    }

    /// Test/report hook: seed the bandwidth filter.
    pub fn force_btlbw(&mut self, bw: f64) {
        self.bw_filter
            .update(self.round_count as f64, bw, BW_WINDOW_ROUNDS);
    }

    /// Windowed RTprop estimate (s); +∞ before the first sample.
    pub fn rtprop(&self) -> f64 {
        self.rtprop_filter.min()
    }

    /// Estimated BDP (bytes).
    pub fn bdp(&self) -> f64 {
        let rtprop = self.rtprop();
        if rtprop.is_finite() && self.btlbw() > 0.0 {
            self.btlbw() * rtprop
        } else {
            10.0 * self.mss
        }
    }

    pub fn state(&self) -> State {
        self.state
    }

    fn min_cwnd(&self) -> f64 {
        MIN_CWND_SEGMENTS * self.mss
    }

    /// Down drains to `min(BDP, 0.85·inflight_hi)`.
    fn drain_target(&self) -> f64 {
        self.bdp().min(HEADROOM * self.inflight_hi)
    }

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
        let rtprop = self.rtprop();
        if rtprop.is_finite() {
            (62.0 * rtprop).min(self.probe_wall_interval)
        } else {
            self.probe_wall_interval
        }
    }

    fn check_full_pipe(&mut self, round_start: bool) {
        if !round_start {
            return;
        }
        let bw = self.bw_filter.max();
        if bw > self.full_bw * FULL_BW_THRESH {
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

    /// Start a new probe cycle: short-term bounds are forgotten so the
    /// probe can rediscover headroom the last loss epoch took away.
    fn start_probe_cycle(&mut self, now: f64) {
        self.inflight_lo = f64::INFINITY;
        self.bw_lo = f64::INFINITY;
        self.probe_stamp = now;
        self.refill_round = self.round_count;
        self.enter(State::ProbeBwRefill, now);
    }
}

impl PacketCca for BbrV2DeployPkt {
    fn on_ack(&mut self, rs: &RateSample) {
        // Idle restart: a long ACK gap means the application went idle.
        // Re-enter Cruise so a stale Up/Down/Refill phase (or ProbeRTT's
        // halved window) does not shape the restarting flow, and restart
        // the probe clock.
        if rs.now - self.last_ack > IDLE_RESTART_THRESHOLD
            && (self.state.is_probe_bw() || self.state == State::ProbeRtt)
        {
            self.enter(State::ProbeBwCruise, rs.now);
            self.probe_stamp = rs.now;
            self.lost_in_round = 0.0;
            self.delivered_in_round = 0.0;
        }
        self.last_ack = rs.now;

        // Packet-timed round counting.
        let round_start = rs.pkt_delivered_at_send >= self.round_delivered_mark;
        if round_start {
            self.round_count += 1;
            self.round_delivered_mark = rs.delivered;
            self.lost_in_round = 0.0;
            self.delivered_in_round = 0.0;
            self.hi_cut_this_round = false;
        }
        self.delivered_in_round += rs.newly_acked;

        // Windowed bandwidth filter over packet-timed rounds.
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

        // Windowed RTprop filter over wall time. The stamp tracks when
        // the estimate last *strictly improved* (deployed BBR semantics:
        // a sample merely equal to the min does not postpone the probe),
        // so going `MIN_RTT_WINDOW` without an improvement schedules
        // ProbeRTT even on a path whose measured RTT sits flat.
        if rs.rtt.is_finite() {
            if rs.rtt < self.rtprop_filter.min() {
                self.rtprop_stamp = rs.now;
                self.trace.signal(rs.now, "rtprop", rs.rtt);
            }
            self.rtprop_filter.update(rs.now, rs.rtt, MIN_RTT_WINDOW);
        }
        if rs.now - self.rtprop_stamp > MIN_RTT_WINDOW
            && !matches!(self.state, State::ProbeRtt | State::Startup)
        {
            self.enter(State::ProbeRtt, rs.now);
            self.probe_rtt_done = rs.now + PROBE_RTT_DURATION;
        }

        match self.state {
            State::Startup => {
                self.pacing_gain = STARTUP_GAIN;
                self.check_full_pipe(round_start);
                let excess_loss =
                    self.round_loss_rate() > LOSS_THRESH && self.lost_in_round > 3.0 * self.mss;
                if self.full_bw_count >= FULL_BW_COUNT_REQ || excess_loss {
                    if excess_loss {
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
                    // Deployed cycle order: Drain hands off to Down, which
                    // settles the flow under the headroom target before
                    // Cruise.
                    self.enter(State::ProbeBwDown, rs.now);
                    self.probe_stamp = rs.now;
                }
            }
            State::ProbeBwDown => {
                self.pacing_gain = BW_PROBE_DOWN_GAIN;
                if rs.inflight <= self.drain_target() {
                    self.enter(State::ProbeBwCruise, rs.now);
                }
            }
            State::ProbeBwCruise => {
                self.pacing_gain = 1.0;
                if rs.now - self.probe_stamp >= self.probe_interval() {
                    self.start_probe_cycle(rs.now);
                }
            }
            State::ProbeBwRefill => {
                self.pacing_gain = 1.0;
                // Exactly one packet-timed round of refilling the pipe.
                if self.round_count > self.refill_round {
                    self.enter(State::ProbeBwUp, rs.now);
                    self.up_growth = 1.0;
                }
            }
            State::ProbeBwUp => {
                self.pacing_gain = BW_PROBE_UP_GAIN;
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
                let inflight_done = rs.inflight >= BW_PROBE_UP_GAIN * self.bdp();
                let loss_done =
                    self.round_loss_rate() > LOSS_THRESH && self.lost_in_round > 3.0 * self.mss;
                if inflight_done || loss_done {
                    if loss_done && !self.hi_cut_this_round {
                        // Excessive probe loss cuts the long-term bounds:
                        // inflight_hi by β, bw_hi to the measured rate.
                        let base = if self.inflight_hi.is_finite() {
                            self.inflight_hi
                        } else {
                            rs.inflight
                        };
                        self.inflight_hi = (BETA * base).max(self.min_cwnd());
                        self.trace
                            .signal(rs.now, "inflight_hi", self.inflight_hi / self.mss);
                        if self.bw_filter.max() > 0.0 {
                            self.bw_hi = self.bw_filter.max();
                            self.trace.signal(rs.now, "bw_hi", self.bw_hi * 8.0 / 1e6);
                        }
                        self.hi_cut_this_round = true;
                    } else if self.inflight_hi.is_finite() {
                        self.inflight_hi = self.inflight_hi.max(rs.inflight);
                        self.trace
                            .signal(rs.now, "inflight_hi", self.inflight_hi / self.mss);
                        // A clean probe that filled the pipe lifts bw_hi.
                        self.bw_hi = f64::INFINITY;
                    }
                    self.enter(State::ProbeBwDown, rs.now);
                    self.probe_stamp = rs.now;
                }
            }
            State::ProbeRtt => {
                self.pacing_gain = 1.0;
                // The windowed rtprop filter keeps absorbing the samples
                // observed at the halved window, so exit only needs the
                // deadline — never a finite RTT on the deadline ack.
                if rs.now >= self.probe_rtt_done {
                    self.rtprop_stamp = rs.now;
                    self.enter(State::ProbeBwCruise, rs.now);
                    self.probe_stamp = rs.now;
                }
            }
        }
    }

    fn on_congestion_event(&mut self, now: f64, inflight: f64) {
        // Deployed semantics: the short-term bounds are maintained in
        // *every* ProbeBW sub-state (this is the contract the simplified
        // tier documents away — see `bbrv2.rs::on_congestion_event`).
        if self.state.is_probe_bw() {
            let base = if self.inflight_lo.is_finite() {
                self.inflight_lo
            } else {
                self.cwnd().min(inflight.max(self.min_cwnd()))
            };
            self.inflight_lo = (BETA * base).max(self.min_cwnd());
            self.trace
                .signal(now, "inflight_lo", self.inflight_lo / self.mss);
            let bw_base = if self.bw_lo.is_finite() {
                self.bw_lo
            } else {
                self.bw_filter.max()
            };
            if bw_base > 0.0 {
                self.bw_lo = BETA * bw_base;
                self.trace.signal(now, "bw_lo", self.bw_lo * 8.0 / 1e6);
            }
        }
    }

    fn on_packet_lost(&mut self, _now: f64, bytes: f64) {
        self.lost_in_round += bytes;
    }

    fn on_rto(&mut self, now: f64) {
        self.inflight_lo = self.min_cwnd();
        self.trace
            .signal(now, "inflight_lo", self.inflight_lo / self.mss);
    }

    fn cwnd(&self) -> f64 {
        let bdp = self.bdp();
        let min_cwnd = self.min_cwnd();
        match self.state {
            State::ProbeRtt => (PROBE_RTT_CWND_GAIN * bdp).max(min_cwnd),
            State::Startup | State::Drain => {
                (STARTUP_GAIN * bdp).min(self.inflight_hi).max(min_cwnd)
            }
            State::ProbeBwCruise | State::ProbeBwDown => {
                // min(2·BDP, headroom·inflight_hi, inflight_lo): both the
                // settled states leave headroom under the long-term bound
                // and respect the short-term bound.
                let mut w = PROBE_BW_CWND_GAIN * bdp;
                if self.inflight_hi.is_finite() {
                    w = w.min(HEADROOM * self.inflight_hi);
                }
                w.min(self.inflight_lo).max(min_cwnd)
            }
            State::ProbeBwRefill | State::ProbeBwUp => {
                // Probing states run right up to the long-term bound (the
                // short-term bound was reset when the cycle started, but a
                // loss *during* the probe still β-cuts it and binds here).
                (PROBE_BW_CWND_GAIN * bdp)
                    .min(self.inflight_hi)
                    .min(self.inflight_lo)
                    .max(min_cwnd)
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
        CcaKind::BbrV2Deploy
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

    /// An ack that does not start a new round.
    fn mid_round(mut rs: RateSample) -> RateSample {
        rs.pkt_delivered_at_send = -1.0;
        rs
    }

    #[test]
    fn startup_drain_hands_off_to_down_then_cruise() {
        let mut b = BbrV2DeployPkt::new(1500.0, 3);
        let mut delivered = 0.0;
        let mut saw_down = false;
        for k in 0..60 {
            delivered += 15_000.0;
            b.on_ack(&sample(k as f64 * 0.04, 1e6, 0.04, delivered, 5.0 * 1500.0));
            saw_down |= b.state() == State::ProbeBwDown;
            if b.state() == State::ProbeBwCruise {
                break;
            }
        }
        assert!(saw_down, "deployed cycle passes through Down after Drain");
        assert_eq!(b.state(), State::ProbeBwCruise);
    }

    #[test]
    fn refill_lasts_one_round_then_probes_up() {
        let mut b = BbrV2DeployPkt::new(1500.0, 3);
        b.rtprop_filter.update(0.0, 0.04, MIN_RTT_WINDOW);
        b.force_btlbw(1e6);
        b.enter(State::ProbeBwCruise, 0.0);
        b.probe_stamp = -10.0; // probe due immediately
        b.inflight_lo = 10_000.0;
        b.bw_lo = 5e5;
        b.on_ack(&mid_round(sample(0.01, 1e6, 0.0401, 1e6, 5_000.0)));
        assert_eq!(b.state(), State::ProbeBwRefill);
        // Starting the cycle reset the short-term bounds.
        assert!(b.inflight_lo.is_infinite());
        assert!(b.bw_lo.is_infinite());
        // Still the same round: stays in Refill.
        b.on_ack(&mid_round(sample(0.02, 1e6, 0.0401, 1e6, 5_000.0)));
        assert_eq!(b.state(), State::ProbeBwRefill);
        // Round boundary: advances to Up.
        b.on_ack(&sample(0.05, 1e6, 0.0401, 2e6, 5_000.0));
        assert_eq!(b.state(), State::ProbeBwUp);
    }

    #[test]
    fn up_exits_on_inflight_and_cuts_bounds_on_loss() {
        let mut b = BbrV2DeployPkt::new(1500.0, 3);
        b.rtprop_filter.update(0.0, 0.04, MIN_RTT_WINDOW);
        b.force_btlbw(1e6);
        b.enter(State::ProbeBwUp, 0.0);
        let bdp = b.bdp();
        b.on_ack(&mid_round(sample(0.01, 1e6, 0.0401, 1e6, 1.3 * bdp)));
        assert_eq!(b.state(), State::ProbeBwDown);

        // Loss-triggered exit cuts inflight_hi by β and caps bw_hi.
        let mut b2 = BbrV2DeployPkt::new(1500.0, 3);
        b2.rtprop_filter.update(0.0, 0.04, MIN_RTT_WINDOW);
        b2.force_btlbw(1e6);
        b2.inflight_hi = 100_000.0;
        b2.enter(State::ProbeBwUp, 0.0);
        for _ in 0..10 {
            b2.on_packet_lost(0.01, 1500.0);
        }
        b2.delivered_in_round = 100_000.0; // ~13 % loss
        b2.on_ack(&mid_round(sample(0.01, 1e6, 0.0401, 1e6, 0.5 * b2.bdp())));
        assert_eq!(b2.state(), State::ProbeBwDown);
        assert!((b2.inflight_hi - 70_000.0).abs() < 1.0);
        assert_eq!(b2.bw_hi, 1e6);
    }

    #[test]
    fn short_term_bounds_maintained_in_every_probe_bw_state() {
        // The deploy-tier contract the simplified tier narrows away.
        for st in [
            State::ProbeBwDown,
            State::ProbeBwCruise,
            State::ProbeBwRefill,
            State::ProbeBwUp,
        ] {
            let mut b = BbrV2DeployPkt::new(1500.0, 3);
            b.rtprop_filter.update(0.0, 0.04, MIN_RTT_WINDOW);
            b.force_btlbw(1e6);
            b.enter(st, 0.0);
            assert!(b.inflight_lo.is_infinite());
            b.on_congestion_event(1.0, 30_000.0);
            let lo1 = b.inflight_lo;
            assert!(lo1.is_finite(), "inflight_lo untouched in {st:?}");
            assert!(b.bw_lo.is_finite(), "bw_lo untouched in {st:?}");
            b.on_congestion_event(1.1, 30_000.0);
            assert!((b.inflight_lo - BETA * lo1).abs() < 1.0);
        }
        // ...and left alone outside ProbeBW.
        let mut b = BbrV2DeployPkt::new(1500.0, 3);
        b.enter(State::Startup, 0.0);
        b.on_congestion_event(1.0, 30_000.0);
        assert!(b.inflight_lo.is_infinite());
    }

    #[test]
    fn bw_lo_caps_the_delivery_model() {
        let mut b = BbrV2DeployPkt::new(1500.0, 3);
        b.force_btlbw(1e6);
        assert_eq!(b.btlbw(), 1e6);
        b.bw_lo = 4e5;
        assert_eq!(b.btlbw(), 4e5);
        b.bw_hi = 2e5;
        assert_eq!(b.btlbw(), 2e5);
    }

    #[test]
    fn windowed_rtprop_re_measures_upward_without_probe_rtt() {
        // The 10 s windowed min sheds a stale low sample by itself.
        let mut b = BbrV2DeployPkt::new(1500.0, 3);
        b.enter(State::ProbeBwCruise, 0.0);
        b.probe_stamp = 0.0;
        b.force_btlbw(1e6);
        b.on_ack(&mid_round(sample(0.0, 1e6, 0.04, 1e6, 5_000.0)));
        assert_eq!(b.rtprop(), 0.04);
        b.on_ack(&mid_round(sample(5.0, 1e6, 0.08, 1e6, 5_000.0)));
        assert_eq!(b.rtprop(), 0.04, "old sample still inside the window");
        b.on_ack(&mid_round(sample(11.0, 1e6, 0.08, 1e6, 5_000.0)));
        assert_eq!(b.rtprop(), 0.08, "stale min expired from the window");
    }

    #[test]
    fn probe_rtt_entry_and_deadline_exit() {
        let mut b = BbrV2DeployPkt::new(1500.0, 3);
        b.enter(State::ProbeBwCruise, 0.0);
        b.probe_stamp = 0.0;
        b.force_btlbw(1e6);
        b.on_ack(&mid_round(sample(0.0, 1e6, 0.04, 1e6, 5_000.0)));
        // 10 s with no RTprop improvement → ProbeRTT (probe clock is kept
        // fresh so Cruise does not probe for bandwidth first).
        b.probe_stamp = 10.5;
        b.on_ack(&mid_round(sample(10.5, 1e6, 0.05, 1e6, 5_000.0)));
        assert_eq!(b.state(), State::ProbeRtt);
        // Halved window while probing.
        assert!((b.cwnd() - PROBE_RTT_CWND_GAIN * b.bdp()).abs() < 1e-6);
        // Deadline exit works even when the deadline ack is a retransmit
        // with a non-finite RTT sample.
        b.on_ack(&mid_round(sample(
            10.5 + PROBE_RTT_DURATION,
            1e6,
            f64::NAN,
            1e6,
            5_000.0,
        )));
        assert_eq!(b.state(), State::ProbeBwCruise);
    }

    #[test]
    fn idle_restart_resets_probe_machine_to_cruise() {
        let mut b = BbrV2DeployPkt::new(1500.0, 3);
        b.rtprop_filter.update(0.0, 0.04, MIN_RTT_WINDOW);
        b.force_btlbw(1e6);
        b.enter(State::ProbeBwUp, 0.0);
        b.last_ack = 0.0;
        b.probe_stamp = 0.0;
        // 2 s ACK gap: the stale Up phase must not shape the restart.
        b.on_ack(&mid_round(sample(2.0, 1e6, 0.0401, 1e6, 5_000.0)));
        assert_eq!(b.state(), State::ProbeBwCruise);
        assert_eq!(b.probe_stamp, 2.0);
        // A normal ACK cadence does not trigger it.
        b.on_ack(&mid_round(sample(2.04, 1e6, 0.0401, 1e6, 5_000.0)));
        assert_eq!(b.state(), State::ProbeBwCruise);
    }

    #[test]
    fn probe_interval_randomized_by_seed() {
        let a = BbrV2DeployPkt::new(1500.0, 1).probe_wall_interval;
        let b = BbrV2DeployPkt::new(1500.0, 2).probe_wall_interval;
        assert!(a != b);
        assert!((2.0..=3.0).contains(&a));
        assert!((2.0..=3.0).contains(&b));
    }
}
