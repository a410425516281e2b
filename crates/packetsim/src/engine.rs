//! The discrete-event engine: links, flows, the transport loop (pacing,
//! ACK clocking, SACK-style loss detection, fast retransmit, RTO), and
//! metrics collection.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bbr_trace::{Recorder, TraceEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cca::{PacketCca, RateSample};
use crate::event::{Ev, EventQueue, Pkt};
use crate::qdisc::{Qdisc, QdiscKind, RedParams};

/// Number of SACKed packets above a hole before it is declared lost.
const REORDER_THRESH: usize = 3;
/// Minimum retransmission timeout (s).
const RTO_MIN: f64 = 0.2;

/// Global simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Total simulated time (s).
    pub duration: f64,
    /// Metrics are collected only for `t ≥ warmup` (the start-up phase of
    /// packet-level CCAs has no counterpart in the fluid model).
    pub warmup: f64,
    /// RNG seed (RED drops, CCA phase randomization).
    pub seed: u64,
    /// Segment size in bytes.
    pub mss: f64,
    /// Flight recorder for the run. Per-flow rate / queue / RTT samples
    /// are binned at its interval, and the CCAs report their phases and
    /// signals to it. `None` takes the process-wide recorder, if one is
    /// installed, when the engine is built.
    pub recorder: Option<Recorder>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            duration: 5.0,
            warmup: 0.0,
            seed: 1,
            mss: crate::MSS_BYTES,
            recorder: None,
        }
    }
}

/// A queued, rate-limited link.
pub struct Link {
    /// Service rate (bytes/s).
    pub rate: f64,
    /// Propagation delay to the next hop (s).
    pub prop_delay: f64,
    /// Buffer size (bytes).
    pub buffer: f64,
    qdisc: Qdisc,
    queue: VecDeque<Pkt>,
    queued_bytes: f64,
    busy: bool,
    // Stats (measurement window only).
    arrived: f64,
    dropped: f64,
    delivered: f64,
    occ_integral: f64,
    last_change: f64,
}

impl Link {
    pub fn new(rate: f64, prop_delay: f64, buffer: f64, kind: QdiscKind) -> Self {
        Self {
            rate,
            prop_delay,
            buffer,
            qdisc: Qdisc::new(kind, RedParams::default()),
            queue: VecDeque::new(),
            queued_bytes: 0.0,
            busy: false,
            arrived: 0.0,
            dropped: 0.0,
            delivered: 0.0,
            occ_integral: 0.0,
            last_change: 0.0,
        }
    }

    /// Integrate the queue-occupancy time series up to `now`.
    fn touch(&mut self, now: f64, warmup: f64) {
        let from = self.last_change.max(warmup);
        if now > from {
            self.occ_integral += self.queued_bytes * (now - from);
        }
        self.last_change = now;
    }

    /// Current backlog in bytes.
    pub fn backlog(&self) -> f64 {
        self.queued_bytes
    }
}

#[derive(Debug, Clone, Copy)]
struct PktMeta {
    size: f64,
    lost: bool,
    /// Time of the most recent (re)transmission; a packet is only
    /// (re-)declared lost once this is at least ~1 RTT old (RACK-style),
    /// so one loss episode yields one retransmission per RTT.
    last_sent: f64,
}

/// Per-flow sender + receiver state.
pub struct Flow {
    /// Queued links on the forward route.
    pub route: Vec<u32>,
    /// One-way delay before the first queued link (s).
    pub access_delay: f64,
    /// Return-path delay (receiver → sender, s).
    pub bwd_delay: f64,
    /// Flow start time (s).
    pub start: f64,
    /// Time after which the flow transmits nothing — no new data, no
    /// retransmissions (s; `f64::INFINITY` = runs to the end).
    /// In-flight packets still drain and their ACKs are still counted.
    pub stop: f64,
    /// Silent intervals `[off, on)` between `start` and `stop`: no new
    /// data is emitted while `now` is inside a gap (paced retransmissions
    /// of already-lost packets resume at the gap's end). Must be sorted
    /// and non-overlapping.
    pub gaps: Vec<(f64, f64)>,
    cca: Box<dyn PacketCca>,
    mss: f64,
    // Sender state.
    next_seq: u64,
    inflight: BTreeMap<u64, PktMeta>,
    inflight_bytes: f64,
    sacked: BTreeSet<u64>,
    delivered: f64,
    srtt: f64,
    rttvar: f64,
    min_rtt: f64,
    rto_token: u64,
    rto_armed: bool,
    recovery_until: u64,
    next_send_time: f64,
    wake_at: f64,
    /// Packets marked lost, waiting for (paced) retransmission.
    retx_queue: VecDeque<u64>,
    // Receiver state.
    rcv_next: u64,
    ooo: BTreeSet<u64>,
    last_owd: f64,
    // Stats (measurement window).
    win_delivered: f64,
    jitter_sum: f64,
    jitter_cnt: u64,
    rtt_sum: f64,
    rtt_cnt: u64,
    // Trace bin accumulator (trace-only: read and reset by `Ev::Sample`).
    bin_delivered: f64,
}

impl Flow {
    pub fn new(
        route: Vec<u32>,
        access_delay: f64,
        bwd_delay: f64,
        start: f64,
        cca: Box<dyn PacketCca>,
        mss: f64,
    ) -> Self {
        Self {
            route,
            access_delay,
            bwd_delay,
            start,
            stop: f64::INFINITY,
            gaps: Vec::new(),
            cca,
            mss,
            next_seq: 0,
            inflight: BTreeMap::new(),
            inflight_bytes: 0.0,
            sacked: BTreeSet::new(),
            delivered: 0.0,
            srtt: 0.0,
            rttvar: 0.0,
            min_rtt: f64::INFINITY,
            rto_token: 0,
            rto_armed: false,
            recovery_until: 0,
            next_send_time: 0.0,
            wake_at: f64::INFINITY,
            retx_queue: VecDeque::new(),
            rcv_next: 0,
            ooo: BTreeSet::new(),
            last_owd: f64::NAN,
            win_delivered: 0.0,
            jitter_sum: 0.0,
            jitter_cnt: 0,
            rtt_sum: 0.0,
            rtt_cnt: 0,
            bin_delivered: 0.0,
        }
    }

    /// Builder-style stop time (see [`Flow::stop`]).
    pub fn stop_at(mut self, stop: f64) -> Self {
        self.stop = stop;
        self
    }

    /// Builder-style silent intervals (see [`Flow::gaps`]).
    pub fn with_gaps(mut self, gaps: Vec<(f64, f64)>) -> Self {
        self.gaps = gaps;
        self
    }

    fn rto_interval(&self) -> f64 {
        (self.srtt + 4.0 * self.rttvar).max(RTO_MIN)
    }

    /// Access to the congestion controller (tests, reports).
    pub fn cca(&self) -> &dyn PacketCca {
        self.cca.as_ref()
    }
}

/// The simulation engine.
pub struct Engine {
    pub cfg: SimConfig,
    pub links: Vec<Link>,
    pub flows: Vec<Flow>,
    events: EventQueue,
    now: f64,
    rng: StdRng,
    bottleneck: usize,
    /// Bottleneck bytes arrived / dropped / served this bin (trace-only
    /// accumulators: read and reset by `Ev::Sample`, never by any
    /// control path).
    bin_arrived: f64,
    bin_dropped: f64,
    bin_link_delivered: f64,
}

impl Engine {
    /// Assemble an engine; `bottleneck` is the link whose occupancy and
    /// utilization become the headline metrics.
    pub fn new(
        mut cfg: SimConfig,
        links: Vec<Link>,
        mut flows: Vec<Flow>,
        bottleneck: usize,
    ) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        cfg.recorder = cfg.recorder.or_else(bbr_trace::installed);
        // Hand every controller the recorder, labelled with its flow
        // index. Advisory: it feeds only trace events, never a control
        // decision.
        if let Some(rec) = cfg.recorder.as_ref().filter(|rec| rec.config().cca) {
            for (i, f) in flows.iter_mut().enumerate() {
                f.cca.set_trace_id(i, rec);
            }
        }
        Self {
            cfg,
            links,
            flows,
            events: EventQueue::new(),
            now: 0.0,
            rng,
            bottleneck,
            bin_arrived: 0.0,
            bin_dropped: 0.0,
            bin_link_delivered: 0.0,
        }
    }

    /// Run to completion.
    pub fn run(&mut self) {
        for f in 0..self.flows.len() {
            let start = self.flows[f].start;
            self.events.push(start, Ev::Wake { flow: f as u32 });
        }
        if let Some(rec) = &self.cfg.recorder {
            self.events.push(rec.config().interval, Ev::Sample);
        }
        while let Some((t, ev)) = self.events.pop() {
            if t > self.cfg.duration {
                break;
            }
            self.now = t;
            self.dispatch(ev);
        }
        // Close the occupancy integrals.
        let warmup = self.cfg.warmup;
        let end = self.cfg.duration;
        for l in &mut self.links {
            l.touch(end, warmup);
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::Wake { flow } => {
                self.flows[flow as usize].wake_at = f64::INFINITY;
                self.try_send(flow as usize);
            }
            Ev::Arrive { pkt } => self.on_arrive(pkt),
            Ev::Dequeue { link } => self.on_dequeue(link as usize),
            Ev::Recv { pkt } => self.on_recv(pkt),
            Ev::Ack { pkt, rcv_next } => self.on_ack(pkt, rcv_next),
            Ev::Rto { flow, token } => self.on_rto(flow as usize, token),
            Ev::Sample => self.on_sample(),
        }
    }

    // ------------------------------------------------------------------
    // Sender.
    // ------------------------------------------------------------------

    fn try_send(&mut self, f: usize) {
        if self.now >= self.flows[f].stop {
            return; // the flow's activity window is over: full silence
        }
        // Inside a silent gap of a multi-interval schedule: hold new data
        // and wake up when the next on-window opens.
        let now = self.now;
        if let Some(&(_, on)) = self.flows[f]
            .gaps
            .iter()
            .find(|&&(off, on)| now >= off && now < on)
        {
            if on < self.flows[f].wake_at {
                self.flows[f].wake_at = on;
                self.events.push(on, Ev::Wake { flow: f as u32 });
            }
            return;
        }
        loop {
            // Drop stale retransmission entries (acked in the meantime or
            // already retransmitted).
            while let Some(&seq) = self.flows[f].retx_queue.front() {
                match self.flows[f].inflight.get(&seq) {
                    Some(meta) if meta.lost => break,
                    _ => {
                        self.flows[f].retx_queue.pop_front();
                    }
                }
            }
            let flow = &self.flows[f];
            let cwnd = flow.cca.cwnd();
            if flow.inflight_bytes + flow.mss > cwnd {
                return; // window-limited: the next ACK resumes sending
            }
            if self.now < flow.next_send_time {
                // Pacing-limited: schedule a wake-up.
                let at = flow.next_send_time;
                if at < self.flows[f].wake_at {
                    self.flows[f].wake_at = at;
                    self.events.push(at, Ev::Wake { flow: f as u32 });
                }
                return;
            }
            // Retransmissions take priority over new data.
            if let Some(seq) = self.flows[f].retx_queue.pop_front() {
                self.emit(f, Some(seq));
            } else {
                self.emit(f, None);
            }
        }
    }

    /// Transmit a packet: a fresh one (`seq = None`) or a retransmission.
    fn emit(&mut self, f: usize, retx_seq: Option<u64>) {
        let now = self.now;
        let flow = &mut self.flows[f];
        let size = flow.mss;
        let seq = match retx_seq {
            Some(s) => {
                // Retransmission: the packet re-enters the flight.
                let meta = match flow.inflight.get_mut(&s) {
                    Some(m) if m.lost => m,
                    _ => return, // acked or already retransmitted
                };
                meta.lost = false;
                meta.last_sent = now;
                flow.inflight_bytes += size;
                s
            }
            None => {
                let s = flow.next_seq;
                flow.next_seq += 1;
                flow.inflight.insert(
                    s,
                    PktMeta {
                        size,
                        lost: false,
                        last_sent: now,
                    },
                );
                flow.inflight_bytes += size;
                s
            }
        };
        // All transmissions are paced.
        let rate = flow.cca.pacing_rate();
        let gap = if rate.is_finite() && rate > 0.0 {
            size / rate
        } else {
            0.0
        };
        flow.next_send_time = flow.next_send_time.max(now) + gap;
        let pkt = Pkt {
            flow: f as u32,
            seq,
            size,
            sent_time: now,
            delivered_at_send: flow.delivered,
            retx: retx_seq.is_some(),
            hop: 0,
        };
        let access = flow.access_delay;
        if !flow.rto_armed {
            flow.rto_armed = true;
            flow.rto_token += 1;
            let token = flow.rto_token;
            let at = now + flow.rto_interval();
            self.events.push(
                at,
                Ev::Rto {
                    flow: f as u32,
                    token,
                },
            );
        }
        self.events.push(now + access, Ev::Arrive { pkt });
    }

    // ------------------------------------------------------------------
    // Links.
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, pkt: Pkt) {
        let l = self.flows[pkt.flow as usize].route[pkt.hop as usize] as usize;
        let now = self.now;
        let warmup = self.cfg.warmup;
        let link = &mut self.links[l];
        if now >= warmup {
            link.arrived += pkt.size;
        }
        if l == self.bottleneck {
            self.bin_arrived += pkt.size;
        }
        let link = &mut self.links[l];
        let admitted = link
            .qdisc
            .admit(link.queued_bytes, link.buffer, pkt.size, &mut self.rng);
        if !admitted {
            if now >= warmup {
                link.dropped += pkt.size;
            }
            if l == self.bottleneck {
                self.bin_dropped += pkt.size;
            }
            return; // the packet is gone; the sender learns via dup-ACKs
        }
        link.touch(now, warmup);
        link.queue.push_back(pkt);
        link.queued_bytes += pkt.size;
        if !link.busy {
            link.busy = true;
            let tx = pkt.size / link.rate;
            self.events.push(now + tx, Ev::Dequeue { link: l as u32 });
        }
    }

    fn on_dequeue(&mut self, l: usize) {
        let now = self.now;
        let warmup = self.cfg.warmup;
        let link = &mut self.links[l];
        link.touch(now, warmup);
        let pkt = match link.queue.pop_front() {
            Some(p) => p,
            None => {
                link.busy = false;
                return;
            }
        };
        link.queued_bytes -= pkt.size;
        if now >= warmup {
            link.delivered += pkt.size;
        }
        if l == self.bottleneck {
            self.bin_link_delivered += pkt.size;
        }
        let prop = link.prop_delay;
        if let Some(head) = link.queue.front() {
            let tx = head.size / link.rate;
            self.events.push(now + tx, Ev::Dequeue { link: l as u32 });
        } else {
            link.busy = false;
        }
        // Propagate to the next hop or the receiver.
        let flow = &self.flows[pkt.flow as usize];
        let mut next = pkt;
        if (pkt.hop as usize) + 1 < flow.route.len() {
            next.hop += 1;
            self.events.push(now + prop, Ev::Arrive { pkt: next });
        } else {
            self.events.push(now + prop, Ev::Recv { pkt: next });
        }
    }

    // ------------------------------------------------------------------
    // Receiver.
    // ------------------------------------------------------------------

    fn on_recv(&mut self, pkt: Pkt) {
        let now = self.now;
        let warmup = self.cfg.warmup;
        let flow = &mut self.flows[pkt.flow as usize];
        // Jitter: delay difference between consecutively received packets
        // (§4.3.5).
        let owd = now - pkt.sent_time;
        if now >= warmup && flow.last_owd.is_finite() {
            flow.jitter_sum += (owd - flow.last_owd).abs();
            flow.jitter_cnt += 1;
        }
        flow.last_owd = owd;
        // Cumulative-ACK bookkeeping.
        if pkt.seq == flow.rcv_next {
            flow.rcv_next += 1;
            while flow.ooo.remove(&flow.rcv_next) {
                flow.rcv_next += 1;
            }
        } else if pkt.seq > flow.rcv_next {
            flow.ooo.insert(pkt.seq);
        }
        let rcv_next = flow.rcv_next;
        let bwd = flow.bwd_delay;
        self.events.push(now + bwd, Ev::Ack { pkt, rcv_next });
    }

    // ------------------------------------------------------------------
    // ACK processing at the sender.
    // ------------------------------------------------------------------

    fn on_ack(&mut self, pkt: Pkt, rcv_next: u64) {
        let now = self.now;
        let warmup = self.cfg.warmup;
        let f = pkt.flow as usize;
        let flow = &mut self.flows[f];
        let mut newly_acked = 0.0;

        // Cumulatively acknowledged packets.
        while let Some((&s, _)) = flow.inflight.iter().next() {
            if s >= rcv_next {
                break;
            }
            let meta = flow.inflight.remove(&s).unwrap();
            if !meta.lost {
                flow.inflight_bytes -= meta.size;
            }
            flow.delivered += meta.size;
            newly_acked += meta.size;
        }
        // SACKed packets below the cumulative ACK are fully accounted.
        flow.sacked = flow.sacked.split_off(&rcv_next);

        // Selective acknowledgment of this packet.
        if pkt.seq >= rcv_next {
            if let Some(meta) = flow.inflight.remove(&pkt.seq) {
                if !meta.lost {
                    flow.inflight_bytes -= meta.size;
                }
                flow.delivered += meta.size;
                newly_acked += meta.size;
                flow.sacked.insert(pkt.seq);
            }
        }

        // RTT estimation (Karn: no samples from retransmissions).
        let mut rtt = f64::NAN;
        if !pkt.retx {
            rtt = now - pkt.sent_time;
            if flow.srtt == 0.0 {
                flow.srtt = rtt;
                flow.rttvar = rtt / 2.0;
            } else {
                flow.rttvar = 0.75 * flow.rttvar + 0.25 * (flow.srtt - rtt).abs();
                flow.srtt = 0.875 * flow.srtt + 0.125 * rtt;
            }
            flow.min_rtt = flow.min_rtt.min(rtt);
            if now >= warmup {
                flow.rtt_sum += rtt;
                flow.rtt_cnt += 1;
            }
        }

        if now >= warmup {
            flow.win_delivered += newly_acked;
        }
        flow.bin_delivered += newly_acked;

        // Loss detection: a hole with ≥ REORDER_THRESH SACKed packets
        // above it is lost (fast retransmit).
        let mut lost: Vec<u64> = Vec::new();
        {
            let flow = &mut self.flows[f];
            // Loss can only be declared for packets whose most recent
            // transmission is old enough for its SACKs to have returned.
            let age_floor = 0.9 * flow.srtt;
            let holes: Vec<(u64, f64)> = flow
                .inflight
                .iter()
                .filter(|(_, m)| !m.lost)
                .map(|(&s, m)| (s, m.last_sent))
                .collect();
            for (s, last_sent) in holes {
                let above = flow
                    .sacked
                    .range((std::ops::Bound::Excluded(s), std::ops::Bound::Unbounded))
                    .count();
                if above < REORDER_THRESH {
                    break; // holes are ordered; later ones have fewer above
                }
                if now - last_sent >= age_floor {
                    lost.push(s);
                }
            }
        }
        let mut congestion_event = false;
        for &s in &lost {
            let flow = &mut self.flows[f];
            let meta = flow.inflight.get_mut(&s).unwrap();
            meta.lost = true;
            let size = meta.size;
            // Lost bytes leave the flight (standard TCP accounting); the
            // packet waits in the retransmission queue for a paced resend.
            flow.inflight_bytes -= size;
            flow.retx_queue.push_back(s);
            flow.cca.on_packet_lost(now, size);
            if s >= flow.recovery_until || flow.recovery_until == 0 {
                congestion_event = true;
                flow.recovery_until = flow.next_seq;
            }
        }
        if congestion_event {
            let flow = &mut self.flows[f];
            let inflight = flow.inflight_bytes;
            flow.cca.on_congestion_event(now, inflight);
        }

        // Rate sample to the CCA.
        let flow = &mut self.flows[f];
        if newly_acked > 0.0 {
            let interval = now - pkt.sent_time;
            let delivery_rate = if interval > 0.0 {
                (flow.delivered - pkt.delivered_at_send) / interval
            } else {
                0.0
            };
            let rs = RateSample {
                now,
                delivery_rate,
                rtt,
                newly_acked,
                delivered: flow.delivered,
                pkt_delivered_at_send: pkt.delivered_at_send,
                inflight: flow.inflight_bytes,
                srtt: flow.srtt,
                min_rtt: flow.min_rtt,
            };
            flow.cca.on_ack(&rs);
        }

        // Re-arm the retransmission timer.
        let flow = &mut self.flows[f];
        flow.rto_token += 1;
        if flow.inflight.is_empty() {
            flow.rto_armed = false;
        } else {
            flow.rto_armed = true;
            let token = flow.rto_token;
            let at = now + flow.rto_interval();
            self.events.push(
                at,
                Ev::Rto {
                    flow: f as u32,
                    token,
                },
            );
        }

        self.try_send(f);
    }

    fn on_rto(&mut self, f: usize, token: u64) {
        let now = self.now;
        {
            let flow = &mut self.flows[f];
            if token != flow.rto_token || !flow.rto_armed {
                return; // stale timer
            }
            if now >= flow.stop {
                flow.rto_armed = false;
                return; // stopped flows neither retransmit nor re-arm
            }
            if flow.inflight.is_empty() {
                flow.rto_armed = false;
                return;
            }
            flow.cca.on_rto(now);
            flow.recovery_until = flow.next_seq;
            // Go-back-N: every outstanding packet is presumed lost and
            // queued for a paced retransmission.
            let seqs: Vec<u64> = flow
                .inflight
                .iter()
                .filter(|(_, m)| !m.lost)
                .map(|(&s, _)| s)
                .collect();
            for s in seqs {
                let meta = flow.inflight.get_mut(&s).unwrap();
                meta.lost = true;
                flow.inflight_bytes -= meta.size;
                flow.retx_queue.push_back(s);
            }
            flow.next_send_time = now; // restart the pacing clock
            flow.rto_token += 1;
            let token = flow.rto_token;
            let at = now + 2.0 * flow.rto_interval(); // backoff
            self.events.push(
                at,
                Ev::Rto {
                    flow: f as u32,
                    token,
                },
            );
        }
        self.try_send(f);
    }

    // ------------------------------------------------------------------
    // Sampling / traces.
    // ------------------------------------------------------------------

    /// Advisory flight-recorder samples: pure reads of the bin
    /// accumulators, which only this handler resets.
    fn on_sample(&mut self) {
        let Some(rec) = &self.cfg.recorder else {
            return;
        };
        let bin = rec.config().interval;
        let now = self.now;
        if rec.config().flows {
            for (i, flow) in self.flows.iter().enumerate() {
                rec.record(&TraceEvent::FlowSample {
                    lane: 0,
                    flow: i,
                    t: now,
                    rate_mbps: flow.bin_delivered * 8.0 / 1e6 / bin,
                    inflight_pkts: flow.inflight_bytes / flow.mss,
                    rtt_s: flow.srtt,
                });
            }
        }
        if rec.config().links {
            let link = &self.links[self.bottleneck];
            rec.record(&TraceEvent::LinkSample {
                lane: 0,
                link: self.bottleneck,
                t: now,
                queue_frac: link.queued_bytes / link.buffer,
                util_frac: self.bin_link_delivered / (link.rate * bin),
                loss_frac: if self.bin_arrived > 0.0 {
                    self.bin_dropped / self.bin_arrived
                } else {
                    0.0
                },
            });
        }
        for flow in &mut self.flows {
            flow.bin_delivered = 0.0;
        }
        self.bin_arrived = 0.0;
        self.bin_dropped = 0.0;
        self.bin_link_delivered = 0.0;
        if now + bin <= self.cfg.duration {
            self.events.push(now + bin, Ev::Sample);
        }
    }

    /// Measurement-window length (s).
    pub fn window(&self) -> f64 {
        self.cfg.duration - self.cfg.warmup
    }

    /// Per-flow delivered bytes within the measurement window.
    pub fn flow_delivered(&self, f: usize) -> f64 {
        self.flows[f].win_delivered
    }

    /// Mean RTT of a flow within the window (s).
    pub fn flow_mean_rtt(&self, f: usize) -> f64 {
        let fl = &self.flows[f];
        if fl.rtt_cnt > 0 {
            fl.rtt_sum / fl.rtt_cnt as f64
        } else {
            0.0
        }
    }

    /// Mean receiver jitter of a flow (s).
    pub fn flow_jitter(&self, f: usize) -> f64 {
        let fl = &self.flows[f];
        if fl.jitter_cnt > 0 {
            fl.jitter_sum / fl.jitter_cnt as f64
        } else {
            0.0
        }
    }

    /// (arrived, dropped, delivered, occupancy-integral) of a link within
    /// the window, in bytes / byte-seconds.
    pub fn link_stats(&self, l: usize) -> (f64, f64, f64, f64) {
        let link = &self.links[l];
        (
            link.arrived,
            link.dropped,
            link.delivered,
            link.occ_integral,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cca::{build, CcaKind};
    use bbr_trace::{MemorySink, TraceConfig};
    use std::sync::Arc;

    fn one_flow_engine(kind: CcaKind, rate_mbps: f64, buffer_bytes: f64) -> Engine {
        let cfg = SimConfig {
            duration: 3.0,
            warmup: 0.5,
            seed: 1,
            ..Default::default()
        };
        let link = Link::new(
            rate_mbps * 1e6 / 8.0,
            0.010,
            buffer_bytes,
            QdiscKind::DropTail,
        );
        let cca = build(kind, cfg.mss, 1);
        let flow = Flow::new(vec![0], 0.0056, 0.0156, 0.0, cca, cfg.mss);
        Engine::new(cfg, vec![link], vec![flow], 0)
    }

    #[test]
    fn reno_fills_a_simple_link() {
        let mut e = one_flow_engine(CcaKind::Reno, 20.0, 50_000.0);
        e.run();
        let tput = e.flow_delivered(0) * 8.0 / 1e6 / e.window();
        assert!(tput > 15.0, "throughput {tput} Mbit/s of 20");
        // Conservation: delivered to receiver ≤ delivered by the link.
        let (arrived, dropped, delivered, _) = e.link_stats(0);
        assert!(dropped <= arrived);
        // Packets that arrived before the warmup boundary may be served
        // after it, so allow one buffer's worth of slack.
        assert!(delivered <= arrived + 50_000.0);
    }

    #[test]
    fn bbrv1_fills_a_simple_link() {
        let mut e = one_flow_engine(CcaKind::BbrV1, 20.0, 50_000.0);
        e.run();
        let tput = e.flow_delivered(0) * 8.0 / 1e6 / e.window();
        assert!(tput > 15.0, "throughput {tput} Mbit/s of 20");
    }

    #[test]
    fn cubic_and_bbrv2_work() {
        for kind in [CcaKind::Cubic, CcaKind::BbrV2] {
            let mut e = one_flow_engine(kind, 20.0, 50_000.0);
            e.run();
            let tput = e.flow_delivered(0) * 8.0 / 1e6 / e.window();
            assert!(tput > 12.0, "{kind}: throughput {tput} Mbit/s of 20");
        }
    }

    #[test]
    fn tiny_buffer_causes_loss_but_progress() {
        let mut e = one_flow_engine(CcaKind::Reno, 20.0, 7_500.0);
        e.run();
        let (arrived, dropped, _, _) = e.link_stats(0);
        assert!(dropped > 0.0, "a 5-packet buffer must drop");
        assert!(dropped < arrived);
        let tput = e.flow_delivered(0) * 8.0 / 1e6 / e.window();
        assert!(tput > 5.0, "throughput {tput}");
    }

    #[test]
    fn rtt_reflects_queueing_delay() {
        let mut e = one_flow_engine(CcaKind::Reno, 20.0, 100_000.0);
        e.run();
        let mean_rtt = e.flow_mean_rtt(0);
        // Propagation RTT ≈ 31.2 ms; with a filled buffer the mean RTT
        // must be clearly larger.
        assert!(mean_rtt > 0.0312, "mean RTT {mean_rtt}");
    }

    #[test]
    fn recorder_bins_cover_duration() {
        let sink = Arc::new(MemorySink::new());
        let cfg = SimConfig {
            duration: 2.0,
            warmup: 0.0,
            seed: 1,
            recorder: Some(Recorder::new(
                TraceConfig {
                    interval: 0.1,
                    ..TraceConfig::default()
                },
                sink.clone(),
            )),
            ..Default::default()
        };
        let link = Link::new(20.0 * 1e6 / 8.0, 0.010, 50_000.0, QdiscKind::DropTail);
        let cca = build(CcaKind::Reno, cfg.mss, 1);
        let flow = Flow::new(vec![0], 0.0056, 0.0156, 0.0, cca, cfg.mss);
        let mut e = Engine::new(cfg, vec![link], vec![flow], 0);
        e.run();
        let rates: Vec<f64> = sink
            .take()
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::FlowSample { rate_mbps, .. } => Some(rate_mbps),
                _ => None,
            })
            .collect();
        assert!((19..=21).contains(&rates.len()), "{} bins", rates.len());
        let peak = rates.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 10.0, "peak binned rate {peak}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let cfg = SimConfig {
                duration: 2.0,
                warmup: 0.5,
                seed,
                ..Default::default()
            };
            let link = Link::new(20.0 * 1e6 / 8.0, 0.010, 30_000.0, QdiscKind::Red);
            let cca = build(CcaKind::Reno, cfg.mss, seed);
            let flow = Flow::new(vec![0], 0.0056, 0.0156, 0.0, cca, cfg.mss);
            let mut e = Engine::new(cfg, vec![link], vec![flow], 0);
            e.run();
            e.flow_delivered(0)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
