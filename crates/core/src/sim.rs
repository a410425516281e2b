//! The fluid-model simulator: integrates the coupled delay differential
//! equations of the network (§2) and the per-agent CCA models (§3) with
//! the method of steps at a fixed step size (§4.1.1).

use bbr_scenario::{FlowWindow, ScenarioSpec};
use bbr_trace::{Recorder, TraceEvent};

use crate::backend::{agents_for_spec, network_for_spec};
use crate::cca::{AgentInputs, AnyCca};
use crate::config::ModelConfig;
use crate::history::History;
use crate::metrics::{AggregateMetrics, MetricsAccumulator};
use crate::queue::{loss_probability, service_rate, step_queue};
use crate::topology::Network;

/// The link whose occupancy/utilization become a run's headline metrics:
/// the minimum-capacity link of the network. Shared by [`Simulator`] and
/// the batched integrator (`bbr-fluidbatch`) so both observe the same
/// link (including the same tie-breaking on equal capacities).
pub fn observed_link(net: &Network) -> usize {
    (0..net.links.len())
        .min_by(|a, b| {
            net.links[*a]
                .capacity
                .partial_cmp(&net.links[*b].capacity)
                .unwrap()
        })
        .unwrap()
}

/// Virtual packet interval for the jitter metric (§4.3.5): `g·N/C` at
/// the observed link. One definition shared by every fluid integrator.
pub fn jitter_interval(cfg: &ModelConfig, n_agents: usize, observed_capacity: f64) -> f64 {
    cfg.mss * n_agents as f64 / observed_capacity
}

/// A [`FlowWindow`] as integration-step bounds: the flow is active on
/// steps `start_step <= step < stop_step`. Uses the same
/// `(time / dt).round()` convention as the run-length computation, and
/// the one shared decomposition keeps the scalar [`Simulator`] and the
/// batched integrator (`bbr-fluidbatch`) bit-identical under churn.
pub fn activity_steps(w: &FlowWindow, dt: f64) -> (u64, u64) {
    let start = (w.start / dt).round() as u64;
    let stop = if w.stop.is_finite() {
        (w.stop / dt).round() as u64
    } else {
        u64::MAX
    };
    (start, stop)
}

/// A flow's full multi-interval activity schedule as integration-step
/// bounds — the generalization of a single [`activity_steps`] pair. The
/// first window is stored unboxed so the single-window case (all specs
/// before multi-interval schedules existed) pays exactly the historical
/// two-comparison gate; extra windows live in `rest`. An empty window
/// list becomes the never-active `(0, 0)` pair. Shared by the scalar
/// [`Simulator`] and the batched integrators (`bbr-fluidbatch`), which
/// keeps them bit-identical under any schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivitySchedule {
    first: (u64, u64),
    rest: Vec<(u64, u64)>,
}

impl ActivitySchedule {
    /// Decompose a window list (ordered, non-overlapping; see
    /// `bbr_scenario::FlowSchedule`) into step bounds at step size `dt`.
    pub fn from_windows(windows: &[FlowWindow], dt: f64) -> Self {
        match windows {
            [] => Self {
                first: (0, 0),
                rest: Vec::new(),
            },
            [first, rest @ ..] => Self {
                first: activity_steps(first, dt),
                rest: rest.iter().map(|w| activity_steps(w, dt)).collect(),
            },
        }
    }

    /// The always-active schedule (the churn-free default).
    pub fn always() -> Self {
        Self {
            first: (0, u64::MAX),
            rest: Vec::new(),
        }
    }

    /// Whether the flow is active at integration step `step`.
    #[inline]
    pub fn contains(&self, step: u64) -> bool {
        (self.first.0 <= step && step < self.first.1)
            || (!self.rest.is_empty() && self.rest.iter().any(|&(a, b)| a <= step && step < b))
    }
}

/// The fluid-model simulator.
pub struct Simulator {
    net: Network,
    cfg: ModelConfig,
    agents: Vec<AnyCca>,
    /// Queue length per link (Mbit).
    q: Vec<f64>,
    x_hist: Vec<History>,
    tau_hist: Vec<History>,
    p_hist: Vec<History>,
    q_hist: Vec<History>,
    y_hist: Vec<History>,
    t: f64,
    // Cached topology constants.
    prop_rtt: Vec<f64>,
    /// users_of each link: (agent, position on the agent's path).
    users: Vec<Vec<(usize, usize)>>,
    fwd: Vec<Vec<f64>>,
    bwd: Vec<Vec<f64>>,
    bneck_pos: Vec<usize>,
    /// Per-agent activity schedule in integration steps; the flow sends
    /// (and its CCA model steps) only inside one of its windows. The
    /// always-active schedule — the churn-free default — takes the exact
    /// historical code path.
    activity: Vec<ActivitySchedule>,
    metrics: MetricsAccumulator,
    /// Flight recorder and its sample grid in steps (see [`Self::record`]).
    recorder: Option<Recorder>,
    trace_stride: u64,
    step_count: u64,
    // Scratch buffers reused across steps.
    scratch_y: Vec<f64>,
    scratch_p: Vec<f64>,
    scratch_tau: Vec<f64>,
    scratch_x: Vec<f64>,
    scratch_rel_q: Vec<f64>,
    scratch_service: Vec<f64>,
    scratch_telemetry: Vec<(&'static str, f64)>,
}

impl Simulator {
    /// The simulator a [`ScenarioSpec`] describes: its network
    /// ([`network_for_spec`]), one freshly initialized agent per flow
    /// ([`agents_for_spec`]), and each flow's activity schedule
    /// ([`ScenarioSpec::windows_of`]). Rejects specs that fail
    /// [`ScenarioSpec::validate`].
    pub fn for_spec(spec: &ScenarioSpec, cfg: ModelConfig) -> Result<Self, String> {
        spec.validate()?;
        let net = network_for_spec(spec);
        let agents = agents_for_spec(spec, &net, &cfg);
        let schedules: Vec<_> = (0..spec.n_flows()).map(|i| spec.windows_of(i)).collect();
        Self::new(net, cfg, agents, &schedules)
    }

    /// Build a simulator for `net` with one CCA model per path and
    /// per-flow multi-interval activity schedules (see
    /// `bbr_scenario::FlowSchedule`): flow `i` is active inside the
    /// windows of `schedules[i]` (an empty list = never active; missing
    /// entries = always active). An inactive flow sends at rate zero and
    /// its CCA model is frozen; its initial history is zero rather than
    /// the model's equilibrium rate.
    pub fn new(
        net: Network,
        cfg: ModelConfig,
        agents: Vec<AnyCca>,
        schedules: &[Vec<FlowWindow>],
    ) -> Result<Self, String> {
        net.validate()?;
        cfg.validate()?;
        if agents.len() != net.n_agents() {
            return Err(format!(
                "{} agents supplied for {} paths",
                agents.len(),
                net.n_agents()
            ));
        }
        let n = agents.len();
        let m = net.links.len();
        let prop_rtt: Vec<f64> = (0..n).map(|i| net.prop_rtt(i)).collect();
        let max_rtt = prop_rtt.iter().cloned().fold(0.0, f64::max);
        let users: Vec<Vec<(usize, usize)>> = (0..m)
            .map(|l| net.users_of(crate::topology::LinkId(l)))
            .collect();
        let fwd: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..net.paths[i].links.len())
                    .map(|pos| net.fwd_delay(i, pos))
                    .collect()
            })
            .collect();
        let bwd: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..net.paths[i].links.len())
                    .map(|pos| net.bwd_delay(i, pos))
                    .collect()
            })
            .collect();
        let bneck_pos: Vec<usize> = (0..n).map(|i| net.bottleneck_pos(i)).collect();
        let observed_link = observed_link(&net);

        let activity: Vec<ActivitySchedule> = (0..n)
            .map(|i| match schedules.get(i) {
                Some(windows) => ActivitySchedule::from_windows(windows, cfg.dt),
                None => ActivitySchedule::always(),
            })
            .collect();

        // Initial histories: agents send at their initial rate (zero for
        // flows that have not started yet), queues are empty, RTTs equal
        // the propagation delay.
        let x0: Vec<f64> = agents
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if activity[i].contains(0) {
                    a.rate(prop_rtt[i], &cfg)
                } else {
                    0.0
                }
            })
            .collect();
        let x_hist: Vec<History> = (0..n)
            .map(|i| History::new(max_rtt, cfg.dt, x0[i]))
            .collect();
        let tau_hist: Vec<History> = (0..n)
            .map(|i| History::new(max_rtt, cfg.dt, prop_rtt[i]))
            .collect();
        let p_hist: Vec<History> = (0..m).map(|_| History::new(max_rtt, cfg.dt, 0.0)).collect();
        let q_hist: Vec<History> = (0..m).map(|_| History::new(max_rtt, cfg.dt, 0.0)).collect();
        let y0: Vec<f64> = (0..m)
            .map(|l| users[l].iter().map(|(i, _)| x0[*i]).sum())
            .collect();
        let y_hist: Vec<History> = (0..m)
            .map(|l| History::new(max_rtt, cfg.dt, y0[l]))
            .collect();

        let metrics = MetricsAccumulator::new(
            n,
            m,
            observed_link,
            jitter_interval(&cfg, n, net.links[observed_link].capacity),
        );

        let mut sim = Self {
            q: vec![0.0; m],
            x_hist,
            tau_hist,
            p_hist,
            q_hist,
            y_hist,
            t: 0.0,
            prop_rtt,
            users,
            fwd,
            bwd,
            bneck_pos,
            activity,
            metrics,
            recorder: None,
            trace_stride: 1,
            step_count: 0,
            scratch_y: vec![0.0; m],
            scratch_p: vec![0.0; m],
            scratch_tau: vec![0.0; n],
            scratch_x: vec![0.0; n],
            scratch_rel_q: vec![0.0; m],
            scratch_service: vec![0.0; m],
            scratch_telemetry: Vec::new(),
            net,
            cfg,
            agents,
        };
        if let Some(rec) = bbr_trace::installed() {
            sim.record(rec);
        }
        Ok(sim)
    }

    /// Attach a flight recorder, replacing the one installed process-wide
    /// (if any) when the simulator was built. Every `rec.stride(dt)`
    /// steps it records each flow's rate, window, and RTT, each link's
    /// queue, utilization, and loss, and — with `TraceConfig::cca` —
    /// each flow's `x_dlv`, `loss`, and [`AnyCca::telemetry`] values
    /// as `CcaSignal`s. Advisory: recording never changes a result.
    pub fn record(&mut self, rec: Recorder) {
        self.trace_stride = rec.stride(self.cfg.dt);
        self.recorder = Some(rec);
    }

    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Discard metrics accumulated so far (e.g. after a warm-up phase).
    pub fn reset_metrics(&mut self) {
        self.metrics.reset();
    }

    /// Immutable access to the agents (for inspecting model state).
    pub fn agents(&self) -> &[AnyCca] {
        &self.agents
    }

    /// Current queue length of a link (Mbit).
    pub fn queue(&self, link: usize) -> f64 {
        self.q[link]
    }

    /// The network being simulated.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Advance the simulation by `duration` seconds and return the
    /// metrics over everything accumulated since construction (or the
    /// last [`Self::reset_metrics`]).
    pub fn run(&mut self, duration: f64) -> AggregateMetrics {
        let steps = (duration / self.cfg.dt).round() as u64;
        for _ in 0..steps {
            self.step_once();
        }
        let caps: Vec<f64> = self.net.links.iter().map(|l| l.capacity).collect();
        self.metrics.finalize(&caps)
    }

    /// Delivery-rate estimate of agent `i` per Eq. (17), evaluated at
    /// the bottleneck link of its path.
    ///
    /// Two robustness refinements over the printed equation: (a) the
    /// numerator is sampled one step deeper so that it refers to exactly
    /// the epoch contained in the delayed arrival rate (the arrival-rate
    /// history itself holds rates delayed by one step), preventing
    /// one-sample share spikes at probing-pulse edges that the running
    /// max filter would latch; (b) the share `x/y` is clamped to 1 — a
    /// flow cannot contribute more than the whole arrival rate.
    fn delivery_rate(&self, i: usize) -> f64 {
        let pos = self.bneck_pos[i];
        let l = self.net.paths[i].links[pos].0;
        let d_b = self.bwd[i][pos];
        let d_p = self.prop_rtt[i];
        let y_b = self.y_hist[l].at_delay(d_b).max(1e-9);
        let q_b = self.q_hist[l].at_delay(d_b);
        let cap = self.net.links[l].capacity;
        let x_num = self.x_hist[i].at_delay(d_p + self.cfg.dt);
        let share = (x_num / y_b).min(1.0);
        if q_b > 1e-9 || y_b > cap {
            share * cap
        } else {
            x_num
        }
    }

    /// Path loss feedback of agent `i`: the link loss probabilities
    /// along its path, each delayed by its feedback delay, summed and
    /// clamped to a probability (Eq. (7)).
    fn loss_feedback(&self, i: usize) -> f64 {
        let mut loss = 0.0;
        for (pos, link_id) in self.net.paths[i].links.iter().enumerate() {
            loss += self.p_hist[link_id.0].at_delay(self.bwd[i][pos]);
        }
        loss.clamp(0.0, 1.0)
    }

    /// Whether agent `i` is inside one of its activity windows at the
    /// current integration step.
    #[inline]
    fn is_active(&self, i: usize) -> bool {
        self.activity[i].contains(self.step_count)
    }

    /// One integration step of the coupled system.
    pub fn step_once(&mut self) {
        let n = self.agents.len();
        let m = self.net.links.len();
        let dt = self.cfg.dt;

        // 1. Link arrival rates, Eq. (1): delayed sending rates.
        for l in 0..m {
            let mut y = 0.0;
            for &(i, pos) in &self.users[l] {
                y += self.x_hist[i].at_delay(self.fwd[i][pos]);
            }
            self.scratch_y[l] = y;
        }

        // 2. Loss probabilities, Eqs. (4)/(6), and service rates.
        for l in 0..m {
            let link = &self.net.links[l];
            self.scratch_p[l] = loss_probability(link, self.scratch_y[l], self.q[l], &self.cfg);
            self.scratch_rel_q[l] = self.q[l] / link.buffer;
            self.scratch_service[l] =
                service_rate(link, self.q[l], self.scratch_y[l], self.scratch_p[l]);
        }

        // 3. Path RTTs, Eq. (3).
        for i in 0..n {
            let mut tau = self.prop_rtt[i];
            for link_id in &self.net.paths[i].links {
                let l = link_id.0;
                tau += self.q[l] / self.net.links[l].capacity;
            }
            self.scratch_tau[i] = tau;
        }

        // 4. Current sending rates from pre-step CCA state (zero
        // outside a flow's activity window).
        for i in 0..n {
            self.scratch_x[i] = if self.is_active(i) {
                self.agents[i].rate(self.scratch_tau[i], &self.cfg)
            } else {
                0.0
            };
        }

        // 5. Metrics and flight-recorder samples.
        self.metrics.record(
            self.t,
            dt,
            &self.scratch_x,
            &self.scratch_tau,
            &self.scratch_y,
            &self.scratch_p,
            &self.scratch_rel_q,
            &self.scratch_service,
        );
        if self.recorder.is_some() && self.step_count.is_multiple_of(self.trace_stride) {
            self.record_sample();
        }

        // 6. Assemble delayed feedback and step the agents (inactive
        // flows' models stay frozen; they resume — or start — with
        // whatever state they hold when their window opens).
        for i in 0..n {
            if !self.is_active(i) {
                continue;
            }
            let d_p = self.prop_rtt[i];
            let tau_fb = self.tau_hist[i].at_delay(d_p);
            let x_fb = self.x_hist[i].at_delay(d_p);
            let loss_fb = self.loss_feedback(i);
            // Delivery rate, Eq. (17), measured at the bottleneck link.
            let x_dlv = self.delivery_rate(i);
            let inputs = AgentInputs {
                t: self.t,
                dt,
                tau: self.scratch_tau[i],
                tau_fb,
                loss_fb,
                x_dlv,
                x_fb,
                x_cur: self.scratch_x[i],
                prop_rtt: d_p,
            };
            self.agents[i].step(&inputs, &self.cfg);
        }

        // 7. Push histories (values at time t).
        for i in 0..n {
            self.x_hist[i].push(self.scratch_x[i]);
            self.tau_hist[i].push(self.scratch_tau[i]);
        }
        for l in 0..m {
            self.p_hist[l].push(self.scratch_p[l]);
            self.q_hist[l].push(self.q[l]);
            self.y_hist[l].push(self.scratch_y[l]);
        }

        // 8. Queue dynamics, Eq. (2).
        for l in 0..m {
            self.q[l] = step_queue(
                &self.net.links[l],
                self.q[l],
                self.scratch_y[l],
                self.scratch_p[l],
                dt,
            );
        }

        self.t += dt;
        self.step_count += 1;
    }

    /// Advisory flight-recorder samples on the recorder's grid. Pure
    /// reads of this step's already-computed scratch state and of the
    /// same delayed feedback stage 6 is about to consume: recording
    /// cannot change any run result.
    fn record_sample(&mut self) {
        let Some(rec) = &self.recorder else {
            return;
        };
        let cfg = rec.config();
        let t = self.t;
        if cfg.flows {
            for i in 0..self.agents.len() {
                rec.record(&TraceEvent::FlowSample {
                    lane: 0,
                    flow: i,
                    t,
                    rate_mbps: self.scratch_x[i],
                    inflight_pkts: self.agents[i].cwnd() / self.cfg.mss,
                    rtt_s: self.scratch_tau[i],
                });
            }
        }
        if cfg.links {
            for l in 0..self.net.links.len() {
                rec.record(&TraceEvent::LinkSample {
                    lane: 0,
                    link: l,
                    t,
                    queue_frac: self.scratch_rel_q[l],
                    util_frac: self.scratch_y[l] / self.net.links[l].capacity,
                    loss_frac: self.scratch_p[l],
                });
            }
        }
        if cfg.cca {
            let mut signals = std::mem::take(&mut self.scratch_telemetry);
            for i in 0..self.agents.len() {
                signals.clear();
                signals.push(("x_dlv", self.delivery_rate(i)));
                signals.push(("loss", self.loss_feedback(i)));
                self.agents[i].telemetry(&mut signals);
                for &(signal, value) in signals.iter().filter(|(_, v)| v.is_finite()) {
                    rec.record(&TraceEvent::CcaSignal {
                        lane: 0,
                        flow: i,
                        t,
                        signal,
                        value,
                    });
                }
            }
            self.scratch_telemetry = signals;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cca::{build_any, CcaKind, ScenarioHint};
    use crate::topology::{dumbbell, QdiscKind};
    use bbr_trace::{MemorySink, TraceConfig};
    use std::sync::Arc;

    /// Attach an in-memory recorder sampling every `stride` steps.
    fn record_every(sim: &mut Simulator, stride: usize) -> Arc<MemorySink> {
        let sink = Arc::new(MemorySink::new());
        let interval = stride as f64 * sim.cfg.dt;
        sim.record(Recorder::new(
            TraceConfig {
                interval,
                ..TraceConfig::default()
            },
            sink.clone(),
        ));
        sink
    }

    fn make_sim(kind: CcaKind, buffer_bdp: f64, qdisc: QdiscKind) -> Simulator {
        let net = dumbbell(1, 100.0, 0.010, buffer_bdp, qdisc, &[0.0056]);
        let cfg = ModelConfig::coarse();
        let hint = ScenarioHint {
            capacity: 100.0,
            prop_rtt: net.prop_rtt(0),
            n_agents: 1,
            buffer: net.links[0].buffer,
            agent_index: 0,
        };
        let agents = vec![build_any(kind, &hint, &cfg)];
        Simulator::new(net, cfg, agents, &[]).unwrap()
    }

    #[test]
    fn single_reno_fills_the_link() {
        let mut sim = make_sim(CcaKind::Reno, 1.0, QdiscKind::DropTail);
        let metrics = sim.run(20.0);
        assert!(
            metrics.utilization_percent > 70.0,
            "util = {}",
            metrics.utilization_percent
        );
        // Reno under drop-tail: low loss.
        assert!(
            metrics.loss_percent < 2.0,
            "loss = {}",
            metrics.loss_percent
        );
    }

    #[test]
    fn single_bbrv1_full_utilization() {
        let mut sim = make_sim(CcaKind::BbrV1, 1.0, QdiscKind::DropTail);
        let metrics = sim.run(5.0);
        assert!(
            metrics.utilization_percent > 90.0,
            "util = {}",
            metrics.utilization_percent
        );
    }

    #[test]
    fn rates_stay_finite_and_nonnegative() {
        for kind in [
            CcaKind::Reno,
            CcaKind::Cubic,
            CcaKind::BbrV1,
            CcaKind::BbrV2,
        ] {
            let mut sim = make_sim(kind, 2.0, QdiscKind::DropTail);
            let sink = record_every(&mut sim, 50);
            sim.run(3.0);
            let (mut flows, mut links) = (0, 0);
            for event in sink.take() {
                match event {
                    TraceEvent::FlowSample { rate_mbps: x, .. } => {
                        assert!(x.is_finite() && x >= 0.0, "{kind}: rate {x}");
                        flows += 1;
                    }
                    // The queue as a fraction of the buffer: within [0, B].
                    TraceEvent::LinkSample { queue_frac: q, .. } => {
                        assert!((0.0..=1.0 + 1e-9).contains(&q), "{kind}: queue {q}");
                        links += 1;
                    }
                    _ => {}
                }
            }
            assert!(flows > 0 && links > 0, "{kind}: nothing recorded");
        }
    }

    #[test]
    fn queue_never_exceeds_buffer() {
        let mut sim = make_sim(CcaKind::BbrV1, 0.5, QdiscKind::DropTail);
        for _ in 0..20_000 {
            sim.step_once();
            assert!(sim.queue(0) <= sim.network().links[0].buffer + 1e-12);
            assert!(sim.queue(0) >= 0.0);
        }
    }

    #[test]
    fn reset_metrics_skips_warmup() {
        let mut sim = make_sim(CcaKind::Reno, 1.0, QdiscKind::DropTail);
        sim.run(2.0);
        sim.reset_metrics();
        let metrics = sim.run(1.0);
        assert!((metrics.duration - 1.0).abs() < 1e-6);
    }

    #[test]
    fn trace_is_recorded_with_stride() {
        let mut sim = make_sim(CcaKind::BbrV2, 1.0, QdiscKind::DropTail);
        let sink = record_every(&mut sim, 100);
        sim.run(1.0);
        let events = sink.take();
        let samples = events.iter().filter(|e| e.kind() == "flow").count();
        // 1 s at dt = 1e-4 with stride 100 → ≈ 100 samples.
        assert!((95..=105).contains(&samples), "{samples} samples");
        // Every sample carries the model internals as signals.
        for name in ["x_btl", "x_dlv", "loss"] {
            let n = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::CcaSignal { signal, .. } if *signal == name))
                .count();
            assert_eq!(n, samples, "{name} signals");
        }
    }

    #[test]
    fn attaching_a_recorder_replaces_the_previous_one() {
        let mut sim = make_sim(CcaKind::Reno, 1.0, QdiscKind::DropTail);
        let first = record_every(&mut sim, 10);
        sim.run(0.05);
        assert!(!first.is_empty());
        first.take();
        let second = record_every(&mut sim, 10);
        sim.run(0.05);
        assert!(first.is_empty(), "the replaced recorder must go quiet");
        assert!(!second.is_empty());
    }

    #[test]
    fn agent_count_mismatch_rejected() {
        let net = dumbbell(2, 100.0, 0.01, 1.0, QdiscKind::DropTail, &[0.005, 0.005]);
        let cfg = ModelConfig::coarse();
        let hint = ScenarioHint {
            capacity: 100.0,
            prop_rtt: 0.03,
            n_agents: 2,
            buffer: 1.0,
            agent_index: 0,
        };
        let agents = vec![build_any(CcaKind::Reno, &hint, &cfg)];
        assert!(Simulator::new(net, cfg, agents, &[]).is_err());
    }

    #[test]
    fn for_spec_assigns_kinds_round_robin() {
        let spec =
            ScenarioSpec::dumbbell(4, 100.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1, CcaKind::Reno]);
        let sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
        assert_eq!(sim.agents()[0].kind(), CcaKind::BbrV1);
        assert_eq!(sim.agents()[1].kind(), CcaKind::Reno);
        assert_eq!(sim.agents()[2].kind(), CcaKind::BbrV1);
        assert_eq!(sim.agents()[3].kind(), CcaKind::Reno);
    }

    #[test]
    fn for_spec_rejects_an_empty_cca_list() {
        let mut spec = ScenarioSpec::dumbbell(2, 100.0, 0.010, 1.0);
        spec.ccas.clear();
        assert!(Simulator::for_spec(&spec, ModelConfig::coarse()).is_err());
    }
}
