//! The fluid-model integrator: the coupled delay differential equations
//! of the network (§2) and the per-agent CCA models (§3), integrated with
//! the method of steps at a fixed step size (§4.1.1).
//!
//! One engine does the integrating. [`LockstepSim`] packs *lanes* into
//! flat per-flow and per-link arrays and advances every lane by one
//! shared time step per iteration of its outer loop. A lane holds
//! 1..=`WIDTH` structurally identical scenarios, its *members*: one on
//! `f64`, one `struct_key` pack of up to four on `F64x4`
//! (`bbr-fluidbatch`). Heterogeneous lanes (different flow counts,
//! topologies, durations) batch together; lanes whose integration window
//! is over are masked out and the rest keep stepping. [`Simulator`] is
//! the engine's one-lane `f64` instance: an explicit network with
//! explicit agents, stepped for as long as its caller runs it.
//!
//! # Two lane types, one step loop
//!
//! The history arena, the delayed lookups, the eight step stages, the
//! termination mask, the activity schedules and the metrics are written
//! once over [`Lanes`]. Only [`LaneAgent`] differs per lane type: the
//! agents ([`AnyCca`] or the packed state machines), the queue kernels
//! (libm with early returns, or masked polynomial kernels), and whether a
//! lane samples into a flight recorder (only `f64` lanes do). Every
//! primitive `F64x4` op is the scalar op in each lane, bit for bit
//! ([`crate::lanes`]), so sharing the stage code moves no bit of either.
//!
//! # Histories
//!
//! Every state variable that appears with a delayed argument (sending
//! rates in Eq. (1), loss probabilities in Eq. (7), queues and arrival
//! rates in Eq. (17), RTTs in Eq. (9)) is sampled once per step into a
//! sliding region of one arena, retaining exactly the samples a
//! [`History`] of the same capacity holds. Every delayed lookup uses a
//! *constant* delay, so the `delay/dt → (whole steps, fraction)`
//! decomposition that [`History::at_delay`] recomputes on every call is
//! resolved once, when a lane is built (the private `Lookup` type); the
//! interpolation arithmetic on the two retained samples is the same.

use bbr_scenario::{FlowWindow, ScenarioSpec};
use bbr_telemetry::trace::{Recorder, TraceEvent};

use crate::backend::{agents_for_spec, network_for_spec};
use crate::cca::{AgentInputs, AnyCca};
use crate::config::ModelConfig;
use crate::history::History;
use crate::lanes::Lanes;
use crate::metrics::{AggregateMetrics, MetricsAccumulator};
use crate::queue::{loss_probability, service_rate, step_queue};
use crate::topology::{LinkId, LinkSpec, Network};

/// One flow's agent across a lane's members, and what else differs with
/// the lane type. Everything else is the same code for every lane type
/// (see the module docs).
pub trait LaneAgent: Sized {
    /// The lane's number type: one `f64` per member.
    type V: Lanes;
    /// Whether lanes of this agent sample into a flight recorder.
    const TRACED: bool;
    /// One agent per flow of `net` from each member's scalar agents
    /// (`members[j][i]` is member `j`'s flow `i`, padding included).
    fn agents(members: Vec<Vec<AnyCca>>, net: &Network) -> Vec<Self>;
    /// The agent's sending rate at path RTT `tau`.
    fn rate(agent: &mut Self, tau: Self::V, cfg: &ModelConfig) -> Self::V;
    /// Advance the agent by one step on its delayed feedback.
    fn step(agent: &mut Self, inp: &AgentInputs<Self::V>, cfg: &ModelConfig);
    /// A traced agent's window (Mbit).
    fn cwnd(agent: &Self) -> f64;
    /// A traced agent's model variables ([`AnyCca::telemetry`]).
    fn telemetry(agent: &Self, out: &mut Vec<(&'static str, f64)>);
    /// Loss probability, Eqs. (4)/(6); `buffer` holds each member's
    /// buffer of `link`, the one link quantity members may differ in.
    fn loss_probability(
        link: &LinkSpec,
        buffer: Self::V,
        y: Self::V,
        q: Self::V,
        cfg: &ModelConfig,
    ) -> Self::V;
    /// One Euler step of the queue, Eq. (2).
    fn step_queue(
        link: &LinkSpec,
        buffer: Self::V,
        q: Self::V,
        y: Self::V,
        p: Self::V,
        dt: f64,
    ) -> Self::V;
}

/// One scenario per lane, through the model's own agents and queue
/// kernels. A one-member lane's buffer is `link.buffer`.
impl LaneAgent for AnyCca {
    type V = f64;
    const TRACED: bool = true;

    fn agents(members: Vec<Vec<AnyCca>>, _: &Network) -> Vec<AnyCca> {
        members
            .into_iter()
            .next()
            .expect("an f64 lane has one member")
    }

    #[inline(always)]
    fn rate(agent: &mut AnyCca, tau: f64, cfg: &ModelConfig) -> f64 {
        agent.rate(tau, cfg)
    }

    #[inline(always)]
    fn step(agent: &mut AnyCca, inp: &AgentInputs, cfg: &ModelConfig) {
        agent.step(inp, cfg)
    }

    fn cwnd(agent: &AnyCca) -> f64 {
        agent.cwnd()
    }

    fn telemetry(agent: &AnyCca, out: &mut Vec<(&'static str, f64)>) {
        agent.telemetry(out)
    }

    #[inline(always)]
    fn loss_probability(link: &LinkSpec, _: f64, y: f64, q: f64, cfg: &ModelConfig) -> f64 {
        loss_probability(link, y, q, cfg)
    }

    #[inline(always)]
    fn step_queue(link: &LinkSpec, _: f64, q: f64, y: f64, p: f64, dt: f64) -> f64 {
        step_queue(link, q, y, p, dt)
    }
}

/// The link whose occupancy/utilization become a run's headline metrics:
/// the minimum-capacity link of the network (the first on ties).
fn observed_link(net: &Network) -> usize {
    (0..net.links.len())
        .min_by(|a, b| {
            net.links[*a]
                .capacity
                .partial_cmp(&net.links[*b].capacity)
                .expect("link capacities are not NaN")
        })
        .expect("a validated network has a link")
}

/// A flow's activity windows as integration-step bounds: the flow sends
/// (and its agent steps) on the steps `start <= step < stop` of some
/// window, each bound `(time / dt).round()`, the run-length convention.
/// The first window is stored unboxed, so the churn-free default (one
/// always-active window) costs two comparisons; an empty window list
/// becomes the never-active `(0, 0)`.
#[derive(Debug, Clone)]
struct ActivitySchedule {
    first: (u64, u64),
    rest: Vec<(u64, u64)>,
}

impl ActivitySchedule {
    /// Decompose a window list (ordered, non-overlapping; see
    /// `bbr_scenario::FlowSchedule`) into step bounds at step size `dt`.
    fn from_windows(windows: &[FlowWindow], dt: f64) -> Self {
        let steps = |w: &FlowWindow| {
            let stop = if w.stop.is_finite() {
                (w.stop / dt).round() as u64
            } else {
                u64::MAX
            };
            ((w.start / dt).round() as u64, stop)
        };
        match windows {
            [] => Self {
                first: (0, 0),
                rest: Vec::new(),
            },
            [first, rest @ ..] => Self {
                first: steps(first),
                rest: rest.iter().map(steps).collect(),
            },
        }
    }

    /// Whether the flow is active at integration step `step`.
    #[inline]
    fn contains(&self, step: u64) -> bool {
        (self.first.0 <= step && step < self.first.1)
            || (!self.rest.is_empty() && self.rest.iter().any(|&(a, b)| a <= step && step < b))
    }
}

/// One precomputed delayed lookup: which history region to read and how
/// far back, resolved once from a constant delay.
///
/// Mirrors `History::at_delay` exactly: `steps = delay / dt`,
/// `back_a = ⌊steps⌋`, `frac` the fractional remainder, with lookups at
/// or beyond the retention horizon clamped to the oldest sample (in
/// which case the interpolation is skipped, as the ring buffer skips
/// it, so even a `-0.0` sample round-trips bit-exactly).
#[derive(Debug, Clone, Copy)]
struct Lookup {
    /// Arena offset of the history region this lookup reads.
    off: u32,
    /// Whole steps back for the two interpolation endpoints.
    back_a: u32,
    back_b: u32,
    /// Interpolation fraction between the endpoints.
    frac: f64,
    /// Delay at/beyond the retention horizon: return the oldest sample.
    clamped: bool,
}

impl Lookup {
    /// Resolve `delay` against a history of `cap` retained samples,
    /// replicating the `at_delay` decomposition bit for bit.
    fn new(off: usize, cap: usize, delay: f64, dt: f64) -> Self {
        debug_assert!(delay >= 0.0, "delay must be non-negative");
        let steps = delay / dt;
        let lo = steps.floor() as usize;
        let frac = steps - steps.floor();
        let max_back = cap - 1;
        if lo >= max_back {
            Self {
                off: off as u32,
                back_a: max_back as u32,
                back_b: max_back as u32,
                frac: 0.0,
                clamped: true,
            }
        } else {
            Self {
                off: off as u32,
                back_a: lo as u32,
                back_b: (lo + 1) as u32,
                frac,
                clamped: false,
            }
        }
    }

    /// Read the lookup against the lane's current cursor.
    ///
    /// SAFETY of the unchecked indexing: `off` is the start of a region
    /// of `region ≥ cap + 1` arena slots, `cur < region` by the cursor
    /// invariant, and `back_a, back_b ≤ cap - 1 ≤ cur` (the cursor never
    /// drops below `cap - 1`), so both indices stay inside the region.
    #[inline(always)]
    fn read<V: Lanes>(&self, arena: &[V], cur: usize) -> V {
        let base = self.off as usize + cur;
        debug_assert!(base - self.back_b as usize >= self.off as usize);
        debug_assert!(base < arena.len());
        // SAFETY: both indices lie in this lookup's region (see above).
        let a = unsafe { *arena.get_unchecked(base - self.back_a as usize) };
        if self.clamped {
            a
        } else {
            // SAFETY: as for `a`.
            let b = unsafe { *arena.get_unchecked(base - self.back_b as usize) };
            a * (1.0 - self.frac) + b * self.frac
        }
    }
}

/// The per-flow delayed-feedback program of the agent-step stage, packed
/// contiguously so stage 6 walks one array instead of six. Delays are
/// structural, so one program serves every member of a lane.
#[derive(Debug, Clone)]
struct FlowFeedback {
    /// Own RTT delayed by the propagation RTT (`τ(t − d_p)`).
    tau_fb: Lookup,
    /// Own sending rate delayed by the propagation RTT.
    x_fb: Lookup,
    /// Own sending rate one step deeper (numerator of Eq. (17)).
    x_num: Lookup,
    /// Bottleneck arrival rate / queue delayed by the feedback delay.
    y_b: Lookup,
    q_b: Lookup,
    /// Bottleneck capacity of this flow's path (Mbit/s).
    bneck_cap: f64,
    /// Propagation RTT (s).
    prop_rtt: f64,
    /// Arena offsets of this flow's x and τ histories (for the pushes).
    x_off: u32,
    tau_off: u32,
    /// When the flow sends and its agent steps (flow churn).
    activity: ActivitySchedule,
}

impl FlowFeedback {
    /// Delivery-rate estimate per Eq. (17), evaluated at the bottleneck
    /// link of the flow's path.
    ///
    /// Two robustness refinements over the printed equation: (a) the
    /// numerator is sampled one step deeper so that it refers to exactly
    /// the epoch contained in the delayed arrival rate (the arrival-rate
    /// history itself holds rates delayed by one step), preventing
    /// one-sample share spikes at probing-pulse edges that the running
    /// max filter would latch; (b) the share `x/y` is clamped to 1 — a
    /// flow cannot contribute more than the whole arrival rate.
    #[inline(always)]
    fn delivery_rate<V: Lanes>(&self, arena: &[V], cur: usize) -> V {
        let y_b = self.y_b.read(arena, cur).max(V::splat(1e-9));
        let q_b = self.q_b.read(arena, cur);
        let cap = self.bneck_cap;
        let x_num = self.x_num.read(arena, cur);
        let share = (x_num / y_b).min(V::splat(1.0));
        let queued = q_b.gt(V::splat(1e-9)) | y_b.gt(V::splat(cap));
        V::select(queued, share * cap, x_num)
    }
}

/// Path loss feedback: the link loss probabilities along a flow's path
/// (`lookups`, each delayed by its feedback delay), summed and clamped
/// to a probability (Eq. (7)).
#[inline(always)]
fn path_loss<V: Lanes>(lookups: &[Lookup], arena: &[V], cur: usize) -> V {
    let mut loss = V::splat(0.0);
    for lk in lookups {
        loss = loss + lk.read(arena, cur);
    }
    loss.clamp(0.0, 1.0)
}

/// Per-lane bookkeeping: where the lane's flows/links live in the flat
/// arrays, its history geometry, and its private metrics stream.
struct Lane<V> {
    /// Member 0's network.
    net: Network,
    /// Flat flow index range.
    flows: std::ops::Range<usize>,
    /// Flat link index range.
    links: std::ops::Range<usize>,
    /// Scenarios in the lane; the `V::WIDTH − members` padding lanes
    /// replicate member 0 and are discarded.
    members: usize,
    /// Integration steps this lane runs (`u64::MAX`: open-ended).
    steps_total: u64,
    /// Retained samples per history (identical for every history of a
    /// lane: all are sized for the lane's largest RTT).
    cap: usize,
    /// Region length per history (`cap` + slack written before sliding).
    region: usize,
    /// Region-relative index of the most recent sample (shared by every
    /// history of the lane — they all record once per step).
    cur: usize,
    /// Arena offsets of every history region of this lane (for the
    /// slide-back copy when `cur` reaches the region end).
    hist_offs: Vec<u32>,
    metrics: MetricsAccumulator<V>,
}

impl<V: Lanes> Lane<V> {
    /// Member `j`'s metrics over everything recorded so far.
    fn finalize(&self, j: usize) -> AggregateMetrics {
        let caps: Vec<f64> = self.net.links.iter().map(|l| l.capacity).collect();
        self.metrics.finalize_lane(j, &caps)
    }
}

/// The lockstep fluid engine: lanes of scenarios advanced one shared
/// time step at a time. See the module docs for the layout.
pub struct LockstepSim<A: LaneAgent> {
    cfg: ModelConfig,
    lanes: Vec<Lane<A::V>>,
    /// Lanes still integrating, in lane order (the termination mask).
    active: Vec<usize>,
    /// Steps taken so far — identical for every lane, since all lanes
    /// start together and step in lockstep.
    step_count: u64,
    /// The next `step_count` at which some lane's window ends (u64::MAX
    /// while none is due): the termination mask only needs
    /// re-evaluating at deadlines.
    next_deadline: u64,
    t: f64,
    /// Flight recorder (traced agent types only), and its sample grid
    /// in steps.
    recorder: Option<Recorder>,
    trace_stride: u64,

    // ---- flat per-flow state (lane-contiguous) ----
    agents: Vec<A>,
    feedback: Vec<FlowFeedback>,
    /// Per-flow range into `path_links` / `lk_loss`.
    path_range: Vec<std::ops::Range<usize>>,
    /// Flat link indices of each flow's path, in path order.
    path_links: Vec<u32>,
    /// Delayed loss-probability lookups, aligned with `path_links`.
    lk_loss: Vec<Lookup>,
    /// Scratch: current sending rate / RTT per flow.
    x: Vec<A::V>,
    tau: Vec<A::V>,

    // ---- flat per-link state (lane-contiguous) ----
    /// Member 0's link specs; every field but the buffer is structural.
    link_spec: Vec<LinkSpec>,
    /// Each member's buffer per link (Mbit).
    buffer: Vec<A::V>,
    /// Queue length per link (Mbit).
    q: Vec<A::V>,
    /// Per-link range into `lk_user`.
    user_range: Vec<std::ops::Range<usize>>,
    /// Delayed sending-rate lookups of each link's users, in user order.
    lk_user: Vec<Lookup>,
    /// History region offsets for the per-step pushes.
    p_off: Vec<u32>,
    q_off: Vec<u32>,
    y_off: Vec<u32>,
    /// Scratch: arrival rate, loss probability, relative queue, service.
    y: Vec<A::V>,
    p: Vec<A::V>,
    rel_q: Vec<A::V>,
    service: Vec<A::V>,

    /// One arena holding every history region of every lane.
    arena: Vec<A::V>,
}

impl<A: LaneAgent> LockstepSim<A> {
    /// An engine without lanes, its vectors sized for `flows` flows in
    /// `lanes` lanes: the per-flow hints are exact, the per-link and
    /// path-flattened ones dumbbell-shaped floors (multi-hop lanes may
    /// still grow once). Building a wave is on the hot path when a
    /// backend fans many small waves out per sweep. A traced agent type
    /// takes the process-wide recorder, if one is installed.
    fn with_capacity(cfg: ModelConfig, flows: usize, lanes: usize) -> Self {
        let links = flows + 2 * lanes;
        let recorder = if A::TRACED {
            bbr_telemetry::trace::installed()
        } else {
            None
        };
        let trace_stride = recorder.as_ref().map_or(1, |rec| rec.stride(cfg.dt));
        Self {
            cfg,
            lanes: Vec::with_capacity(lanes),
            active: Vec::with_capacity(lanes),
            step_count: 0,
            next_deadline: u64::MAX,
            t: 0.0,
            recorder,
            trace_stride,
            agents: Vec::with_capacity(flows),
            feedback: Vec::with_capacity(flows),
            path_range: Vec::with_capacity(flows),
            path_links: Vec::with_capacity(2 * flows),
            lk_loss: Vec::with_capacity(2 * flows),
            x: Vec::with_capacity(flows),
            tau: Vec::with_capacity(flows),
            link_spec: Vec::with_capacity(links),
            buffer: Vec::with_capacity(links),
            q: Vec::with_capacity(links),
            user_range: Vec::with_capacity(links),
            lk_user: Vec::with_capacity(2 * flows),
            p_off: Vec::with_capacity(links),
            q_off: Vec::with_capacity(links),
            y_off: Vec::with_capacity(links),
            y: Vec::with_capacity(links),
            p: Vec::with_capacity(links),
            rel_q: Vec::with_capacity(links),
            service: Vec::with_capacity(links),
            arena: Vec::new(),
        }
    }

    /// Pack `specs` into one lockstep batch, `WIDTH` consecutive specs
    /// per lane (the members of a lane must share `struct_key`), each
    /// lane running for its spec's duration. Every spec must already be
    /// validated.
    pub fn for_specs(specs: &[&ScenarioSpec], cfg: ModelConfig) -> Self {
        let width = A::V::WIDTH;
        let flows = specs.chunks(width).map(|c| c[0].n_flows()).sum();
        let mut sim = Self::with_capacity(cfg, flows, specs.len().div_ceil(width));
        for members in specs.chunks(width) {
            // Padding lanes replicate member 0.
            let member = |j: usize| members[if j < members.len() { j } else { 0 }];
            let nets: Vec<Network> = (0..width).map(|j| network_for_spec(member(j))).collect();
            let agents = (0..width)
                .map(|j| agents_for_spec(member(j), &nets[j], &sim.cfg))
                .collect();
            let schedules: Vec<_> = (0..nets[0].n_agents())
                .map(|i| member(0).windows_of(i))
                .collect();
            let steps = (member(0).duration / sim.cfg.dt).round() as u64;
            sim.push_lane(nets, agents, &schedules, members.len(), steps);
        }
        sim
    }

    /// Append one lane of `members` scenarios: member `j`'s network and
    /// agents are `nets[j]` and `agents[j]` (`WIDTH` of each, padding
    /// included), `schedules` the members' shared activity windows per
    /// flow (a missing entry is always active), and the lane runs
    /// `steps_total` steps (`u64::MAX`: until its caller stops). Lays the
    /// lane's histories into the arena and resolves every delayed lookup
    /// of its step loop.
    fn push_lane(
        &mut self,
        mut nets: Vec<Network>,
        agents: Vec<Vec<AnyCca>>,
        schedules: &[Vec<FlowWindow>],
        members: usize,
        steps_total: u64,
    ) {
        let cfg = self.cfg.clone();
        let dt = cfg.dt;
        let net = &nets[0];
        net.validate().expect("validated spec must build");
        let n = net.n_agents();
        let m = net.links.len();
        let flow0 = self.feedback.len();
        let link0 = self.link_spec.len();

        let prop_rtt: Vec<f64> = (0..n).map(|i| net.prop_rtt(i)).collect();
        let max_rtt = prop_rtt.iter().cloned().fold(0.0, f64::max);
        let cap = History::capacity_for(max_rtt, dt);
        // Slack before a region slides back; one region's worth keeps the
        // amortized copy under one sample per push.
        let region = 2 * cap;

        let activity: Vec<ActivitySchedule> = (0..n)
            .map(|i| {
                let windows = schedules
                    .get(i)
                    .map_or(&[FlowWindow::ALWAYS][..], Vec::as_slice);
                ActivitySchedule::from_windows(windows, dt)
            })
            .collect();

        // Initial conditions: agents send at their initial rate (zero for
        // flows that have not started yet), queues are empty, RTTs equal
        // the propagation delay. The rates come from each member's scalar
        // agents: BBRv2's buffer-dependent w_hi can bind the initial
        // window, so x(0) differs across a pack's buffer lanes.
        let x0: Vec<A::V> = (0..n)
            .map(|i| {
                A::V::from_fn(|j| {
                    if activity[i].contains(0) {
                        agents[j][i].rate(prop_rtt[i], &cfg)
                    } else {
                        0.0
                    }
                })
            })
            .collect();
        let users: Vec<Vec<(usize, usize)>> = (0..m).map(|l| net.users_of(LinkId(l))).collect();
        let y0: Vec<A::V> = (0..m)
            .map(|l| {
                users[l]
                    .iter()
                    .fold(A::V::splat(0.0), |y, (i, _)| y + x0[*i])
            })
            .collect();

        // Histories: per flow x then tau, per link p, q, y — prefilled
        // with the initial signal values (the DDE history on t < 0). At
        // a fine step a lane's regions run to megabytes: reserve them in
        // one allocation rather than regrowing the arena per region.
        let mut hist_offs = Vec::with_capacity(2 * n + 3 * m);
        self.arena.reserve((2 * n + 3 * m) * region);
        let mut alloc = |initial: A::V, arena: &mut Vec<A::V>| -> usize {
            let off = arena.len();
            arena.extend(std::iter::repeat_n(initial, cap));
            arena.extend(std::iter::repeat_n(A::V::splat(0.0), region - cap));
            hist_offs.push(off as u32);
            off
        };
        let x_offs: Vec<usize> = (0..n).map(|i| alloc(x0[i], &mut self.arena)).collect();
        let tau_offs: Vec<usize> = (0..n)
            .map(|i| alloc(A::V::splat(prop_rtt[i]), &mut self.arena))
            .collect();
        let p_offs: Vec<usize> = (0..m)
            .map(|_| alloc(A::V::splat(0.0), &mut self.arena))
            .collect();
        let q_offs: Vec<usize> = (0..m)
            .map(|_| alloc(A::V::splat(0.0), &mut self.arena))
            .collect();
        let y_offs: Vec<usize> = (0..m).map(|l| alloc(y0[l], &mut self.arena)).collect();
        // Lookups store arena offsets as u32; a batch big enough to
        // overflow that (32 GiB of history regions) must fail loudly
        // rather than wrap into another lane's region.
        assert!(
            self.arena.len() <= u32::MAX as usize,
            "batch history arena exceeds u32 offsets; split the batch into smaller waves"
        );

        // Per-link flats: specs, queues, and the arrival-rate lookups
        // (each user's sending rate delayed by its forward delay).
        for l in 0..m {
            self.link_spec.push(net.links[l].clone());
            self.buffer.push(A::V::from_fn(|j| nets[j].links[l].buffer));
            self.q.push(A::V::splat(0.0));
            let start = self.lk_user.len();
            for &(i, pos) in &users[l] {
                let delay = net.fwd_delay(i, pos);
                self.lk_user.push(Lookup::new(x_offs[i], cap, delay, dt));
            }
            self.user_range.push(start..self.lk_user.len());
            self.p_off.push(p_offs[l] as u32);
            self.q_off.push(q_offs[l] as u32);
            self.y_off.push(y_offs[l] as u32);
            self.y.push(A::V::splat(0.0));
            self.p.push(A::V::splat(0.0));
            self.rel_q.push(A::V::splat(0.0));
            self.service.push(A::V::splat(0.0));
        }

        // Per-flow flats: feedback lookups, path structure, scratch.
        for (i, activity) in activity.into_iter().enumerate() {
            let d_p = prop_rtt[i];
            let pos = net.bottleneck_pos(i);
            let l_b = net.paths[i].links[pos].0;
            let d_b = net.bwd_delay(i, pos);
            self.feedback.push(FlowFeedback {
                tau_fb: Lookup::new(tau_offs[i], cap, d_p, dt),
                x_fb: Lookup::new(x_offs[i], cap, d_p, dt),
                x_num: Lookup::new(x_offs[i], cap, d_p + dt, dt),
                y_b: Lookup::new(y_offs[l_b], cap, d_b, dt),
                q_b: Lookup::new(q_offs[l_b], cap, d_b, dt),
                bneck_cap: net.links[l_b].capacity,
                prop_rtt: d_p,
                x_off: x_offs[i] as u32,
                tau_off: tau_offs[i] as u32,
                activity,
            });
            let start = self.lk_loss.len();
            for (pos, link_id) in net.paths[i].links.iter().enumerate() {
                let l = link_id.0;
                self.path_links.push((link0 + l) as u32);
                self.lk_loss
                    .push(Lookup::new(p_offs[l], cap, net.bwd_delay(i, pos), dt));
            }
            self.path_range.push(start..self.lk_loss.len());
            self.x.push(A::V::splat(0.0));
            self.tau.push(A::V::splat(0.0));
        }
        self.agents.extend(A::agents(agents, net));

        // Virtual packet interval of the jitter metric (§4.3.5): g·N/C at
        // the observed link.
        let observed = observed_link(net);
        let jitter_interval = cfg.mss * n as f64 / net.links[observed].capacity;
        let metrics = MetricsAccumulator::new(n, m, observed, jitter_interval);
        // Degenerate windows round to zero steps; such lanes finalize
        // empty, exactly as a run of the same duration would.
        if steps_total > 0 {
            self.active.push(self.lanes.len());
            self.next_deadline = self.next_deadline.min(steps_total);
        }
        self.lanes.push(Lane {
            net: nets.swap_remove(0),
            flows: flow0..flow0 + n,
            links: link0..link0 + m,
            members,
            steps_total,
            cap,
            region,
            cur: cap - 1,
            hist_offs,
            metrics,
        });
    }

    /// Advance every still-active lane by one shared time step.
    fn step_once(&mut self) {
        let dt = self.cfg.dt;
        // Every lane starts at step 0 and the active set only ever
        // shrinks, so the global count is every lane's own step index:
        // the churn masks fire on the same step in any batch.
        let step = self.step_count;
        for &ln in &self.active {
            let lane = &self.lanes[ln];
            let (cur, fr, lr) = (lane.cur, lane.flows.clone(), lane.links.clone());

            // 1. Link arrival rates, Eq. (1): delayed sending rates.
            for l in lr.clone() {
                let mut y = A::V::splat(0.0);
                for lk in &self.lk_user[self.user_range[l].clone()] {
                    y = y + lk.read(&self.arena, cur);
                }
                self.y[l] = y;
            }

            // 2. Loss probabilities, Eqs. (4)/(6), and service rates.
            for l in lr.clone() {
                let (link, buffer) = (&self.link_spec[l], self.buffer[l]);
                let (y, q) = (self.y[l], self.q[l]);
                let p = A::loss_probability(link, buffer, y, q, &self.cfg);
                self.p[l] = p;
                self.rel_q[l] = q / buffer;
                self.service[l] = service_rate(link, q, y, p);
            }

            // 3. Path RTTs, Eq. (3).
            for i in fr.clone() {
                let mut tau = A::V::splat(self.feedback[i].prop_rtt);
                for &l in &self.path_links[self.path_range[i].clone()] {
                    let l = l as usize;
                    tau = tau + self.q[l] / self.link_spec[l].capacity;
                }
                self.tau[i] = tau;
            }

            // 4. Current sending rates from pre-step CCA state (zero
            // outside a flow's activity window).
            for i in fr.clone() {
                self.x[i] = if self.feedback[i].activity.contains(step) {
                    A::rate(&mut self.agents[i], self.tau[i], &self.cfg)
                } else {
                    A::V::splat(0.0)
                };
            }

            // 5. Metrics and flight-recorder samples.
            self.lanes[ln].metrics.record(
                self.t,
                dt,
                &self.x[fr.clone()],
                &self.tau[fr.clone()],
                &self.y[lr.clone()],
                &self.p[lr.clone()],
                &self.rel_q[lr.clone()],
                &self.service[lr.clone()],
            );
            if let Some(rec) = &self.recorder {
                if step.is_multiple_of(self.trace_stride) {
                    self.sample(rec, ln, cur);
                }
            }

            // 6. Assemble delayed feedback and step the agents (inactive
            // flows' models stay frozen; they resume — or start — with
            // whatever state they hold when their window opens).
            for i in fr.clone() {
                let fb = &self.feedback[i];
                if !fb.activity.contains(step) {
                    continue;
                }
                let tau_fb = fb.tau_fb.read(&self.arena, cur);
                let x_fb = fb.x_fb.read(&self.arena, cur);
                let loss_fb =
                    path_loss(&self.lk_loss[self.path_range[i].clone()], &self.arena, cur);
                let inputs = AgentInputs {
                    t: self.t,
                    dt,
                    tau: self.tau[i],
                    tau_fb,
                    loss_fb,
                    x_dlv: fb.delivery_rate(&self.arena, cur),
                    x_fb,
                    x_cur: self.x[i],
                    prop_rtt: fb.prop_rtt,
                };
                A::step(&mut self.agents[i], &inputs, &self.cfg);
            }

            // 7. Push histories (values at time t): one shared cursor
            // advance per lane, sliding every region back when the slack
            // is exhausted.
            let lane = &mut self.lanes[ln];
            let mut next = cur + 1;
            if next == lane.region {
                for &off in &lane.hist_offs {
                    let off = off as usize;
                    self.arena
                        .copy_within(off + lane.region - lane.cap..off + lane.region, off);
                }
                next = lane.cap;
            }
            lane.cur = next;
            for i in fr {
                let fb = &self.feedback[i];
                self.arena[fb.x_off as usize + next] = self.x[i];
                self.arena[fb.tau_off as usize + next] = self.tau[i];
            }
            for l in lr.clone() {
                self.arena[self.p_off[l] as usize + next] = self.p[l];
                self.arena[self.q_off[l] as usize + next] = self.q[l];
                self.arena[self.y_off[l] as usize + next] = self.y[l];
            }

            // 8. Queue dynamics, Eq. (2).
            for l in lr {
                self.q[l] = A::step_queue(
                    &self.link_spec[l],
                    self.buffer[l],
                    self.q[l],
                    self.y[l],
                    self.p[l],
                    dt,
                );
            }
        }

        self.t += dt;
        self.step_count += 1;
        // Termination mask: drop lanes whose window just ended and find
        // the next deadline (only ever work at a deadline step).
        if self.step_count >= self.next_deadline {
            let (lanes, steps) = (&self.lanes, self.step_count);
            self.active.retain(|&ln| lanes[ln].steps_total > steps);
            self.next_deadline = self
                .active
                .iter()
                .map(|&ln| lanes[ln].steps_total)
                .min()
                .unwrap_or(u64::MAX);
        }
    }

    /// Advisory flight-recorder samples of lane `ln` (one member, as
    /// only traced agent types hold a recorder), with lane-local flow and
    /// link indices. Pure reads of this step's flat state and of the same
    /// delayed feedback stage 6 is about to consume: recording cannot
    /// change any result. Inlined into the step loop: as an out-of-line
    /// call it slowed untraced `f64` waves by about 5%.
    #[inline(always)]
    fn sample(&self, rec: &Recorder, ln: usize, cur: usize) {
        let (fr, lr) = (self.lanes[ln].flows.clone(), self.lanes[ln].links.clone());
        let (cfg, t) = (rec.config(), self.t);
        if cfg.flows {
            for i in fr.clone() {
                rec.record(&TraceEvent::FlowSample {
                    lane: ln,
                    flow: i - fr.start,
                    t,
                    rate_mbps: self.x[i].lane(0),
                    inflight_pkts: A::cwnd(&self.agents[i]) / self.cfg.mss,
                    rtt_s: self.tau[i].lane(0),
                });
            }
        }
        if cfg.links {
            for l in lr.clone() {
                rec.record(&TraceEvent::LinkSample {
                    lane: ln,
                    link: l - lr.start,
                    t,
                    queue_frac: self.rel_q[l].lane(0),
                    util_frac: self.y[l].lane(0) / self.link_spec[l].capacity,
                    loss_frac: self.p[l].lane(0),
                });
            }
        }
        if cfg.cca {
            let mut signals = Vec::new();
            for i in fr.clone() {
                signals.clear();
                let lk_loss = &self.lk_loss[self.path_range[i].clone()];
                let x_dlv = self.feedback[i].delivery_rate(&self.arena, cur);
                signals.push(("x_dlv", x_dlv.lane(0)));
                signals.push(("loss", path_loss(lk_loss, &self.arena, cur).lane(0)));
                A::telemetry(&self.agents[i], &mut signals);
                for &(signal, value) in signals.iter().filter(|(_, v)| v.is_finite()) {
                    rec.record(&TraceEvent::CcaSignal {
                        lane: ln,
                        flow: i - fr.start,
                        t,
                        signal,
                        value,
                    });
                }
            }
        }
    }

    /// Integrate every lane to the end of its window and return each
    /// member's aggregate metrics, in spec order (padding discarded).
    /// Every lane must have a finite window ([`Self::for_specs`]).
    pub fn run(mut self) -> Vec<AggregateMetrics> {
        while !self.active.is_empty() {
            self.step_once();
        }
        self.lanes
            .iter()
            .flat_map(|lane| (0..lane.members).map(|j| lane.finalize(j)))
            .collect()
    }
}

impl LockstepSim<AnyCca> {
    /// Attach a flight recorder, replacing the one the engine took when
    /// it was built (see [`Simulator::record`]).
    fn record(&mut self, rec: Recorder) {
        self.trace_stride = rec.stride(self.cfg.dt);
        self.recorder = Some(rec);
    }
}

/// The fluid-model simulator: one open-ended `f64` lane of
/// [`LockstepSim`], built from an explicit network and its agents, and
/// stepped for as long as its caller runs it.
pub struct Simulator(LockstepSim<AnyCca>);

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
        let mut sim = LockstepSim::with_capacity(cfg, agents.len(), 1);
        sim.push_lane(vec![net], vec![agents], schedules, 1, u64::MAX);
        Ok(Self(sim))
    }

    /// Attach a flight recorder, replacing the one installed process-wide
    /// (if any) when the simulator was built. Every `rec.stride(dt)`
    /// steps it records each flow's rate, window, and RTT, each link's
    /// queue, utilization, and loss, and — with `TraceConfig::cca` —
    /// each flow's `x_dlv`, `loss`, and [`AnyCca::telemetry`] values
    /// as `CcaSignal`s. Advisory: recording never changes a result.
    pub fn record(&mut self, rec: Recorder) {
        self.0.record(rec);
    }

    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.0.t
    }

    /// Discard metrics accumulated so far (e.g. after a warm-up phase).
    pub fn reset_metrics(&mut self) {
        self.0.lanes[0].metrics.reset();
    }

    /// Immutable access to the agents (for inspecting model state).
    pub fn agents(&self) -> &[AnyCca] {
        &self.0.agents
    }

    /// Current queue length of a link (Mbit).
    pub fn queue(&self, link: usize) -> f64 {
        self.0.q[link]
    }

    /// The network being simulated.
    pub fn network(&self) -> &Network {
        &self.0.lanes[0].net
    }

    /// Advance the simulation by `duration` seconds and return the
    /// metrics over everything accumulated since construction (or the
    /// last [`Self::reset_metrics`]).
    pub fn run(&mut self, duration: f64) -> AggregateMetrics {
        for _ in 0..(duration / self.0.cfg.dt).round() as u64 {
            self.0.step_once();
        }
        self.0.lanes[0].finalize(0)
    }

    /// One integration step of the coupled system.
    pub fn step_once(&mut self) {
        self.0.step_once();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cca::{build_any, CcaKind, ScenarioHint};
    use crate::topology::QdiscKind;
    use bbr_telemetry::trace::TraceConfig;
    use bbr_telemetry::MemorySink;
    use std::sync::Arc;

    /// Attach an in-memory recorder sampling every `stride` steps.
    fn record_every(sim: &mut Simulator, stride: usize) -> Arc<MemorySink<TraceEvent>> {
        let sink = Arc::new(MemorySink::new());
        let interval = stride as f64 * sim.0.cfg.dt;
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
        let net = network_for_spec(
            &ScenarioSpec::dumbbell_with_access(100.0, 0.010, buffer_bdp, &[0.0056]).qdisc(qdisc),
        );
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
        let net = network_for_spec(&ScenarioSpec::dumbbell_with_access(
            100.0,
            0.01,
            1.0,
            &[0.005, 0.005],
        ));
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

    /// `event` with its `lane` field set to `lane`.
    fn on_lane(event: &TraceEvent, lane: usize) -> TraceEvent {
        let mut event = event.clone();
        match &mut event {
            TraceEvent::FlowSample { lane: l, .. }
            | TraceEvent::LinkSample { lane: l, .. }
            | TraceEvent::CcaPhase { lane: l, .. }
            | TraceEvent::CcaSignal { lane: l, .. } => *l = lane,
        }
        event
    }

    #[test]
    fn a_traced_wave_records_each_lane_as_its_own_simulator() {
        // Three lanes of different families, windows and churn in one
        // wave: lane k records exactly what a one-lane simulator records
        // on spec k, CCA signals included, and nothing after its window.
        let specs = [
            ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV1, CcaKind::Cubic])
                .duration(0.4),
            ScenarioSpec::parking_lot(60.0, 40.0, 0.010, 1.0)
                .ccas(vec![CcaKind::BbrV2, CcaKind::Reno])
                .qdisc(QdiscKind::Red)
                .duration(0.25),
            ScenarioSpec::dumbbell(3, 40.0, 0.010, 1.0)
                .ccas(vec![CcaKind::BbrV2])
                .flow_window(1, 0.1, 0.2)
                .duration(0.3),
        ];
        let cfg = ModelConfig::coarse();
        let trace = TraceConfig {
            interval: 0.005,
            ..TraceConfig::default()
        };
        let sink = Arc::new(MemorySink::new());
        let refs: Vec<&ScenarioSpec> = specs.iter().collect();
        let mut wave = LockstepSim::<AnyCca>::for_specs(&refs, cfg.clone());
        wave.record(Recorder::new(trace, sink.clone()));
        wave.run();
        let recorded = sink.take();
        for (k, spec) in specs.iter().enumerate() {
            let solo = Arc::new(MemorySink::new());
            let mut sim = Simulator::for_spec(spec, cfg.clone()).unwrap();
            sim.record(Recorder::new(trace, solo.clone()));
            sim.run(spec.duration);
            let want: Vec<TraceEvent> = solo.take().iter().map(|e| on_lane(e, k)).collect();
            let got: Vec<TraceEvent> = recorded
                .iter()
                .filter(|e| on_lane(e, k) == **e)
                .cloned()
                .collect();
            assert!(want.iter().any(|e| e.kind() == "signal"), "lane {k}");
            assert_eq!(got, want, "lane {k}");
        }
    }

    #[test]
    fn lookup_matches_history_at_delay() {
        // Drive a ring-buffer history and a sliding region side by side
        // through pushes and wraps; precomputed lookups must reproduce
        // `at_delay` bit for bit — including beyond-horizon clamping.
        let dt = 1e-3;
        let max_delay = 0.02;
        let cap = History::capacity_for(max_delay, dt);
        let region = 2 * cap;
        let mut hist = History::new(max_delay, dt, 3.5);
        let mut arena = vec![0.0; region];
        arena[..cap].iter_mut().for_each(|v| *v = 3.5);
        let mut cur = cap - 1;
        let delays = [0.0, dt, 0.25 * dt, 3.7 * dt, max_delay, max_delay + 5.0];
        let lks: Vec<Lookup> = delays.iter().map(|d| Lookup::new(0, cap, *d, dt)).collect();
        for step in 0..200 {
            for (d, lk) in delays.iter().zip(&lks) {
                assert_eq!(
                    lk.read(&arena, cur),
                    hist.at_delay(*d),
                    "step {step}, delay {d}"
                );
            }
            let v = (step as f64 * 0.37).sin();
            hist.push(v);
            cur += 1;
            if cur == region {
                arena.copy_within(region - cap..region, 0);
                cur = cap;
            }
            arena[cur] = v;
        }
    }
}
