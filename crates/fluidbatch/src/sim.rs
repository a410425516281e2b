//! The structure-of-arrays lockstep integrator behind
//! [`BatchedFluidBackend`](crate::BatchedFluidBackend).
//!
//! [`BatchedFluidSim`] packs N scenarios ("lanes") into flat per-flow and
//! per-link arrays and advances every lane by one shared time step per
//! iteration of the outer loop. Heterogeneous lanes (different flow
//! counts, topologies, durations) batch together; lanes whose
//! integration window is over are masked out and the rest keep stepping.
//!
//! # Bit-identity to the scalar `Simulator`
//!
//! Every per-lane number this integrator produces is the result of the
//! *same floating-point expressions, in the same order*, as
//! `bbr_fluid_core::sim::Simulator` — batching only re-organizes state
//! and dispatch, never arithmetic:
//!
//! * networks, agents, metric parameters, and retention capacities come
//!   from the same shared constructors (`network_for_spec`,
//!   `hint_for_flow` + `build_any`, `observed_link`, `jitter_interval`,
//!   `History::capacity_for`);
//! * the ring-buffer histories become sliding windows in one arena, an
//!   equivalent layout holding exactly the same retained samples;
//! * every delayed lookup in the hot loop uses a *constant* delay, so
//!   the `delay/dt → (whole steps, fraction)` decomposition that
//!   `History::at_delay` recomputes every step is resolved once at
//!   construction (the private `Lookup` type) — the interpolation
//!   arithmetic on the two retained samples is unchanged.
//!
//! This is also where the batch speedup comes from on a single core:
//! the scalar stepper spends most of its time on per-lookup index math
//! (division, floor, two modulo reductions per sample) and on virtual
//! `rate`/`step` calls whose model arithmetic the compiler cannot
//! inline. The lookups collapse to precomputed offsets; the agents are
//! stored as the statically dispatched `AnyCca`, so the CCA math
//! inlines into the batch loop.

use bbr_fluid_core::backend::{hint_for_flow, network_for_spec};
use bbr_fluid_core::cca::{build_any, AgentInputs, AnyCca};
use bbr_fluid_core::config::ModelConfig;
use bbr_fluid_core::history::History;
use bbr_fluid_core::metrics::{AggregateMetrics, MetricsAccumulator};
use bbr_fluid_core::queue::{loss_probability, service_rate, step_queue};
use bbr_fluid_core::sim::{jitter_interval, observed_link, ActivitySchedule};
use bbr_fluid_core::topology::{LinkId, LinkSpec};
use bbr_scenario::ScenarioSpec;
use bbr_trace::{Recorder, TraceEvent};

/// One precomputed delayed lookup: which history region to read and how
/// far back, resolved once from a constant delay.
///
/// Mirrors `History::at_delay` exactly: `steps = delay / dt`,
/// `back_a = ⌊steps⌋`, `frac` the fractional remainder, with lookups at
/// or beyond the retention horizon clamped to the oldest sample (in
/// which case the interpolation is skipped, as the ring buffer skips
/// it, so even a `-0.0` sample round-trips bit-exactly).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lookup {
    /// Arena offset of the history region this lookup reads.
    pub(crate) off: u32,
    /// Whole steps back for the two interpolation endpoints.
    pub(crate) back_a: u32,
    pub(crate) back_b: u32,
    /// Interpolation fraction between the endpoints.
    pub(crate) frac: f64,
    /// Delay at/beyond the retention horizon: return the oldest sample.
    pub(crate) clamped: bool,
}

impl Lookup {
    /// Resolve `delay` against a history of `cap` retained samples,
    /// replicating the `at_delay` decomposition bit for bit.
    pub(crate) fn new(off: usize, cap: usize, delay: f64, dt: f64) -> Self {
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
    #[inline]
    pub(crate) fn read(&self, arena: &[f64], cur: usize) -> f64 {
        let base = self.off as usize + cur;
        debug_assert!(base - self.back_b as usize >= self.off as usize);
        debug_assert!(base < arena.len());
        let a = unsafe { *arena.get_unchecked(base - self.back_a as usize) };
        if self.clamped {
            a
        } else {
            let b = unsafe { *arena.get_unchecked(base - self.back_b as usize) };
            a * (1.0 - self.frac) + b * self.frac
        }
    }
}

/// The per-flow delayed-feedback program of the agent-step stage, packed
/// contiguously so stage 6 walks one array instead of six.
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
    /// Activity schedule as step bounds (flow churn): the flow sends and
    /// its agent steps only while some window contains the current step.
    /// The always-active single window — the churn-free default — is the
    /// historical two-comparison path. Resolved by the same
    /// `ActivitySchedule::from_windows` decomposition as the scalar
    /// `Simulator`, which is part of the bit-identity contract.
    activity: ActivitySchedule,
}

/// Per-lane bookkeeping: where the lane's flows/links live in the flat
/// arrays, its history geometry, and its private metrics stream.
struct Lane {
    /// Flat flow index range.
    flows: std::ops::Range<usize>,
    /// Flat link index range.
    links: std::ops::Range<usize>,
    /// Integration steps this lane runs (`(duration / dt).round()`).
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
    metrics: MetricsAccumulator,
    /// Link capacities, for metric finalization.
    caps: Vec<f64>,
}

/// A batch of fluid scenarios advanced in lockstep. See the module docs
/// for the layout and the bit-identity argument.
pub struct BatchedFluidSim {
    cfg: ModelConfig,
    lanes: Vec<Lane>,
    /// Lanes still integrating, in lane order (the termination mask).
    active: Vec<usize>,
    /// Steps taken so far — identical for every active lane, since all
    /// lanes start together and step in lockstep.
    step_count: u64,
    /// The next `step_count` at which some lane's window ends (u64::MAX
    /// once every deadline has passed): the termination mask only needs
    /// re-evaluating at deadlines.
    next_deadline: u64,
    t: f64,
    /// Flight recorder installed when the batch was built, and its
    /// sample grid in steps.
    recorder: Option<Recorder>,
    trace_stride: u64,

    // ---- flat per-flow state (lane-contiguous) ----
    agents: Vec<AnyCca>,
    feedback: Vec<FlowFeedback>,
    /// Per-flow range into `path_links` / `lk_loss`.
    path_range: Vec<std::ops::Range<usize>>,
    /// Flat link indices of each flow's path, in path order.
    path_links: Vec<u32>,
    /// Delayed loss-probability lookups, aligned with `path_links`.
    lk_loss: Vec<Lookup>,
    /// Scratch: current sending rate / RTT per flow.
    x: Vec<f64>,
    tau: Vec<f64>,

    // ---- flat per-link state (lane-contiguous) ----
    link_spec: Vec<LinkSpec>,
    /// Queue length per link (Mbit).
    q: Vec<f64>,
    /// Per-link range into `lk_user`.
    user_range: Vec<std::ops::Range<usize>>,
    /// Delayed sending-rate lookups of each link's users, in user order.
    lk_user: Vec<Lookup>,
    /// History region offsets for the per-step pushes.
    p_off: Vec<u32>,
    q_off: Vec<u32>,
    y_off: Vec<u32>,
    /// Scratch: arrival rate, loss probability, relative queue, service.
    y: Vec<f64>,
    p: Vec<f64>,
    rel_q: Vec<f64>,
    service: Vec<f64>,

    /// One arena holding every history region of every lane.
    arena: Vec<f64>,
}

impl BatchedFluidSim {
    /// Pack `specs` into one lockstep batch. Every spec must already be
    /// validated (the backend validates before building).
    pub fn new(specs: &[&ScenarioSpec], cfg: ModelConfig) -> Self {
        // Capacity hints so building a wave does not realloc-churn: the
        // per-flow totals are exact, the per-link and path-flattened
        // ones are dumbbell-shaped floors (multi-hop lanes may still
        // grow once). Matters when the backend fans many small waves
        // out per sweep — construction is on the hot path there.
        let flows: usize = specs.iter().map(|s| s.n_flows()).sum();
        let links = flows + 2 * specs.len();
        let recorder = bbr_trace::installed();
        let trace_stride = recorder.as_ref().map_or(1, |rec| rec.stride(cfg.dt));
        let mut sim = Self {
            cfg,
            lanes: Vec::with_capacity(specs.len()),
            active: (0..specs.len()).collect(),
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
        };
        for spec in specs {
            sim.push_lane(spec);
        }
        // Degenerate windows round to zero steps; such lanes finalize
        // empty, exactly as a scalar `run` of the same duration would.
        let lanes = &sim.lanes;
        sim.active.retain(|&ln| lanes[ln].steps_total > 0);
        sim.next_deadline = sim
            .active
            .iter()
            .map(|&ln| lanes[ln].steps_total)
            .min()
            .unwrap_or(u64::MAX);
        sim
    }

    /// Append one lane: translate the spec exactly as the scalar backend
    /// does, lay its histories into the arena, and resolve every delayed
    /// lookup of its step loop.
    fn push_lane(&mut self, spec: &ScenarioSpec) {
        let cfg = self.cfg.clone();
        let dt = cfg.dt;
        let net = network_for_spec(spec);
        net.validate().expect("validated spec must build");
        // Unboxed agents: same construction site as the scalar backend's
        // `agents_for_spec` (`build` and `build_any` share it), stored
        // as the statically dispatched `AnyCca` so the per-step model
        // arithmetic inlines into the batch loop.
        let mut agents: Vec<AnyCca> = (0..net.n_agents())
            .map(|i| build_any(spec.cca_of(i), &hint_for_flow(&net, i), &cfg))
            .collect();
        let n = net.n_agents();
        let m = net.links.len();
        let flow0 = self.agents.len();
        let link0 = self.link_spec.len();

        let prop_rtt: Vec<f64> = (0..n).map(|i| net.prop_rtt(i)).collect();
        let max_rtt = prop_rtt.iter().cloned().fold(0.0, f64::max);
        let cap = History::capacity_for(max_rtt, dt);
        // Slack before a region slides back; one region's worth keeps the
        // amortized copy under one sample per push.
        let region = 2 * cap;

        // Per-flow activity schedules, resolved exactly as the scalar
        // `Simulator::with_flow_schedules` resolves them.
        let activity: Vec<ActivitySchedule> = (0..n)
            .map(|i| ActivitySchedule::from_windows(&spec.windows_of(i), dt))
            .collect();

        // Initial conditions, exactly as `Simulator::with_activity`:
        // agents send at their initial rate (zero for flows that have
        // not started yet), queues are empty, RTTs equal the
        // propagation delay.
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
        let users: Vec<Vec<(usize, usize)>> = (0..m).map(|l| net.users_of(LinkId(l))).collect();
        let y0: Vec<f64> = (0..m)
            .map(|l| users[l].iter().map(|(i, _)| x0[*i]).sum())
            .collect();

        // Histories: per flow x then tau, per link p, q, y — prefilled
        // with the same initial signal values as the ring buffers.
        let mut hist_offs = Vec::with_capacity(2 * n + 3 * m);
        let mut alloc = |initial: f64, arena: &mut Vec<f64>| -> usize {
            let off = arena.len();
            arena.extend(std::iter::repeat_n(initial, cap));
            arena.extend(std::iter::repeat_n(0.0, region - cap));
            hist_offs.push(off as u32);
            off
        };
        let x_offs: Vec<usize> = (0..n).map(|i| alloc(x0[i], &mut self.arena)).collect();
        let tau_offs: Vec<usize> = (0..n)
            .map(|i| alloc(prop_rtt[i], &mut self.arena))
            .collect();
        let p_offs: Vec<usize> = (0..m).map(|_| alloc(0.0, &mut self.arena)).collect();
        let q_offs: Vec<usize> = (0..m).map(|_| alloc(0.0, &mut self.arena)).collect();
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
            self.q.push(0.0);
            let start = self.lk_user.len();
            for &(i, pos) in &users[l] {
                let delay = net.fwd_delay(i, pos);
                self.lk_user.push(Lookup::new(x_offs[i], cap, delay, dt));
            }
            self.user_range.push(start..self.lk_user.len());
            self.p_off.push(p_offs[l] as u32);
            self.q_off.push(q_offs[l] as u32);
            self.y_off.push(y_offs[l] as u32);
            self.y.push(0.0);
            self.p.push(0.0);
            self.rel_q.push(0.0);
            self.service.push(0.0);
        }

        // Per-flow flats: feedback lookups, path structure, scratch.
        for i in 0..n {
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
                activity: activity[i].clone(),
            });
            let start = self.lk_loss.len();
            for (pos, link_id) in net.paths[i].links.iter().enumerate() {
                let l = link_id.0;
                self.path_links.push((link0 + l) as u32);
                self.lk_loss
                    .push(Lookup::new(p_offs[l], cap, net.bwd_delay(i, pos), dt));
            }
            self.path_range.push(start..self.lk_loss.len());
            self.x.push(0.0);
            self.tau.push(0.0);
        }
        self.agents.append(&mut agents);

        let observed = observed_link(&net);
        let caps: Vec<f64> = net.links.iter().map(|l| l.capacity).collect();
        self.lanes.push(Lane {
            flows: flow0..flow0 + n,
            links: link0..link0 + m,
            steps_total: (spec.duration / dt).round() as u64,
            cap,
            region,
            cur: cap - 1,
            hist_offs,
            metrics: MetricsAccumulator::new(n, m, observed, {
                jitter_interval(&cfg, n, caps[observed])
            }),
            caps,
        });
    }

    /// Advance every still-active lane by one shared time step —
    /// stage-for-stage the scalar `Simulator::step_once`, applied to the
    /// flat ranges of each lane.
    fn step_once(&mut self) {
        let dt = self.cfg.dt;
        // Lane-local step index == the global count: every lane starts
        // at step 0 and the active set only ever shrinks. This is the
        // same value the scalar stepper's `step_count` holds, so the
        // churn masks fire on identical steps.
        let step = self.step_count;
        for &ln in &self.active {
            let lane = &mut self.lanes[ln];
            let cur = lane.cur;
            let (fr, lr) = (lane.flows.clone(), lane.links.clone());

            // 1. Link arrival rates, Eq. (1): delayed sending rates.
            for l in lr.clone() {
                let mut y = 0.0;
                for lk in &self.lk_user[self.user_range[l].clone()] {
                    y += lk.read(&self.arena, cur);
                }
                self.y[l] = y;
            }

            // 2. Loss probabilities, Eqs. (4)/(6), and service rates.
            for l in lr.clone() {
                let link = &self.link_spec[l];
                self.p[l] = loss_probability(link, self.y[l], self.q[l], &self.cfg);
                self.rel_q[l] = self.q[l] / link.buffer;
                self.service[l] = service_rate(link, self.q[l], self.y[l], self.p[l]);
            }

            // 3. Path RTTs, Eq. (3).
            for i in fr.clone() {
                let mut tau = self.feedback[i].prop_rtt;
                for &l in &self.path_links[self.path_range[i].clone()] {
                    let l = l as usize;
                    tau += self.q[l] / self.link_spec[l].capacity;
                }
                self.tau[i] = tau;
            }

            // 4. Current sending rates from pre-step CCA state (zero
            // outside a flow's activity window).
            for i in fr.clone() {
                let fb = &self.feedback[i];
                self.x[i] = if fb.activity.contains(step) {
                    self.agents[i].rate(self.tau[i], &self.cfg)
                } else {
                    0.0
                };
            }

            // 5. Metrics.
            lane.metrics.record(
                self.t,
                dt,
                &self.x[fr.clone()],
                &self.tau[fr.clone()],
                &self.y[lr.clone()],
                &self.p[lr.clone()],
                &self.rel_q[lr.clone()],
                &self.service[lr.clone()],
            );

            // 5b. Advisory flight-recorder samples on the recorder's
            // grid. Pure reads of this step's already-computed flat-array
            // state; indices are lane-local so a lane's flow and link
            // samples match the scalar stepper's for the same spec.
            if let Some(rec) = &self.recorder {
                if step.is_multiple_of(self.trace_stride) {
                    let t = self.t;
                    if rec.config().flows {
                        for i in fr.clone() {
                            rec.record(&TraceEvent::FlowSample {
                                lane: ln,
                                flow: i - fr.start,
                                t,
                                rate_mbps: self.x[i],
                                inflight_pkts: self.agents[i].cwnd() / self.cfg.mss,
                                rtt_s: self.tau[i],
                            });
                        }
                    }
                    if rec.config().links {
                        for l in lr.clone() {
                            rec.record(&TraceEvent::LinkSample {
                                lane: ln,
                                link: l - lr.start,
                                t,
                                queue_frac: self.rel_q[l],
                                util_frac: self.y[l] / self.link_spec[l].capacity,
                                loss_frac: self.p[l],
                            });
                        }
                    }
                }
            }

            // 6. Assemble delayed feedback and step the agents
            // (inactive flows' models stay frozen, as in the scalar
            // stepper).
            for i in fr.clone() {
                let fb = &self.feedback[i];
                if !fb.activity.contains(step) {
                    continue;
                }
                let tau_fb = fb.tau_fb.read(&self.arena, cur);
                let x_fb = fb.x_fb.read(&self.arena, cur);
                let mut loss_fb = 0.0;
                for lk in &self.lk_loss[self.path_range[i].clone()] {
                    loss_fb += lk.read(&self.arena, cur);
                }
                let loss_fb = loss_fb.clamp(0.0, 1.0);
                // Delivery rate, Eq. (17), measured at the bottleneck.
                let y_b = fb.y_b.read(&self.arena, cur).max(1e-9);
                let q_b = fb.q_b.read(&self.arena, cur);
                let cap = fb.bneck_cap;
                let x_num = fb.x_num.read(&self.arena, cur);
                let share = (x_num / y_b).min(1.0);
                let x_dlv = if q_b > 1e-9 || y_b > cap {
                    share * cap
                } else {
                    x_num
                };
                let inputs = AgentInputs {
                    t: self.t,
                    dt,
                    tau: self.tau[i],
                    tau_fb,
                    loss_fb,
                    x_dlv,
                    x_fb,
                    x_cur: self.x[i],
                    prop_rtt: fb.prop_rtt,
                };
                self.agents[i].step(&inputs, &self.cfg);
            }

            // 7. Push histories (values at time t): one shared cursor
            // advance per lane, sliding every region back when the slack
            // is exhausted.
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
                self.q[l] = step_queue(&self.link_spec[l], self.q[l], self.y[l], self.p[l], dt);
            }
        }

        self.t += self.cfg.dt;
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

    /// Integrate every lane to the end of its window and return the
    /// per-lane aggregate metrics, in lane order.
    pub fn run(mut self) -> Vec<AggregateMetrics> {
        while !self.active.is_empty() {
            self.step_once();
        }
        self.lanes
            .iter()
            .map(|lane| lane.metrics.finalize(&lane.caps))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbr_fluid_core::history::History;

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
