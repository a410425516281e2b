//! [`PacketBackend`] — the packet-level discrete-event simulator behind
//! the backend-agnostic [`SimBackend`] trait.
//!
//! Translates a [`ScenarioSpec`] into a [`PathNetwork`] from its
//! [`ScenarioSpec::layout`], the same links and routes the fluid model
//! builds from, applies the spec's per-flow activity windows (churn), runs
//! the engine for `warmup + duration` seconds (metrics collected after
//! the warm-up, which covers the packet-level start-up phase the fluid
//! model idealizes away), and averages `runs` seeds per evaluation as
//! the paper does for its experiment columns (§4.3). Every scenario
//! family the spec language can express is supported — `supports()`
//! no longer excludes anything.
//!
//! ```
//! use bbr_packetsim::backend::PacketBackend;
//! use bbr_scenario::{CcaKind, ScenarioSpec, SimBackend};
//!
//! let spec = ScenarioSpec::dumbbell(1, 50.0, 0.010, 1.0)
//!     .ccas(vec![CcaKind::BbrV1])
//!     .duration(1.5)
//!     .warmup(0.5);
//! let outcome = PacketBackend::new(1).run(&spec, 1);
//! assert_eq!(outcome.backend, "packet");
//! assert!(outcome.utilization_percent > 70.0);
//! ```

use bbr_scenario::{run_seed, FlowMetrics, RunOutcome, ScenarioSpec, SimBackend};

use crate::engine::SimConfig;
use crate::path::{run_path, PacketSimReport, PathFlowSpec, PathLinkSpec, PathNetwork};

/// The packet simulator as a [`SimBackend`].
#[derive(Debug, Clone)]
pub struct PacketBackend {
    /// Seeds averaged per evaluation (the paper uses 3).
    runs: usize,
    /// Segment size (bytes).
    mss: f64,
}

impl Default for PacketBackend {
    fn default() -> Self {
        Self::new(1)
    }
}

impl PacketBackend {
    /// Backend averaging `runs` seeds per evaluation.
    pub fn new(runs: usize) -> Self {
        Self {
            runs: runs.max(1),
            mss: crate::MSS_BYTES,
        }
    }

    fn config(&self, spec: &ScenarioSpec, seed: u64) -> SimConfig {
        SimConfig {
            duration: spec.warmup + spec.duration,
            warmup: spec.warmup,
            seed,
            mss: self.mss,
            // The engine takes the installed recorder, if any. Its
            // `Ev::Sample` dispatch only reads (and resets) trace-only
            // accumulators, so recording cannot perturb the outcome
            // (enforced by tests/trace_observer.rs).
            recorder: None,
        }
    }

    fn run_once(&self, spec: &ScenarioSpec, seed: u64) -> PacketSimReport {
        run_path(&path_network_for_spec(spec), &self.config(spec, seed))
    }
}

/// The [`PathNetwork`] a [`ScenarioSpec`] describes, churn included —
/// the packet-side counterpart of
/// `bbr_fluid_core::backend::network_for_spec`. Both map the spec's
/// [`ScenarioSpec::layout`], so the two simulators run the same links,
/// routes and delays: each layout link becomes an engine link (rate in
/// bytes/s, the layout's byte buffer), each route a flow with the
/// route's extra delays as its access and return delays. Flow `i` starts
/// at `i · 5 ms`, avoiding artificial phase lock. The headline is the
/// first minimum-capacity link, the fluid model's observed link. The
/// spec's activity windows are applied last (see `apply_churn`).
pub fn path_network_for_spec(spec: &ScenarioSpec) -> PathNetwork {
    let layout = spec.layout();
    let headline = layout
        .links
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.capacity
                .partial_cmp(&b.capacity)
                .expect("validated capacities are not NaN")
        })
        .map(|(id, _)| id)
        .unwrap_or(0);
    let mut net = PathNetwork {
        links: layout
            .links
            .into_iter()
            .map(|l| PathLinkSpec {
                rate: l.capacity * 1e6 / 8.0, // bytes/s
                prop_delay: l.delay,
                buffer: l.buffer_bytes,
                qdisc: spec.qdisc,
            })
            .collect(),
        flows: layout
            .routes
            .into_iter()
            .enumerate()
            .map(|(i, r)| PathFlowSpec {
                links: r.links.into_iter().map(|id| id as u32).collect(),
                access_delay: r.extra_fwd_delay,
                bwd_delay: r.extra_bwd_delay,
                cca: spec.cca_of(i),
                start: i as f64 * 0.005,
                stop: f64::INFINITY,
                gaps: Vec::new(),
            })
            .collect(),
        headline,
    };
    apply_churn(&mut net, spec);
    net
}

/// Apply the spec's per-flow activity windows to a freshly lowered path
/// network. Spec times are measured from the start of the measurement
/// window, engine times from the start of the warm-up, so both shift by
/// `spec.warmup`. Default windows are left untouched: those flows keep
/// the historical staggered starts (during warm-up) and never stop, so
/// churn-free specs simulate bit-for-bit as before.
///
/// Churned flows keep a staggered entry too — flows sharing a window
/// start (e.g. the sweep's late-start pattern) must not enter slow
/// start in lockstep, or the phase lock the default stagger exists to
/// prevent would silently return for churned cells. The stagger is
/// capped at a tenth of the window's length so that even a window
/// shorter than the flow's nominal `i·5 ms` offset stays non-empty
/// (engine start strictly before engine stop, as `PathNetwork`
/// validation requires).
///
/// Multi-interval schedules lower to the same start/stop envelope plus
/// engine-level gaps for the off-periods between consecutive windows;
/// single-window schedules produce no gaps and thus remain bit-identical
/// to the historical lowering.
fn apply_churn(net: &mut PathNetwork, spec: &ScenarioSpec) {
    for (i, flow) in net.flows.iter_mut().enumerate() {
        let windows = spec.windows_of(i);
        if let [w] = windows.as_slice() {
            if w.is_always() {
                continue;
            }
        }
        let (Some(first), Some(last)) = (windows.first(), windows.last()) else {
            // A schedule with no windows at all (e.g. a Poisson draw that
            // never activates): park the start past the engine horizon so
            // the flow exists but never transmits. `stop` stays infinite
            // to satisfy `stop > start`.
            flow.start = spec.warmup + spec.duration + 1.0;
            flow.stop = f64::INFINITY;
            flow.gaps.clear();
            continue;
        };
        // `first.stop - first.start` is +inf for open-ended windows,
        // giving the plain i·5 ms stagger; spec validation guarantees it
        // positive.
        let stagger = (i as f64 * 0.005).min(0.1 * (first.stop - first.start));
        flow.start = spec.warmup + first.start + stagger;
        if last.stop.is_finite() {
            flow.stop = spec.warmup + last.stop;
        }
        // Off-periods between consecutive windows become engine gaps.
        flow.gaps = windows
            .windows(2)
            .map(|p| (spec.warmup + p[0].stop, spec.warmup + p[1].start))
            .collect();
    }
}

impl SimBackend for PacketBackend {
    fn name(&self) -> &'static str {
        "packet"
    }

    // `supports` keeps its permissive default: the engine runs every
    // topology family the spec language can express, with churn.

    fn run(&self, spec: &ScenarioSpec, seed: u64) -> RunOutcome {
        spec.validate().expect("invalid scenario spec");
        let outcomes: Vec<RunOutcome> = (0..self.runs)
            .map(|r| {
                let report = self.run_once(spec, run_seed(seed, r as u32));
                outcome(&report)
            })
            .collect();
        RunOutcome::average(&outcomes).expect("runs >= 1 guarantees an outcome")
    }
}

fn outcome(r: &PacketSimReport) -> RunOutcome {
    let flows = r
        .flows
        .iter()
        .map(|f| FlowMetrics {
            cca: f.kind,
            throughput_mbps: f.throughput_mbps,
        })
        .collect();
    RunOutcome {
        backend: "packet",
        flows,
        jain: r.jain,
        loss_percent: r.loss_percent,
        occupancy_percent: r.occupancy_percent,
        utilization_percent: r.utilization_percent,
        jitter_ms: r.jitter_ms,
        per_link_occupancy: r.per_link_occupancy.clone(),
        per_link_utilization: r.per_link_utilization.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbr_scenario::{CcaKind, FlowSchedule, FlowWindow};

    #[test]
    fn dumbbell_outcome_matches_direct_simulation() {
        let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
            .ccas(vec![CcaKind::Reno])
            .duration(1.5)
            .warmup(0.5);
        let out = PacketBackend::new(1).run(&spec, 42);
        let direct = run_path(
            &path_network_for_spec(&spec),
            &SimConfig {
                duration: 2.0,
                warmup: 0.5,
                seed: 42,
                ..Default::default()
            },
        );
        assert_eq!(out.utilization_percent, direct.utilization_percent);
        assert_eq!(out.jain, direct.jain);
        assert_eq!(out.flows.len(), 2);
    }

    #[test]
    fn churned_spec_through_run_path_matches_the_backend() {
        // The lowering carries the spec's churn, so driving the engine
        // directly with the backend's seed and window reproduces the
        // backend's outcome bit for bit.
        let spec = ScenarioSpec::dumbbell(3, 20.0, 0.010, 2.0)
            .ccas(vec![CcaKind::Reno, CcaKind::BbrV2])
            .duration(1.5)
            .warmup(0.25)
            .flow_window(1, 0.3, 1.0)
            .flow_schedule(
                2,
                FlowSchedule::new(vec![
                    FlowWindow::new(0.1, 0.5),
                    FlowWindow::starting_at(0.8),
                ]),
            );
        let seed = 11;
        let cfg = SimConfig {
            duration: spec.warmup + spec.duration,
            warmup: spec.warmup,
            seed: run_seed(seed, 0),
            ..Default::default()
        };
        let direct = run_path(&path_network_for_spec(&spec), &cfg);
        assert_eq!(outcome(&direct), PacketBackend::new(1).run(&spec, seed));
    }

    #[test]
    fn seed_reaches_the_engine() {
        let spec = ScenarioSpec::dumbbell(2, 20.0, 0.010, 1.0)
            .ccas(vec![CcaKind::BbrV1])
            .duration(1.0)
            .warmup(0.25);
        let b = PacketBackend::new(1);
        let a = b.run(&spec, 1);
        assert_eq!(a, b.run(&spec, 1), "same seed must reproduce");
        assert_ne!(a, b.run(&spec, 2), "seed must change the outcome");
    }

    #[test]
    fn parking_lot_multihop_flow_loses() {
        let spec = ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0)
            .ccas(vec![CcaKind::BbrV2])
            .duration(4.0)
            .warmup(2.0);
        let out = PacketBackend::new(1).run(&spec, 3);
        assert_eq!(out.flows.len(), 3);
        assert_eq!(out.per_link_utilization.len(), 2);
        let t = out.throughputs();
        assert!(t[0] < t[1], "multi-hop {:.1} vs hop-1 {:.1}", t[0], t[1]);
        assert!(t[0] < t[2], "multi-hop {:.1} vs hop-2 {:.1}", t[0], t[2]);
    }

    #[test]
    fn every_topology_family_is_supported() {
        // The regression the path-network refactor closes: chains used
        // to be fluid-only; `supports()` no longer excludes anything.
        let b = PacketBackend::new(1);
        assert!(b.supports(&ScenarioSpec::chain(3, 50.0, 0.010, 2.0)));
        assert!(b.supports(&ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0)));
        assert!(b.supports(&ScenarioSpec::parking_lot(50.0, 40.0, 0.010, 1.0)));
    }

    #[test]
    fn chain_runs_on_the_packet_backend() {
        let spec = ScenarioSpec::chain(3, 30.0, 0.010, 2.0)
            .ccas(vec![CcaKind::Cubic])
            .duration(3.0)
            .warmup(1.0);
        let out = PacketBackend::new(1).run(&spec, 5);
        assert_eq!(out.flows.len(), 4); // end-to-end + 3 cross flows
        assert_eq!(out.per_link_utilization.len(), 3);
        for (j, u) in out.per_link_utilization.iter().enumerate() {
            assert!(*u > 50.0, "hop {j} idle: {u:.1} %");
        }
        // The end-to-end flow loses against every single-hop cross flow.
        let t = out.throughputs();
        for j in 1..4 {
            assert!(t[0] < t[j], "e2e {:.1} vs cross-{j} {:.1}", t[0], t[j]);
        }
        // And try_run serves it like any other supported family.
        assert_eq!(
            PacketBackend::new(1).try_run(&spec, 5).unwrap(),
            out,
            "try_run must pass chains straight through"
        );
    }

    #[test]
    fn chain_path_network_mirrors_the_fluid_chain() {
        let spec = ScenarioSpec::chain(4, 100.0, 0.010, 2.0);
        let net = path_network_for_spec(&spec);
        net.validate().unwrap();
        assert_eq!(net.links.len(), 4);
        assert_eq!(net.flows.len(), 5);
        // Every flow's propagation RTT is 2·access + hops·link_delay.
        for (i, f) in net.flows.iter().enumerate() {
            let link_prop: f64 = f
                .links
                .iter()
                .map(|&l| net.links[l as usize].prop_delay)
                .sum();
            let rtt = f.access_delay + link_prop + f.bwd_delay;
            assert!((rtt - 0.050).abs() < 1e-12, "flow {i}: RTT {rtt}");
        }
        // Each hop carries the end-to-end flow plus its own cross flow.
        for j in 0..4u32 {
            let users = net.flows.iter().filter(|f| f.links.contains(&j)).count();
            assert_eq!(users, 2, "hop {j}");
        }
        // 2 BDP buffer per hop = 2 × (100e6/8 B/s × 10 ms) = 250 kB.
        for l in &net.links {
            assert!((l.buffer - 250_000.0).abs() < 1.0);
        }
    }

    #[test]
    fn invalid_specs_stay_typed_errors_through_try_run() {
        let b = PacketBackend::new(1);
        let bad = ScenarioSpec::dumbbell(0, 50.0, 0.010, 1.0);
        assert!(matches!(
            b.try_run(&bad, 0),
            Err(bbr_scenario::RunError::InvalidSpec(_))
        ));
        // Supported specs pass through to `run` unchanged.
        let ok = ScenarioSpec::dumbbell(2, 20.0, 0.010, 1.0)
            .duration(0.5)
            .warmup(0.1);
        assert_eq!(b.try_run(&ok, 5).unwrap(), b.run(&ok, 5));
    }

    #[test]
    fn churn_windows_move_packet_flow_activity() {
        // Flow 1 only exists in the middle half of the window; its
        // throughput must drop accordingly, and the spec hash must move
        // (distinct store keys for distinct churn).
        let base = ScenarioSpec::dumbbell(2, 20.0, 0.010, 2.0)
            .ccas(vec![CcaKind::Reno])
            .duration(4.0)
            .warmup(0.5);
        let churned = base.clone().flow_window(1, 1.0, 3.0);
        assert_ne!(base.stable_hash(), churned.stable_hash());
        let b = PacketBackend::new(1);
        let full = b.run(&base, 9);
        let part = b.run(&churned, 9);
        let (f, p) = (full.flows[1].throughput_mbps, part.flows[1].throughput_mbps);
        assert!(
            p < 0.75 * f,
            "flow active 2 s of 4 s must deliver well under full: {p:.2} vs {f:.2}"
        );
        // Flow 0 picks up the freed capacity.
        assert!(part.flows[0].throughput_mbps > full.flows[0].throughput_mbps);
    }

    #[test]
    fn tiny_window_on_a_staggered_flow_is_defined_not_a_panic() {
        // Regression: flow 2's historical staggered start is 10 ms of
        // engine time; a valid window closing before that (warmup 0,
        // stop 8 ms) used to produce an inverted start/stop pair and
        // panic inside run_path. The stagger must shrink with the
        // window instead.
        let spec = ScenarioSpec::dumbbell(3, 20.0, 0.010, 2.0)
            .ccas(vec![CcaKind::Reno])
            .duration(1.0)
            .warmup(0.0)
            .flow_window(2, 0.0, 0.008);
        spec.validate().unwrap();
        let out = PacketBackend::new(1)
            .try_run(&spec, 3)
            .expect("valid tiny window must simulate, not panic");
        assert!(out.flows[2].throughput_mbps < 1.0, "8 ms of activity");
        assert!(out.flows[0].throughput_mbps > 5.0);
    }

    #[test]
    fn churned_flows_sharing_a_start_stay_staggered() {
        // Flows given the same window start must not enter the engine
        // at the same instant (phase lock); the per-flow stagger
        // applies to churned starts too.
        let spec = ScenarioSpec::dumbbell(4, 20.0, 0.010, 2.0)
            .duration(2.0)
            .warmup(0.5)
            .flow_window(1, 0.5, f64::INFINITY)
            .flow_window(2, 0.5, f64::INFINITY)
            .flow_window(3, 0.5, f64::INFINITY);
        let net = path_network_for_spec(&spec);
        let starts: Vec<f64> = net.flows.iter().map(|f| f.start).collect();
        for pair in starts.windows(2) {
            assert!(
                (pair[0] - pair[1]).abs() > 1e-9,
                "adjacent flows start in lockstep: {starts:?}"
            );
        }
        // And the stagger stays inside each flow's window.
        net.validate().unwrap();
    }

    #[test]
    fn flow_starting_after_the_deadline_delivers_nothing() {
        let spec = ScenarioSpec::dumbbell(2, 20.0, 0.010, 2.0)
            .ccas(vec![CcaKind::Reno])
            .duration(1.0)
            .warmup(0.25)
            .flow_window(1, 5.0, f64::INFINITY); // after the run ends
        let out = PacketBackend::new(1).run(&spec, 3);
        assert_eq!(out.flows[1].throughput_mbps, 0.0);
        assert!(out.flows[0].throughput_mbps > 10.0, "flow 0 unaffected");
        // No NaNs anywhere despite the dead flow.
        assert!(out.jain.is_finite() && out.jitter_ms.is_finite());
    }

    #[test]
    fn multi_run_averaging_changes_the_outcome() {
        let spec = ScenarioSpec::dumbbell(2, 20.0, 0.010, 2.0)
            .ccas(vec![CcaKind::Reno, CcaKind::BbrV2])
            .duration(1.0)
            .warmup(0.25);
        let one = PacketBackend::new(1).run(&spec, 9);
        let three = PacketBackend::new(3).run(&spec, 9);
        // Averaged outcome differs from a single seed (different seeds
        // mixed in) but stays in the same regime.
        assert_ne!(one, three);
        assert!((one.utilization_percent - three.utilization_percent).abs() < 40.0);
    }

    fn sim_config(duration: f64, warmup: f64, seed: u64) -> SimConfig {
        SimConfig {
            duration,
            warmup,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn single_bbrv1_fills_the_bottleneck() {
        let spec = ScenarioSpec::dumbbell(1, 50.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1]);
        let r = run_path(&path_network_for_spec(&spec), &sim_config(3.0, 1.0, 1));
        assert!(
            r.utilization_percent > 85.0,
            "util {}",
            r.utilization_percent
        );
        // Single-link dumbbell: headline == the only per-link entry.
        assert_eq!(r.per_link_utilization.len(), 1);
        assert_eq!(r.per_link_utilization[0], r.utilization_percent);
        assert_eq!(r.per_link_loss[0], r.loss_percent);
    }

    #[test]
    fn homogeneous_reno_is_fair() {
        let spec = ScenarioSpec::dumbbell(4, 50.0, 0.010, 2.0).ccas(vec![CcaKind::Reno]);
        let r = run_path(&path_network_for_spec(&spec), &sim_config(8.0, 2.0, 3));
        assert!(r.jain > 0.8, "jain {}", r.jain);
        assert!(r.utilization_percent > 80.0);
    }

    #[test]
    fn bbrv1_starves_reno_in_shallow_buffers() {
        // The paper's Insight 2 at packet level.
        let spec =
            ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1, CcaKind::Reno]);
        let r = run_path(&path_network_for_spec(&spec), &sim_config(10.0, 3.0, 5));
        let bbr = r.flows[0].throughput_mbps;
        let reno = r.flows[1].throughput_mbps;
        assert!(
            bbr > 2.0 * reno,
            "BBRv1 {bbr} vs Reno {reno} — expected strong dominance"
        );
    }

    #[test]
    fn buffer_bytes_matches_bdp_definition() {
        let spec = ScenarioSpec::dumbbell(2, 100.0, 0.010, 2.0).rtt_range(0.030, 0.040);
        // Link BDP = 100e6/8 · 0.010 = 125000 B; ×2.
        let net = path_network_for_spec(&spec);
        assert!((net.links[0].buffer - 250_000.0).abs() < 1.0);
    }

    /// The parking lot of the multi-bottleneck tests: 100 and 80 Mbit/s
    /// links of 10 ms with 3 BDP (375 kB) of buffer each.
    fn parking_lot(kind: CcaKind) -> ScenarioSpec {
        ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0).ccas(vec![kind])
    }

    fn tput(r: &PacketSimReport, i: usize) -> f64 {
        r.flows[i].throughput_mbps
    }

    #[test]
    fn both_links_are_shared_and_saturated() {
        let net = path_network_for_spec(&parking_lot(CcaKind::BbrV2));
        let r = run_path(&net, &sim_config(6.0, 2.0, 3));
        let (c1, c2) = (100.0, 80.0);
        // Link 1 carries flows 0 and 1; link 2 carries flows 0 and 2.
        let y1 = tput(&r, 0) + tput(&r, 1);
        let y2 = tput(&r, 0) + tput(&r, 2);
        assert!(y1 > 0.7 * c1, "link 1 carries {y1:.1}");
        assert!(y2 > 0.7 * c2, "link 2 carries {y2:.1}");
        assert!(y1 <= 1.05 * c1);
        assert!(y2 <= 1.05 * c2);
        // The headline metrics refer to the slower second link.
        assert_eq!(net.headline, 1);
        assert_eq!(r.utilization_percent, r.per_link_utilization[1]);
        assert_eq!(r.per_link_utilization.len(), 2);
    }

    #[test]
    fn multihop_flow_gets_less_than_single_hop_flows() {
        // The classic parking-lot outcome: the flow crossing both
        // bottlenecks loses against both single-hop competitors.
        let net = path_network_for_spec(&parking_lot(CcaKind::BbrV2));
        let r = run_path(&net, &sim_config(6.0, 2.0, 3));
        assert!(
            tput(&r, 0) < tput(&r, 1),
            "multi-hop {:.1} vs hop-1 {:.1}",
            tput(&r, 0),
            tput(&r, 1)
        );
        assert!(
            tput(&r, 0) < tput(&r, 2),
            "multi-hop {:.1} vs hop-2 {:.1}",
            tput(&r, 0),
            tput(&r, 2)
        );
    }

    #[test]
    fn all_flows_make_progress() {
        for kind in [CcaKind::Reno, CcaKind::BbrV1] {
            let net = path_network_for_spec(&parking_lot(kind));
            let r = run_path(&net, &sim_config(6.0, 2.0, 3));
            for i in 0..3 {
                let t = tput(&r, i);
                assert!(t > 1.0, "{kind}: flow {i} got {t:.2} Mbit/s");
            }
        }
    }
}
