//! [`PathNetwork`] — the general multi-link path description every
//! packet-level scenario is expressed in.
//!
//! A scenario is data: a list of queued links plus, per flow, the
//! ordered links its packets traverse, the pure-delay segments around
//! them, a CCA, and an activity window. [`run_path`] assembles the
//! engine from that description and collects the [`PacketSimReport`].
//! `backend::path_network_for_spec` lowers every `ScenarioSpec` to one
//! from its `ScenarioSpec::layout`, the links and routes the fluid model
//! builds from too. The dumbbell and parking lot are *degenerate paths*
//! of this model (one queued link per route, or two), byte-identical to
//! the original hand-wired runners (pinned in `tests/packet_path_pins.rs`
//! and, field by field, in `tests/lowering_pins.rs`).

use bbr_scenario::jain_index;

use crate::cca::{build, CcaKind};
use crate::engine::{Engine, Flow, Link, SimConfig};
use crate::qdisc::QdiscKind;

/// One queued, rate-limited link of a [`PathNetwork`].
#[derive(Debug, Clone)]
pub struct PathLinkSpec {
    /// Service rate (bytes/s).
    pub rate: f64,
    /// Propagation delay towards the next hop (s).
    pub prop_delay: f64,
    /// Buffer size (bytes).
    pub buffer: f64,
    /// Queuing discipline at this link.
    pub qdisc: QdiscKind,
}

/// One flow of a [`PathNetwork`]: its route, the pure-delay segments
/// around it, its CCA, and its activity window.
#[derive(Debug, Clone)]
pub struct PathFlowSpec {
    /// Ordered queued links the flow's packets traverse (indices into
    /// [`PathNetwork::links`]).
    pub links: Vec<u32>,
    /// One-way delay before the first queued link (s).
    pub access_delay: f64,
    /// Return-path delay, receiver → sender (s).
    pub bwd_delay: f64,
    /// Congestion-control algorithm of this flow.
    pub cca: CcaKind,
    /// Engine time at which the flow starts sending (s).
    pub start: f64,
    /// Engine time at which the flow stops sending new data and
    /// retransmissions (s; `f64::INFINITY` = runs to the end).
    pub stop: f64,
    /// Silent intervals `[off, on)` within `[start, stop)` for
    /// multi-interval on/off schedules (sorted, non-overlapping; empty
    /// for the classic single-window flow).
    pub gaps: Vec<(f64, f64)>,
}

/// A complete packet-level scenario as data: queued links, per-flow
/// paths with cross-traffic expressed as further flows, and the link
/// whose occupancy/utilization become the headline metrics.
#[derive(Debug, Clone)]
pub struct PathNetwork {
    /// The queued links.
    pub links: Vec<PathLinkSpec>,
    /// The flows, each an ordered walk over a subset of `links`.
    pub flows: Vec<PathFlowSpec>,
    /// Index of the headline (bottleneck) link.
    pub headline: usize,
}

impl PathNetwork {
    /// Structural sanity: at least one link and one flow, every route
    /// non-empty, in range and at most `u16::MAX` links long (a packet
    /// counts its hops in a `u16`), the headline link in range, and every
    /// flow's activity window non-empty.
    pub fn validate(&self) -> Result<(), String> {
        if self.links.is_empty() {
            return Err("path network has no links".into());
        }
        if self.flows.is_empty() {
            return Err("path network has no flows".into());
        }
        if self.headline >= self.links.len() {
            return Err(format!(
                "headline link {} out of range ({} links)",
                self.headline,
                self.links.len()
            ));
        }
        for (i, f) in self.flows.iter().enumerate() {
            if f.links.is_empty() {
                return Err(format!("flow {i} has an empty route"));
            }
            if f.links.len() > usize::from(u16::MAX) {
                return Err(format!(
                    "flow {i} routes over {} links, more than the {} a packet can count",
                    f.links.len(),
                    u16::MAX
                ));
            }
            if let Some(&l) = f.links.iter().find(|&&l| l as usize >= self.links.len()) {
                return Err(format!(
                    "flow {i} routes over link {l}, but there are only {} links",
                    self.links.len()
                ));
            }
            // NaN bounds fail the ordering check too: undefined windows
            // never reach the engine.
            let ordered = f.stop > f.start;
            if !ordered {
                return Err(format!(
                    "flow {i} stops ({}) at or before it starts ({})",
                    f.stop, f.start
                ));
            }
            let mut prev_on = f.start;
            for &(off, on) in &f.gaps {
                if !(off.is_finite() && on.is_finite() && on > off) {
                    return Err(format!("flow {i} has a degenerate gap [{off}, {on})"));
                }
                if off < prev_on {
                    return Err(format!(
                        "flow {i} gap [{off}, {on}) overlaps the previous on-interval"
                    ));
                }
                prev_on = on;
            }
        }
        Ok(())
    }
}

/// Per-flow results.
#[derive(Debug, Clone)]
pub struct FlowReport {
    pub kind: CcaKind,
    pub throughput_mbps: f64,
    pub mean_rtt: f64,
    pub jitter_ms: f64,
}

/// Aggregate results of one packet-level run (the "Experiment" column of
/// the paper's figures). The headline occupancy/utilization refer to the
/// bottleneck (minimum-capacity) link; the `per_link_*` vectors cover all
/// queued links of multi-bottleneck topologies.
#[derive(Debug, Clone)]
pub struct PacketSimReport {
    pub flows: Vec<FlowReport>,
    pub jain: f64,
    /// Lost traffic as a percentage of traffic arriving at queued links,
    /// aggregated over all links.
    pub loss_percent: f64,
    pub occupancy_percent: f64,
    pub utilization_percent: f64,
    pub jitter_ms: f64,
    pub per_link_loss: Vec<f64>,
    pub per_link_occupancy: Vec<f64>,
    pub per_link_utilization: Vec<f64>,
}

/// Run one packet-level simulation of an arbitrary [`PathNetwork`].
///
/// Per-flow CCA seeds derive from `cfg.seed` exactly as the historical
/// dumbbell/parking-lot runners derived them (`seed + i·7919`), so a
/// degenerate path network reproduces the hand-wired runners bit for
/// bit.
pub fn run_path(net: &PathNetwork, cfg: &SimConfig) -> PacketSimReport {
    net.validate().expect("invalid path network");
    let links: Vec<Link> = net
        .links
        .iter()
        .map(|l| Link::new(l.rate, l.prop_delay, l.buffer, l.qdisc))
        .collect();
    let flows: Vec<Flow> = net
        .flows
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let cca = build(f.cca, cfg.mss, cfg.seed.wrapping_add(i as u64 * 7919));
            Flow::new(
                f.links.clone(),
                f.access_delay,
                f.bwd_delay,
                f.start,
                cca,
                cfg.mss,
            )
            .stop_at(f.stop)
            .with_gaps(f.gaps.clone())
        })
        .collect();
    let mut engine = Engine::new(cfg.clone(), links, flows, net.headline);
    engine.run();
    let kinds: Vec<CcaKind> = net.flows.iter().map(|f| f.cca).collect();
    let link_stats: Vec<(f64, f64)> = net.links.iter().map(|l| (l.rate, l.buffer)).collect();
    collect_report(&engine, &kinds, &link_stats, net.headline)
}

/// Collect the per-flow and per-link statistics of a finished engine.
/// `links` holds each link's (service rate in bytes/s, buffer in bytes);
/// `headline` selects the link whose occupancy/utilization become the
/// headline numbers.
fn collect_report(
    engine: &Engine,
    kinds: &[CcaKind],
    links: &[(f64, f64)],
    headline: usize,
) -> PacketSimReport {
    let window = engine.window().max(1e-9);
    let flows: Vec<FlowReport> = kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| FlowReport {
            kind: *kind,
            throughput_mbps: engine.flow_delivered(i) * 8.0 / 1e6 / window,
            mean_rtt: engine.flow_mean_rtt(i),
            jitter_ms: engine.flow_jitter(i) * 1000.0,
        })
        .collect();
    let mut total_arrived = 0.0;
    let mut total_dropped = 0.0;
    let mut per_link_loss = Vec::with_capacity(links.len());
    let mut per_link_occupancy = Vec::with_capacity(links.len());
    let mut per_link_utilization = Vec::with_capacity(links.len());
    for (l, (rate, buffer)) in links.iter().enumerate() {
        let (arrived, dropped, delivered, occ_int) = engine.link_stats(l);
        total_arrived += arrived;
        total_dropped += dropped;
        per_link_loss.push(if arrived > 0.0 {
            100.0 * dropped / arrived
        } else {
            0.0
        });
        per_link_occupancy.push(100.0 * occ_int / (buffer * window));
        per_link_utilization.push(100.0 * delivered / (rate * window));
    }
    let tputs: Vec<f64> = flows.iter().map(|f| f.throughput_mbps).collect();
    PacketSimReport {
        jain: jain_index(&tputs),
        loss_percent: if total_arrived > 0.0 {
            100.0 * total_dropped / total_arrived
        } else {
            0.0
        },
        occupancy_percent: per_link_occupancy[headline],
        utilization_percent: per_link_utilization[headline],
        jitter_ms: flows.iter().map(|f| f.jitter_ms).sum::<f64>() / flows.len().max(1) as f64,
        per_link_loss,
        per_link_occupancy,
        per_link_utilization,
        flows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_link_net(stop: f64) -> PathNetwork {
        PathNetwork {
            links: vec![PathLinkSpec {
                rate: 20.0 * 1e6 / 8.0,
                prop_delay: 0.010,
                buffer: 50_000.0,
                qdisc: QdiscKind::DropTail,
            }],
            flows: vec![PathFlowSpec {
                links: vec![0],
                access_delay: 0.0056,
                bwd_delay: 0.0156,
                cca: CcaKind::Reno,
                start: 0.0,
                stop,
                gaps: Vec::new(),
            }],
            headline: 0,
        }
    }

    #[test]
    fn validate_catches_structural_errors() {
        let ok = one_link_net(f64::INFINITY);
        ok.validate().unwrap();
        let mut no_links = ok.clone();
        no_links.links.clear();
        assert!(no_links.validate().is_err());
        let mut bad_route = ok.clone();
        bad_route.flows[0].links = vec![3];
        assert!(bad_route.validate().is_err());
        let mut empty_route = ok.clone();
        empty_route.flows[0].links.clear();
        assert!(empty_route.validate().is_err());
        let mut endless_route = ok.clone();
        endless_route.flows[0].links = vec![0; usize::from(u16::MAX) + 1];
        let err = endless_route.validate().unwrap_err();
        assert!(err.contains("65536 links"), "{err}");
        endless_route.flows[0].links.pop();
        endless_route.validate().unwrap();
        let mut bad_headline = ok.clone();
        bad_headline.headline = 9;
        assert!(bad_headline.validate().is_err());
        let mut empty_window = ok.clone();
        empty_window.flows[0].stop = 0.0;
        assert!(empty_window.validate().is_err());
    }

    #[test]
    fn single_flow_path_fills_the_link() {
        let cfg = SimConfig {
            duration: 3.0,
            warmup: 0.5,
            seed: 1,
            ..Default::default()
        };
        let r = run_path(&one_link_net(f64::INFINITY), &cfg);
        assert!(r.utilization_percent > 70.0, "{}", r.utilization_percent);
    }

    #[test]
    fn stopping_a_flow_halves_its_delivery() {
        let cfg = SimConfig {
            duration: 4.0,
            warmup: 0.0,
            seed: 1,
            ..Default::default()
        };
        let full = run_path(&one_link_net(f64::INFINITY), &cfg);
        let half = run_path(&one_link_net(2.0), &cfg);
        let (f, h) = (full.flows[0].throughput_mbps, half.flows[0].throughput_mbps);
        assert!(
            h < 0.65 * f && h > 0.25 * f,
            "stopped at half time: {h:.2} vs {f:.2} Mbit/s"
        );
    }

    #[test]
    fn route_longer_than_256_links_reaches_its_last_link() {
        // One flow over 257 queued links: hop counts past `u8::MAX` must
        // neither overflow nor wrap back to the first link.
        let hops = 257;
        let rate = 10.0 * 1e6 / 8.0;
        let links = (0..hops)
            .map(|_| PathLinkSpec {
                rate,
                prop_delay: 0.0001,
                buffer: 30_000.0,
                qdisc: QdiscKind::DropTail,
            })
            .collect();
        let net = PathNetwork {
            links,
            flows: vec![PathFlowSpec {
                links: (0..hops as u32).collect(),
                access_delay: 0.001,
                bwd_delay: 0.001,
                cca: CcaKind::Reno,
                start: 0.0,
                stop: f64::INFINITY,
                gaps: Vec::new(),
            }],
            headline: 0,
        };
        let cfg = SimConfig {
            duration: 1.0,
            warmup: 0.25,
            seed: 1,
            ..Default::default()
        };
        let r = run_path(&net, &cfg);
        assert!(r.flows[0].throughput_mbps > 0.0, "no delivery");
        let last = r.per_link_utilization[hops - 1];
        assert!(last > 0.0, "last link idle: {last} %");
    }

    #[test]
    fn three_hop_chain_runs_and_loads_every_hop() {
        // A minimal chain as a path network: one end-to-end flow plus a
        // cross flow per hop, equal propagation RTTs all around.
        let hops = 3;
        let ld = 0.010;
        let access = 0.005;
        let rate = 30.0 * 1e6 / 8.0;
        let links: Vec<PathLinkSpec> = (0..hops)
            .map(|_| PathLinkSpec {
                rate,
                prop_delay: ld,
                buffer: 2.0 * rate * ld,
                qdisc: QdiscKind::DropTail,
            })
            .collect();
        let mut flows = vec![PathFlowSpec {
            links: (0..hops as u32).collect(),
            access_delay: access,
            bwd_delay: access,
            cca: CcaKind::Cubic,
            start: 0.0,
            stop: f64::INFINITY,
            gaps: Vec::new(),
        }];
        for j in 0..hops {
            flows.push(PathFlowSpec {
                links: vec![j as u32],
                access_delay: access + j as f64 * ld,
                bwd_delay: access + (hops - 1 - j) as f64 * ld,
                cca: CcaKind::Cubic,
                start: (j + 1) as f64 * 0.005,
                stop: f64::INFINITY,
                gaps: Vec::new(),
            });
        }
        let net = PathNetwork {
            links,
            flows,
            headline: 0,
        };
        let cfg = SimConfig {
            duration: 4.0,
            warmup: 1.0,
            seed: 3,
            ..Default::default()
        };
        let r = run_path(&net, &cfg);
        assert_eq!(r.flows.len(), 4);
        assert_eq!(r.per_link_utilization.len(), 3);
        for (j, u) in r.per_link_utilization.iter().enumerate() {
            assert!(*u > 50.0, "hop {j} idle: {u:.1} %");
        }
        // The end-to-end flow crosses three bottlenecks and loses to
        // every single-hop cross flow — the parking-lot story, longer.
        let t: Vec<f64> = r.flows.iter().map(|f| f.throughput_mbps).collect();
        for j in 1..4 {
            assert!(t[0] < t[j], "e2e {:.1} vs cross-{j} {:.1}", t[0], t[j]);
        }
    }
}
