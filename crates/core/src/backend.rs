//! [`FluidBackend`] — the fluid model behind the backend-agnostic
//! [`SimBackend`] trait.
//!
//! Builds the [`Simulator`] a [`ScenarioSpec`] describes
//! ([`Simulator::for_spec`]: network, CCA agents, and per-flow activity
//! schedules), runs the method-of-steps integration, and reshapes the
//! aggregate metrics into the shared [`RunOutcome`]. The fluid model is
//! deterministic and starts from near-equilibrium initial conditions,
//! so it ignores both the seed and the warm-up window (packet-level
//! start-up phases have no fluid counterpart); churn times are measured
//! from `t = 0` of the fluid run, matching the packet backend's
//! measurement window.
//!
//! ```
//! use bbr_fluid_core::backend::FluidBackend;
//! use bbr_fluid_core::config::ModelConfig;
//! use bbr_scenario::{CcaKind, ScenarioSpec, SimBackend};
//!
//! let spec = ScenarioSpec::dumbbell(2, 100.0, 0.010, 2.0)
//!     .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
//!     .duration(1.0);
//! let outcome = FluidBackend::coarse().run(&spec, 0);
//! assert_eq!(outcome.backend, "fluid");
//! assert!(outcome.flows[0].throughput_mbps > outcome.flows[1].throughput_mbps);
//! ```

use bbr_scenario::{FlowMetrics, RunOutcome, ScenarioSpec, SimBackend};

use crate::cca::{build_any, AnyCca, ScenarioHint};
use crate::config::ModelConfig;
use crate::metrics::AggregateMetrics;
use crate::sim::Simulator;
use crate::topology::{LinkId, LinkSpec, Network, PathSpec};

/// The fluid model as a [`SimBackend`].
#[derive(Debug, Clone, Default)]
pub struct FluidBackend {
    cfg: ModelConfig,
}

impl FluidBackend {
    /// Backend with an explicit integration configuration.
    pub fn new(cfg: ModelConfig) -> Self {
        Self { cfg }
    }

    /// Backend with the coarse (fast) integration step — the usual choice
    /// for sweeps and tests.
    pub fn coarse() -> Self {
        Self::new(ModelConfig::coarse())
    }
}

impl SimBackend for FluidBackend {
    fn name(&self) -> &'static str {
        "fluid"
    }

    fn run(&self, spec: &ScenarioSpec, _seed: u64) -> RunOutcome {
        let metrics = Simulator::for_spec(spec, self.cfg.clone())
            .expect("invalid scenario spec or model configuration")
            .run(spec.duration);
        outcome_from_metrics(spec, &metrics)
    }
}

/// The [`Network`] a [`ScenarioSpec`] describes — the one translation
/// every fluid entry point builds from ([`Simulator::for_spec`] and the
/// lockstep waves of `bbr-fluidbatch`). It maps the spec's
/// [`ScenarioSpec::layout`] link for link and route for route, buffers
/// in Mbit, so the packet engine's `path_network_for_spec` sees the same
/// links, routes and delays.
pub fn network_for_spec(spec: &ScenarioSpec) -> Network {
    let layout = spec.layout();
    Network {
        links: layout
            .links
            .into_iter()
            .map(|l| LinkSpec {
                capacity: l.capacity,
                buffer: l.buffer_mbit,
                prop_delay: l.delay,
                qdisc: spec.qdisc,
            })
            .collect(),
        paths: layout
            .routes
            .into_iter()
            .map(|r| PathSpec {
                links: r.links.into_iter().map(LinkId).collect(),
                extra_fwd_delay: r.extra_fwd_delay,
                extra_bwd_delay: r.extra_bwd_delay,
            })
            .collect(),
    }
}

/// One freshly initialized CCA model per flow of `spec` over `net`: each
/// agent is initialized against the bottleneck of *its own* path
/// (capacity, competitor count, buffer), which is what makes the same
/// code serve dumbbells, the parking lot, chains, and any future
/// topology. Shared with the batched integrators.
pub fn agents_for_spec(spec: &ScenarioSpec, net: &Network, cfg: &ModelConfig) -> Vec<AnyCca> {
    (0..spec.n_flows())
        .map(|i| build_any(spec.cca_of(i), &hint_for_flow(net, i), cfg))
        .collect()
}

/// The initial-condition hint of flow `i` over `net` — the one
/// derivation behind [`agents_for_spec`], the SIMD engine's packed
/// agents, and agents built with custom initial conditions.
pub fn hint_for_flow(net: &Network, i: usize) -> ScenarioHint {
    let pos = net.bottleneck_pos(i);
    let link = &net.links[net.paths[i].links[pos].0];
    ScenarioHint {
        capacity: link.capacity,
        prop_rtt: net.prop_rtt(i),
        n_agents: net.users_of(net.paths[i].links[pos]).len(),
        buffer: link.buffer,
        agent_index: i,
    }
}

/// Reshape fluid [`AggregateMetrics`] into the backend-agnostic
/// [`RunOutcome`] (labelled `"fluid"`; shared with `bbr-fluidbatch`,
/// whose `f64` waves run the same engine and so carry the same name).
pub fn outcome_from_metrics(spec: &ScenarioSpec, m: &AggregateMetrics) -> RunOutcome {
    let flows = m
        .mean_rates
        .iter()
        .enumerate()
        .map(|(i, rate)| FlowMetrics {
            cca: spec.cca_of(i),
            throughput_mbps: *rate,
        })
        .collect();
    RunOutcome {
        backend: "fluid",
        flows,
        jain: m.jain,
        loss_percent: m.loss_percent,
        occupancy_percent: m.occupancy_percent,
        utilization_percent: m.utilization_percent,
        jitter_ms: m.jitter_ms,
        per_link_occupancy: m.per_link_occupancy.clone(),
        per_link_utilization: m.per_link_utilization.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbr_scenario::CcaKind;

    #[test]
    fn dumbbell_outcome_matches_direct_simulation() {
        let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
            .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
            .duration(1.5);
        let out = FluidBackend::coarse().run(&spec, 7);
        // Same scenario built by hand must give identical numbers — the
        // backend is a pure adapter.
        let cfg = ModelConfig::coarse();
        let net = network_for_spec(&spec);
        let agents = agents_for_spec(&spec, &net, &cfg);
        let mut sim = Simulator::new(net, cfg, agents, &[]).unwrap();
        let m = sim.run(1.5);
        assert_eq!(out.utilization_percent, m.utilization_percent);
        assert_eq!(out.jain, m.jain);
        assert_eq!(out.flows.len(), 2);
        assert_eq!(out.flows[0].cca, CcaKind::BbrV1);
        assert_eq!(out.flows[1].cca, CcaKind::Reno);
    }

    #[test]
    fn seed_is_ignored() {
        let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0)
            .ccas(vec![CcaKind::Cubic])
            .duration(1.0);
        let b = FluidBackend::coarse();
        assert_eq!(b.run(&spec, 1), b.run(&spec, 999));
    }

    #[test]
    fn parking_lot_multihop_flow_loses() {
        let spec = ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0)
            .ccas(vec![CcaKind::BbrV1])
            .duration(4.0);
        let out = FluidBackend::coarse().run(&spec, 0);
        assert_eq!(out.flows.len(), 3);
        assert_eq!(out.per_link_utilization.len(), 2);
        let t = out.throughputs();
        // The classic parking-lot outcome: the flow crossing both
        // bottlenecks gets less than either single-hop competitor.
        assert!(t[0] < t[1], "multi-hop {:.1} vs hop-1 {:.1}", t[0], t[1]);
        assert!(t[0] < t[2], "multi-hop {:.1} vs hop-2 {:.1}", t[0], t[2]);
        // Both links busy.
        assert!(out.per_link_utilization[0] > 60.0);
        assert!(out.per_link_utilization[1] > 60.0);
    }

    #[test]
    fn chain_network_shape() {
        let spec = ScenarioSpec::chain(4, 100.0, 0.010, 2.0);
        let net = network_for_spec(&spec);
        net.validate().unwrap();
        assert_eq!(net.links.len(), 4);
        assert_eq!(net.paths.len(), 5);
        // 2 Mbit buffer per hop = 2 × (100 Mbit/s × 10 ms).
        for l in &net.links {
            assert!((l.buffer - 2.0).abs() < 1e-9);
        }
        // Every flow sees the same propagation RTT: 2×5 ms access +
        // 4×10 ms of links = 50 ms.
        for i in 0..5 {
            assert!((net.prop_rtt(i) - 0.050).abs() < 1e-12, "flow {i}");
        }
        // Each hop carries exactly the end-to-end flow and its own
        // cross flow.
        for j in 0..4 {
            assert_eq!(net.users_of(LinkId(j)).len(), 2, "hop {j}");
        }
    }

    #[test]
    fn chain_end_to_end_flow_loses_to_cross_traffic() {
        let spec = ScenarioSpec::chain(3, 100.0, 0.010, 3.0)
            .ccas(vec![CcaKind::BbrV1])
            .duration(4.0);
        let out = FluidBackend::coarse().run(&spec, 0);
        assert_eq!(out.flows.len(), 4);
        assert_eq!(out.per_link_utilization.len(), 3);
        let t = out.throughputs();
        // The chain generalizes the parking-lot story: the flow crossing
        // all three bottlenecks gets less than every single-hop cross
        // flow, and every hop stays busy.
        for j in 1..4 {
            assert!(t[0] < t[j], "e2e {:.1} vs cross-{j} {:.1}", t[0], t[j]);
        }
        for (j, u) in out.per_link_utilization.iter().enumerate() {
            assert!(*u > 60.0, "hop {j} idle: {u:.1} %");
        }
    }

    #[test]
    fn parking_lot_network_shape() {
        let spec = ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0);
        let net = network_for_spec(&spec);
        net.validate().unwrap();
        assert_eq!(net.links.len(), 2);
        assert_eq!(net.paths.len(), 3);
        // 3 Mbit buffer = 3 × (100 Mbit/s × 10 ms).
        assert!((net.links[0].buffer - 3.0).abs() < 1e-9);
        // Every flow has a 30 ms propagation RTT: 5 ms access + 20 ms of
        // links + 5 ms return for flow 0, and 5 + 10 + 15 for the others.
        assert!((net.prop_rtt(0) - 0.030).abs() < 1e-12);
        assert!((net.prop_rtt(1) - 0.030).abs() < 1e-12);
        assert!((net.prop_rtt(2) - 0.030).abs() < 1e-12);
    }
}
