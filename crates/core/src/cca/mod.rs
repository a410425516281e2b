//! Congestion-control fluid models (paper §3 and Appendix B).
//!
//! Each model is a state machine advanced once per integration step with
//! the delayed network feedback assembled by the simulator. The sending
//! rate `x_i(t)` is a pure function of the current state and the current
//! path RTT.

mod bbr_common;
pub mod bbrv1;
pub mod bbrv2;
pub mod cubic;
pub mod reno;
pub mod startup;

pub use bbr_common::ProbeRtt;
pub use bbrv1::BbrV1;
pub use bbrv2::{BbrV2, WhiInit};
pub use cubic::Cubic;
pub use reno::Reno;
pub use startup::{StartupPhase, StartupState};

use crate::config::ModelConfig;

// The CCA tag is shared with the packet simulator through the
// backend-agnostic scenario layer; only the fluid state machines live
// here.
pub use bbr_scenario::CcaKind;

/// Static facts about the scenario a flow is placed in, used to choose
/// initial conditions (the paper notes that fluid models "have to be
/// evaluated under a variety of initial conditions", Insight 9).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioHint {
    /// Bottleneck capacity on this agent's path (Mbit/s).
    pub capacity: f64,
    /// Propagation RTT of this agent's path (s).
    pub prop_rtt: f64,
    /// Number of agents sharing the bottleneck.
    pub n_agents: usize,
    /// Bottleneck buffer size (Mbit).
    pub buffer: f64,
    /// This agent's index (used for deterministic desynchronization,
    /// Eqs. (22)/(24)).
    pub agent_index: usize,
}

impl ScenarioHint {
    /// Path bandwidth-delay product (Mbit).
    pub fn bdp(&self) -> f64 {
        self.capacity * self.prop_rtt
    }

    /// Fair share of the bottleneck (Mbit/s).
    pub fn fair_share(&self) -> f64 {
        self.capacity / self.n_agents.max(1) as f64
    }
}

/// Per-step network feedback handed to a CCA model. `V` is the
/// [`Lanes`](crate::lanes::Lanes) type: `f64` for one scenario, or
/// [`F64x4`](crate::lanes::F64x4) for a pack of four that share the
/// time, the step and the propagation RTT.
#[derive(Debug, Clone, Copy)]
pub struct AgentInputs<V = f64> {
    /// Current time (s).
    pub t: f64,
    /// Integration step (s).
    pub dt: f64,
    /// Current path RTT `τ_i(t)` including queuing delay, Eq. (3).
    pub tau: V,
    /// Delayed RTT sample `τ_i(t − d^p_i)` arriving at the sender now.
    pub tau_fb: V,
    /// Delayed path loss probability `p_{π_i}(t − d^p_i)`, Eq. (7).
    pub loss_fb: V,
    /// Delivery-rate estimate per Eq. (17).
    pub x_dlv: V,
    /// The agent's own delayed sending rate `x_i(t − d^p_i)`.
    pub x_fb: V,
    /// The agent's current sending rate `x_i(t)` (as computed from the
    /// pre-step state; used for the inflight integration, Eq. (19)).
    pub x_cur: V,
    /// Propagation RTT of the path (s).
    pub prop_rtt: f64,
}

/// A congestion-control fluid model.
pub trait FluidCca: Send {
    /// The sending rate `x_i(t)` implied by the current state and the
    /// current path RTT `tau`.
    fn rate(&self, tau: f64, cfg: &ModelConfig) -> f64;

    /// Advance the internal state by one step `dt` using the delayed
    /// feedback in `inp`.
    fn step(&mut self, inp: &AgentInputs, cfg: &ModelConfig);

    /// Which algorithm this is.
    fn kind(&self) -> CcaKind;

    /// The currently effective congestion-window size in Mbit (for
    /// window-based CCAs: `w_i`; for BBR: the active inflight limit).
    fn cwnd(&self) -> f64;

    /// Model-internal variables for trace plots (name → value), e.g. the
    /// series of the paper's Fig. 2.
    fn telemetry(&self, out: &mut Vec<(&'static str, f64)>);
}

/// A fluid model of any kind — the one agent representation every fluid
/// engine steps. The enum match is statically dispatched, so the model
/// arithmetic inlines into the step loops (the batched integrator steps
/// tens of millions of agents per sweep). [`build_any`] builds one with
/// default initial conditions; agents with custom initial conditions
/// wrap the concrete model (e.g. `AnyCca::BbrV2(BbrV2::with_whi_init(..))`).
#[derive(Debug, Clone)]
pub enum AnyCca {
    Reno(Reno),
    Cubic(Cubic),
    BbrV1(BbrV1),
    BbrV2(BbrV2),
}

/// Construct a concrete fluid model of the given kind (see [`AnyCca`]).
pub fn build_any(kind: CcaKind, hint: &ScenarioHint, cfg: &ModelConfig) -> AnyCca {
    match kind {
        CcaKind::Reno => AnyCca::Reno(Reno::new(hint, cfg)),
        CcaKind::Cubic => AnyCca::Cubic(Cubic::new(hint, cfg)),
        CcaKind::BbrV1 => AnyCca::BbrV1(BbrV1::new(hint, cfg)),
        CcaKind::BbrV2 => AnyCca::BbrV2(BbrV2::new(hint, cfg)),
        // The fluid abstraction has a single BBRv2 model (§3.1); the
        // deploy tier only diverges on the packet backend, which is
        // exactly what the `figures drift` audit quantifies. Outcomes
        // still report `BbrV2Deploy` because `FlowMetrics.cca` comes
        // from the spec, not from the model.
        CcaKind::BbrV2Deploy => AnyCca::BbrV2(BbrV2::new(hint, cfg)),
    }
}

impl AnyCca {
    /// Statically dispatched [`FluidCca::rate`].
    #[inline(always)]
    pub fn rate(&self, tau: f64, cfg: &ModelConfig) -> f64 {
        match self {
            AnyCca::Reno(a) => a.rate(tau, cfg),
            AnyCca::Cubic(a) => a.rate(tau, cfg),
            AnyCca::BbrV1(a) => a.rate(tau, cfg),
            AnyCca::BbrV2(a) => a.rate(tau, cfg),
        }
    }

    /// Statically dispatched [`FluidCca::step`].
    #[inline(always)]
    pub fn step(&mut self, inp: &AgentInputs, cfg: &ModelConfig) {
        match self {
            AnyCca::Reno(a) => a.step(inp, cfg),
            AnyCca::Cubic(a) => a.step(inp, cfg),
            AnyCca::BbrV1(a) => a.step(inp, cfg),
            AnyCca::BbrV2(a) => a.step(inp, cfg),
        }
    }

    /// Statically dispatched [`FluidCca::cwnd`].
    #[inline(always)]
    pub fn cwnd(&self) -> f64 {
        match self {
            AnyCca::Reno(a) => a.cwnd(),
            AnyCca::Cubic(a) => a.cwnd(),
            AnyCca::BbrV1(a) => a.cwnd(),
            AnyCca::BbrV2(a) => a.cwnd(),
        }
    }

    /// Statically dispatched [`FluidCca::kind`].
    pub fn kind(&self) -> CcaKind {
        match self {
            AnyCca::Reno(a) => a.kind(),
            AnyCca::Cubic(a) => a.kind(),
            AnyCca::BbrV1(a) => a.kind(),
            AnyCca::BbrV2(a) => a.kind(),
        }
    }

    /// Statically dispatched [`FluidCca::telemetry`].
    pub fn telemetry(&self, out: &mut Vec<(&'static str, f64)>) {
        match self {
            AnyCca::Reno(a) => a.telemetry(out),
            AnyCca::Cubic(a) => a.telemetry(out),
            AnyCca::BbrV1(a) => a.telemetry(out),
            AnyCca::BbrV2(a) => a.telemetry(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_names_and_sensitivity() {
        assert_eq!(CcaKind::Reno.name(), "RENO");
        assert!(CcaKind::Reno.loss_sensitive());
        assert!(CcaKind::Cubic.loss_sensitive());
        assert!(CcaKind::BbrV2.loss_sensitive());
        assert!(!CcaKind::BbrV1.loss_sensitive());
    }

    #[test]
    fn hint_derivations() {
        let h = ScenarioHint {
            capacity: 100.0,
            prop_rtt: 0.04,
            n_agents: 10,
            buffer: 4.0,
            agent_index: 3,
        };
        assert!((h.bdp() - 4.0).abs() < 1e-12);
        assert!((h.fair_share() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn build_all_kinds() {
        let h = ScenarioHint {
            capacity: 100.0,
            prop_rtt: 0.04,
            n_agents: 2,
            buffer: 4.0,
            agent_index: 0,
        };
        let cfg = ModelConfig::default();
        for kind in [
            CcaKind::Reno,
            CcaKind::Cubic,
            CcaKind::BbrV1,
            CcaKind::BbrV2,
        ] {
            let m = build_any(kind, &h, &cfg);
            assert_eq!(m.kind(), kind);
            assert!(m.rate(0.04, &cfg) > 0.0, "{kind} must start sending");
        }
        // The deploy tier shares the fluid BBRv2 model (one fluid
        // abstraction, two packet fidelity tiers).
        let m = build_any(CcaKind::BbrV2Deploy, &h, &cfg);
        assert_eq!(m.kind(), CcaKind::BbrV2);
        assert!(m.rate(0.04, &cfg) > 0.0);
    }
}
