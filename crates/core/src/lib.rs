//! Fluid models of BBRv1, BBRv2, Reno, and CUBIC over a general network
//! model, reproducing Scherrer, Legner, Perrig, Schmid:
//! *Model-Based Insights on the Performance, Fairness, and Stability of
//! BBR* (ACM IMC 2022, arXiv:2208.10103).
//!
//! The crate implements the paper's §2 network fluid model (links with
//! capacity, buffer, and propagation delay; drop-tail and RED loss models)
//! and the §3 congestion-control fluid models, integrated with the method
//! of steps over ring-buffer histories of the delayed quantities.
//!
//! # Quick example
//!
//! ```
//! use bbr_fluid_core::prelude::*;
//!
//! // One BBRv1 flow through a 100 Mbit/s, 10 ms bottleneck with a 1-BDP
//! // drop-tail buffer (the paper's trace-validation setting, §4.2).
//! let spec = ScenarioSpec::dumbbell_with_access(100.0, 0.010, 1.0, &[0.0056])
//!     .ccas(vec![CcaKind::BbrV1]);
//! let mut sim = Simulator::for_spec(&spec, ModelConfig::default()).unwrap();
//! let metrics = sim.run(2.0);
//! assert!(metrics.utilization_percent > 80.0);
//! ```
//!
//! Units throughout: rates in Mbit/s, data volumes in Mbit, times in
//! seconds. One MSS-sized segment is 1500 B = 0.012 Mbit.

pub mod backend;
pub mod cca;
pub mod config;
pub mod history;
pub mod lanes;
pub mod math;
pub mod metrics;
pub mod queue;
pub mod sim;
pub mod topology;

/// Convenient re-exports of the items needed by typical simulations.
pub mod prelude {
    pub use crate::backend::FluidBackend;
    pub use crate::cca::{CcaKind, FluidCca, ScenarioHint};
    pub use crate::config::ModelConfig;
    pub use crate::metrics::{jain_fairness, AggregateMetrics};
    pub use crate::sim::Simulator;
    pub use crate::topology::{LinkId, LinkSpec, Network, PathSpec, QdiscKind};
    pub use crate::MSS_MBIT;
    pub use bbr_scenario::{FlowMetrics, RunOutcome, ScenarioSpec, SimBackend, Topology};
}

/// One maximum-segment-size packet (1500 bytes) expressed in Mbit.
pub const MSS_MBIT: f64 = 1500.0 * 8.0 / 1_000_000.0;
