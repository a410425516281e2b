//! Packet-level discrete-event network simulator.
//!
//! This crate is the *experiment* substrate of the reproduction: the
//! paper validates its fluid models against a mininet/OvS/iperf testbed,
//! which is unavailable here; instead, every "Experiment" column of the
//! paper's figures is regenerated with this simulator. It models
//! individual 1500-byte packets through queued links with drop-tail or
//! RED disciplines, ACK clocking, SACK-style loss detection with fast
//! retransmit and RTO, pacing, and packet-level implementations of Reno,
//! CUBIC, BBRv1, and BBRv2 written from the paper's §3.1 behavioural
//! description and the cited BBR material. Scenarios are expressed as
//! general multi-link [`path::PathNetwork`]s — dumbbells and parking
//! lots are degenerate paths, ≥3-hop chains genuine ones — with
//! per-flow start/stop activity windows (flow churn).
//!
//! Unlike the fluid model, this simulator exhibits the discrete phenomena
//! the fluid model idealizes away: EWMA-averaged RED, packet-granularity
//! jitter, noisy delivery-rate samples, and a start-up (slow-start /
//! BBR-Startup) phase.
//!
//! # Quick example
//!
//! ```
//! use bbr_packetsim::prelude::*;
//!
//! let spec = ScenarioSpec::dumbbell(1, 100.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1]);
//! let cfg = SimConfig { duration: 2.0, warmup: 0.5, seed: 1, ..Default::default() };
//! let report = run_path(&path_network_for_spec(&spec), &cfg);
//! assert!(report.utilization_percent > 70.0);
//! ```
//!
//! For backend-agnostic use (the same scenario fired at the fluid model
//! and this simulator), see [`backend::PacketBackend`] and the
//! `bbr-scenario` crate.

pub mod backend;
pub mod cca;
pub mod engine;
pub mod event;
pub mod path;
pub mod qdisc;

pub mod prelude {
    pub use crate::backend::{path_network_for_spec, PacketBackend};
    pub use crate::cca::CcaKind;
    pub use crate::engine::SimConfig;
    pub use crate::path::{run_path, PacketSimReport, PathFlowSpec, PathLinkSpec, PathNetwork};
    pub use crate::qdisc::QdiscKind;
    pub use bbr_scenario::{RunOutcome, ScenarioSpec, SimBackend};
}

/// Segment size used by all flows (bytes).
pub const MSS_BYTES: f64 = 1500.0;
