//! Resumable sharded sweep campaigns over the backend-agnostic
//! scenario layer.
//!
//! The paper's headline results are large parameter sweeps (CCA mix ×
//! buffer × RTT × qdisc × topology). This crate is the scaling
//! substrate that lets such sweeps run across processes and across
//! *invocations*:
//!
//! * [`store`] — a content-addressed on-disk result store: every engine
//!   run is keyed by `(ScenarioSpec::stable_hash, seed, backend,
//!   run_index)` and persisted as hand-rolled JSONL (exact float
//!   round-trips, no serde). Because keys derive from scenario
//!   *contents*, a store outlives any particular grid: growing a sweep
//!   only ever computes the delta.
//! * [`plan`] — the serialized work list (specs + seeds + backend
//!   selectors) worker processes reconstruct their share from, and
//!   [`CampaignPlan::entries`], the one expansion of a plan into its
//!   store keys.
//! * [`runner`] — the multi-process executor: the host binary re-execs
//!   itself as `campaign-worker` children, each computes the uncached
//!   entries of its round-robin share of the cells into a private file,
//!   and the parent merges them into the canonical store. Re-running a
//!   finished campaign computes nothing (`computed=0`). [`run_column`]
//!   is the one rule for running a backend over a list of jobs.
//! * [`events`] — the `telemetry/v1` JSONL sidecar (`events.jsonl`):
//!   workers append shard/heartbeat/wave events through the
//!   `bbr-telemetry` hook; the sidecar is advisory and never affects
//!   store keys or resume semantics.
//! * [`tail`] — strictly read-only tailing of growing store files for
//!   live watchers: skips torn tails without repairing them (repair
//!   would race a live writer) and resumes from a byte offset.
//!
//! The sweep-grid integration (planning a campaign from a
//! `ScenarioGrid`, reassembling a `SweepReport` from a store) lives in
//! `bbr-experiments::sweep`; this crate only depends on the scenario
//! layer so that any binary — the `figures` CLI, examples, third-party
//! tools — can host campaign workers.
//!
//! ```
//! use bbr_campaign::{CellKey, ResultStore};
//! use bbr_scenario::{CcaKind, FlowMetrics, RunOutcome};
//!
//! let dir = std::env::temp_dir().join(format!("bbr-campaign-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let key = CellKey {
//!     spec_hash: 0xfeed,
//!     seed: 42,
//!     backend: "fluid".into(),
//!     run_index: 0,
//! };
//! let outcome = RunOutcome {
//!     backend: "fluid",
//!     flows: vec![FlowMetrics { cca: CcaKind::Reno, throughput_mbps: 0.1 + 0.2 }],
//!     jain: 1.0,
//!     loss_percent: 0.0,
//!     occupancy_percent: 50.0,
//!     utilization_percent: 99.5,
//!     jitter_ms: 0.25,
//!     per_link_occupancy: vec![50.0],
//!     per_link_utilization: vec![99.5],
//! };
//! let mut store = ResultStore::open(&dir).unwrap();
//! assert!(store.insert(key.clone(), outcome.clone()).unwrap());
//! drop(store);
//! // Reloaded records are bit-identical — the resume guarantee.
//! let store = ResultStore::open(&dir).unwrap();
//! assert_eq!(store.get(&key), Some(&outcome));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod plan;
pub mod runner;
pub mod store;
pub mod tail;

pub use events::{event_to_line, events_path, parse_event, JsonlFile, JsonlSink, EVENTS_FILE};
pub use plan::{BackendSel, CampaignPlan, Entry, PlannedCell, PLAN_FILE};
pub use runner::{
    maybe_worker, planned_entries, run_column, run_sharded, run_worker, BackendFactory,
    CampaignSummary, WorkerSummary, WORKER_SUBCOMMAND,
};
pub use store::{CellKey, CompactStats, ResultStore, ShardWriter, RESULTS_FILE};
pub use tail::TailCursor;
