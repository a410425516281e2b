//! The per-flow flight recorder: the second event family of this crate.
//!
//! The paper's methodology is comparing *trajectories* — per-flow rate,
//! queue, and RTT time-series of the fluid model against packet
//! simulation — but the engines normally expose only end-of-run scalar
//! metrics. This module is the recording half of the flight recorder:
//! typed [`TraceEvent`]s and a cloneable [`Recorder`] handle that pairs a
//! [`Sink`] with its [`TraceConfig`]. The JSONL encoding (`trace/v1`),
//! sparkline rendering, and fluid-vs-packet trace diffing live in
//! `bbr-experiments` — this module stays free of I/O and serialization
//! so every engine crate can depend on it.
//!
//! # Attaching a recorder
//!
//! Every engine resolves its recorder exactly once, when it is built:
//! code that drives an engine directly attaches a [`Recorder`]
//! explicitly (`Simulator::record`, `SimConfig::recorder`), and engines
//! built behind a backend take the process-wide recorder from
//! [`installed`] — set by [`install`] for the lifetime of its guard.
//! An explicit handle records only the run it is attached to, so tests
//! sharing one process cannot collect each other's events.
//!
//! # The observer-effect contract
//!
//! Recording is **strictly advisory**: with or without a recorder, every
//! engine must produce bit-identical `RunOutcome`s, store records, and
//! cache keys. Recorders therefore only *read* engine state (plus
//! trace-only counters that feed nothing back), never schedule work,
//! never touch an engine's RNG, and never fail the computation they
//! observe. `tests/trace_observer.rs` enforces this byte-for-byte on all
//! backends, including under flow churn. An engine without a recorder
//! pays one `Option` test per sample-grid crossing.

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, RwLock};

use crate::{Guard, Sink, Slot};

/// Wire-schema tag of the JSONL encoding (`bbr_experiments::tracefmt`).
pub const SCHEMA: &str = "trace/v1";

/// Default sample interval (s) — 10 ms resolves BBR's probing pulses
/// at the RTT scales the paper sweeps without drowning a run in lines.
pub const DEFAULT_INTERVAL: f64 = 0.01;

/// What to record, and how often. Signal selection lets a caller
/// record, say, only CCA state transitions without paying for per-flow
/// samples on every grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Sampling grid (s) for flow and link series and the fluid CCA
    /// signals. Discrete packet CCA events are recorded when they
    /// happen, not on the grid.
    pub interval: f64,
    /// Record per-flow rate/inflight/RTT samples.
    pub flows: bool,
    /// Record per-link queue/utilization samples.
    pub links: bool,
    /// Record CCA internals: the packet CCAs' state transitions and
    /// estimator updates, and the fluid model's per-flow signals
    /// (`x_dlv`, `loss`, and every `FluidCca::telemetry` value) on the
    /// sample grid.
    pub cca: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            interval: DEFAULT_INTERVAL,
            flows: true,
            links: true,
            cca: true,
        }
    }
}

/// One recorded observation.
///
/// `lane` distinguishes scenarios when a batched engine integrates many
/// in lockstep (the lane's position in the wave); single-scenario
/// engines use lane 0. `flow` and `link` are scenario-local indices,
/// `t` is engine time in seconds (0 = start of warm-up on every
/// backend, so fluid and packet series align without shifting).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Per-flow sample on the configured grid.
    FlowSample {
        /// Batch lane of the scenario (0 outside batched runs).
        lane: usize,
        /// Flow index within the scenario.
        flow: usize,
        /// Engine time (s).
        t: f64,
        /// Sending rate (fluid) / delivery rate over the last bin
        /// (packet), Mbit/s.
        rate_mbps: f64,
        /// In-flight data in packets (fluid: model window; packet:
        /// `inflight_bytes / mss`).
        inflight_pkts: f64,
        /// RTT estimate (s): the fluid model's instantaneous path RTT,
        /// the packet engine's smoothed RTT.
        rtt_s: f64,
    },
    /// Per-link sample on the configured grid.
    LinkSample {
        /// Batch lane of the scenario (0 outside batched runs).
        lane: usize,
        /// Link index within the scenario.
        link: usize,
        /// Engine time (s).
        t: f64,
        /// Queue occupancy as a fraction of the buffer, 0..=1.
        queue_frac: f64,
        /// Offered utilization as a fraction of capacity (may briefly
        /// exceed 1 while a queue builds).
        util_frac: f64,
        /// Loss: the fluid model's drop probability, the packet
        /// engine's per-bin drop fraction.
        loss_frac: f64,
    },
    /// A CCA state-machine transition (packet engines).
    CcaPhase {
        /// Batch lane of the scenario (0 outside batched runs).
        lane: usize,
        /// Flow index within the scenario.
        flow: usize,
        /// Engine time (s).
        t: f64,
        /// State being left.
        from: &'static str,
        /// State being entered.
        to: &'static str,
    },
    /// A CCA signal: a packet CCA's estimator/bound update (windowed
    /// filter outputs, `inflight_hi/lo`), recorded on change, or a fluid
    /// model variable, recorded on the sample grid.
    CcaSignal {
        /// Batch lane of the scenario (0 outside batched runs).
        lane: usize,
        /// Flow index within the scenario.
        flow: usize,
        /// Engine time (s).
        t: f64,
        /// Signal name (stable wire tag, e.g. `"btlbw"`, `"x_dlv"`).
        signal: &'static str,
        /// New value, in the signal's natural unit.
        value: f64,
    },
}

impl TraceEvent {
    /// The event's kind tag as serialized on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FlowSample { .. } => "flow",
            TraceEvent::LinkSample { .. } => "link",
            TraceEvent::CcaPhase { .. } => "phase",
            TraceEvent::CcaSignal { .. } => "signal",
        }
    }

    /// Engine time of the observation (s).
    pub fn t(&self) -> f64 {
        match self {
            TraceEvent::FlowSample { t, .. }
            | TraceEvent::LinkSample { t, .. }
            | TraceEvent::CcaPhase { t, .. }
            | TraceEvent::CcaSignal { t, .. } => *t,
        }
    }
}

/// A sink plus the [`TraceConfig`] it records under — the handle an
/// engine holds for the whole of one run. Cloning shares the sink.
#[derive(Clone)]
pub struct Recorder {
    config: TraceConfig,
    sink: Arc<dyn Sink<TraceEvent>>,
}

impl Recorder {
    /// Pair `sink` with `config`. The interval is floored at 1 µs so a
    /// zero or negative interval cannot stall an engine's sample grid.
    pub fn new(config: TraceConfig, sink: Arc<dyn Sink<TraceEvent>>) -> Self {
        let interval = config.interval.max(1e-6);
        Self {
            config: TraceConfig { interval, ..config },
            sink,
        }
    }

    /// What this recorder records, and how often.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The sample grid in integration steps of size `dt` (at least 1) —
    /// the stride of the fluid engines' flow, link, and signal samples.
    pub fn stride(&self, dt: f64) -> u64 {
        (self.config.interval / dt).round().max(1.0) as u64
    }

    /// Hand one observation to the sink.
    #[inline]
    pub fn record(&self, event: &TraceEvent) {
        self.sink.record(event);
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Recorder")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

static FILLED: AtomicBool = AtomicBool::new(false);
static VALUE: RwLock<Option<Recorder>> = RwLock::new(None);
pub(crate) static RECORDER: Slot<Recorder> = Slot {
    filled: &FILLED,
    value: &VALUE,
};

/// Install the process-wide recorder: engines built from now on record
/// to `sink` under `config`, until the returned guard drops. Replaces
/// any previous recorder; engines already built keep the one they took.
#[must_use = "dropping the guard uninstalls the recorder immediately"]
pub fn install(config: TraceConfig, sink: Arc<dyn Sink<TraceEvent>>) -> Guard {
    RECORDER.install(Recorder::new(config, sink))
}

/// The process-wide recorder, if one is installed — what an engine
/// takes when it is built without an explicit recorder. One atomic load
/// when nothing is installed.
#[inline]
pub fn installed() -> Option<Recorder> {
    RECORDER.get()
}
