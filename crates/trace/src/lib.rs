//! Zero-dependency per-flow flight recorder for the simulation engines.
//!
//! The paper's methodology is comparing *trajectories* — per-flow rate,
//! queue, and RTT time-series of the fluid model against packet
//! simulation — but the engines normally expose only end-of-run scalar
//! metrics. This crate is the recording half of the flight recorder:
//! typed [`TraceEvent`]s, a pluggable [`TraceSink`], and a cloneable
//! [`Recorder`] handle that pairs a sink with its [`TraceConfig`]. The
//! JSONL encoding (`trace/v1`), sparkline rendering, and fluid-vs-packet
//! trace diffing live in `bbr-experiments` — this crate stays free of
//! I/O and serialization so every engine crate can depend on it.
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
//! backends, including under flow churn.
//!
//! # Cost model
//!
//! With nothing installed, [`installed`] is one atomic load; an engine
//! without a recorder then pays one `Option` test per sample-grid
//! crossing and never builds an event.

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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

/// Destination for recorded events. `record` runs on engine hot paths
/// (once per sample grid crossing per flow/link), so implementations
/// must be cheap and must swallow their own errors — recording never
/// fails the run it observes.
pub trait TraceSink: Send + Sync {
    /// Record one observation.
    fn record(&self, event: &TraceEvent);
}

/// A sink plus the [`TraceConfig`] it records under — the handle an
/// engine holds for the whole of one run. Cloning shares the sink.
#[derive(Clone)]
pub struct Recorder {
    config: TraceConfig,
    sink: Arc<dyn TraceSink>,
}

impl Recorder {
    /// Pair `sink` with `config`. The interval is floored at 1 µs so a
    /// zero or negative interval cannot stall an engine's sample grid.
    pub fn new(config: TraceConfig, sink: Arc<dyn TraceSink>) -> Self {
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

static ENABLED: AtomicBool = AtomicBool::new(false);
static INSTALLED: RwLock<Option<Recorder>> = RwLock::new(None);

/// Install the process-wide recorder: engines built from now on record
/// to `sink` under `config`. Replaces any previous recorder. Returns a
/// guard that uninstalls it on drop, so a scoped recording (one cell,
/// one campaign worker) cannot leak into unrelated runs later in the
/// same process. Engines already built keep the recorder they took.
#[must_use = "dropping the guard uninstalls the recorder immediately"]
pub fn install(config: TraceConfig, sink: Arc<dyn TraceSink>) -> TraceGuard {
    let mut slot = INSTALLED.write().unwrap_or_else(|e| e.into_inner());
    *slot = Some(Recorder::new(config, sink));
    ENABLED.store(true, Ordering::Release);
    TraceGuard { _private: () }
}

/// Uninstall the process-wide recorder (idempotent).
pub fn clear() {
    ENABLED.store(false, Ordering::Release);
    let mut slot = INSTALLED.write().unwrap_or_else(|e| e.into_inner());
    *slot = None;
}

/// The process-wide recorder, if one is installed — what an engine
/// takes when it is built without an explicit recorder. One atomic load
/// when nothing is installed.
#[inline]
pub fn installed() -> Option<Recorder> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    INSTALLED.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Uninstalls the process-wide recorder on drop; returned by [`install`].
#[derive(Debug)]
pub struct TraceGuard {
    _private: (),
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// A [`TraceSink`] collecting events into memory — the capture side of
/// `figures trace`, the paper-figure traces, the drift differ, and the
/// tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take every event recorded so far, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The installed recorder is process-wide; tests touching it serialize.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn nothing_is_installed_by_default_or_after_clear() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        assert!(installed().is_none());
    }

    #[test]
    fn installed_recorder_carries_config_until_the_guard_drops() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let sink = Arc::new(MemorySink::new());
        {
            let _guard = install(
                TraceConfig {
                    interval: 0.05,
                    flows: true,
                    links: false,
                    cca: true,
                },
                sink.clone(),
            );
            let rec = installed().expect("recorder installed");
            assert!(rec.config().flows && rec.config().cca);
            assert!(!rec.config().links);
            assert_eq!(rec.config().interval, 0.05);
            rec.record(&TraceEvent::FlowSample {
                lane: 0,
                flow: 1,
                t: 0.25,
                rate_mbps: 42.0,
                inflight_pkts: 12.0,
                rtt_s: 0.031,
            });
            rec.record(&TraceEvent::CcaPhase {
                lane: 0,
                flow: 1,
                t: 0.26,
                from: "Startup",
                to: "Drain",
            });
        }
        assert!(installed().is_none(), "guard drop must uninstall");
        let got = sink.take();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind(), "flow");
        assert_eq!(got[1].kind(), "phase");
        assert_eq!(got[1].t(), 0.26);
        assert!(sink.is_empty(), "take drains the sink");
    }

    #[test]
    fn explicit_recorders_share_their_sink_and_floor_the_interval() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::new(
            TraceConfig {
                interval: 0.0,
                ..TraceConfig::default()
            },
            sink.clone(),
        );
        assert_eq!(rec.config().interval, 1e-6);
        assert_eq!(rec.stride(1e-4), 1, "strides never drop below one step");
        let twin = rec.clone();
        twin.record(&TraceEvent::CcaSignal {
            lane: 0,
            flow: 0,
            t: 0.1,
            signal: "x_dlv",
            value: 9.5,
        });
        assert_eq!(sink.len(), 1, "clones record into the same sink");
        let every_ten = Recorder::new(TraceConfig::default(), sink);
        assert_eq!(every_ten.stride(1e-3), 10);
        assert!(format!("{every_ten:?}").starts_with("Recorder"));
    }

    #[test]
    fn kinds_and_schema_are_stable_wire_tags() {
        assert_eq!(SCHEMA, "trace/v1");
        let link = TraceEvent::LinkSample {
            lane: 2,
            link: 0,
            t: 1.0,
            queue_frac: 0.5,
            util_frac: 0.98,
            loss_frac: 0.0,
        };
        assert_eq!(link.kind(), "link");
        let sig = TraceEvent::CcaSignal {
            lane: 0,
            flow: 3,
            t: 0.5,
            signal: "inflight_hi",
            value: 64.0,
        };
        assert_eq!(sig.kind(), "signal");
    }

    #[test]
    fn default_config_records_everything_at_ten_ms() {
        let cfg = TraceConfig::default();
        assert_eq!(cfg.interval, DEFAULT_INTERVAL);
        assert!(cfg.flows && cfg.links && cfg.cca);
    }
}
