//! Zero-dependency observability hooks, one mechanism for two event
//! families:
//!
//! * campaign telemetry — [`Event`]s at the crate root: which shard is
//!   slow, how many cells/sec the fleet sustains, whether a resume hits
//!   the cache. The JSONL sidecar and its tailer live in `bbr-campaign`
//!   (`events`/`tail`), the rendering in `bbr-experiments` (`figures
//!   watch`);
//! * the per-flow flight recorder — [`trace`]: the engines' time-resolved
//!   samples, encoded and analysed by `bbr_experiments::tracefmt`.
//!
//! Both record through the one [`Sink`] trait, and [`MemorySink`]
//! captures either. Each family has its own process-global slot
//! ([`install`], [`trace::install`]): installing replaces what that slot
//! held, and dropping the returned [`Guard`] empties that slot and no
//! other. The crate does no I/O, so every engine crate can depend on it.
//!
//! # Cost model
//!
//! Instrumented code calls [`emit`] with a *closure* that builds the
//! event. When no sink is installed (the default), `emit` is one
//! relaxed atomic load and the closure is never run — no allocation,
//! no formatting, no lock. Hot loops that need a timestamp only when
//! telemetry is live can gate on [`enabled`]:
//!
//! ```
//! let t0 = bbr_telemetry::enabled().then(std::time::Instant::now);
//! // ... hot work ...
//! if let Some(t0) = t0 {
//!     let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
//!     bbr_telemetry::emit(|| bbr_telemetry::Event::Wave {
//!         lanes: 4,
//!         flows: 16,
//!         occupancy: 1.0,
//!         wall_ms,
//!     });
//! }
//! ```
//!
//! # Schema stability
//!
//! [`Event`] is the source of truth for the `telemetry/v1` wire schema
//! ([`SCHEMA`]); the JSONL field names are pinned by
//! `bbr_campaign::events` and documented in `docs/OBSERVABILITY.md`.
//! Events are advisory: losing, duplicating, or interleaving them never
//! affects campaign results or resume semantics.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

pub mod trace;

/// Wire-schema tag carried by every serialized event line.
pub const SCHEMA: &str = "telemetry/v1";

/// One campaign telemetry event.
///
/// Counts are entries (one `(spec, backend, run_index)` store cell
/// each); `wall_ms` is wall-clock milliseconds measured by the emitting
/// process; `cells_per_sec` is computed entries per wall-clock second
/// (cache hits cost no compute and are excluded from the rate).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A worker finished planning its shard and is about to compute.
    ShardStart {
        /// This worker's shard index, `0..shards`.
        shard: usize,
        /// Total shard count of the campaign run.
        shards: usize,
        /// Entries this shard must compute (missing from the store).
        planned: usize,
        /// Entries this shard found already present (cache hits).
        cached: usize,
    },
    /// Periodic progress from a worker mid-shard (rate-limited).
    Heartbeat {
        /// This worker's shard index, `0..shards`.
        shard: usize,
        /// Total shard count of the campaign run.
        shards: usize,
        /// Entries computed so far by this worker.
        computed: usize,
        /// Entries this shard must compute in total.
        planned: usize,
        /// Entries this shard found already present (cache hits).
        cached: usize,
        /// Wall-clock milliseconds since the shard started computing.
        wall_ms: f64,
        /// Computed entries per second so far.
        cells_per_sec: f64,
        /// `ScenarioSpec::stable_hash()` of the most recent cell.
        spec_hash: u64,
    },
    /// A worker finished its shard.
    ShardDone {
        /// This worker's shard index, `0..shards`.
        shard: usize,
        /// Total shard count of the campaign run.
        shards: usize,
        /// Entries computed by this worker.
        computed: usize,
        /// Entries this shard found already present (cache hits).
        cached: usize,
        /// Wall-clock milliseconds the shard spent computing.
        wall_ms: f64,
        /// Computed entries per second over the whole shard.
        cells_per_sec: f64,
    },
    /// One lockstep wave of the batched fluid integrator completed.
    Wave {
        /// Scenario lanes integrated by this wave.
        lanes: usize,
        /// Summed flow count across the wave's lanes.
        flows: usize,
        /// Mean SIMD pack occupancy over the wave's groups (packed
        /// lanes / vector width). The unpacked batch engine reports
        /// `1.0`; the packed engine reports < 1.0 whenever a ragged
        /// tail group runs with idle vector slots.
        occupancy: f64,
        /// Wall-clock milliseconds the wave took.
        wall_ms: f64,
    },
    /// The whole campaign completed (emitted by the parent process).
    CampaignDone {
        /// Total entries in the plan.
        entries: usize,
        /// Entries computed by this run.
        computed: usize,
        /// Entries served from the store (cache hits).
        cached: usize,
        /// Worker process count.
        shards: usize,
        /// Worker shards that exited with an error; `0` on success. A
        /// non-zero count means the store absorbed only the surviving
        /// shards' results.
        failed: usize,
        /// Wall-clock milliseconds for the whole run.
        wall_ms: f64,
        /// Computed entries per second over the whole run.
        cells_per_sec: f64,
    },
}

impl Event {
    /// The event's kind tag as serialized on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::ShardStart { .. } => "shard_start",
            Event::Heartbeat { .. } => "heartbeat",
            Event::ShardDone { .. } => "shard_done",
            Event::Wave { .. } => "wave",
            Event::CampaignDone { .. } => "campaign_done",
        }
    }
}

/// Destination for emitted events of one family: campaign [`Event`]s
/// (the default) or the flight recorder's [`trace::TraceEvent`]s.
///
/// `record` is called from hot paths (after each integrator wave, once
/// per sample grid crossing per flow/link), so implementations must be
/// cheap and non-blocking in spirit. The store sidecar sink in
/// `bbr-campaign` does one `write_all` of a whole line per event, which
/// keeps concurrent multi-process appends atomic per line.
pub trait Sink<E = Event>: Send + Sync {
    /// Record one event. Errors are the sink's problem — observation is
    /// advisory and must never fail the instrumented computation.
    fn record(&self, event: &E);
}

/// A [`Sink`] collecting events of either family into memory — the
/// capture side of `figures trace`, the paper-figure traces, the drift
/// differ, and the tests.
#[derive(Debug)]
pub struct MemorySink<E> {
    events: Mutex<Vec<E>>,
}

impl<E> Default for MemorySink<E> {
    fn default() -> Self {
        Self {
            events: Mutex::new(Vec::new()),
        }
    }
}

impl<E> MemorySink<E> {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take every event recorded so far, leaving the sink empty.
    pub fn take(&self) -> Vec<E> {
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

impl<E: Clone + Send> Sink<E> for MemorySink<E> {
    fn record(&self, event: &E) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

/// One process-global hook: the slot behind [`install`] or the one
/// behind [`trace::install`]. The flag is a static apart from the lock,
/// whose address escapes into its calls: in a program that never fills
/// the slot, whole-program optimization can then fold the flag to
/// `false` and drop the code it guards.
struct Slot<T: 'static> {
    filled: &'static AtomicBool,
    value: &'static RwLock<Option<T>>,
}

impl<T: Clone + Send + Sync> Slot<T> {
    fn install(&'static self, value: T) -> Guard {
        *self.value.write().unwrap_or_else(|e| e.into_inner()) = Some(value);
        self.filled.store(true, Ordering::Release);
        Guard(self)
    }

    /// What the slot holds; one atomic load when it is empty.
    #[inline]
    fn get(&self) -> Option<T> {
        if !self.filled.load(Ordering::Acquire) {
            return None;
        }
        self.value.read().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// Emptying a slot, whatever it holds (idempotent).
trait Clear: Sync {
    fn clear(&self);
}

impl<T: Send + Sync> Clear for Slot<T> {
    fn clear(&self) {
        self.filled.store(false, Ordering::Release);
        *self.value.write().unwrap_or_else(|e| e.into_inner()) = None;
    }
}

/// Empties the slot it was returned for when dropped, so scoped
/// instrumentation (a worker's lifetime, one cell) cannot leak into
/// unrelated code running later in the same process.
pub struct Guard(&'static dyn Clear);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.clear();
    }
}

static SINK_FILLED: AtomicBool = AtomicBool::new(false);
static SINK_VALUE: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);
static SINK: Slot<Arc<dyn Sink>> = Slot {
    filled: &SINK_FILLED,
    value: &SINK_VALUE,
};

/// Install the process-global telemetry sink; subsequent [`emit`] calls
/// route to it until the returned guard drops. Replaces any previous
/// sink.
#[must_use = "dropping the guard uninstalls the sink immediately"]
pub fn install(sink: Arc<dyn Sink>) -> Guard {
    SINK.install(sink)
}

/// Whether a sink is currently installed. Use this to gate work that
/// only exists to feed telemetry (e.g. reading the clock before a hot
/// loop).
#[inline]
pub fn enabled() -> bool {
    SINK.filled.load(Ordering::Acquire)
}

/// Emit an event to the installed sink, if any. The closure is only
/// invoked when a sink is installed, so building the event (allocation,
/// formatting, arithmetic) costs nothing on the no-op path.
#[inline]
pub fn emit(build: impl FnOnce() -> Event) {
    if let Some(sink) = SINK.get() {
        sink.record(&build());
    }
}

#[cfg(test)]
mod tests {
    use super::trace::{Recorder, TraceConfig, TraceEvent, DEFAULT_INTERVAL, RECORDER};
    use super::*;

    // Both slots are process-wide state, so every test that touches
    // either one runs under this one lock to stay order-independent.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wave() -> Event {
        Event::Wave {
            lanes: 2,
            flows: 8,
            occupancy: 1.0,
            wall_ms: 1.5,
        }
    }

    fn flow_sample() -> TraceEvent {
        TraceEvent::FlowSample {
            lane: 0,
            flow: 1,
            t: 0.25,
            rate_mbps: 42.0,
            inflight_pkts: 12.0,
            rtt_s: 0.031,
        }
    }

    #[test]
    fn emit_without_sink_never_runs_the_closure() {
        let _serial = serial();
        SINK.clear();
        assert!(!enabled());
        emit(|| unreachable!("closure must not run on the no-op path"));
    }

    #[test]
    fn installed_sink_receives_events_and_guard_uninstalls() {
        let _serial = serial();
        let capture = Arc::new(MemorySink::new());
        {
            let _guard = install(capture.clone());
            assert!(enabled());
            emit(wave);
            emit(|| Event::ShardStart {
                shard: 0,
                shards: 2,
                planned: 10,
                cached: 3,
            });
        }
        assert!(!enabled(), "guard drop must uninstall the sink");
        emit(|| unreachable!("sink was uninstalled"));
        let got = capture.take();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind(), "wave");
        assert_eq!(got[1].kind(), "shard_start");
    }

    #[test]
    fn kinds_are_stable_wire_tags() {
        assert_eq!(SCHEMA, "telemetry/v1");
        let done = Event::CampaignDone {
            entries: 1,
            computed: 1,
            cached: 0,
            shards: 1,
            failed: 0,
            wall_ms: 2.0,
            cells_per_sec: 500.0,
        };
        assert_eq!(done.kind(), "campaign_done");
        let hb = Event::Heartbeat {
            shard: 0,
            shards: 1,
            computed: 0,
            planned: 0,
            cached: 0,
            wall_ms: 0.0,
            cells_per_sec: 0.0,
            spec_hash: 0xdead_beef,
        };
        assert_eq!(hb.kind(), "heartbeat");
        assert_eq!(
            Event::ShardDone {
                shard: 0,
                shards: 1,
                computed: 0,
                cached: 0,
                wall_ms: 0.0,
                cells_per_sec: 0.0,
            }
            .kind(),
            "shard_done"
        );
    }

    #[test]
    fn nothing_is_installed_by_default_or_after_clear() {
        let _serial = serial();
        RECORDER.clear();
        assert!(trace::installed().is_none());
    }

    #[test]
    fn installed_recorder_carries_config_until_the_guard_drops() {
        let _serial = serial();
        let sink = Arc::new(MemorySink::new());
        {
            let _guard = trace::install(
                TraceConfig {
                    interval: 0.05,
                    flows: true,
                    links: false,
                    cca: true,
                },
                sink.clone(),
            );
            let rec = trace::installed().expect("recorder installed");
            assert!(rec.config().flows && rec.config().cca);
            assert!(!rec.config().links);
            assert_eq!(rec.config().interval, 0.05);
            rec.record(&flow_sample());
            rec.record(&TraceEvent::CcaPhase {
                lane: 0,
                flow: 1,
                t: 0.26,
                from: "Startup",
                to: "Drain",
            });
        }
        assert!(trace::installed().is_none(), "guard drop must uninstall");
        let got = sink.take();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind(), "flow");
        assert_eq!(got[1].kind(), "phase");
        assert_eq!(got[1].t(), 0.26);
        assert!(sink.is_empty(), "take drains the sink");
    }

    #[test]
    fn the_two_slots_are_independent() {
        let _serial = serial();
        let events = Arc::new(MemorySink::new());
        let samples = Arc::new(MemorySink::new());
        let sink_guard = install(events.clone());
        let trace_guard = trace::install(TraceConfig::default(), samples.clone());
        assert!(enabled() && trace::installed().is_some());

        drop(trace_guard);
        assert!(trace::installed().is_none());
        assert!(enabled(), "the recorder's guard must leave the sink");
        emit(wave);
        assert_eq!(events.len(), 1);

        let trace_guard = trace::install(TraceConfig::default(), samples.clone());
        drop(sink_guard);
        assert!(!enabled());
        emit(|| unreachable!("sink was uninstalled"));
        let rec = trace::installed().expect("the sink's guard must leave the recorder");
        rec.record(&flow_sample());
        assert_eq!(samples.len(), 1);

        drop(trace_guard);
        assert!(trace::installed().is_none() && !enabled());
        assert_eq!(events.take(), vec![wave()]);
        assert_eq!(samples.take(), vec![flow_sample()]);
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
        assert_eq!(trace::SCHEMA, "trace/v1");
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
