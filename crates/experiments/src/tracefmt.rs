//! The `trace/v1` wire format and trace post-processing.
//!
//! `bbr_telemetry::trace` deliberately stops at typed [`TraceEvent`]s —
//! this module is the serialization and analysis half of the flight
//! recorder:
//!
//! * [`TraceRecord`] / [`TraceRecord::to_line`] / [`TraceRecord::parse_line`]
//!   — the hand-rolled JSONL encoding (`trace/v1`), one object per line,
//!   following the same no-serde discipline as `bbr_campaign::json` (the
//!   shortest-round-trip float writer, so parsed values are bit-exact);
//! * [`JsonlTraceSink`] — an appending file sink on the telemetry
//!   `JsonlSink`'s appender ([`JsonlFile`]): one `write` per line, its
//!   own errors swallowed (recording never fails the run it observes);
//! * [`CellTrace`] — per-flow/per-link series assembled from a recorded
//!   event stream, the input to sparkline rendering, CSV export, the
//!   paper's trace figures (`crate::figures::traces`), and the
//!   fluid-vs-packet trace differ (`crate::drift`);
//! * [`sparkline`] — dependency-free ASCII rendering of one series.
//!
//! # `trace/v1` schema
//!
//! Every line is a JSON object with `"v": "trace/v1"` and a `"kind"`:
//!
//! | kind     | fields                                                    |
//! |----------|-----------------------------------------------------------|
//! | `header` | `spec` (hex hash), `backend`, `seed` (hex), `interval`, `label` |
//! | `flow`   | `lane`, `flow`, `t`, `rate_mbps`, `inflight_pkts`, `rtt_s` |
//! | `link`   | `lane`, `link`, `t`, `queue_frac`, `util_frac`, `loss_frac` |
//! | `phase`  | `lane`, `flow`, `t`, `from`, `to`                          |
//! | `signal` | `lane`, `flow`, `t`, `signal`, `value`                     |
//!
//! Units: `rate_mbps` and the `btlbw`/`bw_hi`/`bw_lo` signals are in
//! Mbit/s; `inflight_pkts` and the `inflight_hi`/`inflight_lo` signals
//! are in packets (MSS units); `rtt_s`, `rtprop`, and `t` are in
//! seconds; the `*_frac` link fields are fractions of buffer/capacity.
//! The fluid engine's signals (`x_dlv`, `loss`, and the model
//! telemetry such as `x_btl` or `w_hi`) are in the fluid model's units:
//! Mbit/s, Mbit, seconds, probabilities (`docs/OBSERVABILITY.md` lists
//! them). Non-finite signal values (filter resets to ±∞) are never
//! emitted — consumers infer resets from the surrounding `phase` events.

use std::path::Path;

use bbr_campaign::json::Json;
use bbr_campaign::JsonlFile;
use bbr_telemetry::trace::TraceEvent;
use bbr_telemetry::Sink;

/// Wire-schema tag (re-exported from `bbr_telemetry::trace` so both
/// halves cannot drift apart).
pub const SCHEMA: &str = bbr_telemetry::trace::SCHEMA;

/// Default file name of a campaign's interleaved trace stream (in the
/// directory `BBR_TRACE_DIR` names).
pub const TRACE_FILE: &str = "trace.jsonl";

/// One `trace/v1` line: a [`TraceEvent`] with owned strings, plus the
/// `header` record that stamps a recording with its scenario identity.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// Recording preamble: which cell, which engine, which seed, which
    /// sample grid. Written once before a run's events.
    Header {
        /// [`bbr_scenario::ScenarioSpec::stable_hash`] of the cell.
        spec_hash: u64,
        /// Backend name (`"fluid"`, `"fluid-simd"`, `"packet"`).
        backend: String,
        /// Seed the engine ran with.
        seed: u64,
        /// Sample interval (s) the recorder was configured with.
        interval: f64,
        /// Human-readable cell label ([`bbr_scenario::ScenarioSpec::describe`]).
        label: String,
    },
    /// Per-flow sample ([`TraceEvent::FlowSample`]).
    Flow {
        /// Batch lane of the scenario (0 outside batched runs).
        lane: usize,
        /// Flow index within the scenario.
        flow: usize,
        /// Engine time (s).
        t: f64,
        /// Sending/delivery rate (Mbit/s).
        rate_mbps: f64,
        /// In-flight data (packets).
        inflight_pkts: f64,
        /// RTT estimate (s).
        rtt_s: f64,
    },
    /// Per-link sample ([`TraceEvent::LinkSample`]).
    Link {
        /// Batch lane of the scenario (0 outside batched runs).
        lane: usize,
        /// Link index within the scenario.
        link: usize,
        /// Engine time (s).
        t: f64,
        /// Queue occupancy (fraction of buffer).
        queue_frac: f64,
        /// Utilization (fraction of capacity).
        util_frac: f64,
        /// Loss fraction/probability.
        loss_frac: f64,
    },
    /// CCA state transition ([`TraceEvent::CcaPhase`]).
    Phase {
        /// Batch lane of the scenario (0 outside batched runs).
        lane: usize,
        /// Flow index within the scenario.
        flow: usize,
        /// Engine time (s).
        t: f64,
        /// State being left.
        from: String,
        /// State being entered.
        to: String,
    },
    /// CCA estimator/bound update ([`TraceEvent::CcaSignal`]).
    Signal {
        /// Batch lane of the scenario (0 outside batched runs).
        lane: usize,
        /// Flow index within the scenario.
        flow: usize,
        /// Engine time (s).
        t: f64,
        /// Signal name (e.g. `"btlbw"`, `"inflight_hi"`).
        signal: String,
        /// New value in the signal's natural unit.
        value: f64,
    },
}

impl TraceRecord {
    /// Convert a recorded event to its wire record.
    pub fn from_event(e: &TraceEvent) -> TraceRecord {
        match *e {
            TraceEvent::FlowSample {
                lane,
                flow,
                t,
                rate_mbps,
                inflight_pkts,
                rtt_s,
            } => TraceRecord::Flow {
                lane,
                flow,
                t,
                rate_mbps,
                inflight_pkts,
                rtt_s,
            },
            TraceEvent::LinkSample {
                lane,
                link,
                t,
                queue_frac,
                util_frac,
                loss_frac,
            } => TraceRecord::Link {
                lane,
                link,
                t,
                queue_frac,
                util_frac,
                loss_frac,
            },
            TraceEvent::CcaPhase {
                lane,
                flow,
                t,
                from,
                to,
            } => TraceRecord::Phase {
                lane,
                flow,
                t,
                from: from.to_string(),
                to: to.to_string(),
            },
            TraceEvent::CcaSignal {
                lane,
                flow,
                t,
                signal,
                value,
            } => TraceRecord::Signal {
                lane,
                flow,
                t,
                signal: signal.to_string(),
                value,
            },
        }
    }

    /// The record's `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::Header { .. } => "header",
            TraceRecord::Flow { .. } => "flow",
            TraceRecord::Link { .. } => "link",
            TraceRecord::Phase { .. } => "phase",
            TraceRecord::Signal { .. } => "signal",
        }
    }

    /// One compact `trace/v1` JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let num = |v: f64| Json::Num(v);
        let idx = |v: usize| Json::Num(v as f64);
        let mut fields: Vec<(String, Json)> = vec![
            ("v".into(), Json::str(SCHEMA)),
            ("kind".into(), Json::str(self.kind())),
        ];
        match self {
            TraceRecord::Header {
                spec_hash,
                backend,
                seed,
                interval,
                label,
            } => fields.extend([
                ("spec".into(), Json::hex(*spec_hash)),
                ("backend".into(), Json::str(backend.clone())),
                ("seed".into(), Json::hex(*seed)),
                ("interval".into(), num(*interval)),
                ("label".into(), Json::str(label.clone())),
            ]),
            TraceRecord::Flow {
                lane,
                flow,
                t,
                rate_mbps,
                inflight_pkts,
                rtt_s,
            } => fields.extend([
                ("lane".into(), idx(*lane)),
                ("flow".into(), idx(*flow)),
                ("t".into(), num(*t)),
                ("rate_mbps".into(), num(*rate_mbps)),
                ("inflight_pkts".into(), num(*inflight_pkts)),
                ("rtt_s".into(), num(*rtt_s)),
            ]),
            TraceRecord::Link {
                lane,
                link,
                t,
                queue_frac,
                util_frac,
                loss_frac,
            } => fields.extend([
                ("lane".into(), idx(*lane)),
                ("link".into(), idx(*link)),
                ("t".into(), num(*t)),
                ("queue_frac".into(), num(*queue_frac)),
                ("util_frac".into(), num(*util_frac)),
                ("loss_frac".into(), num(*loss_frac)),
            ]),
            TraceRecord::Phase {
                lane,
                flow,
                t,
                from,
                to,
            } => fields.extend([
                ("lane".into(), idx(*lane)),
                ("flow".into(), idx(*flow)),
                ("t".into(), num(*t)),
                ("from".into(), Json::str(from.clone())),
                ("to".into(), Json::str(to.clone())),
            ]),
            TraceRecord::Signal {
                lane,
                flow,
                t,
                signal,
                value,
            } => fields.extend([
                ("lane".into(), idx(*lane)),
                ("flow".into(), idx(*flow)),
                ("t".into(), num(*t)),
                ("signal".into(), Json::str(signal.clone())),
                ("value".into(), num(*value)),
            ]),
        }
        Json::Obj(fields).to_compact_string()
    }

    /// Parse one `trace/v1` line (inverse of [`TraceRecord::to_line`];
    /// floats round-trip bit-exactly).
    pub fn parse_line(line: &str) -> Result<TraceRecord, String> {
        let j = Json::parse(line)?;
        let v = j.field("v")?.as_str().unwrap_or_default().to_string();
        if v != SCHEMA {
            return Err(format!("unknown trace schema {v:?} (want {SCHEMA:?})"));
        }
        let num = |key: &str| -> Result<f64, String> {
            j.field(key)?
                .as_f64()
                .ok_or_else(|| format!("field {key} is not a number"))
        };
        let idx = |key: &str| -> Result<usize, String> {
            j.field(key)?
                .as_usize()
                .ok_or_else(|| format!("field {key} is not an index"))
        };
        let text = |key: &str| -> Result<String, String> {
            Ok(j.field(key)?
                .as_str()
                .ok_or_else(|| format!("field {key} is not a string"))?
                .to_string())
        };
        let kind = j.field("kind")?.as_str().unwrap_or_default().to_string();
        match kind.as_str() {
            "header" => Ok(TraceRecord::Header {
                spec_hash: j
                    .field("spec")?
                    .as_hex_u64()
                    .ok_or("field spec is not a hex hash")?,
                backend: text("backend")?,
                seed: j
                    .field("seed")?
                    .as_hex_u64()
                    .ok_or("field seed is not a hex seed")?,
                interval: num("interval")?,
                label: text("label")?,
            }),
            "flow" => Ok(TraceRecord::Flow {
                lane: idx("lane")?,
                flow: idx("flow")?,
                t: num("t")?,
                rate_mbps: num("rate_mbps")?,
                inflight_pkts: num("inflight_pkts")?,
                rtt_s: num("rtt_s")?,
            }),
            "link" => Ok(TraceRecord::Link {
                lane: idx("lane")?,
                link: idx("link")?,
                t: num("t")?,
                queue_frac: num("queue_frac")?,
                util_frac: num("util_frac")?,
                loss_frac: num("loss_frac")?,
            }),
            "phase" => Ok(TraceRecord::Phase {
                lane: idx("lane")?,
                flow: idx("flow")?,
                t: num("t")?,
                from: text("from")?,
                to: text("to")?,
            }),
            "signal" => Ok(TraceRecord::Signal {
                lane: idx("lane")?,
                flow: idx("flow")?,
                t: num("t")?,
                signal: text("signal")?,
                value: num("value")?,
            }),
            other => Err(format!("unknown trace record kind {other:?}")),
        }
    }
}

/// A [`Sink`] appending `trace/v1` lines to a file through
/// [`JsonlFile`]: campaign workers writing to the same file interleave
/// whole lines, and a full disk degrades the trace, never the
/// simulation producing it.
pub struct JsonlTraceSink(JsonlFile);

impl JsonlTraceSink {
    /// Open (creating if needed) `path` for appending trace lines.
    pub fn append_to(path: &Path) -> std::io::Result<JsonlTraceSink> {
        JsonlFile::append_to(path).map(JsonlTraceSink)
    }

    /// Write one record (used for [`TraceRecord::Header`], which has no
    /// [`TraceEvent`] counterpart).
    pub fn write_record(&self, record: &TraceRecord) {
        self.0.write_line(record.to_line());
    }
}

impl Sink<TraceEvent> for JsonlTraceSink {
    fn record(&self, event: &TraceEvent) {
        self.write_record(&TraceRecord::from_event(event));
    }
}

/// One flow's sampled series, in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowSeries {
    /// Sample times (s).
    pub t: Vec<f64>,
    /// Sending/delivery rate (Mbit/s).
    pub rate_mbps: Vec<f64>,
    /// In-flight data (packets).
    pub inflight_pkts: Vec<f64>,
    /// RTT estimate (s).
    pub rtt_s: Vec<f64>,
}

/// One link's sampled series, in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkSeries {
    /// Sample times (s).
    pub t: Vec<f64>,
    /// Queue occupancy (fraction of buffer).
    pub queue_frac: Vec<f64>,
    /// Utilization (fraction of capacity).
    pub util_frac: Vec<f64>,
    /// Loss fraction/probability.
    pub loss_frac: Vec<f64>,
}

/// One named signal of one flow, in time order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignalSeries {
    /// Update (packet) or sample (fluid) times (s).
    pub t: Vec<f64>,
    /// Values, in the signal's natural unit.
    pub value: Vec<f64>,
}

/// A recorded run of one scenario, reassembled into per-flow and
/// per-link series plus the discrete CCA timeline.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    /// Per-flow series, indexed by flow.
    pub flows: Vec<FlowSeries>,
    /// Per-link series, indexed by link. The packet engine records only
    /// the bottleneck link, so packet cell traces typically populate a
    /// single entry.
    pub links: Vec<LinkSeries>,
    /// Per-flow CCA phase transitions `(t, from, to)`, in time order.
    pub phases: Vec<Vec<(f64, String, String)>>,
    /// Per-flow CCA signal updates `(t, signal, value)`, in time order.
    pub signals: Vec<Vec<(f64, String, f64)>>,
}

impl CellTrace {
    /// Assemble the series of one lane from a recorded event stream.
    /// Events of other lanes are ignored, so a batched wave's interleaved
    /// stream splits cleanly into per-scenario traces.
    pub fn from_events(events: &[TraceEvent], lane: usize) -> CellTrace {
        let mut out = CellTrace::default();
        fn flow_slot(v: &mut Vec<FlowSeries>, i: usize) -> &mut FlowSeries {
            if v.len() <= i {
                v.resize(i + 1, FlowSeries::default());
            }
            &mut v[i]
        }
        for e in events {
            match *e {
                TraceEvent::FlowSample {
                    lane: l,
                    flow,
                    t,
                    rate_mbps,
                    inflight_pkts,
                    rtt_s,
                } if l == lane => {
                    let s = flow_slot(&mut out.flows, flow);
                    s.t.push(t);
                    s.rate_mbps.push(rate_mbps);
                    s.inflight_pkts.push(inflight_pkts);
                    s.rtt_s.push(rtt_s);
                }
                TraceEvent::LinkSample {
                    lane: l,
                    link,
                    t,
                    queue_frac,
                    util_frac,
                    loss_frac,
                } if l == lane => {
                    if out.links.len() <= link {
                        out.links.resize(link + 1, LinkSeries::default());
                    }
                    let s = &mut out.links[link];
                    s.t.push(t);
                    s.queue_frac.push(queue_frac);
                    s.util_frac.push(util_frac);
                    s.loss_frac.push(loss_frac);
                }
                TraceEvent::CcaPhase {
                    lane: l,
                    flow,
                    t,
                    from,
                    to,
                } if l == lane => {
                    if out.phases.len() <= flow {
                        out.phases.resize(flow + 1, Vec::new());
                    }
                    out.phases[flow].push((t, from.to_string(), to.to_string()));
                }
                TraceEvent::CcaSignal {
                    lane: l,
                    flow,
                    t,
                    signal,
                    value,
                } if l == lane => {
                    if out.signals.len() <= flow {
                        out.signals.resize(flow + 1, Vec::new());
                    }
                    out.signals[flow].push((t, signal.to_string(), value));
                }
                _ => {}
            }
        }
        out
    }

    /// Flow `flow`'s signal `name` (e.g. `"x_dlv"`, `"btlbw"`) as a
    /// series; empty when the signal was never recorded.
    pub fn signal(&self, flow: usize, name: &str) -> SignalSeries {
        let mut out = SignalSeries::default();
        for (t, signal, value) in self.signals.get(flow).into_iter().flatten() {
            if signal == name {
                out.t.push(*t);
                out.value.push(*value);
            }
        }
        out
    }

    /// The CCA phase flow `flow` is in at time `t`, per its recorded
    /// transition timeline. Before the first transition every packet CCA
    /// is in `"Startup"`.
    pub fn phase_at(&self, flow: usize, t: f64) -> &str {
        let mut phase = "Startup";
        if let Some(timeline) = self.phases.get(flow) {
            for (tt, _, to) in timeline {
                if *tt <= t {
                    phase = to;
                } else {
                    break;
                }
            }
        }
        phase
    }

    /// ASCII frame: one sparkline per flow (rate) and per link
    /// (queue + utilization), plus per-flow phase timelines when
    /// present.
    pub fn render(&self, width: usize) -> String {
        let mut out = String::new();
        for (i, f) in self.flows.iter().enumerate() {
            let peak = f.rate_mbps.iter().cloned().fold(0.0_f64, f64::max);
            out.push_str(&format!(
                "flow {i} rate     [{}] peak {peak:.1} Mbit/s\n",
                sparkline(&f.rate_mbps, width)
            ));
        }
        for (l, s) in self.links.iter().enumerate() {
            out.push_str(&format!(
                "link {l} queue    [{}] mean {:.2}\n",
                sparkline(&s.queue_frac, width),
                mean(&s.queue_frac)
            ));
            out.push_str(&format!(
                "link {l} util     [{}] mean {:.2}\n",
                sparkline(&s.util_frac, width),
                mean(&s.util_frac)
            ));
        }
        for (i, timeline) in self.phases.iter().enumerate() {
            if timeline.is_empty() {
                continue;
            }
            let mut line = format!("flow {i} phases   Startup");
            for (t, _, to) in timeline {
                line.push_str(&format!(" -[{t:.2}s]-> {to}"));
            }
            line.push('\n');
            out.push_str(&line);
        }
        out
    }

    /// CSV export of the sampled series: one row per sample, columns
    /// `series,index,t,a,b,c` where the value columns are
    /// rate/inflight/rtt for flows and queue/util/loss for links.
    pub fn csv(&self) -> String {
        let mut out = String::from("series,index,t,a,b,c\n");
        for (i, f) in self.flows.iter().enumerate() {
            for k in 0..f.t.len() {
                out.push_str(&format!(
                    "flow,{i},{:?},{:?},{:?},{:?}\n",
                    f.t[k], f.rate_mbps[k], f.inflight_pkts[k], f.rtt_s[k]
                ));
            }
        }
        for (l, s) in self.links.iter().enumerate() {
            for k in 0..s.t.len() {
                out.push_str(&format!(
                    "link,{l},{:?},{:?},{:?},{:?}\n",
                    s.t[k], s.queue_frac[k], s.util_frac[k], s.loss_frac[k]
                ));
            }
        }
        out
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Glyph ramp of [`sparkline`], dimmest first. Pure ASCII so the frames
/// survive any terminal, log file, or CI transcript.
pub const SPARK_RAMP: &[u8] = b" .:-=+*#%@";

/// Render a series as a fixed-width ASCII sparkline: the series is
/// bucketed into `width` equal windows (bucket mean), then each bucket
/// maps to a glyph by its fraction of the series maximum. All-zero and
/// empty series render as spaces.
pub fn sparkline(values: &[f64], width: usize) -> String {
    let width = width.max(1);
    if values.is_empty() {
        return " ".repeat(width);
    }
    let peak = values
        .iter()
        .cloned()
        .filter(|v| v.is_finite())
        .fold(0.0_f64, f64::max);
    let mut out = String::with_capacity(width);
    for b in 0..width {
        let lo = b * values.len() / width;
        let hi = (((b + 1) * values.len()).div_ceil(width)).min(values.len());
        let bucket = &values[lo..hi.max(lo + 1).min(values.len())];
        let m = mean(bucket);
        let glyph = if peak <= 0.0 || !m.is_finite() {
            SPARK_RAMP[0]
        } else {
            let frac = (m / peak).clamp(0.0, 1.0);
            let idx = (frac * (SPARK_RAMP.len() - 1) as f64).round() as usize;
            SPARK_RAMP[idx.min(SPARK_RAMP.len() - 1)]
        };
        out.push(glyph as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_bit_exactly() {
        let records = [
            TraceRecord::Header {
                spec_hash: 0xdead_beef_1234,
                backend: "packet".into(),
                seed: 0xfeed,
                interval: 0.01,
                label: "dumbbell n=4 C=100Mbps buf=1BDP DropTail BBRv2".into(),
            },
            TraceRecord::Flow {
                lane: 3,
                flow: 1,
                t: 0.123456789,
                rate_mbps: 42.25,
                inflight_pkts: 17.5,
                rtt_s: 0.0312,
            },
            TraceRecord::Link {
                lane: 0,
                link: 2,
                t: 1.0,
                queue_frac: 0.5,
                util_frac: 0.987654321,
                loss_frac: 1e-9,
            },
            TraceRecord::Phase {
                lane: 0,
                flow: 0,
                t: 0.75,
                from: "Startup".into(),
                to: "Drain".into(),
            },
            TraceRecord::Signal {
                lane: 1,
                flow: 2,
                t: 0.5,
                signal: "inflight_hi".into(),
                value: 64.125,
            },
        ];
        for r in &records {
            let line = r.to_line();
            assert!(line.contains("\"v\":\"trace/v1\""), "{line}");
            let back = TraceRecord::parse_line(&line).unwrap();
            assert_eq!(&back, r, "round trip changed the record: {line}");
        }
    }

    /// One record of every kind, each number a finite float drawn from
    /// `bits` (so subnormals, `-0.0`, and extreme exponents all occur),
    /// the fluid engine's `x_dlv` signal among them.
    fn records_from(bits: &[u64], lane: usize, flow: usize) -> Vec<TraceRecord> {
        let num = |k: usize| {
            let v = f64::from_bits(bits[k % bits.len()]);
            if v.is_finite() {
                v
            } else {
                -0.0
            }
        };
        vec![
            TraceRecord::Header {
                spec_hash: bits[0],
                backend: "fluid".into(),
                seed: bits[1],
                interval: num(2),
                label: "dumbbell \"n=2\" \\ 1\u{2009}BDP\n".into(),
            },
            TraceRecord::Flow {
                lane,
                flow,
                t: num(0),
                rate_mbps: num(1),
                inflight_pkts: num(2),
                rtt_s: num(3),
            },
            TraceRecord::Link {
                lane,
                link: flow,
                t: num(4),
                queue_frac: num(5),
                util_frac: num(6),
                loss_frac: num(7),
            },
            TraceRecord::Phase {
                lane,
                flow,
                t: num(3),
                from: "ProbeBwUp".into(),
                to: "ProbeBwDown".into(),
            },
            TraceRecord::Signal {
                lane,
                flow,
                t: num(5),
                signal: "x_dlv".into(),
                value: num(6),
            },
            TraceRecord::Signal {
                lane,
                flow,
                t: num(7),
                signal: "inflight_hi".into(),
                value: num(1),
            },
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn every_record_kind_round_trips_bit_exactly(
            bits in proptest::collection::vec(0u64..u64::MAX, 8..9),
            lane in 0usize..1 << 20,
            flow in 0usize..1 << 20,
        ) {
            for record in records_from(&bits, lane, flow) {
                let line = record.to_line();
                let back = TraceRecord::parse_line(&line).unwrap();
                proptest::prop_assert_eq!(back, record);
                // Floats are written in their shortest round-trip form,
                // so equal lines mean equal bits (`-0.0` included).
                proptest::prop_assert_eq!(back.to_line(), line);
            }
        }

        #[test]
        fn hostile_lines_give_errors_not_panics(
            noise in proptest::collection::vec(0u16..256, 0..160),
            bits in proptest::collection::vec(0u64..u64::MAX, 8..9),
            at in 0usize..4096,
            byte in 0u16..256,
        ) {
            // Arbitrary bytes: any outcome but a panic.
            let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
            let _ = TraceRecord::parse_line(&String::from_utf8_lossy(&noise));
            for record in records_from(&bits, 7, 3) {
                let line = record.to_line();
                // Every strict prefix (a torn final line) is an error.
                for end in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
                    proptest::prop_assert!(
                        TraceRecord::parse_line(&line[..end]).is_err(),
                        "prefix {end} of {line} parsed"
                    );
                }
                // One corrupted byte: any outcome but a panic.
                let mut bytes = line.into_bytes();
                let i = at % bytes.len();
                bytes[i] = byte as u8;
                let _ = TraceRecord::parse_line(&String::from_utf8_lossy(&bytes));
            }
        }
    }

    #[test]
    fn from_event_mirrors_every_variant() {
        let e = TraceEvent::CcaPhase {
            lane: 0,
            flow: 4,
            t: 0.2,
            from: "ProbeBwUp",
            to: "ProbeBwDown",
        };
        match TraceRecord::from_event(&e) {
            TraceRecord::Phase { flow, from, to, .. } => {
                assert_eq!(flow, 4);
                assert_eq!(from, "ProbeBwUp");
                assert_eq!(to, "ProbeBwDown");
            }
            other => panic!("wrong record: {other:?}"),
        }
        assert_eq!(
            TraceRecord::from_event(&TraceEvent::FlowSample {
                lane: 0,
                flow: 0,
                t: 0.0,
                rate_mbps: 1.0,
                inflight_pkts: 2.0,
                rtt_s: 0.03,
            })
            .kind(),
            "flow"
        );
    }

    #[test]
    fn parse_rejects_foreign_and_malformed_lines() {
        assert!(TraceRecord::parse_line("not json").is_err());
        // telemetry/v1 lines live in a different file; parsing one here
        // must fail loudly, not mis-assemble.
        assert!(TraceRecord::parse_line(r#"{"v":"telemetry/v1","kind":"wave"}"#).is_err());
        assert!(TraceRecord::parse_line(r#"{"v":"trace/v1","kind":"nope"}"#).is_err());
        assert!(
            TraceRecord::parse_line(r#"{"v":"trace/v1","kind":"flow","lane":0}"#).is_err(),
            "missing fields must not default"
        );
    }

    #[test]
    fn cell_trace_assembles_per_lane_series() {
        let events = vec![
            TraceEvent::FlowSample {
                lane: 1,
                flow: 0,
                t: 0.0,
                rate_mbps: 10.0,
                inflight_pkts: 5.0,
                rtt_s: 0.03,
            },
            // Another lane: must be filtered out.
            TraceEvent::FlowSample {
                lane: 0,
                flow: 0,
                t: 0.0,
                rate_mbps: 99.0,
                inflight_pkts: 9.0,
                rtt_s: 0.09,
            },
            TraceEvent::FlowSample {
                lane: 1,
                flow: 0,
                t: 0.01,
                rate_mbps: 20.0,
                inflight_pkts: 6.0,
                rtt_s: 0.031,
            },
            TraceEvent::LinkSample {
                lane: 1,
                link: 0,
                t: 0.0,
                queue_frac: 0.25,
                util_frac: 0.9,
                loss_frac: 0.0,
            },
            TraceEvent::CcaPhase {
                lane: 1,
                flow: 0,
                t: 0.005,
                from: "Startup",
                to: "Drain",
            },
            TraceEvent::CcaSignal {
                lane: 1,
                flow: 0,
                t: 0.006,
                signal: "btlbw",
                value: 48.0,
            },
        ];
        let cell = CellTrace::from_events(&events, 1);
        assert_eq!(cell.flows.len(), 1);
        assert_eq!(cell.flows[0].t, vec![0.0, 0.01]);
        assert_eq!(cell.flows[0].rate_mbps, vec![10.0, 20.0]);
        assert_eq!(cell.links.len(), 1);
        assert_eq!(cell.links[0].util_frac, vec![0.9]);
        assert_eq!(cell.phases[0].len(), 1);
        assert_eq!(cell.signals[0][0].1, "btlbw");
        // By-name lookup: the one btlbw update, nothing for other names
        // or flows.
        let btlbw = cell.signal(0, "btlbw");
        assert_eq!((btlbw.t, btlbw.value), (vec![0.006], vec![48.0]));
        assert_eq!(cell.signal(0, "x_dlv"), SignalSeries::default());
        assert_eq!(cell.signal(5, "btlbw"), SignalSeries::default());
        // Phase lookup: Startup before the transition, Drain after.
        assert_eq!(cell.phase_at(0, 0.0), "Startup");
        assert_eq!(cell.phase_at(0, 0.01), "Drain");
        // Unknown flows default to Startup.
        assert_eq!(cell.phase_at(7, 1.0), "Startup");
        // Render and CSV cover every series.
        let frame = cell.render(20);
        assert!(frame.contains("flow 0 rate"), "{frame}");
        assert!(frame.contains("link 0 util"), "{frame}");
        assert!(frame.contains("Startup -[0.01s]-> Drain"), "{frame}");
        let csv = cell.csv();
        assert_eq!(csv.lines().count(), 1 + 2 + 1); // header + 2 flow + 1 link
        assert!(csv.starts_with("series,index,t,"));
    }

    #[test]
    fn sparkline_maps_peak_to_brightest_glyph() {
        let s = sparkline(&[0.0, 0.5, 1.0], 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.as_bytes()[0], b' ');
        assert_eq!(s.as_bytes()[2], b'@');
        // All-zero and empty series render blank at the requested width.
        assert_eq!(sparkline(&[0.0; 8], 4), "    ");
        assert_eq!(sparkline(&[], 5), "     ");
        // Longer series bucket down to the width.
        let many: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        assert_eq!(sparkline(&many, 10).len(), 10);
    }

    #[test]
    fn jsonl_sink_appends_parseable_lines() {
        let dir = std::env::temp_dir().join(format!("bbr-tracefmt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(TRACE_FILE);
        let _ = std::fs::remove_file(&path);
        let sink = JsonlTraceSink::append_to(&path).unwrap();
        sink.write_record(&TraceRecord::Header {
            spec_hash: 1,
            backend: "fluid".into(),
            seed: 2,
            interval: 0.01,
            label: "test".into(),
        });
        sink.record(&TraceEvent::LinkSample {
            lane: 0,
            link: 0,
            t: 0.5,
            queue_frac: 0.1,
            util_frac: 0.8,
            loss_frac: 0.0,
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(matches!(
            TraceRecord::parse_line(lines[0]).unwrap(),
            TraceRecord::Header { .. }
        ));
        assert!(matches!(
            TraceRecord::parse_line(lines[1]).unwrap(),
            TraceRecord::Link { .. }
        ));
        let _ = std::fs::remove_file(&path);
    }
}
