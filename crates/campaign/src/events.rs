//! `telemetry/v1` JSONL sidecar: the on-disk encoding of
//! [`bbr_telemetry::Event`]s.
//!
//! A campaign's workers append their telemetry to `events.jsonl` next
//! to `results.jsonl` in the store directory, one event per line,
//! through the same hand-rolled [`crate::json`] module as the record
//! store (no serde). The sidecar is **advisory**: it feeds progress
//! UIs (`figures watch`) and post-hoc analysis, but store keys, resume
//! semantics, and campaign results never depend on it — deleting
//! `events.jsonl` loses nothing but history.
//!
//! Concurrency: [`JsonlSink`] appends through a [`JsonlFile`], which
//! opens the file in append mode and writes each event as one
//! `write_all` of a whole line, so concurrent worker processes
//! interleave *lines*, never bytes within a line (the same
//! O_APPEND discipline the shard files rely on). A reader must still
//! tolerate a torn final line — a worker killed mid-append — which is
//! what [`crate::tail::TailCursor`] does without ever mutating the
//! file.
//!
//! Wire format (field order fixed; `u64` hashes as lowercase hex
//! strings, like the record store):
//!
//! ```json
//! {"v":"telemetry/v1","kind":"heartbeat","shard":0,"shards":2,
//!  "computed":12,"planned":36,"cached":0,"wall_ms":812.5,
//!  "cells_per_sec":14.8,"spec":"9e3779b97f4a7c15"}
//! ```

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bbr_telemetry::{Event, Sink, SCHEMA};

use crate::json::Json;

/// Name of the telemetry sidecar file inside a store directory.
pub const EVENTS_FILE: &str = "events.jsonl";

/// Path of the telemetry sidecar under a store directory.
pub fn events_path(store_dir: &Path) -> PathBuf {
    store_dir.join(EVENTS_FILE)
}

/// Serialize one event as a single `telemetry/v1` JSONL line (no
/// trailing newline).
pub fn event_to_line(event: &Event) -> String {
    let mut fields: Vec<(String, Json)> = vec![
        ("v".into(), Json::str(SCHEMA)),
        ("kind".into(), Json::str(event.kind())),
    ];
    let mut num = |name: &str, v: f64| fields.push((name.into(), Json::Num(v)));
    match event {
        Event::ShardStart {
            shard,
            shards,
            planned,
            cached,
        } => {
            num("shard", *shard as f64);
            num("shards", *shards as f64);
            num("planned", *planned as f64);
            num("cached", *cached as f64);
        }
        Event::Heartbeat {
            shard,
            shards,
            computed,
            planned,
            cached,
            wall_ms,
            cells_per_sec,
            spec_hash,
        } => {
            num("shard", *shard as f64);
            num("shards", *shards as f64);
            num("computed", *computed as f64);
            num("planned", *planned as f64);
            num("cached", *cached as f64);
            num("wall_ms", *wall_ms);
            num("cells_per_sec", *cells_per_sec);
            fields.push(("spec".into(), Json::hex(*spec_hash)));
        }
        Event::ShardDone {
            shard,
            shards,
            computed,
            cached,
            wall_ms,
            cells_per_sec,
        } => {
            num("shard", *shard as f64);
            num("shards", *shards as f64);
            num("computed", *computed as f64);
            num("cached", *cached as f64);
            num("wall_ms", *wall_ms);
            num("cells_per_sec", *cells_per_sec);
        }
        Event::Wave {
            lanes,
            flows,
            occupancy,
            wall_ms,
        } => {
            num("lanes", *lanes as f64);
            num("flows", *flows as f64);
            num("occupancy", *occupancy);
            num("wall_ms", *wall_ms);
        }
        Event::CampaignDone {
            entries,
            computed,
            cached,
            shards,
            failed,
            wall_ms,
            cells_per_sec,
        } => {
            num("entries", *entries as f64);
            num("computed", *computed as f64);
            num("cached", *cached as f64);
            num("shards", *shards as f64);
            num("failed", *failed as f64);
            num("wall_ms", *wall_ms);
            num("cells_per_sec", *cells_per_sec);
        }
    }
    Json::Obj(fields).to_compact_string()
}

/// Parse one `telemetry/v1` JSONL line back into an event.
pub fn parse_event(line: &str) -> Result<Event, String> {
    let doc = Json::parse(line)?;
    let v = doc.field("v")?.as_str().ok_or("bad schema tag")?;
    if v != SCHEMA {
        return Err(format!("unsupported telemetry schema `{v}`"));
    }
    let count = |name: &str| -> Result<usize, String> {
        doc.field(name)?
            .as_usize()
            .ok_or_else(|| format!("bad count `{name}`"))
    };
    let num = |name: &str| -> Result<f64, String> {
        doc.field(name)?
            .as_f64()
            .ok_or_else(|| format!("bad number `{name}`"))
    };
    match doc.field("kind")?.as_str().ok_or("bad kind tag")? {
        "shard_start" => Ok(Event::ShardStart {
            shard: count("shard")?,
            shards: count("shards")?,
            planned: count("planned")?,
            cached: count("cached")?,
        }),
        "heartbeat" => Ok(Event::Heartbeat {
            shard: count("shard")?,
            shards: count("shards")?,
            computed: count("computed")?,
            planned: count("planned")?,
            cached: count("cached")?,
            wall_ms: num("wall_ms")?,
            cells_per_sec: num("cells_per_sec")?,
            spec_hash: doc.field("spec")?.as_hex_u64().ok_or("bad spec hash")?,
        }),
        "shard_done" => Ok(Event::ShardDone {
            shard: count("shard")?,
            shards: count("shards")?,
            computed: count("computed")?,
            cached: count("cached")?,
            wall_ms: num("wall_ms")?,
            cells_per_sec: num("cells_per_sec")?,
        }),
        "campaign_done" => Ok(Event::CampaignDone {
            entries: count("entries")?,
            computed: count("computed")?,
            cached: count("cached")?,
            shards: count("shards")?,
            // Additive in telemetry/v1: sidecars written before the
            // field existed parse as fully-successful campaigns.
            failed: doc.get("failed").and_then(|v| v.as_usize()).unwrap_or(0),
            wall_ms: num("wall_ms")?,
            cells_per_sec: num("cells_per_sec")?,
        }),
        "wave" => Ok(Event::Wave {
            lanes: count("lanes")?,
            flows: count("flows")?,
            // Additive in telemetry/v1: old sidecars report full packs.
            occupancy: doc.get("occupancy").and_then(|v| v.as_f64()).unwrap_or(1.0),
            wall_ms: num("wall_ms")?,
        }),
        other => Err(format!("unknown event kind `{other}`")),
    }
}

/// An append-only JSONL file under [`JsonlSink`] and the trace sink of
/// `bbr_experiments::tracefmt`: opened with `O_APPEND`, one `write_all`
/// per whole line, so concurrent writers (threads or processes)
/// interleave lines, never bytes. Write errors are swallowed: a full
/// disk must not kill the run an advisory sidecar observes.
#[derive(Debug)]
pub struct JsonlFile {
    file: Mutex<File>,
}

impl JsonlFile {
    /// Open (creating if needed) `path` for appending.
    pub fn append_to(path: &Path) -> std::io::Result<JsonlFile> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlFile {
            file: Mutex::new(file),
        })
    }

    /// Append `line` and a newline in one write.
    pub fn write_line(&self, mut line: String) {
        line.push('\n');
        let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let _ = file.write_all(line.as_bytes());
    }
}

/// A [`Sink`] appending events to a store's `events.jsonl` sidecar
/// through a [`JsonlFile`].
pub struct JsonlSink {
    file: JsonlFile,
    path: PathBuf,
}

impl JsonlSink {
    /// Open (creating if needed) the sidecar of the store at
    /// `store_dir` for appending.
    pub fn create(store_dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(store_dir)
            .map_err(|e| format!("cannot create store dir {}: {e}", store_dir.display()))?;
        let path = events_path(store_dir);
        let file = JsonlFile::append_to(&path)
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
        Ok(Self { file, path })
    }

    /// Path of the sidecar file this sink appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        self.file.write_line(event_to_line(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::ShardStart {
                shard: 0,
                shards: 4,
                planned: 27,
                cached: 9,
            },
            Event::Heartbeat {
                shard: 3,
                shards: 4,
                computed: 12,
                planned: 27,
                cached: 9,
                wall_ms: 812.5,
                cells_per_sec: 14.765_432_1,
                spec_hash: 0x9e37_79b9_7f4a_7c15,
            },
            Event::ShardDone {
                shard: 3,
                shards: 4,
                computed: 27,
                cached: 9,
                wall_ms: 1900.25,
                cells_per_sec: 14.2,
            },
            Event::Wave {
                lanes: 5,
                flows: 16,
                occupancy: 0.8125,
                wall_ms: 3.75,
            },
            Event::CampaignDone {
                entries: 144,
                computed: 108,
                cached: 36,
                shards: 4,
                failed: 1,
                wall_ms: 2100.0,
                cells_per_sec: 51.428_571,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips_exactly() {
        for ev in samples() {
            let line = event_to_line(&ev);
            assert!(!line.contains('\n'));
            assert!(line.contains("\"v\":\"telemetry/v1\""));
            assert_eq!(parse_event(&line).unwrap(), ev, "line: {line}");
        }
    }

    #[test]
    fn pre_additive_lines_parse_with_defaults() {
        // Lines written before `occupancy` / `failed` existed must
        // still parse: additive schema evolution within telemetry/v1.
        let wave = parse_event(
            "{\"v\":\"telemetry/v1\",\"kind\":\"wave\",\"lanes\":5.0,\
             \"flows\":16.0,\"wall_ms\":3.75}",
        )
        .unwrap();
        assert_eq!(
            wave,
            Event::Wave {
                lanes: 5,
                flows: 16,
                occupancy: 1.0,
                wall_ms: 3.75,
            }
        );
        let done = parse_event(
            "{\"v\":\"telemetry/v1\",\"kind\":\"campaign_done\",\
             \"entries\":144.0,\"computed\":108.0,\"cached\":36.0,\
             \"shards\":4.0,\"wall_ms\":2100.0,\"cells_per_sec\":51.4}",
        )
        .unwrap();
        match done {
            Event::CampaignDone { failed, .. } => assert_eq!(failed, 0),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn rejects_foreign_schemas_and_kinds() {
        assert!(parse_event("{\"v\":\"telemetry/v2\",\"kind\":\"wave\"}").is_err());
        assert!(parse_event("{\"v\":\"telemetry/v1\",\"kind\":\"dance\"}").is_err());
        assert!(parse_event("{\"kind\":\"wave\"}").is_err());
        assert!(parse_event("not json").is_err());
    }

    /// One event of every kind: counts drawn from `counts` (each at most
    /// `u32::MAX`, the cap `Json::as_usize` applies), floats from `bits`
    /// (any `f64`: NaN, ±∞, −0.0 and subnormals included), the heartbeat
    /// spec hash `hash`.
    fn events_from(counts: &[u64], bits: &[u64], hash: u64) -> Vec<Event> {
        let n = |k: usize| counts[k % counts.len()] as usize;
        let x = |k: usize| f64::from_bits(bits[k % bits.len()]);
        vec![
            Event::ShardStart {
                shard: n(0),
                shards: n(1),
                planned: n(2),
                cached: n(3),
            },
            Event::Heartbeat {
                shard: n(1),
                shards: n(2),
                computed: n(3),
                planned: n(4),
                cached: n(5),
                wall_ms: x(0),
                cells_per_sec: x(1),
                spec_hash: hash,
            },
            Event::ShardDone {
                shard: n(2),
                shards: n(3),
                computed: n(4),
                cached: n(5),
                wall_ms: x(2),
                cells_per_sec: x(3),
            },
            Event::Wave {
                lanes: n(4),
                flows: n(5),
                occupancy: x(4),
                wall_ms: x(5),
            },
            Event::CampaignDone {
                entries: n(6),
                computed: n(0),
                cached: n(1),
                shards: n(2),
                failed: n(3),
                wall_ms: x(6),
                cells_per_sec: x(0),
            },
        ]
    }

    /// Every kind at the extremes uniform draws almost never hit.
    fn edge_events() -> Vec<Event> {
        let counts = [0, u32::MAX as u64];
        let bits = [f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY].map(f64::to_bits);
        [0, u64::MAX]
            .map(|hash| events_from(&counts, &bits, hash))
            .concat()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn every_event_kind_round_trips_through_its_line(
            counts in proptest::collection::vec(0u64..u32::MAX as u64 + 1, 7..8),
            bits in proptest::collection::vec(0u64..u64::MAX, 7..8),
            hash in 0u64..u64::MAX,
        ) {
            for event in events_from(&counts, &bits, hash).into_iter().chain(edge_events()) {
                let line = event_to_line(&event);
                let back = parse_event(&line).unwrap();
                // Floats are written in their shortest round-trip form
                // (non-finite ones as strings), so equal lines mean equal
                // events, NaN and -0.0 included.
                proptest::prop_assert_eq!(event_to_line(&back), line);
            }
        }

        #[test]
        fn hostile_lines_give_errors_not_panics(
            noise in proptest::collection::vec(0u16..256, 0..160),
            counts in proptest::collection::vec(0u64..u32::MAX as u64 + 1, 7..8),
            bits in proptest::collection::vec(0u64..u64::MAX, 7..8),
            hash in 0u64..u64::MAX,
            at in 0usize..4096,
            byte in 0u16..256,
        ) {
            // Arbitrary bytes: any outcome but a panic.
            let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
            let _ = parse_event(&String::from_utf8_lossy(&noise));
            for event in events_from(&counts, &bits, hash) {
                let line = event_to_line(&event);
                // Every strict prefix (a torn final line) is an error.
                for end in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
                    proptest::prop_assert!(
                        parse_event(&line[..end]).is_err(),
                        "prefix {end} of {line} parsed"
                    );
                }
                // One corrupted byte: any outcome but a panic.
                let mut bytes = line.into_bytes();
                let i = at % bytes.len();
                bytes[i] = byte as u8;
                let _ = parse_event(&String::from_utf8_lossy(&bytes));
            }
        }
    }

    #[test]
    fn sink_appends_parseable_lines_across_reopens() {
        let dir = std::env::temp_dir().join(format!("bbr-events-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let events = samples();
        {
            let sink = JsonlSink::create(&dir).unwrap();
            assert!(sink.path().ends_with(EVENTS_FILE));
            for ev in &events[..2] {
                sink.record(ev);
            }
        }
        {
            // A second sink (a later worker) appends, never truncates.
            let sink = JsonlSink::create(&dir).unwrap();
            for ev in &events[2..] {
                sink.record(ev);
            }
        }
        let text = std::fs::read_to_string(events_path(&dir)).unwrap();
        let parsed: Vec<Event> = text.lines().map(|l| parse_event(l).unwrap()).collect();
        assert_eq!(parsed, events);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
