//! The `figures watch` workbench: a hand-rolled ANSI terminal view of a
//! (possibly still-growing) campaign store.
//!
//! The watcher is a *strictly read-only* consumer: it loads `plan.json`
//! once, then tails `results.jsonl` (progress + heatmap, the ground
//! truth) and `events.jsonl` (worker heartbeats — advisory) through
//! [`bbr_campaign::TailCursor`], which skips torn tails without ever
//! repairing them. Watching a live campaign perturbs nothing: no file
//! is opened for writing, no byte of the store changes, and resume
//! semantics are untouched (a watched-then-resumed campaign still
//! reports `computed=0`).
//!
//! Rendering is split from the terminal loop so the frame itself is a
//! deterministic `String` ([`WatchState::render`]): `figures watch
//! --once` prints one plain-text frame and exits (CI- and
//! golden-test-friendly), while the live mode redraws the same frame
//! under an ANSI clear at `--interval` milliseconds. The redraw cost is
//! tracked by `crates/bench/benches/watch.rs` so a fancier frame never
//! creeps onto the polling hot path.
//!
//! The heatmap bins the sweep over two grid axes ([`Axis`], chosen via
//! `--axes X,Y`) and shades each bin by the mean `utilization_percent`
//! of every record whose cell lands in it — all backends and run
//! repetitions pooled, matching the summary-first spirit of the paper's
//! sweep figures.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use bbr_campaign::json::Json;
use bbr_campaign::store::parse_record;
use bbr_campaign::{events_path, parse_event, CampaignPlan, CellKey, TailCursor, RESULTS_FILE};
use bbr_scenario::{ScenarioSpec, Topology};
use bbr_telemetry::Event;

use crate::campaign::build_backend;

/// A sweep-grid axis the heatmap can bin over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Bottleneck buffer size in BDP (every topology family has one).
    Buffer,
    /// CCA mix label (`"BBRv1"`, `"BBRv1/CUBIC"`, ...).
    Cca,
    /// Queueing discipline (`DropTail` / `Red`).
    Qdisc,
    /// Topology family (`Dumbbell` / `ParkingLot` / `Chain`).
    Topology,
    /// Flow count.
    Flows,
    /// Churn pattern (`none` / `late` / `early`).
    Churn,
}

impl Axis {
    /// Parse one axis name as accepted by `--axes X,Y`.
    pub fn parse(name: &str) -> Option<Axis> {
        match name {
            "buffer" => Some(Axis::Buffer),
            "cca" => Some(Axis::Cca),
            "qdisc" => Some(Axis::Qdisc),
            "topo" | "topology" => Some(Axis::Topology),
            "flows" => Some(Axis::Flows),
            "churn" => Some(Axis::Churn),
            _ => None,
        }
    }

    /// The axis name as printed in frames and accepted by `--axes`.
    pub fn label(&self) -> &'static str {
        match self {
            Axis::Buffer => "buffer",
            Axis::Cca => "cca",
            Axis::Qdisc => "qdisc",
            Axis::Topology => "topo",
            Axis::Flows => "flows",
            Axis::Churn => "churn",
        }
    }

    /// The bin a spec falls into on this axis.
    pub fn value_of(&self, spec: &ScenarioSpec) -> String {
        match self {
            Axis::Buffer => {
                let b = match &spec.topology {
                    &Topology::Dumbbell { buffer_bdp, .. } => buffer_bdp,
                    &Topology::ParkingLot { buffer_bdp, .. } => buffer_bdp,
                    &Topology::Chain { buffer_bdp, .. } => buffer_bdp,
                    // Per-link buffer depths: bin by the first link's.
                    Topology::Custom { links, .. } => {
                        links.first().map(|l| l.buffer_bdp).unwrap_or(0.0)
                    }
                };
                format!("{b}bdp")
            }
            Axis::Cca => {
                let names: Vec<&str> = spec.ccas.iter().map(|c| c.name()).collect();
                names.join("/")
            }
            Axis::Qdisc => spec.qdisc.name().to_string(),
            Axis::Topology => spec.topology.kind_name().to_string(),
            Axis::Flows => format!("{}f", spec.n_flows()),
            Axis::Churn => {
                if !spec.has_churn() {
                    "none".into()
                } else if spec.churn.iter().any(|w| w.start > 0.0) {
                    "late".into()
                } else if spec.churn.iter().any(|w| w.stop.is_finite()) {
                    "early".into()
                } else {
                    "churn".into()
                }
            }
        }
    }
}

/// Parse a `--axes X,Y` value (X = heatmap columns, Y = rows).
pub fn parse_axes(value: &str) -> Result<(Axis, Axis), String> {
    let err =
        || format!("bad --axes `{value}` (expected X,Y from: buffer cca qdisc topo flows churn)");
    let (x, y) = value.split_once(',').ok_or_else(err)?;
    match (Axis::parse(x.trim()), Axis::parse(y.trim())) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(err()),
    }
}

/// Latest known state of one worker shard, folded from its events
/// (latest event wins, so a resumed campaign's fresh `shard_start`
/// supersedes the previous run's `shard_done`).
#[derive(Debug, Clone, Copy, Default)]
struct ShardView {
    planned: usize,
    cached: usize,
    computed: usize,
    cells_per_sec: f64,
    finished: bool,
}

/// Running totals over the integrator's `wave` events.
#[derive(Debug, Clone, Copy, Default)]
struct WaveStats {
    count: usize,
    lanes: usize,
    flows: usize,
    /// Summed pack occupancy (1.0 per wave from the unpacked engine;
    /// packed lanes / vector width from the SIMD engine) — divide by
    /// `count` for the mean.
    occupancy: f64,
    wall_ms: f64,
}

/// Counters per event kind, for the frame's telemetry footer.
#[derive(Debug, Clone, Copy, Default)]
struct EventCounts {
    starts: usize,
    heartbeats: usize,
    dones: usize,
    campaigns: usize,
}

/// Everything `figures watch` knows about a store: the plan-derived
/// layout (fixed at attach time) plus the tailed, incrementally updated
/// progress. [`WatchState::poll`] folds in whatever grew since the last
/// poll; [`WatchState::render`] turns the state into one plain-text
/// frame.
pub struct WatchState {
    store_dir: PathBuf,
    effort: String,
    cells: usize,
    backends_desc: String,
    /// Entry key → plan cell index, for every supported
    /// `(cell, backend, run_index)` triple — `CampaignPlan::entries`, as
    /// `bbr_campaign::planned_entries` counts them, kept per-key so
    /// records can be matched back to their heatmap bin.
    expected: HashMap<CellKey, usize>,
    done: HashSet<CellKey>,
    stale_records: usize,
    malformed_records: usize,
    results_cursor: TailCursor,
    events_cursor: TailCursor,
    // Heatmap layout: bins in first-appearance (plan) order.
    axes: (Axis, Axis),
    x_bins: Vec<String>,
    y_bins: Vec<String>,
    cell_bin: Vec<(usize, usize)>,
    bin_sum: Vec<f64>,
    bin_count: Vec<usize>,
    // Telemetry (advisory).
    events_seen: usize,
    malformed_events: usize,
    counts: EventCounts,
    shards_total: usize,
    shard_latest: BTreeMap<usize, ShardView>,
    waves: WaveStats,
    campaign_done: Option<CampaignClose>,
}

/// The parent's closing `campaign_done` record, if one arrived.
#[derive(Debug, Clone, Copy)]
struct CampaignClose {
    shards: usize,
    failed: usize,
    wall_ms: f64,
    cells_per_sec: f64,
}

impl WatchState {
    /// Attach to the store at `store_dir` (which must hold a
    /// `plan.json`) without reading any records yet — call
    /// [`WatchState::poll`] to ingest the current file contents.
    pub fn new(store_dir: &Path, axes: (Axis, Axis)) -> Result<Self, String> {
        let plan = CampaignPlan::load(store_dir).map_err(|e| {
            format!(
                "cannot watch {}: {e} (a campaign writes plan.json when it starts)",
                store_dir.display()
            )
        })?;
        let backends_desc = plan
            .backends
            .iter()
            .map(|sel| format!("{} x{}", sel.name, sel.runs))
            .collect::<Vec<_>>()
            .join(" + ");
        // A backend this host cannot build (a foreign store) is assumed
        // to support every cell — the watcher degrades to an upper-bound
        // entry count instead of refusing.
        let backends: Vec<_> = plan
            .backends
            .iter()
            .map(|sel| build_backend(&plan, sel))
            .collect();
        let expected: HashMap<CellKey, usize> = plan
            .entries(|b, spec| backends[b].as_ref().is_none_or(|e| e.supports(spec)))
            .into_iter()
            .map(|e| (e.key, e.cell))
            .collect();
        let mut x_bins: Vec<String> = Vec::new();
        let mut y_bins: Vec<String> = Vec::new();
        let mut cell_bin = Vec::with_capacity(plan.cells.len());
        let bin_index =
            |bins: &mut Vec<String>, value: String| match bins.iter().position(|b| *b == value) {
                Some(i) => i,
                None => {
                    bins.push(value);
                    bins.len() - 1
                }
            };
        for cell in &plan.cells {
            let xi = bin_index(&mut x_bins, axes.0.value_of(&cell.spec));
            let yi = bin_index(&mut y_bins, axes.1.value_of(&cell.spec));
            cell_bin.push((xi, yi));
        }
        let bins = x_bins.len() * y_bins.len();
        Ok(Self {
            store_dir: store_dir.to_path_buf(),
            effort: plan.effort.clone(),
            cells: plan.cells.len(),
            backends_desc,
            expected,
            done: HashSet::new(),
            stale_records: 0,
            malformed_records: 0,
            results_cursor: TailCursor::new(store_dir.join(RESULTS_FILE)),
            events_cursor: TailCursor::new(events_path(store_dir)),
            axes,
            x_bins,
            y_bins,
            cell_bin,
            bin_sum: vec![0.0; bins],
            bin_count: vec![0; bins],
            events_seen: 0,
            malformed_events: 0,
            counts: EventCounts::default(),
            shards_total: 0,
            shard_latest: BTreeMap::new(),
            waves: WaveStats::default(),
            campaign_done: None,
        })
    }

    /// Total supported entries of the plan (the "done / total"
    /// denominator).
    pub fn total_entries(&self) -> usize {
        self.expected.len()
    }

    /// Entries currently present in the store.
    pub fn done_entries(&self) -> usize {
        self.done.len()
    }

    /// Whether every planned entry is in the store.
    pub fn finished(&self) -> bool {
        !self.expected.is_empty() && self.done.len() >= self.expected.len()
    }

    /// Telemetry events ingested so far.
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Ingest everything the store files grew since the last poll.
    /// Strictly read-only; cheap when nothing changed (two stats).
    pub fn poll(&mut self) -> Result<(), String> {
        for line in self.results_cursor.poll()? {
            // A live store's mid-file lines are good by the writer
            // contract, but a watcher must not die on one bad byte the
            // way the resume path (rightly) does — count and move on.
            let Ok((key, outcome)) = parse_record(&line) else {
                self.malformed_records += 1;
                continue;
            };
            match self.expected.get(&key) {
                Some(&cell_index) => {
                    if self.done.insert(key) {
                        let (xi, yi) = self.cell_bin[cell_index];
                        let bin = yi * self.x_bins.len() + xi;
                        self.bin_sum[bin] += outcome.utilization_percent;
                        self.bin_count[bin] += 1;
                    }
                }
                // Records of another grid generation sharing the store
                // (content-addressed stores outlive plans).
                None => self.stale_records += 1,
            }
        }
        for line in self.events_cursor.poll()? {
            let Ok(event) = parse_event(&line) else {
                self.malformed_events += 1;
                continue;
            };
            self.events_seen += 1;
            match event {
                Event::ShardStart {
                    shard,
                    shards,
                    planned,
                    cached,
                } => {
                    self.counts.starts += 1;
                    self.shards_total = self.shards_total.max(shards);
                    self.shard_latest.insert(
                        shard,
                        ShardView {
                            planned,
                            cached,
                            ..ShardView::default()
                        },
                    );
                }
                Event::Heartbeat {
                    shard,
                    shards,
                    computed,
                    planned,
                    cached,
                    cells_per_sec,
                    ..
                } => {
                    self.counts.heartbeats += 1;
                    self.shards_total = self.shards_total.max(shards);
                    let view = self.shard_latest.entry(shard).or_default();
                    *view = ShardView {
                        planned,
                        cached,
                        computed,
                        cells_per_sec,
                        finished: false,
                    };
                }
                Event::ShardDone {
                    shard,
                    shards,
                    computed,
                    cached,
                    cells_per_sec,
                    ..
                } => {
                    self.counts.dones += 1;
                    self.shards_total = self.shards_total.max(shards);
                    let view = self.shard_latest.entry(shard).or_default();
                    view.computed = computed;
                    view.cached = cached;
                    view.cells_per_sec = cells_per_sec;
                    view.finished = true;
                }
                Event::Wave {
                    lanes,
                    flows,
                    occupancy,
                    wall_ms,
                } => {
                    self.waves.count += 1;
                    self.waves.lanes += lanes;
                    self.waves.flows += flows;
                    self.waves.occupancy += occupancy;
                    self.waves.wall_ms += wall_ms;
                }
                Event::CampaignDone {
                    shards,
                    failed,
                    wall_ms,
                    cells_per_sec,
                    ..
                } => {
                    self.counts.campaigns += 1;
                    self.shards_total = self.shards_total.max(shards);
                    self.campaign_done = Some(CampaignClose {
                        shards,
                        failed,
                        wall_ms,
                        cells_per_sec,
                    });
                }
            }
        }
        Ok(())
    }

    /// Aggregate computed-cells throughput: the campaign-level rate once
    /// the run closed, else the sum of the live per-shard rates.
    fn aggregate_rate(&self) -> f64 {
        if let Some(close) = self.campaign_done {
            return close.cells_per_sec;
        }
        // `+ 0.0` normalizes the empty sum, which is -0.0 on current
        // Rust, so an idle frame prints "0.0" not "-0.0".
        self.shard_latest
            .values()
            .map(|v| v.cells_per_sec)
            .sum::<f64>()
            + 0.0
    }

    /// Cache-hit ratio of the *current run* per its workers' telemetry:
    /// cached / (cached + planned-to-compute), or `None` before any
    /// shard reported.
    fn cache_hit(&self) -> Option<(f64, usize, usize)> {
        if self.shard_latest.is_empty() {
            return None;
        }
        let cached: usize = self.shard_latest.values().map(|v| v.cached).sum();
        let planned: usize = self.shard_latest.values().map(|v| v.planned).sum();
        let total = cached + planned;
        if total == 0 {
            return Some((100.0, cached, total));
        }
        Some((100.0 * cached as f64 / total as f64, cached, total))
    }

    /// Render one fixed-width plain-text frame (no ANSI escapes — the
    /// live loop adds clear/home around it; `--once` prints it as-is).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.total_entries();
        let done = self.done_entries();
        writeln!(
            out,
            "watch {}: {} cells, backends {}, effort {}",
            self.store_dir.display(),
            self.cells,
            self.backends_desc,
            self.effort
        )
        .unwrap();
        let frac = if total > 0 {
            done as f64 / total as f64
        } else {
            0.0
        };
        writeln!(
            out,
            "entries  [{}] {done}/{total} ({:.1}%)",
            bar(frac, 40),
            100.0 * frac
        )
        .unwrap();
        match self.cache_hit() {
            Some((pct, cached, of)) => writeln!(
                out,
                "cache    {pct:.1}% hit ({cached} cached of {of} this run)"
            )
            .unwrap(),
            None => writeln!(out, "cache    n/a (no worker telemetry)").unwrap(),
        }
        let rate = self.aggregate_rate();
        let eta = if total > 0 && done >= total {
            "done".to_string()
        } else if rate > 0.0 {
            fmt_eta((total - done) as f64 / rate)
        } else {
            "--".to_string()
        };
        writeln!(out, "rate     {rate:.1} cells/s aggregate, eta {eta}").unwrap();
        out.push('\n');
        if self.shard_latest.is_empty() {
            writeln!(
                out,
                "shards   no telemetry yet (events.jsonl absent or empty)"
            )
            .unwrap();
        } else {
            for (shard, view) in &self.shard_latest {
                let frac = if view.planned > 0 {
                    view.computed as f64 / view.planned as f64
                } else {
                    1.0
                };
                writeln!(
                    out,
                    "shard {shard}/{} [{}] {}/{} computed, {} cached, {:.1} c/s{}",
                    self.shards_total,
                    bar(frac, 20),
                    view.computed,
                    view.planned,
                    view.cached,
                    view.cells_per_sec,
                    if view.finished { ", done" } else { "" }
                )
                .unwrap();
            }
        }
        if self.waves.count > 0 {
            writeln!(
                out,
                "waves    {} fluid waves, {} lanes, {} flows, avg {:.2} ms, pack occ {:.2}",
                self.waves.count,
                self.waves.lanes,
                self.waves.flows,
                self.waves.wall_ms / self.waves.count as f64,
                self.waves.occupancy / self.waves.count as f64
            )
            .unwrap();
        }
        if let Some(close) = &self.campaign_done {
            if close.failed > 0 {
                writeln!(
                    out,
                    "FAILED   {} of {} worker shards exited with errors (store holds survivors only)",
                    close.failed, close.shards
                )
                .unwrap();
            }
        }
        out.push('\n');
        self.render_heatmap(&mut out);
        out.push('\n');
        if self.events_seen == 0 {
            writeln!(out, "telemetry: none (events.jsonl absent or empty)").unwrap();
        } else {
            writeln!(
                out,
                "telemetry: {} events ({} shard starts, {} heartbeats, {} shard dones, {} campaign dones, {} waves)",
                self.events_seen,
                self.counts.starts,
                self.counts.heartbeats,
                self.counts.dones,
                self.counts.campaigns,
                self.waves.count
            )
            .unwrap();
        }
        if self.stale_records + self.malformed_records + self.malformed_events > 0 {
            writeln!(
                out,
                "skipped: {} stale records, {} malformed record lines, {} malformed event lines",
                self.stale_records, self.malformed_records, self.malformed_events
            )
            .unwrap();
        }
        out
    }

    /// Render the same frame as one `watch/v1` JSON object (compact,
    /// one line) for scripted consumers — `figures watch --once --json`.
    ///
    /// Schema notes: the encoder has no booleans or nulls, so shard
    /// completion is `0.0`/`1.0` and optional sections (`cache`,
    /// `eta_s`, `campaign_done`) are *omitted* rather than null —
    /// readers must probe with `get`, not `field`. Counts serialize as
    /// integral `Num`s, consistent with `telemetry/v1`.
    pub fn render_json(&self) -> String {
        let num = |v: f64| Json::Num(v);
        let count = |v: usize| Json::Num(v as f64);
        let mut fields: Vec<(String, Json)> = vec![
            ("v".into(), Json::str("watch/v1")),
            (
                "store".into(),
                Json::str(self.store_dir.display().to_string()),
            ),
            ("effort".into(), Json::str(&self.effort)),
            ("cells".into(), count(self.cells)),
            ("backends".into(), Json::str(&self.backends_desc)),
            ("entries_done".into(), count(self.done_entries())),
            ("entries_total".into(), count(self.total_entries())),
            (
                "rate_cells_per_sec".into(),
                num((self.aggregate_rate() * 1e6).round() / 1e6),
            ),
        ];
        if let Some((pct, cached, of)) = self.cache_hit() {
            fields.push((
                "cache".into(),
                Json::Obj(vec![
                    ("hit_pct".into(), num((pct * 10.0).round() / 10.0)),
                    ("cached".into(), count(cached)),
                    ("of".into(), count(of)),
                ]),
            ));
        }
        let total = self.total_entries();
        let done = self.done_entries();
        let rate = self.aggregate_rate();
        if total > 0 && done >= total {
            fields.push(("eta_s".into(), num(0.0)));
        } else if rate > 0.0 {
            fields.push((
                "eta_s".into(),
                num(((total - done) as f64 / rate * 10.0).round() / 10.0),
            ));
        }
        let shards: Vec<Json> = self
            .shard_latest
            .iter()
            .map(|(shard, view)| {
                Json::Obj(vec![
                    ("shard".into(), count(*shard)),
                    ("planned".into(), count(view.planned)),
                    ("cached".into(), count(view.cached)),
                    ("computed".into(), count(view.computed)),
                    ("cells_per_sec".into(), num(view.cells_per_sec)),
                    ("done".into(), num(if view.finished { 1.0 } else { 0.0 })),
                ])
            })
            .collect();
        fields.push(("shards_total".into(), count(self.shards_total)));
        fields.push(("shards".into(), Json::Arr(shards)));
        fields.push((
            "waves".into(),
            Json::Obj(vec![
                ("count".into(), count(self.waves.count)),
                ("lanes".into(), count(self.waves.lanes)),
                ("flows".into(), count(self.waves.flows)),
                ("wall_ms".into(), num(self.waves.wall_ms)),
                (
                    "mean_occupancy".into(),
                    num(if self.waves.count > 0 {
                        self.waves.occupancy / self.waves.count as f64
                    } else {
                        0.0
                    }),
                ),
            ]),
        ));
        if let Some(close) = &self.campaign_done {
            fields.push((
                "campaign_done".into(),
                Json::Obj(vec![
                    ("shards".into(), count(close.shards)),
                    ("failed".into(), count(close.failed)),
                    ("wall_ms".into(), num(close.wall_ms)),
                    ("cells_per_sec".into(), num(close.cells_per_sec)),
                ]),
            ));
        }
        let mut bins: Vec<Json> = Vec::new();
        for (yi, y) in self.y_bins.iter().enumerate() {
            for (xi, x) in self.x_bins.iter().enumerate() {
                let bin = yi * self.x_bins.len() + xi;
                if self.bin_count[bin] == 0 {
                    continue;
                }
                let mean = self.bin_sum[bin] / self.bin_count[bin] as f64;
                bins.push(Json::Obj(vec![
                    ("x".into(), Json::str(x)),
                    ("y".into(), Json::str(y)),
                    ("count".into(), count(self.bin_count[bin])),
                    ("mean_util".into(), num((mean * 10.0).round() / 10.0)),
                ]));
            }
        }
        fields.push((
            "heatmap".into(),
            Json::Obj(vec![
                ("x_axis".into(), Json::str(self.axes.0.label())),
                ("y_axis".into(), Json::str(self.axes.1.label())),
                (
                    "x_bins".into(),
                    Json::Arr(self.x_bins.iter().map(Json::str).collect()),
                ),
                (
                    "y_bins".into(),
                    Json::Arr(self.y_bins.iter().map(Json::str).collect()),
                ),
                ("bins".into(), Json::Arr(bins)),
            ]),
        ));
        fields.push((
            "telemetry".into(),
            Json::Obj(vec![
                ("events".into(), count(self.events_seen)),
                ("shard_starts".into(), count(self.counts.starts)),
                ("heartbeats".into(), count(self.counts.heartbeats)),
                ("shard_dones".into(), count(self.counts.dones)),
                ("campaign_dones".into(), count(self.counts.campaigns)),
                ("waves".into(), count(self.waves.count)),
            ]),
        ));
        fields.push((
            "skipped".into(),
            Json::Obj(vec![
                ("stale_records".into(), count(self.stale_records)),
                ("malformed_records".into(), count(self.malformed_records)),
                ("malformed_events".into(), count(self.malformed_events)),
            ]),
        ));
        Json::Obj(fields).to_compact_string()
    }

    /// The two-axis mean-utilization heatmap (rows = Y bins, cols = X
    /// bins, both in plan order).
    fn render_heatmap(&self, out: &mut String) {
        let records: usize = self.bin_count.iter().sum();
        writeln!(
            out,
            "heatmap  mean utilization %, rows {} x cols {} ({records} records)",
            self.axes.1.label(),
            self.axes.0.label()
        )
        .unwrap();
        let row_w = self
            .y_bins
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(0)
            .max(5);
        let col_w = self
            .x_bins
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(0)
            .max(6)
            + 1;
        let mut header = format!("{:row_w$}", "");
        for x in &self.x_bins {
            write!(header, "{x:>col_w$}").unwrap();
        }
        writeln!(out, "{header}").unwrap();
        for (yi, y) in self.y_bins.iter().enumerate() {
            let mut row = format!("{y:<row_w$}");
            for xi in 0..self.x_bins.len() {
                let bin = yi * self.x_bins.len() + xi;
                if self.bin_count[bin] == 0 {
                    write!(row, "{:>col_w$}", "--").unwrap();
                } else {
                    let mean = self.bin_sum[bin] / self.bin_count[bin] as f64;
                    write!(row, "{:>col_w$}", format!("{}{mean:.1}", shade(mean))).unwrap();
                }
            }
            writeln!(out, "{row}").unwrap();
        }
        writeln!(
            out,
            "legend   @>=97 #>=90 *>=80 +>=70 =>=55 ->=40 :>=25 .>=10 util%"
        )
        .unwrap();
    }
}

/// ASCII progress bar, `width` chars, `#` filled.
fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("{}{}", "#".repeat(filled), "-".repeat(width - filled))
}

/// Density glyph for a mean utilization percentage.
fn shade(util: f64) -> char {
    match util {
        u if u >= 97.0 => '@',
        u if u >= 90.0 => '#',
        u if u >= 80.0 => '*',
        u if u >= 70.0 => '+',
        u if u >= 55.0 => '=',
        u if u >= 40.0 => '-',
        u if u >= 25.0 => ':',
        u if u >= 10.0 => '.',
        _ => ' ',
    }
}

/// Short human ETA: seconds under two minutes, minutes beyond.
fn fmt_eta(secs: f64) -> String {
    if secs < 120.0 {
        format!("{secs:.0}s")
    } else {
        format!("{:.1}m", secs / 60.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbr_campaign::store::record_to_line;
    use bbr_campaign::{event_to_line, BackendSel, PlannedCell};
    use bbr_scenario::{CcaKind, FlowMetrics, QdiscKind, RunOutcome};
    use std::io::Write as _;

    fn spec(buffer: f64, ccas: Vec<CcaKind>) -> ScenarioSpec {
        ScenarioSpec::dumbbell(2, 30.0, 0.010, buffer)
            .ccas(ccas)
            .duration(0.5)
    }

    fn outcome(util: f64) -> RunOutcome {
        RunOutcome {
            backend: "fluid",
            flows: vec![FlowMetrics {
                cca: CcaKind::BbrV1,
                throughput_mbps: util * 0.3,
            }],
            jain: 1.0,
            loss_percent: 0.0,
            occupancy_percent: 50.0,
            utilization_percent: util,
            jitter_ms: 0.0,
            per_link_occupancy: vec![50.0],
            per_link_utilization: vec![util],
        }
    }

    fn plan(cells: Vec<ScenarioSpec>) -> CampaignPlan {
        CampaignPlan {
            effort: "fast".into(),
            backends: vec![BackendSel {
                name: "fluid".into(),
                runs: 1,
            }],
            cells: cells
                .into_iter()
                .enumerate()
                .map(|(i, spec)| PlannedCell {
                    spec,
                    seed: 100 + i as u64,
                })
                .collect(),
        }
    }

    fn store_with(plan: &CampaignPlan, tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bbr-watch-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        plan.save(&dir).unwrap();
        dir
    }

    fn append(path: &Path, line: &str) {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap();
        writeln!(f, "{line}").unwrap();
    }

    #[test]
    fn axis_names_round_trip_and_extract_bins() {
        for axis in [
            Axis::Buffer,
            Axis::Cca,
            Axis::Qdisc,
            Axis::Topology,
            Axis::Flows,
            Axis::Churn,
        ] {
            assert_eq!(Axis::parse(axis.label()), Some(axis));
        }
        assert_eq!(Axis::parse("voltage"), None);
        assert_eq!(parse_axes("buffer,cca").unwrap(), (Axis::Buffer, Axis::Cca));
        assert_eq!(
            parse_axes("topo, qdisc").unwrap(),
            (Axis::Topology, Axis::Qdisc)
        );
        assert!(parse_axes("buffer").is_err());
        assert!(parse_axes("buffer,voltage").is_err());

        let s = spec(4.0, vec![CcaKind::BbrV1, CcaKind::Cubic]).qdisc(QdiscKind::Red);
        assert_eq!(Axis::Buffer.value_of(&s), "4bdp");
        assert_eq!(Axis::Cca.value_of(&s), "BBRv1/CUBIC");
        assert_eq!(Axis::Qdisc.value_of(&s), "Red");
        assert_eq!(Axis::Topology.value_of(&s), "Dumbbell");
        assert_eq!(Axis::Flows.value_of(&s), "2f");
        assert_eq!(Axis::Churn.value_of(&s), "none");
    }

    #[test]
    fn heatmap_bins_records_by_axis_values() {
        // 2 buffers x 2 mixes; utilizations chosen so each bin mean is
        // recognizable.
        let specs = vec![
            spec(1.0, vec![CcaKind::BbrV1]),
            spec(4.0, vec![CcaKind::BbrV1]),
            spec(1.0, vec![CcaKind::Reno]),
            spec(4.0, vec![CcaKind::Reno]),
        ];
        let plan = plan(specs.clone());
        let dir = store_with(&plan, "bins");
        let results = dir.join(RESULTS_FILE);
        for (i, (cell, util)) in plan.cells.iter().zip([98.7, 91.2, 55.0, 12.5]).enumerate() {
            let key = CellKey {
                spec_hash: cell.spec.stable_hash(),
                seed: cell.seed,
                backend: "fluid".into(),
                run_index: 0,
            };
            let _ = i;
            append(&results, &record_to_line(&key, &outcome(util)));
        }
        let mut state = WatchState::new(&dir, (Axis::Buffer, Axis::Cca)).unwrap();
        state.poll().unwrap();
        assert_eq!(state.total_entries(), 4);
        assert_eq!(state.done_entries(), 4);
        assert!(state.finished());
        let frame = state.render();
        assert!(frame.contains("4/4 (100.0%)"), "{frame}");
        // Bin layout in plan order: cols 1bdp,4bdp; rows BBRv1,RENO.
        assert!(frame.contains("1bdp"), "{frame}");
        assert!(frame.contains("@98.7"), "{frame}");
        assert!(frame.contains("#91.2"), "{frame}");
        assert!(frame.contains("=55.0"), "{frame}");
        assert!(frame.contains(".12.5"), "{frame}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degenerate_one_cell_grid_renders_a_one_bin_heatmap() {
        let plan = plan(vec![spec(2.0, vec![CcaKind::Cubic])]);
        let dir = store_with(&plan, "one");
        let mut state = WatchState::new(&dir, (Axis::Buffer, Axis::Cca)).unwrap();
        state.poll().unwrap();
        let empty = state.render();
        assert!(empty.contains("0/1 (0.0%)"), "{empty}");
        assert!(empty.contains("--"), "no-data bins print --: {empty}");
        assert!(empty.contains("telemetry: none"), "{empty}");

        let cell = &plan.cells[0];
        let key = CellKey {
            spec_hash: cell.spec.stable_hash(),
            seed: cell.seed,
            backend: "fluid".into(),
            run_index: 0,
        };
        append(
            &dir.join(RESULTS_FILE),
            &record_to_line(&key, &outcome(77.7)),
        );
        state.poll().unwrap();
        let frame = state.render();
        assert!(frame.contains("1/1 (100.0%)"), "{frame}");
        assert!(frame.contains("+77.7"), "{frame}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn events_feed_shard_bars_rates_and_cache_ratio() {
        let plan = plan(vec![spec(1.0, vec![CcaKind::BbrV1])]);
        let dir = store_with(&plan, "events");
        let events = events_path(&dir);
        append(
            &events,
            &event_to_line(&Event::ShardStart {
                shard: 0,
                shards: 2,
                planned: 10,
                cached: 2,
            }),
        );
        append(
            &events,
            &event_to_line(&Event::Heartbeat {
                shard: 0,
                shards: 2,
                computed: 4,
                planned: 10,
                cached: 2,
                wall_ms: 100.0,
                cells_per_sec: 40.0,
                spec_hash: 0xabc,
            }),
        );
        append(
            &events,
            &event_to_line(&Event::ShardDone {
                shard: 1,
                shards: 2,
                computed: 12,
                cached: 0,
                wall_ms: 240.0,
                cells_per_sec: 50.0,
            }),
        );
        append(
            &events,
            &event_to_line(&Event::Wave {
                lanes: 3,
                flows: 6,
                occupancy: 0.75,
                wall_ms: 4.0,
            }),
        );
        // In-flight torn tail (no trailing newline): ignored for now.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&events)
            .unwrap();
        f.write_all(b"{\"torn\":").unwrap();
        drop(f);
        let mut state = WatchState::new(&dir, (Axis::Buffer, Axis::Cca)).unwrap();
        state.poll().unwrap();
        assert_eq!(state.events_seen(), 4);
        let frame = state.render();
        assert!(frame.contains("shard 0/2"), "{frame}");
        assert!(
            frame.contains("4/10 computed, 2 cached, 40.0 c/s"),
            "{frame}"
        );
        assert!(
            frame.contains("12/0 computed, 0 cached, 50.0 c/s, done"),
            "{frame}"
        );
        assert!(frame.contains("rate     90.0 cells/s"), "{frame}");
        // cached 2 of (2 + 10 + 0 + 0) planned-or-cached = 16.7%
        assert!(frame.contains("16.7% hit (2 cached of 12"), "{frame}");
        assert!(
            frame.contains("waves    1 fluid waves, 3 lanes, 6 flows"),
            "{frame}"
        );
        assert!(frame.contains("pack occ 0.75"), "{frame}");
        // The torn tail is not an error and not yet an event...
        assert!(!frame.contains("malformed"), "{frame}");
        // ...and arrives whole once the writer finishes the line.
        // Writer completes the line to {"torn":1} — valid JSON, bad schema.
        append(&events, "1}");
        state.poll().unwrap();
        assert!(state.render().contains("1 malformed event lines"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_campaign_close_renders_a_marker_and_json_reports_it() {
        let plan = plan(vec![spec(1.0, vec![CcaKind::BbrV1])]);
        let dir = store_with(&plan, "failed");
        let events = events_path(&dir);
        append(
            &events,
            &event_to_line(&Event::CampaignDone {
                entries: 4,
                computed: 1,
                cached: 3,
                shards: 2,
                failed: 1,
                wall_ms: 500.0,
                cells_per_sec: 2.0,
            }),
        );
        let mut state = WatchState::new(&dir, (Axis::Buffer, Axis::Cca)).unwrap();
        state.poll().unwrap();
        let frame = state.render();
        assert!(
            frame.contains("FAILED   1 of 2 worker shards exited with errors"),
            "{frame}"
        );
        let json = state.render_json();
        let doc = Json::parse(&json).unwrap();
        let close = doc.field("campaign_done").unwrap();
        assert_eq!(close.field("failed").unwrap().as_usize(), Some(1));
        assert_eq!(close.field("shards").unwrap().as_usize(), Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_frame_mirrors_the_text_frame() {
        let specs = vec![
            spec(1.0, vec![CcaKind::BbrV1]),
            spec(4.0, vec![CcaKind::BbrV1]),
        ];
        let plan = plan(specs);
        let dir = store_with(&plan, "json");
        let cell = &plan.cells[0];
        append(
            &dir.join(RESULTS_FILE),
            &record_to_line(
                &CellKey {
                    spec_hash: cell.spec.stable_hash(),
                    seed: cell.seed,
                    backend: "fluid".into(),
                    run_index: 0,
                },
                &outcome(91.25),
            ),
        );
        append(
            &events_path(&dir),
            &event_to_line(&Event::Wave {
                lanes: 2,
                flows: 4,
                occupancy: 0.5,
                wall_ms: 3.0,
            }),
        );
        let mut state = WatchState::new(&dir, (Axis::Buffer, Axis::Cca)).unwrap();
        state.poll().unwrap();
        let json = state.render_json();
        assert!(!json.contains('\n'), "one line: {json}");
        let doc = Json::parse(&json).unwrap();
        assert_eq!(doc.field("v").unwrap().as_str(), Some("watch/v1"));
        assert_eq!(doc.field("entries_done").unwrap().as_usize(), Some(1));
        assert_eq!(doc.field("entries_total").unwrap().as_usize(), Some(2));
        assert_eq!(doc.field("effort").unwrap().as_str(), Some("fast"));
        // No shard telemetry yet: cache and eta are omitted, not null.
        assert!(doc.get("cache").is_none());
        assert!(doc.get("eta_s").is_none());
        assert!(doc.get("campaign_done").is_none());
        let waves = doc.field("waves").unwrap();
        assert_eq!(waves.field("count").unwrap().as_usize(), Some(1));
        assert_eq!(waves.field("mean_occupancy").unwrap().as_f64(), Some(0.5));
        let heatmap = doc.field("heatmap").unwrap();
        assert_eq!(heatmap.field("x_axis").unwrap().as_str(), Some("buffer"));
        let bins = heatmap.field("bins").unwrap().as_arr().unwrap();
        assert_eq!(bins.len(), 1, "one populated bin");
        assert_eq!(bins[0].field("x").unwrap().as_str(), Some("1bdp"));
        assert_eq!(bins[0].field("mean_util").unwrap().as_f64(), Some(91.3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_view_heals_after_resume_start() {
        let plan = plan(vec![spec(1.0, vec![CcaKind::BbrV1])]);
        let dir = store_with(&plan, "resume");
        let events = events_path(&dir);
        append(
            &events,
            &event_to_line(&Event::ShardDone {
                shard: 0,
                shards: 1,
                computed: 9,
                cached: 0,
                wall_ms: 100.0,
                cells_per_sec: 90.0,
            }),
        );
        // A resume starts the same shard over with everything cached.
        append(
            &events,
            &event_to_line(&Event::ShardStart {
                shard: 0,
                shards: 1,
                planned: 0,
                cached: 9,
            }),
        );
        let mut state = WatchState::new(&dir, (Axis::Buffer, Axis::Cca)).unwrap();
        state.poll().unwrap();
        let frame = state.render();
        assert!(frame.contains("0/0 computed, 9 cached"), "{frame}");
        assert!(frame.contains("100.0% hit (9 cached of 9"), "{frame}");
        assert!(!frame.contains(", done"), "{frame}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
