//! Multi-process campaign execution.
//!
//! The runner executes a [`CampaignPlan`] as `shards` child *worker
//! processes*: the host binary re-executes itself with a hidden
//! `campaign-worker` argv (self-exec — no separate worker binary to
//! build or ship), each worker computes the cells its shard owns that
//! are not already in the store, writes its records to a private shard
//! file, and the parent merges the shard files into the canonical
//! `results.jsonl` once every worker has exited. Workers never write
//! shared files, so no cross-process locking is needed.
//!
//! Resume/incremental semantics fall out of the content-addressed
//! store: a re-run plans the same keys, finds them present, computes
//! nothing, and merges nothing. Growing the grid (new axis value, new
//! backend, more repetitions) computes exactly the missing delta.
//! Interrupted runs lose nothing either — leftover shard files are
//! absorbed into the store before the next run plans its work.
//!
//! Any binary can host workers by calling [`maybe_worker`] first thing
//! in `main` (both the `figures` CLI and `examples/campaign.rs` do).

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bbr_scenario::{run_seed, SimBackend};
use bbr_telemetry::{emit, Event, Sink};

use crate::events::JsonlSink;
use crate::plan::{BackendSel, CampaignPlan};
use crate::shard::ShardPlan;
use crate::store::{CellKey, ResultStore, ShardWriter};

/// The hidden `argv[1]` that switches a host binary into worker mode.
pub const WORKER_SUBCOMMAND: &str = "campaign-worker";

/// How many entries a worker hands a batch backend per `run_batch`
/// call before flushing them to its shard file — the crash-recovery
/// granularity of batched workers (an interrupted worker loses at most
/// this much compute; everything flushed is absorbed on the next run).
pub const BATCH_FLUSH_CHUNK: usize = 32;

/// Minimum wall-clock spacing between two heartbeat events of one
/// worker. The first completed entry (or chunk) always beats, so every
/// shard that computes anything leaves at least one heartbeat; after
/// that, a worker burning through sub-millisecond cells emits at most
/// ~10 events/sec instead of one per cell.
pub const HEARTBEAT_MIN_INTERVAL: Duration = Duration::from_millis(100);

/// Builds a backend from a plan's selector, or `None` if the name is
/// unknown to this host. The same factory must be used by the parent
/// (for entry counting) and the workers (for computing) — it is the one
/// piece of campaign behaviour the campaign crate cannot own, because
/// backend construction lives above the scenario layer.
pub type BackendFactory<'a> =
    dyn Fn(&CampaignPlan, &BackendSel) -> Option<Box<dyn SimBackend>> + 'a;

/// Backends built from a plan, each paired with its selector.
type PlanBackends = Vec<(BackendSel, Box<dyn SimBackend>)>;

/// What one worker did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// This worker's shard index.
    pub shard: usize,
    /// Total shard count of the campaign run.
    pub shards: usize,
    /// Engine runs this worker computed and wrote to its shard file.
    pub computed: usize,
    /// Planned entries of this shard that were already in the store.
    pub cached: usize,
}

/// What a whole sharded campaign did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignSummary {
    /// Planned entries: supported (cell, backend, run_index) triples.
    pub entries: usize,
    /// Entries computed by this run's workers.
    pub computed: usize,
    /// Entries served from the store.
    pub cached: usize,
    /// Worker processes the campaign ran with.
    pub shards: usize,
    /// Wall-clock seconds the whole run took (spawn to merge).
    pub wall_seconds: f64,
}

impl CampaignSummary {
    /// Aggregate computed entries per wall-clock second (`0.0` for a
    /// fully-cached resume — cache hits cost no compute).
    pub fn cells_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.computed as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// One stable log line. The first four `key=value` fields are
    /// byte-compatible with pre-telemetry output (`computed=0` is what
    /// CI greps for to assert a fully-cached resume); wall-clock and
    /// throughput are appended after them.
    pub fn log_line(&self) -> String {
        format!(
            "campaign summary: entries={} computed={} cached={} shards={} wall_s={:.2} cells_per_sec={:.1}",
            self.entries,
            self.computed,
            self.cached,
            self.shards,
            self.wall_seconds,
            self.cells_per_sec()
        )
    }
}

/// Rate-limited heartbeat state for one worker (see
/// [`HEARTBEAT_MIN_INTERVAL`]).
struct ShardProgress {
    shard: usize,
    shards: usize,
    planned: usize,
    cached: usize,
    computed: usize,
    started: Instant,
    last_beat: Option<Instant>,
}

impl ShardProgress {
    fn new(shard: usize, shards: usize, planned: usize, cached: usize) -> Self {
        Self {
            shard,
            shards,
            planned,
            cached,
            computed: 0,
            started: Instant::now(),
            last_beat: None,
        }
    }

    /// Count `n` freshly computed entries (ending at the cell hashed
    /// `spec_hash`) and emit a heartbeat unless one fired within
    /// [`HEARTBEAT_MIN_INTERVAL`].
    fn advance(&mut self, n: usize, spec_hash: u64) {
        self.computed += n;
        if !bbr_telemetry::enabled() {
            return;
        }
        if let Some(last) = self.last_beat {
            if last.elapsed() < HEARTBEAT_MIN_INTERVAL {
                return;
            }
        }
        self.last_beat = Some(Instant::now());
        let wall = self.started.elapsed().as_secs_f64();
        let (shard, shards) = (self.shard, self.shards);
        let (computed, planned, cached) = (self.computed, self.planned, self.cached);
        emit(|| Event::Heartbeat {
            shard,
            shards,
            computed,
            planned,
            cached,
            wall_ms: wall * 1e3,
            cells_per_sec: if wall > 0.0 {
                computed as f64 / wall
            } else {
                0.0
            },
            spec_hash,
        });
    }

    fn done(self) {
        let wall = self.started.elapsed().as_secs_f64();
        let Self {
            shard,
            shards,
            cached,
            computed,
            ..
        } = self;
        emit(|| Event::ShardDone {
            shard,
            shards,
            computed,
            cached,
            wall_ms: wall * 1e3,
            cells_per_sec: if wall > 0.0 {
                computed as f64 / wall
            } else {
                0.0
            },
        });
    }
}

/// The per-shard work loop, run inside a worker process: compute every
/// planned entry of `shard` that the store does not already hold and
/// append it to the shard's private record file.
///
/// Backends exposing a batch view ([`SimBackend::as_batch`]) receive
/// their missing entries in lockstep `run_batch` chunks — a sharded
/// campaign's workers integrate their shard batched — while plain
/// backends compute entry by entry. Records are appended to the shard
/// file as they are produced (per entry, or per batch chunk of at most
/// [`BATCH_FLUSH_CHUNK`]), preserving PR 3's crash-recovery granularity:
/// a worker killed mid-shard loses at most one chunk of compute, and
/// everything already flushed is absorbed by the next run. The file is
/// therefore backend-major (each backend's records in planned cell
/// order) — a fixed, deterministic order, independent of which path
/// computed a record.
pub fn run_worker(
    store_dir: &Path,
    shard: usize,
    shards: usize,
    factory: &BackendFactory,
) -> Result<WorkerSummary, String> {
    let plan = CampaignPlan::load(store_dir)?;
    let store = ResultStore::open(store_dir)?; // read-only: resume lookups
    let backends = build_backends(&plan, factory)?;
    let splan = ShardPlan::new(shards);
    let mut writer = ShardWriter::create(store_dir, shard)?;
    // Pass 1: plan this shard's missing entries, in the canonical
    // cell-major order.
    struct Item {
        cell_index: usize,
        backend_index: usize,
        run_index: u32,
        key: CellKey,
    }
    let mut items: Vec<Item> = Vec::new();
    let mut cached = 0;
    for index in splan.cells_of(shard, plan.cells.len()) {
        let cell = &plan.cells[index];
        let spec_hash = cell.spec.stable_hash();
        for (backend_index, (sel, backend)) in backends.iter().enumerate() {
            if !backend.supports(&cell.spec) {
                continue;
            }
            for run_index in 0..sel.runs {
                let key = CellKey {
                    spec_hash,
                    seed: cell.seed,
                    backend: sel.name.clone(),
                    run_index,
                };
                if store.contains(&key) {
                    cached += 1;
                } else {
                    items.push(Item {
                        cell_index: index,
                        backend_index,
                        run_index,
                        key,
                    });
                }
            }
        }
    }
    // Telemetry: this worker appends heartbeats to the store's
    // `events.jsonl` sidecar, and — via the process-global hook — the
    // batch integrator's wave timings land there too. Advisory by
    // contract: a sidecar that cannot be opened just means no events.
    let _telemetry = JsonlSink::create(store_dir)
        .ok()
        .map(|sink| bbr_telemetry::install(Arc::new(sink)));
    let planned = items.len();
    emit(|| Event::ShardStart {
        shard,
        shards,
        planned,
        cached,
    });
    let mut progress = ShardProgress::new(shard, shards, planned, cached);
    // Pass 2: compute and persist, batching where the backend can,
    // flushing to the shard file as results are produced.
    // (`bbr_experiments::compare::run_column` is the in-memory form of
    // this rule, which sweeps, cached sweeps and the differential harness
    // share: a backend with a batch view gets its entries through
    // `run_batch`, any other runs them one at a time. This loop keeps its
    // own copy for the per-chunk flushing and progress events — keep the
    // two in step when changing either.)
    for (backend_index, (_, backend)) in backends.iter().enumerate() {
        let mine: Vec<usize> = (0..items.len())
            .filter(|&i| items[i].backend_index == backend_index)
            .collect();
        if mine.is_empty() {
            continue;
        }
        match backend.as_batch() {
            Some(batch) => {
                for chunk in mine.chunks(BATCH_FLUSH_CHUNK) {
                    let jobs: Vec<(&bbr_scenario::ScenarioSpec, u64)> = chunk
                        .iter()
                        .map(|&i| {
                            let item = &items[i];
                            let cell = &plan.cells[item.cell_index];
                            (&cell.spec, run_seed(cell.seed, item.run_index))
                        })
                        .collect();
                    for (&i, out) in chunk.iter().zip(batch.run_batch(&jobs)) {
                        writer.append(&items[i].key, &out)?;
                    }
                    let last = *chunk.last().expect("chunks are non-empty");
                    progress.advance(chunk.len(), items[last].key.spec_hash);
                }
            }
            None => {
                for &i in &mine {
                    let item = &items[i];
                    let cell = &plan.cells[item.cell_index];
                    let out = backend.run(&cell.spec, run_seed(cell.seed, item.run_index));
                    writer.append(&item.key, &out)?;
                    progress.advance(1, item.key.spec_hash);
                }
            }
        }
    }
    writer.finish()?;
    progress.done();
    Ok(WorkerSummary {
        shard,
        shards,
        computed: items.len(),
        cached,
    })
}

/// Execute the plan as `shards` child worker processes of the current
/// executable and merge their outputs into the store at `store_dir`.
///
/// The host binary must route the [`WORKER_SUBCOMMAND`] argv through
/// [`maybe_worker`] (with the same `factory`), or the children will
/// misparse their arguments.
pub fn run_sharded(
    plan: &CampaignPlan,
    store_dir: &Path,
    shards: usize,
    factory: &BackendFactory,
) -> Result<CampaignSummary, String> {
    let shards = shards.max(1);
    let started = Instant::now();
    let mut store = ResultStore::open(store_dir)?;
    // Recover records from any previously interrupted run before
    // planning, so they count as cached instead of being recomputed.
    store.absorb_shards()?;
    plan.save(store_dir)?;
    let entries = planned_entries(plan, factory)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut children = Vec::with_capacity(shards);
    for shard in 0..shards {
        let child = Command::new(&exe)
            .arg(WORKER_SUBCOMMAND)
            .arg("--store")
            .arg(store_dir)
            .arg("--shard")
            .arg(shard.to_string())
            .arg("--shards")
            .arg(shards.to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn worker {shard}: {e}"))?;
        children.push((shard, child));
    }
    let mut failures = Vec::new();
    for (shard, mut child) in children {
        let status = child
            .wait()
            .map_err(|e| format!("cannot wait for worker {shard}: {e}"))?;
        if !status.success() {
            failures.push(format!("worker {shard} exited with {status}"));
        }
    }
    if !failures.is_empty() {
        // Salvage what finished workers produced before reporting.
        let salvaged = store.absorb_shards().unwrap_or(0);
        // Close the event stream even on failure: a watcher must learn
        // the run ended and how many shards died, or it tails forever.
        let wall_seconds = started.elapsed().as_secs_f64();
        if let Ok(sink) = JsonlSink::create(store_dir) {
            sink.record(&Event::CampaignDone {
                entries,
                computed: salvaged,
                cached: entries.saturating_sub(salvaged),
                shards,
                failed: failures.len(),
                wall_ms: wall_seconds * 1e3,
                cells_per_sec: salvaged as f64 / wall_seconds.max(1e-9),
            });
        }
        return Err(failures.join("; "));
    }
    let mut computed = 0;
    for shard in 0..shards {
        let path = ResultStore::shard_path(store_dir, shard);
        computed += store.merge_file(&path)?;
        std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
    }
    let summary = CampaignSummary {
        entries,
        computed,
        cached: entries - computed,
        shards,
        wall_seconds: started.elapsed().as_secs_f64(),
    };
    // The parent closes the run's event stream with one campaign-level
    // record (written directly — the global hook belongs to workers).
    if let Ok(sink) = JsonlSink::create(store_dir) {
        sink.record(&Event::CampaignDone {
            entries: summary.entries,
            computed: summary.computed,
            cached: summary.cached,
            shards: summary.shards,
            failed: 0,
            wall_ms: summary.wall_seconds * 1e3,
            cells_per_sec: summary.cells_per_sec(),
        });
    }
    Ok(summary)
}

/// Worker-mode entry point for host binaries. If `args` (argv without
/// the program name) starts with [`WORKER_SUBCOMMAND`], runs the
/// requested shard and returns `Some(exit_code)` for the host to pass
/// to [`std::process::exit`]; otherwise returns `None` and the host
/// proceeds as usual.
pub fn maybe_worker(args: &[String], factory: &BackendFactory) -> Option<i32> {
    if args.first().map(String::as_str) != Some(WORKER_SUBCOMMAND) {
        return None;
    }
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|s| s.as_str())
    };
    let parsed = (|| -> Result<(String, usize, usize), String> {
        let store = flag("--store").ok_or("missing --store")?.to_string();
        let shard = flag("--shard")
            .ok_or("missing --shard")?
            .parse()
            .map_err(|e| format!("bad --shard: {e}"))?;
        let shards = flag("--shards")
            .ok_or("missing --shards")?
            .parse()
            .map_err(|e| format!("bad --shards: {e}"))?;
        Ok((store, shard, shards))
    })();
    let (store, shard, shards) = match parsed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("campaign-worker: {e}");
            return Some(2);
        }
    };
    // Fault injection for tests: if the env var names this worker's
    // shard index, die before computing anything. The parent's failure
    // path (salvage surviving shards, close the event stream with a
    // non-zero `failed` count) is unreachable end-to-end without a way
    // to make exactly one worker fail deterministically.
    if std::env::var("BBR_CAMPAIGN_WORKER_FAIL")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        == Some(shard)
    {
        eprintln!("campaign worker {shard}/{shards}: injected failure (BBR_CAMPAIGN_WORKER_FAIL)");
        return Some(1);
    }
    // Shards are the parallelism unit of a campaign: `shards` worker
    // processes run concurrently, so each worker gets an equal slice of
    // the cores for its own intra-process parallelism (batch backends
    // fan lockstep waves over the rayon pool). Without this, every
    // worker would default to a full-size pool and a `--shards 8` run
    // on 8 cores would contend with 64 compute threads.
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads((cores / shards.max(1)).max(1))
        .build_global();
    match run_worker(Path::new(&store), shard, shards, factory) {
        Ok(s) => {
            eprintln!(
                "campaign worker {}/{}: computed={} cached={}",
                s.shard + 1,
                s.shards,
                s.computed,
                s.cached
            );
            Some(0)
        }
        Err(e) => {
            eprintln!("campaign worker {shard}/{shards} failed: {e}");
            Some(1)
        }
    }
}

/// How many entries the plan expands to (supported `(cell, backend,
/// run_index)` triples), independent of what is cached. Public so that
/// progress UIs (`figures watch`) can size their "done / total" bars
/// with exactly the runner's arithmetic.
pub fn planned_entries(plan: &CampaignPlan, factory: &BackendFactory) -> Result<usize, String> {
    let backends = build_backends(plan, factory)?;
    let mut entries = 0;
    for cell in &plan.cells {
        for (sel, backend) in &backends {
            if backend.supports(&cell.spec) {
                entries += sel.runs as usize;
            }
        }
    }
    Ok(entries)
}

fn build_backends<'a>(
    plan: &CampaignPlan,
    factory: &BackendFactory<'a>,
) -> Result<PlanBackends, String> {
    plan.backends
        .iter()
        .map(|sel| {
            factory(plan, sel)
                .map(|b| (sel.clone(), b))
                .ok_or_else(|| format!("no backend named `{}` in this host", sel.name))
        })
        .collect()
}
