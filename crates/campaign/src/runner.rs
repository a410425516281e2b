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

use bbr_scenario::{RunOutcome, ScenarioSpec, SimBackend};
use bbr_telemetry::{emit, Event, Sink};
use rayon::prelude::*;

use crate::events::JsonlSink;
use crate::plan::{BackendSel, CampaignPlan, Entry};
use crate::store::{ResultStore, ShardWriter};

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
/// append it to the shard's private record file. `shard >= shards` is an
/// error (both come from a worker's argv).
///
/// Each backend's missing entries run through [`run_column`] a chunk at
/// a time: [`BATCH_FLUSH_CHUNK`] entries for a backend with a batch view
/// ([`SimBackend::as_batch`]), so a sharded campaign's workers integrate
/// their shard in lockstep, and one entry for any other backend. Each
/// chunk's records are appended to the shard file as soon as it
/// completes: a worker killed mid-shard loses at most one chunk of
/// compute, and everything already flushed is absorbed by the next run.
/// The file is therefore backend-major (each backend's records in
/// planned cell order), a fixed order independent of which path
/// computed a record.
pub fn run_worker(
    store_dir: &Path,
    shard: usize,
    shards: usize,
    factory: &BackendFactory,
) -> Result<WorkerSummary, String> {
    if shard >= shards {
        return Err(format!("shard {shard} out of {shards}"));
    }
    let plan = CampaignPlan::load(store_dir)?;
    let store = ResultStore::open(store_dir)?; // read-only: resume lookups
    let backends = build_backends(&plan, factory)?;
    let mut writer = ShardWriter::create(store_dir, shard)?;
    // Pass 1: this shard's entries, in plan order, split into cached and
    // missing. Cells are striped round-robin over the shards rather than
    // cut into contiguous runs: a grid expansion orders cells by axis, so
    // neighbouring cells tend to cost alike (same topology, same flow
    // count), and striping spreads each cost band over every shard. The
    // store does not depend on the split (records are content-addressed),
    // so changing `shards` between runs redistributes work but never
    // recomputes it.
    let (cached, missing): (Vec<Entry>, Vec<Entry>) = plan
        .entries(|b, spec| backends[b].supports(spec))
        .into_iter()
        .filter(|e| e.cell % shards == shard)
        .partition(|e| store.contains(&e.key));
    let cached = cached.len();
    // Telemetry: this worker appends heartbeats to the store's
    // `events.jsonl` sidecar, and — via the process-global hook — the
    // batch integrator's wave timings land there too. Advisory by
    // contract: a sidecar that cannot be opened just means no events.
    let _telemetry = JsonlSink::create(store_dir)
        .ok()
        .map(|sink| bbr_telemetry::install(Arc::new(sink)));
    let planned = missing.len();
    emit(|| Event::ShardStart {
        shard,
        shards,
        planned,
        cached,
    });
    let mut progress = ShardProgress::new(shard, shards, planned, cached);
    // Pass 2: compute and persist, backend by backend.
    for (b, backend) in backends.iter().enumerate() {
        let mine: Vec<&Entry> = missing.iter().filter(|e| e.backend == b).collect();
        let chunk = if backend.as_batch().is_some() {
            BATCH_FLUSH_CHUNK
        } else {
            1
        };
        for chunk in mine.chunks(chunk) {
            let jobs: Vec<(&ScenarioSpec, u64)> = chunk.iter().map(|e| plan.job(e)).collect();
            for (e, out) in chunk.iter().zip(run_column(backend.as_ref(), &jobs, |o| o)) {
                writer.append(&e.key, &out.expect("planned entries are supported"))?;
            }
            let last = chunk.last().expect("chunks are non-empty");
            progress.advance(chunk.len(), last.key.spec_hash);
        }
    }
    writer.finish()?;
    progress.done();
    Ok(WorkerSummary {
        shard,
        shards,
        computed: planned,
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
    Ok(plan.entries(|b, spec| backends[b].supports(spec)).len())
}

/// The plan's backends, built by `factory`, in plan order.
fn build_backends(
    plan: &CampaignPlan,
    factory: &BackendFactory,
) -> Result<Vec<Box<dyn SimBackend>>, String> {
    plan.backends
        .iter()
        .map(|sel| {
            factory(plan, sel)
                .ok_or_else(|| format!("no backend named `{}` in this host", sel.name))
        })
        .collect()
}

/// Run `backend` over `jobs` and return one reduced outcome per job, in
/// job order — the one rule every store writer and in-memory sweep runs
/// a backend by.
///
/// * A job whose spec the backend does not support
///   ([`SimBackend::supports`]) comes back `None`.
/// * A backend with a batch view ([`SimBackend::as_batch`]) gets every
///   supported job in one `run_batch` call.
/// * Any other backend runs one job per task across the rayon pool (a
///   one-job column runs inline).
///
/// `reduce` runs where each outcome lands: on the worker thread for
/// per-job backends. A caller that keeps only a summary therefore never
/// holds the full outcomes, and each outcome is freed on the thread
/// that allocated it.
///
/// `run_batch` is bit-identical to per-job `run` by contract, so the
/// column never depends on which path ran or on the thread count.
pub fn run_column<T: Send>(
    backend: &dyn SimBackend,
    jobs: &[(&ScenarioSpec, u64)],
    reduce: impl Fn(RunOutcome) -> T + Sync,
) -> Vec<Option<T>> {
    match backend.as_batch() {
        Some(batch) => {
            let supported: Vec<usize> = (0..jobs.len())
                .filter(|&i| backend.supports(jobs[i].0))
                .collect();
            let batch_jobs: Vec<(&ScenarioSpec, u64)> =
                supported.iter().map(|&i| jobs[i]).collect();
            let mut column: Vec<Option<T>> = jobs.iter().map(|_| None).collect();
            for (&i, out) in supported.iter().zip(batch.run_batch(&batch_jobs)) {
                column[i] = Some(reduce(out));
            }
            column
        }
        None => jobs
            .par_iter()
            .map(|&(spec, seed)| {
                backend
                    .supports(spec)
                    .then(|| reduce(backend.run(spec, seed)))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};
    use std::path::PathBuf;
    use std::sync::Mutex;

    use bbr_scenario::{BatchSimBackend, CcaKind, FlowMetrics};

    use crate::plan::PlannedCell;
    use crate::store::{parse_record, CellKey};

    /// Backend names the stub host builds; the first has a batch view.
    const NAMES: [&str; 3] = ["batch", "single", "other"];

    /// Per call: the jobs it ran, and the records the watched shard file
    /// held when it started.
    type CallLog = Arc<Mutex<Vec<(usize, usize)>>>;

    /// A backend that computes nothing: each outcome carries its job's
    /// seed, and every call is logged.
    struct Stub {
        name: &'static str,
        refuses: HashSet<u64>,
        calls: CallLog,
        watched: Option<PathBuf>,
    }

    impl Stub {
        fn log(&self, jobs: usize) {
            let flushed = self.watched.as_ref().map_or(0, |path| {
                std::fs::read_to_string(path).map_or(0, |text| text.lines().count())
            });
            self.calls.lock().unwrap().push((jobs, flushed));
        }
    }

    fn outcome(name: &'static str, seed: u64) -> RunOutcome {
        RunOutcome {
            backend: name,
            flows: vec![FlowMetrics {
                cca: CcaKind::Reno,
                throughput_mbps: (seed >> 11) as f64,
            }],
            jain: 1.0,
            loss_percent: 0.0,
            occupancy_percent: 0.0,
            utilization_percent: 0.0,
            jitter_ms: 0.0,
            per_link_occupancy: vec![],
            per_link_utilization: vec![],
        }
    }

    impl SimBackend for Stub {
        fn name(&self) -> &'static str {
            self.name
        }
        fn supports(&self, spec: &ScenarioSpec) -> bool {
            !self.refuses.contains(&spec.stable_hash())
        }
        fn run(&self, spec: &ScenarioSpec, seed: u64) -> RunOutcome {
            assert!(self.supports(spec), "run on an unsupported spec");
            self.log(1);
            outcome(self.name, seed)
        }
        fn as_batch(&self) -> Option<&dyn BatchSimBackend> {
            (self.name == NAMES[0]).then_some(self as &dyn BatchSimBackend)
        }
    }

    impl BatchSimBackend for Stub {
        fn run_batch(&self, jobs: &[(&ScenarioSpec, u64)]) -> Vec<RunOutcome> {
            self.log(jobs.len());
            jobs.iter()
                .map(|&(_, seed)| outcome(self.name, seed))
                .collect()
        }
    }

    /// The stub host: which spec hashes each named backend refuses, each
    /// backend's call log, and the shard file the stubs watch.
    #[derive(Default)]
    struct Host {
        refuses: HashMap<&'static str, HashSet<u64>>,
        calls: HashMap<&'static str, CallLog>,
        watched: Option<PathBuf>,
    }

    impl Host {
        fn factory(
            &self,
        ) -> impl Fn(&CampaignPlan, &BackendSel) -> Option<Box<dyn SimBackend>> + '_ {
            |_, sel| {
                let name = *NAMES.iter().find(|n| **n == sel.name)?;
                Some(Box::new(Stub {
                    name,
                    refuses: self.refuses.get(name).cloned().unwrap_or_default(),
                    calls: self.calls.get(name).cloned().unwrap_or_default(),
                    watched: self.watched.clone(),
                }))
            }
        }

        /// The plan's entries on this host's backends.
        fn entries(&self, plan: &CampaignPlan) -> Vec<Entry> {
            let backends = build_backends(plan, &self.factory()).unwrap();
            plan.entries(|b, spec| backends[b].supports(spec))
        }
    }

    /// `n` distinct small dumbbells with distinct seeds.
    fn cells(n: usize) -> Vec<PlannedCell> {
        (0..n)
            .map(|i| PlannedCell {
                spec: ScenarioSpec::dumbbell(1 + i % 3, 10.0 + i as f64, 0.010, 1.0),
                seed: 7919 * i as u64,
            })
            .collect()
    }

    fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bbr-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The keys and outcomes of shard `shard`'s record file, in file
    /// order.
    fn shard_records(dir: &Path, shard: usize) -> Vec<(CellKey, RunOutcome)> {
        std::fs::read_to_string(ResultStore::shard_path(dir, shard))
            .unwrap()
            .lines()
            .map(|l| parse_record(l).unwrap())
            .collect()
    }

    #[test]
    fn worker_writes_its_missing_entries_backend_major_in_flush_chunks() {
        let plan = CampaignPlan {
            effort: "fast".into(),
            backends: vec![
                BackendSel {
                    name: "batch".into(),
                    runs: 3,
                },
                BackendSel {
                    name: "single".into(),
                    runs: 2,
                },
            ],
            cells: cells(60),
        };
        let mut host = Host::default();
        // The batch backend refuses every fifth cell.
        let refused = plan.cells.iter().step_by(5).map(|c| c.spec.stable_hash());
        host.refuses.insert("batch", refused.collect());
        for name in NAMES {
            host.calls.insert(name, Arc::default());
        }
        let dir = store_dir("worker");
        plan.save(&dir).unwrap();
        // The store already holds every fourth entry of the plan.
        let entries = host.entries(&plan);
        let mut store = ResultStore::open(&dir).unwrap();
        for (i, e) in entries.iter().enumerate().filter(|(i, _)| i % 4 == 0) {
            let name = NAMES[e.backend];
            store
                .insert(e.key.clone(), outcome(name, i as u64))
                .unwrap();
        }
        drop(store);

        let (shard, shards) = (1, 2);
        host.watched = Some(ResultStore::shard_path(&dir, shard));
        let summary = run_worker(&dir, shard, shards, &host.factory()).unwrap();
        let mine: Vec<(usize, &Entry)> = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.cell % shards == shard)
            .collect();
        let mut missing: Vec<&Entry> = mine
            .iter()
            .filter(|(i, _)| i % 4 != 0)
            .map(|&(_, e)| e)
            .collect();
        missing.sort_by_key(|e| e.backend); // stable: plan order per backend
        assert_eq!(summary.computed, missing.len());
        assert_eq!(summary.cached, mine.len() - missing.len());
        let records = shard_records(&dir, shard);
        assert_eq!(records.len(), missing.len());
        for ((key, out), e) in records.iter().zip(&missing) {
            assert_eq!(key, &e.key);
            assert_eq!(out, &outcome(NAMES[e.backend], plan.job(e).1));
        }
        let calls = |name| host.calls[name].lock().unwrap().clone();
        let (batch, single) = (calls("batch"), calls("single"));
        let per_backend = |b| missing.iter().filter(|e| e.backend == b).count();
        assert!(
            batch.iter().all(|&(n, _)| n <= BATCH_FLUSH_CHUNK),
            "{batch:?}"
        );
        assert_eq!(batch[0].0, BATCH_FLUSH_CHUNK, "{batch:?}");
        assert_eq!(batch.iter().map(|c| c.0).sum::<usize>(), per_backend(0));
        assert!(single.iter().all(|&(n, _)| n == 1), "{single:?}");
        assert_eq!(single.len(), per_backend(1));
        // Every call starts with all earlier records flushed: each chunk
        // (each single entry) is written as soon as it completes.
        let mut written = 0;
        for (jobs, flushed) in batch.into_iter().chain(single) {
            assert_eq!(flushed, written);
            written += jobs;
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_shards_are_errors() {
        let plan = CampaignPlan {
            effort: "fast".into(),
            backends: vec![BackendSel {
                name: "single".into(),
                runs: 1,
            }],
            cells: cells(3),
        };
        let dir = store_dir("range");
        plan.save(&dir).unwrap();
        let host = Host::default();
        for (shard, shards) in [(2, 2), (5, 2), (0, 0)] {
            let err = run_worker(&dir, shard, shards, &host.factory()).unwrap_err();
            assert_eq!(err, format!("shard {shard} out of {shards}"));
        }
        assert!(!ResultStore::shard_path(&dir, 2).exists());
        assert_eq!(run_worker(&dir, 1, 2, &host.factory()).unwrap().computed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn shards_partition_the_plans_entries(
            n_cells in 0usize..12,
            runs in proptest::collection::vec(0u32..4, 1..4),
            mask in 0u64..u64::MAX,
            shards in 1usize..9,
        ) {
            let plan = CampaignPlan {
                effort: "fast".into(),
                backends: runs
                    .iter()
                    .zip(NAMES)
                    .map(|(&runs, name)| BackendSel {
                        name: name.into(),
                        runs,
                    })
                    .collect(),
                cells: cells(n_cells),
            };
            // Bit `3 * cell + backend` of the mask clear: refused.
            let mut host = Host::default();
            for (b, name) in NAMES.iter().enumerate() {
                let refused = (0..n_cells)
                    .filter(|c| mask >> (3 * c + b) & 1 == 0)
                    .map(|c| plan.cells[c].spec.stable_hash());
                host.refuses.insert(name, refused.collect());
            }
            let entries = host.entries(&plan);
            for e in &entries {
                let (cell, sel) = (&plan.cells[e.cell], &plan.backends[e.backend]);
                proptest::prop_assert_eq!(e.key.spec_hash, cell.spec.stable_hash());
                proptest::prop_assert_eq!(e.key.seed, cell.seed);
                proptest::prop_assert_eq!(&e.key.backend, &sel.name);
                proptest::prop_assert!(e.run_index < sel.runs);
                proptest::prop_assert_eq!(e.key.run_index, e.run_index);
            }
            let factory = host.factory();
            proptest::prop_assert_eq!(planned_entries(&plan, &factory).unwrap(), entries.len());

            let dir = store_dir("partition");
            plan.save(&dir).unwrap();
            let position: HashMap<&CellKey, usize> =
                entries.iter().enumerate().map(|(i, e)| (&e.key, i)).collect();
            let mut merged = Vec::new();
            for shard in 0..shards {
                let summary = run_worker(&dir, shard, shards, &factory).unwrap();
                let records = shard_records(&dir, shard);
                proptest::prop_assert_eq!(summary.computed, records.len());
                proptest::prop_assert_eq!(summary.cached, 0);
                merged.extend(records.into_iter().map(|(key, _)| position[&key]));
            }
            // Disjoint, and merged in plan order they are the plan.
            merged.sort_unstable();
            proptest::prop_assert_eq!(merged, (0..entries.len()).collect::<Vec<_>>());
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn shards_beyond_the_cell_count_are_empty(
            n_cells in 0usize..6,
            extra in 1usize..5,
        ) {
            // One run of one backend on every cell: each shard below the
            // cell count owns exactly one entry, and every shard at or
            // beyond it writes an empty shard file.
            let plan = CampaignPlan {
                effort: "fast".into(),
                backends: vec![BackendSel {
                    name: "single".into(),
                    runs: 1,
                }],
                cells: cells(n_cells),
            };
            let host = Host::default();
            let dir = store_dir("beyond");
            plan.save(&dir).unwrap();
            let shards = n_cells + extra;
            for shard in 0..shards {
                let summary = run_worker(&dir, shard, shards, &host.factory()).unwrap();
                let owned = usize::from(shard < n_cells);
                proptest::prop_assert_eq!(summary.computed, owned);
                proptest::prop_assert_eq!(summary.cached, 0);
                proptest::prop_assert_eq!(shard_records(&dir, shard).len(), owned);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
