//! CLI entry point regenerating the paper's figures.
//!
//! ```text
//! figures <id>... [--fast] [--out DIR]
//! figures all [--fast]
//! figures sweep [--fast] [--threads N]
//!               [--backend fluid|fluid-batch|fluid-simd|packet|both]
//!               [--topology dumbbell|parking|chain|both|all] [--churn]
//!               [--cca MIX] [--out DIR]
//! figures campaign [--fast] [--shards N] [--store DIR] [--resume]
//!                  [--topology dumbbell|parking|chain|both|all]
//! figures watch [--store DIR] [--once] [--json] [--interval MS] [--axes X,Y]
//! figures store compact [--store DIR]
//! figures simd-check
//! figures drift [--fast] [--threads N] [--out FILE] [--trace]
//! figures universe [--cells N] [--seed N] [--threads N]
//!                  [--backend fluid|fluid-batch|fluid-simd|packet|both]
//!                  [--out DIR]
//! figures trace [--topology dumbbell|parking|chain] [--cca MIX]
//!               [--flows N] [--buffer BDP] [--qdisc droptail|red]
//!               [--duration S] [--warmup S] [--seed N]
//!               [--backend fluid|packet] [--interval S] [--out DIR]
//! figures list
//! ```
//!
//! Reports print to stdout; CSV series are written to `--out`
//! (default `results/`). `sweep` runs the §4/§5-style scenario grid
//! (all seven CCA mixes × buffer sizes × both qdiscs) in parallel
//! across the machine's cores. `campaign` runs the same family of grids
//! as a *resumable sharded campaign*: cells are computed by `--shards`
//! child worker processes (this binary re-executing itself in a hidden
//! `campaign-worker` mode), persisted in a content-addressed store
//! under `--store`, and re-runs with `--resume` skip every cached cell
//! — an immediate re-run computes nothing. `watch` attaches a *strictly
//! read-only* live workbench to a campaign store: per-shard progress
//! bars and throughput from the `events.jsonl` telemetry sidecar, plus
//! a two-axis utilization heatmap tailed from `results.jsonl`; `--once`
//! prints a single plain frame and exits (for CI and golden tests).

use std::path::PathBuf;

use bbr_campaign::ResultStore;
use bbr_experiments::aggregate::{buffer_sizes, model_config};
use bbr_experiments::campaign::{all_topologies, build_backend, campaign_grid};
use bbr_experiments::compare::{Delta, CONSISTENCY};
use bbr_experiments::figures::{all_ids, run_figure};
use bbr_experiments::scenarios::CampaignParams;
use bbr_experiments::sweep::{bench_grid, Backend, ScenarioGrid, TopologyKind};
use bbr_experiments::Effort;
use bbr_fluid_core::topology::QdiscKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Campaign-wide tracing: when `BBR_TRACE_DIR` names a directory,
    // this process appends `trace/v1` lines to `<dir>/trace.jsonl` for
    // its whole lifetime. Installed before the worker dispatch below so
    // re-exec'd campaign workers (which inherit the env var) record
    // too. Strictly advisory: outcomes, store bytes, and cache keys are
    // unchanged whether the recorder is installed or not (CI diffs a
    // traced campaign's store against an untraced one byte for byte).
    if let Ok(dir) = std::env::var("BBR_TRACE_DIR") {
        let dir = PathBuf::from(dir);
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(bbr_experiments::tracefmt::TRACE_FILE);
        match bbr_experiments::tracefmt::JsonlTraceSink::append_to(&path) {
            Ok(sink) => {
                let guard = bbr_trace::install(
                    bbr_trace::TraceConfig::default(),
                    std::sync::Arc::new(sink),
                );
                // Process-lifetime recording: never uninstalled.
                std::mem::forget(guard);
            }
            Err(e) => eprintln!("trace: cannot open {}: {e} (not recording)", path.display()),
        }
    }
    // Hidden worker mode: campaign parents re-exec this binary with a
    // `campaign-worker` argv. Must run before any other arg handling.
    if let Some(code) = bbr_experiments::campaign::maybe_worker(&args) {
        std::process::exit(code);
    }
    if args.is_empty() {
        eprintln!(
            "usage: figures <id>...|all|sweep|campaign|list [--fast] [--threads N] [--out DIR]"
        );
        std::process::exit(2);
    }
    let fast = args.iter().any(|a| a == "--fast");
    let effort = if fast { Effort::Fast } else { Effort::Full };
    if let Some(v) = flag_value(&args, "--threads") {
        match v.parse::<usize>() {
            Ok(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .expect("thread pool configuration"),
            Err(_) => {
                eprintln!("invalid --threads value: {v} (expected a number)");
                std::process::exit(2);
            }
        }
    }
    let out_dir: PathBuf = flag_value(&args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));

    // Positional ids are the non-flag args minus the value slots of flags
    // that take one (dropped by index, so a value that happens to equal a
    // figure id or subcommand doesn't scrub the positional too).
    let value_slots: std::collections::HashSet<usize> = [
        "--out",
        "--threads",
        "--backend",
        "--topology",
        "--shards",
        "--store",
        "--cca",
        "--axes",
        "--interval",
        "--flows",
        "--buffer",
        "--qdisc",
        "--duration",
        "--warmup",
        "--seed",
        "--cells",
    ]
    .iter()
    .filter_map(|flag| args.iter().position(|a| a == *flag).map(|i| i + 1))
    .collect();
    let mut ids: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !value_slots.contains(i))
        .map(|(_, a)| a.clone())
        .collect();
    // `sweep` is a positional subcommand, so a flag value that happens to
    // equal "sweep" (e.g. `--out sweep`) doesn't hijack the invocation.
    if ids.first().map(String::as_str) == Some("sweep") {
        run_sweep(&args, effort);
        return;
    }
    if ids.first().map(String::as_str) == Some("campaign") {
        run_campaign(&args, effort);
        return;
    }
    if ids.first().map(String::as_str) == Some("watch") {
        run_watch(&args);
        return;
    }
    if ids.first().map(String::as_str) == Some("store") {
        run_store(&args, ids.get(1).map(String::as_str));
        return;
    }
    if ids.first().map(String::as_str) == Some("simd-check") {
        run_simd_check();
        return;
    }
    if ids.first().map(String::as_str) == Some("trace") {
        run_trace(&args);
        return;
    }
    if ids.first().map(String::as_str) == Some("drift") {
        run_drift_cmd(&args, effort);
        return;
    }
    if ids.first().map(String::as_str) == Some("universe") {
        run_universe_cmd(&args, effort);
        return;
    }
    if ids.iter().any(|i| i == "list") {
        for id in all_ids() {
            println!("{id}");
        }
        return;
    }
    if ids.iter().any(|i| i == "all") {
        ids = all_ids().iter().map(|s| s.to_string()).collect();
    }

    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");
    let mut failed = false;
    for id in &ids {
        match run_figure(id, effort) {
            Some(out) => {
                println!("{}", out.report);
                for (name, csv) in &out.csv {
                    let path = out_dir.join(name);
                    std::fs::write(&path, csv).expect("cannot write CSV");
                    eprintln!("wrote {}", path.display());
                }
            }
            None => {
                eprintln!("unknown figure id: {id} (try `figures list`)");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// The `--topology` selector shared by `sweep` and `campaign`.
fn parse_topologies(args: &[String], default: Vec<TopologyKind>) -> Vec<TopologyKind> {
    match flag_value(args, "--topology") {
        None => default,
        Some("dumbbell") => vec![TopologyKind::Dumbbell],
        Some("parking") => vec![TopologyKind::ParkingLot],
        Some("chain") => vec![TopologyKind::Chain],
        Some("both") => vec![TopologyKind::Dumbbell, TopologyKind::ParkingLot],
        Some("all") => all_topologies(),
        Some(other) => {
            eprintln!("unknown topology: {other} (expected dumbbell|parking|chain|both|all)");
            std::process::exit(2);
        }
    }
}

/// The `--backend` selector shared by `sweep` and `universe`.
fn parse_backend(args: &[String]) -> Backend {
    match flag_value(args, "--backend") {
        Some("fluid") => Backend::Fluid,
        Some("fluid-batch") => Backend::FluidBatch,
        Some("fluid-simd") => Backend::FluidSimd,
        Some("packet") => Backend::Packet,
        Some("both") | None => Backend::Both,
        Some(other) => {
            eprintln!(
                "unknown backend: {other} (expected fluid|fluid-batch|fluid-simd|packet|both)"
            );
            std::process::exit(2);
        }
    }
}

/// The `simd-check` subcommand: the SIMD engine's consistency smoke.
///
/// Runs the pinned 24-cell mixed-topology grid ([`bench_grid`]) on the
/// scalar `fluid` backend and the packed `fluid-simd` backend and
/// diffs every cell's metrics under the cross-backend tolerance
/// contract, [`CONSISTENCY`]: a cell fails when its utilization or Jain
/// gap reaches the gate. The packed engine tracks the scalar one far
/// tighter than that in practice (sub-percent), but the contract is the
/// tolerance the name `"fluid-simd"` promises, so the gate checks
/// exactly that. Exits non-zero on any violation.
fn run_simd_check() {
    let cfg = model_config(Effort::Fast);
    let report = bench_grid(24).run_with(&[
        Box::new(bbr_fluid_core::backend::FluidBackend::new(cfg.clone())),
        Box::new(bbr_fluidbatch::SimdFluidBackend::new(cfg)),
    ]);
    let mut worst_util = 0.0f64;
    let mut worst_jain = 0.0f64;
    let mut failed = false;
    for cell in &report.cells {
        let (Some(m), Some(s)) = (
            report.metrics(cell, "fluid"),
            report.metrics(cell, "fluid-simd"),
        ) else {
            eprintln!("simd-check: missing backend column for a cell");
            std::process::exit(1);
        };
        let d = Delta::between(m, s);
        let (util_gap, jain_gap) = (d.util_pp.abs(), d.jain.abs());
        worst_util = worst_util.max(util_gap);
        worst_jain = worst_jain.max(jain_gap);
        if util_gap >= CONSISTENCY.util_pp || jain_gap >= CONSISTENCY.jain {
            eprintln!(
                "simd-check FAIL at {:?}: util gap {util_gap:.2} pp, jain gap {jain_gap:.3}",
                cell.point
            );
            failed = true;
        }
    }
    eprintln!(
        "simd-check: {} cells, worst utilization gap {worst_util:.3} pp \
         (tolerance {}), worst Jain gap {worst_jain:.4} (tolerance {})",
        report.len(),
        CONSISTENCY.util_pp,
        CONSISTENCY.jain,
    );
    if failed {
        std::process::exit(1);
    }
    eprintln!("simd-check: PASS");
}

/// The `drift` subcommand: the fluid-vs-packet divergence audit over
/// the pinned paper-shaped grid. Prints the human summary and writes
/// the machine-readable report to `--out`
/// (default `results/drift.json`).
///
/// `--trace` additionally re-runs every cell on both engines under the
/// flight recorder and diffs the recorded *time series*: per cell, the
/// first time the bottleneck-utilization traces diverge, which packet
/// CCA phase the drift concentrates in, and the worst-divergence
/// window. The trace-diff JSON (`trace-diff/v1`) lands next to the
/// drift report with a `-trace` suffix (`results/drift-trace.json` by
/// default).
fn run_drift_cmd(args: &[String], effort: Effort) {
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or("results/drift.json"));
    let grid = bbr_experiments::drift::drift_grid(effort);
    eprintln!(
        "drift audit: {} cells on both backends, {} thread(s)...",
        grid.len(),
        rayon::current_num_threads()
    );
    let report = bbr_experiments::drift::run_drift(effort);
    print!("{}", report.table());
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("cannot create output directory");
        }
    }
    std::fs::write(&out, report.to_json().to_compact_string())
        .expect("cannot write drift report JSON");
    eprintln!("wrote {}", out.display());
    if args.iter().any(|a| a == "--trace") {
        eprintln!(
            "trace diff: re-running {} cells under the flight recorder...",
            grid.len()
        );
        let audit = bbr_experiments::drift::run_trace_audit(effort);
        print!("{}", audit.table());
        let trace_out = match (out.parent(), out.file_stem().and_then(|s| s.to_str())) {
            (Some(dir), Some(stem)) => dir.join(format!("{stem}-trace.json")),
            _ => PathBuf::from("drift-trace.json"),
        };
        std::fs::write(&trace_out, audit.to_json().to_compact_string())
            .expect("cannot write trace-diff JSON");
        eprintln!("wrote {}", trace_out.display());
    }
}

/// The `universe` subcommand: the generated-scenario divergence sweep.
///
/// Generates the `--cells`-cell scenario universe seeded by `--seed`
/// (star / tree / fat-tree / random-mesh `Topology::Custom` cells with
/// steady, multi-interval on/off, and Poisson flow schedules), runs it
/// on the selected backend(s), prints the divergence summary, and
/// writes `universe.json` (`universe-report/v1`) plus `universe.csv` to
/// `--out` (default `results/`). Both artifacts are byte-stable across
/// same-seed invocations. With a fluid + packet comparison (the default
/// `--backend both`), exits non-zero if any cell lands outside the
/// universe tolerance gates.
fn run_universe_cmd(args: &[String], effort: Effort) {
    let cells: usize = match flag_value(args, "--cells").map(str::parse) {
        None => 256,
        Some(Ok(n)) if n > 0 => n,
        _ => {
            eprintln!("invalid --cells value (expected a positive number)");
            std::process::exit(2);
        }
    };
    let seed: u64 = match flag_value(args, "--seed").map(str::parse) {
        None => 1889,
        Some(Ok(s)) => s,
        Some(Err(_)) => {
            eprintln!("invalid --seed value (expected a number)");
            std::process::exit(2);
        }
    };
    let backend = parse_backend(args);
    eprintln!(
        "universe sweep: {cells} generated cells (seed {seed:#x}) on {} thread(s)...",
        rayon::current_num_threads()
    );
    let report = bbr_experiments::universe::run_universe(seed, cells, effort, backend);
    print!("{}", report.table());
    let dir = PathBuf::from(flag_value(args, "--out").unwrap_or("results"));
    std::fs::create_dir_all(&dir).expect("cannot create output directory");
    let json_path = dir.join("universe.json");
    std::fs::write(&json_path, report.to_json().to_compact_string())
        .expect("cannot write universe report JSON");
    let csv_path = dir.join("universe.csv");
    std::fs::write(&csv_path, report.csv()).expect("cannot write universe CSV");
    eprintln!("wrote {} and {}", json_path.display(), csv_path.display());
    let violations = report.violations();
    if !violations.is_empty() {
        eprintln!(
            "universe sweep: {} of {} compared cells outside the tolerance gates",
            violations.len(),
            report.compared()
        );
        std::process::exit(1);
    }
}

/// The `trace` subcommand: the single-cell flight recorder.
///
/// Builds one scenario from the flags, runs it on the chosen engine
/// with an in-memory recorder installed, and renders ASCII sparklines
/// of every flow's rate, the link queues/utilization, and (on the
/// packet backend) the per-flow CCA phase timeline. With `--out DIR`
/// the recording is also written as `trace/v1` JSONL plus a CSV of the
/// sampled series.
fn run_trace(args: &[String]) {
    use bbr_experiments::tracefmt::{CellTrace, JsonlTraceSink, TraceRecord, TRACE_FILE};
    use bbr_scenario::{ScenarioSpec, SimBackend};

    let flows: usize = match flag_value(args, "--flows").map(str::parse) {
        None => 4,
        Some(Ok(n)) if n > 0 => n,
        _ => {
            eprintln!("invalid --flows value (expected a positive number)");
            std::process::exit(2);
        }
    };
    let parse_f64 = |flag: &str, default: f64| match flag_value(args, flag).map(str::parse::<f64>) {
        None => default,
        Some(Ok(v)) if v > 0.0 => v,
        _ => {
            eprintln!("invalid {flag} value (expected a positive number)");
            std::process::exit(2);
        }
    };
    let buffer = parse_f64("--buffer", 1.0);
    let duration = parse_f64("--duration", 2.0);
    let warmup = match flag_value(args, "--warmup").map(str::parse::<f64>) {
        None => 0.5,
        Some(Ok(v)) if v >= 0.0 => v,
        _ => {
            eprintln!("invalid --warmup value (expected seconds >= 0)");
            std::process::exit(2);
        }
    };
    let interval = parse_f64("--interval", bbr_trace::DEFAULT_INTERVAL);
    let seed: u64 = match flag_value(args, "--seed").map(str::parse) {
        None => 1889,
        Some(Ok(s)) => s,
        Some(Err(_)) => {
            eprintln!("invalid --seed value (expected a number)");
            std::process::exit(2);
        }
    };
    let qdisc = match flag_value(args, "--qdisc") {
        None | Some("droptail") => QdiscKind::DropTail,
        Some("red") => QdiscKind::Red,
        Some(other) => {
            eprintln!("unknown qdisc: {other} (expected droptail|red)");
            std::process::exit(2);
        }
    };
    let combo = parse_cca_combo(flag_value(args, "--cca").unwrap_or("BBRv2D"));
    let spec = match flag_value(args, "--topology").unwrap_or("dumbbell") {
        "dumbbell" => ScenarioSpec::dumbbell(flows, 100.0, 0.010, buffer),
        "parking" => ScenarioSpec::parking_lot(100.0, 80.0, 0.010, buffer),
        "chain" => ScenarioSpec::chain(3, 100.0, 0.010, buffer),
        other => {
            eprintln!("unknown topology: {other} (expected dumbbell|parking|chain)");
            std::process::exit(2);
        }
    };
    let spec = spec
        .ccas(combo.kinds.to_vec())
        .qdisc(qdisc)
        .duration(duration)
        .warmup(warmup);
    if let Err(e) = spec.validate() {
        eprintln!("invalid scenario: {e}");
        std::process::exit(2);
    }
    let backend: Box<dyn SimBackend> = match flag_value(args, "--backend") {
        None | Some("packet") => Box::new(bbr_packetsim::backend::PacketBackend::new(1)),
        Some("fluid") => Box::new(bbr_fluid_core::backend::FluidBackend::new(model_config(
            Effort::Fast,
        ))),
        Some(other) => {
            eprintln!("unknown backend: {other} (expected fluid|packet)");
            std::process::exit(2);
        }
    };
    let sink = std::sync::Arc::new(bbr_trace::MemorySink::new());
    let outcome = {
        let _guard = bbr_trace::install(
            bbr_trace::TraceConfig {
                interval,
                ..bbr_trace::TraceConfig::default()
            },
            sink.clone(),
        );
        backend.run(&spec, seed)
    };
    let events = sink.take();
    let cell = CellTrace::from_events(&events, 0);
    println!(
        "trace: {} backend={} seed={seed:x} interval={interval}s ({} events)",
        spec.describe(),
        backend.name(),
        events.len(),
    );
    print!("{}", cell.render(64));
    println!(
        "outcome: utilization {:.1}%, jain {:.3}, loss {:.2}%",
        outcome.utilization_percent, outcome.jain, outcome.loss_percent
    );
    if let Some(dir) = flag_value(args, "--out") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("cannot create output directory");
        let jsonl = dir.join(TRACE_FILE);
        let file_sink = JsonlTraceSink::append_to(&jsonl).expect("cannot open trace JSONL");
        file_sink.write_record(&TraceRecord::Header {
            spec_hash: spec.stable_hash(),
            backend: backend.name().to_string(),
            seed,
            interval,
            label: spec.describe(),
        });
        for e in &events {
            file_sink.write_record(&TraceRecord::from_event(e));
        }
        let csv = dir.join("trace.csv");
        std::fs::write(&csv, cell.csv()).expect("cannot write trace CSV");
        eprintln!("wrote {} and {}", jsonl.display(), csv.display());
    }
}

/// The `watch` subcommand: the live campaign telemetry workbench.
///
/// Attaches to `--store` read-only (plan + tail cursors only — no byte
/// of the store or sidecar changes, and a watched campaign still
/// resumes with `computed=0`). `--once` prints one plain frame to
/// stdout and exits; otherwise the frame redraws under an ANSI
/// clear-screen every `--interval` milliseconds (default 1000) until
/// every planned entry is in the store. `--axes X,Y` picks the heatmap
/// columns and rows from: buffer, cca, qdisc, topo, flows, churn
/// (default `buffer,cca`). `--json` (with `--once`) prints the frame as
/// one `watch/v1` JSON object instead of text, for scripted consumers.
fn run_watch(args: &[String]) {
    use bbr_experiments::watch::{parse_axes, WatchState};
    let store_dir = PathBuf::from(flag_value(args, "--store").unwrap_or("results/campaign"));
    let once = args.iter().any(|a| a == "--once");
    let json = args.iter().any(|a| a == "--json");
    if json && !once {
        eprintln!("--json requires --once (the live loop is a terminal UI)");
        std::process::exit(2);
    }
    let interval = match flag_value(args, "--interval").map(str::parse::<u64>) {
        None => std::time::Duration::from_millis(1000),
        Some(Ok(ms)) if ms > 0 => std::time::Duration::from_millis(ms),
        _ => {
            eprintln!("invalid --interval value (expected milliseconds > 0)");
            std::process::exit(2);
        }
    };
    let axes = parse_axes(flag_value(args, "--axes").unwrap_or("buffer,cca")).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut state = WatchState::new(&store_dir, axes).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // The store path goes to stderr so stdout carries only the frame
    // (temp-dir paths would otherwise break golden comparisons).
    eprintln!("watching {}", store_dir.display());
    loop {
        if let Err(e) = state.poll() {
            eprintln!("watch: {e}");
            std::process::exit(1);
        }
        if once {
            if json {
                println!("{}", state.render_json());
            } else {
                print!("{}", state.render());
            }
            return;
        }
        // Clear + home, then the same deterministic frame `--once` prints.
        print!("\x1b[2J\x1b[H{}", state.render());
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        if state.finished() {
            return;
        }
        std::thread::sleep(interval);
    }
}

/// The `store` subcommand: maintenance of campaign result stores.
/// `store compact --store DIR` dedup-rewrites the JSONL record file in
/// sorted key order (one line per key, temp-file + rename).
fn run_store(args: &[String], action: Option<&str>) {
    match action {
        Some("compact") => {}
        other => {
            eprintln!(
                "usage: figures store compact --store DIR (got action {:?})",
                other.unwrap_or("<none>")
            );
            std::process::exit(2);
        }
    }
    let store_dir = PathBuf::from(flag_value(args, "--store").unwrap_or("results/campaign"));
    if !store_dir.join(bbr_campaign::RESULTS_FILE).exists() {
        eprintln!("no store at {} (nothing to compact)", store_dir.display());
        std::process::exit(2);
    }
    let mut store = ResultStore::open(&store_dir).unwrap_or_else(|e| {
        eprintln!("cannot open store: {e}");
        std::process::exit(1);
    });
    let stats = store.compact().unwrap_or_else(|e| {
        eprintln!("compaction failed: {e}");
        std::process::exit(1);
    });
    println!("{}", stats.log_line());
}

/// The `campaign` subcommand: a resumable sharded sweep over worker
/// processes and a content-addressed result store.
fn run_campaign(args: &[String], effort: Effort) {
    let shards: usize = match flag_value(args, "--shards").map(str::parse) {
        None => 4,
        Some(Ok(n)) => n,
        Some(Err(_)) => {
            eprintln!("invalid --shards value (expected a number)");
            std::process::exit(2);
        }
    };
    let store_dir = PathBuf::from(flag_value(args, "--store").unwrap_or("results/campaign"));
    let resume = args.iter().any(|a| a == "--resume");
    // A pre-existing store is only reused when the caller says so: the
    // campaign would silently serve another grid's cached cells (which
    // is exactly what --resume means, and surprising otherwise).
    if store_dir.join(bbr_campaign::RESULTS_FILE).exists() && !resume {
        eprintln!(
            "store {} already holds results; pass --resume to reuse it (cached cells \
             are skipped) or point --store somewhere fresh",
            store_dir.display()
        );
        std::process::exit(2);
    }
    let grid = campaign_grid(effort, parse_topologies(args, all_topologies()));
    eprintln!(
        "campaign: {} cells across {} worker process(es), store {}...",
        grid.len(),
        shards.max(1),
        store_dir.display()
    );
    let plan = grid.campaign_plan();
    let summary = bbr_campaign::run_sharded(&plan, &store_dir, shards, &build_backend)
        .unwrap_or_else(|e| {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        });
    let store = ResultStore::open(&store_dir).unwrap_or_else(|e| {
        eprintln!("cannot reopen store: {e}");
        std::process::exit(1);
    });
    let report = grid.report_from_store(&store).unwrap_or_else(|e| {
        eprintln!("merged store does not cover the grid: {e}");
        std::process::exit(1);
    });
    println!("{}", report.table());
    let csv_path = store_dir.join("report.csv");
    std::fs::write(&csv_path, report.csv()).expect("cannot write report CSV");
    eprintln!("wrote {}", csv_path.display());
    println!("{}", summary.log_line());
}

/// The `--cca` selector: a CCA mix label like `BBRv2D` or
/// `BBRv2D/CUBIC` (names as printed by the sweep's combo column),
/// resolved through the scenario layer so every `CcaKind` — including
/// fidelity tiers the default legend predates — is sweepable.
fn parse_cca_combo(label: &str) -> bbr_experiments::scenarios::Combo {
    use bbr_fluid_core::cca::CcaKind;
    let kinds: Vec<CcaKind> = label
        .split('/')
        .map(|name| {
            CcaKind::from_name(name).unwrap_or_else(|| {
                let known: Vec<&str> = CcaKind::ALL.iter().map(|k| k.name()).collect();
                eprintln!("unknown CCA: {name} (expected one of {})", known.join(", "));
                std::process::exit(2);
            })
        })
        .collect();
    // Combos carry 'static references (they are normally consts); a CLI
    // selection leaks its one small allocation for the process lifetime.
    bbr_experiments::scenarios::Combo {
        label: Box::leak(label.to_string().into_boxed_str()),
        kinds: Box::leak(kinds.into_boxed_slice()),
    }
}

/// The `sweep` subcommand: the paper-shaped grid (all seven CCA mixes ×
/// buffer sizes × both qdiscs, or a single `--cca` mix) fanned out over
/// the cores.
fn run_sweep(args: &[String], effort: Effort) {
    let backend = parse_backend(args);
    let topologies = parse_topologies(args, vec![TopologyKind::Dumbbell]);
    // Full effort runs the §4.3 campaign (N = 10, 5 s windows, 3 runs);
    // --fast its reduced variant — same split as the figure generators.
    let campaign = if effort.is_fast() {
        CampaignParams::default_rtt().fast()
    } else {
        CampaignParams::default_rtt()
    };
    let mut grid = ScenarioGrid::from_campaign(&campaign)
        .effort(effort)
        .backend(backend)
        .topologies(topologies)
        .buffers_bdp(buffer_sizes(effort))
        .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red]);
    // `--cca MIX` narrows the combo axis to one mix (any CcaKind,
    // including BBRv2D); the default is the paper's full legend.
    grid = match flag_value(args, "--cca") {
        Some(label) => grid.combos(vec![parse_cca_combo(label)]),
        None => grid.all_combos(),
    };
    // `--churn` adds the flow-churn axis: every cell additionally swept
    // with late-start and early-stop activity windows.
    if args.iter().any(|a| a == "--churn") {
        grid = grid.with_churn();
    }
    eprintln!(
        "sweeping {} points on {} thread(s)...",
        grid.len(),
        rayon::current_num_threads()
    );
    let report = grid.run();
    println!("{}", report.table());
    if let Some(gap) = report.mean_utilization_gap() {
        println!("mean |model - experiment| utilization gap: {gap:.1} pp");
    }
    if let Some(dir) = flag_value(args, "--out") {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("cannot create output directory");
        let path = dir.join("sweep.csv");
        std::fs::write(&path, report.csv()).expect("cannot write CSV");
        eprintln!("wrote {}", path.display());
    }
}
