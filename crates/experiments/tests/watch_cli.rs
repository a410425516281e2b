//! End-to-end tests of the `figures watch` subcommand: golden frames
//! over a pinned hand-crafted fixture store (so the frame layout is a
//! contract, not an accident), the read-only guarantee (watching never
//! changes a byte of the store or its telemetry sidecar, torn tails
//! included), and the full campaign → watch → resume loop (a watched
//! store still resumes with `computed=0`).

use std::path::{Path, PathBuf};
use std::process::Command;

use bbr_campaign::store::record_to_line;
use bbr_campaign::{
    event_to_line, events_path, parse_event, BackendSel, CampaignPlan, CellKey, PlannedCell,
    RESULTS_FILE,
};
use bbr_scenario::{CcaKind, FlowMetrics, RunOutcome, ScenarioSpec};
use bbr_telemetry::Event;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

/// A fresh temp dir for one test. Tests of one binary share a pid and
/// run in parallel, so every caller must pass its own `tag`.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bbr-watch-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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

fn plan_of(specs: Vec<ScenarioSpec>) -> CampaignPlan {
    CampaignPlan {
        effort: "fast".into(),
        backends: vec![BackendSel {
            name: "fluid".into(),
            runs: 1,
        }],
        cells: specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| PlannedCell {
                spec,
                seed: 100 + i as u64,
            })
            .collect(),
    }
}

fn key_of(plan: &CampaignPlan, cell: usize) -> CellKey {
    CellKey {
        spec_hash: plan.cells[cell].spec.stable_hash(),
        seed: plan.cells[cell].seed,
        backend: "fluid".into(),
        run_index: 0,
    }
}

fn append(path: &Path, line: &str) {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    writeln!(f, "{line}").unwrap();
}

/// The pinned fixture: a 2×2 grid (buffer × CCA), 3 of 4 entries done,
/// telemetry from two worker shards mid-flight. Hand-crafted — not real
/// sim output — so every number in the golden frame is pinned and
/// platform-independent. Built under `fresh_dir(tag)`.
fn golden_fixture(tag: &str) -> PathBuf {
    let dir = fresh_dir(tag);
    let plan = plan_of(vec![
        spec(1.0, vec![CcaKind::BbrV1]),
        spec(4.0, vec![CcaKind::BbrV1]),
        spec(1.0, vec![CcaKind::Reno]),
        spec(4.0, vec![CcaKind::Reno]),
    ]);
    plan.save(&dir).unwrap();
    let results = dir.join(RESULTS_FILE);
    append(&results, &record_to_line(&key_of(&plan, 0), &outcome(98.7)));
    append(&results, &record_to_line(&key_of(&plan, 1), &outcome(91.2)));
    append(&results, &record_to_line(&key_of(&plan, 2), &outcome(55.0)));
    let events = events_path(&dir);
    append(
        &events,
        &event_to_line(&Event::ShardStart {
            shard: 0,
            shards: 2,
            planned: 2,
            cached: 0,
        }),
    );
    append(
        &events,
        &event_to_line(&Event::ShardStart {
            shard: 1,
            shards: 2,
            planned: 2,
            cached: 0,
        }),
    );
    append(
        &events,
        &event_to_line(&Event::Heartbeat {
            shard: 0,
            shards: 2,
            computed: 1,
            planned: 2,
            cached: 0,
            wall_ms: 50.0,
            cells_per_sec: 20.0,
            spec_hash: 0xfeed,
        }),
    );
    append(
        &events,
        &event_to_line(&Event::ShardDone {
            shard: 1,
            shards: 2,
            computed: 2,
            cached: 0,
            wall_ms: 80.0,
            cells_per_sec: 25.0,
        }),
    );
    append(
        &events,
        &event_to_line(&Event::Wave {
            lanes: 2,
            flows: 4,
            occupancy: 0.5,
            wall_ms: 3.5,
        }),
    );
    dir
}

fn watch_once(dir: &Path, extra: &[&str]) -> std::process::Output {
    figures()
        .args(["watch", "--once", "--store"])
        .arg(dir)
        .args(extra)
        .output()
        .expect("spawn figures watch")
}

#[test]
fn golden_frame_for_the_pinned_fixture() {
    let dir = golden_fixture("golden-text");
    let out = watch_once(&dir, &[]);
    assert!(
        out.status.success(),
        "watch failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let frame = String::from_utf8_lossy(&out.stdout);
    let expected = format!(
        "watch {dir}: 4 cells, backends fluid x1, effort fast\n\
         entries  [##############################----------] 3/4 (75.0%)\n\
         cache    0.0% hit (0 cached of 4 this run)\n\
         rate     45.0 cells/s aggregate, eta 0s\n\
         \n\
         shard 0/2 [##########----------] 1/2 computed, 0 cached, 20.0 c/s\n\
         shard 1/2 [####################] 2/2 computed, 0 cached, 25.0 c/s, done\n\
         waves    1 fluid waves, 2 lanes, 4 flows, avg 3.50 ms, pack occ 0.50\n\
         \n\
         heatmap  mean utilization %, rows cca x cols buffer (3 records)\n\
         \u{20}       1bdp   4bdp\n\
         BBRv1  @98.7  #91.2\n\
         RENO   =55.0     --\n\
         legend   @>=97 #>=90 *>=80 +>=70 =>=55 ->=40 :>=25 .>=10 util%\n\
         \n\
         telemetry: 5 events (2 shard starts, 1 heartbeats, 1 shard dones, 0 campaign dones, 1 waves)\n",
        dir = dir.display()
    );
    assert_eq!(frame, expected);
    // The heatmap axes are selectable; swapping them transposes the grid.
    let swapped = watch_once(&dir, &["--axes", "cca,buffer"]);
    assert!(swapped.status.success());
    let frame = String::from_utf8_lossy(&swapped.stdout).to_string();
    assert!(
        frame.contains("rows buffer x cols cca"),
        "transposed heatmap missing: {frame}"
    );
    assert!(frame.contains("BBRv1"), "{frame}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn json_frame_is_golden_for_the_pinned_fixture() {
    let dir = golden_fixture("golden-json");
    let out = watch_once(&dir, &["--json"]);
    assert!(
        out.status.success(),
        "watch --json failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.trim_end();
    assert!(!line.contains('\n'), "one JSON line: {line}");
    // Golden modulo the temp-dir store path: strip the one
    // machine-dependent field, then compare the rest verbatim.
    let expected = format!(
        "{{\"v\":\"watch/v1\",\"store\":\"{store}\",\"effort\":\"fast\",\"cells\":4.0,\
         \"backends\":\"fluid x1\",\"entries_done\":3.0,\"entries_total\":4.0,\
         \"rate_cells_per_sec\":45.0,\
         \"cache\":{{\"hit_pct\":0.0,\"cached\":0.0,\"of\":4.0}},\
         \"eta_s\":0.0,\
         \"shards_total\":2.0,\
         \"shards\":[{{\"shard\":0.0,\"planned\":2.0,\"cached\":0.0,\"computed\":1.0,\
         \"cells_per_sec\":20.0,\"done\":0.0}},\
         {{\"shard\":1.0,\"planned\":2.0,\"cached\":0.0,\"computed\":2.0,\
         \"cells_per_sec\":25.0,\"done\":1.0}}],\
         \"waves\":{{\"count\":1.0,\"lanes\":2.0,\"flows\":4.0,\"wall_ms\":3.5,\
         \"mean_occupancy\":0.5}},\
         \"heatmap\":{{\"x_axis\":\"buffer\",\"y_axis\":\"cca\",\
         \"x_bins\":[\"1bdp\",\"4bdp\"],\"y_bins\":[\"BBRv1\",\"RENO\"],\
         \"bins\":[{{\"x\":\"1bdp\",\"y\":\"BBRv1\",\"count\":1.0,\"mean_util\":98.7}},\
         {{\"x\":\"4bdp\",\"y\":\"BBRv1\",\"count\":1.0,\"mean_util\":91.2}},\
         {{\"x\":\"1bdp\",\"y\":\"RENO\",\"count\":1.0,\"mean_util\":55.0}}]}},\
         \"telemetry\":{{\"events\":5.0,\"shard_starts\":2.0,\"heartbeats\":1.0,\
         \"shard_dones\":1.0,\"campaign_dones\":0.0,\"waves\":1.0}},\
         \"skipped\":{{\"stale_records\":0.0,\"malformed_records\":0.0,\
         \"malformed_events\":0.0}}}}",
        store = dir.display()
    );
    assert_eq!(line, expected);

    // --json without --once is refused: the live loop is a terminal UI.
    let live = figures()
        .args(["watch", "--json", "--store"])
        .arg(&dir)
        .output()
        .expect("spawn figures watch --json");
    assert_eq!(live.status.code(), Some(2));
    let err = String::from_utf8_lossy(&live.stderr);
    assert!(err.contains("--json requires --once"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_frame_for_a_degenerate_one_cell_grid() {
    let dir = fresh_dir("one-cell");
    let plan = plan_of(vec![spec(2.0, vec![CcaKind::Cubic])]);
    plan.save(&dir).unwrap();
    append(
        &dir.join(RESULTS_FILE),
        &record_to_line(&key_of(&plan, 0), &outcome(77.7)),
    );
    let out = watch_once(&dir, &[]);
    assert!(
        out.status.success(),
        "watch failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let frame = String::from_utf8_lossy(&out.stdout);
    let expected = format!(
        "watch {dir}: 1 cells, backends fluid x1, effort fast\n\
         entries  [########################################] 1/1 (100.0%)\n\
         cache    n/a (no worker telemetry)\n\
         rate     0.0 cells/s aggregate, eta done\n\
         \n\
         shards   no telemetry yet (events.jsonl absent or empty)\n\
         \n\
         heatmap  mean utilization %, rows cca x cols buffer (1 records)\n\
         \u{20}       2bdp\n\
         CUBIC  +77.7\n\
         legend   @>=97 #>=90 *>=80 +>=70 =>=55 ->=40 :>=25 .>=10 util%\n\
         \n\
         telemetry: none (events.jsonl absent or empty)\n",
        dir = dir.display()
    );
    assert_eq!(frame, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn watching_never_changes_a_byte_of_the_store_or_sidecar() {
    use std::io::Write as _;
    let dir = golden_fixture("golden-readonly");
    // Leave *torn tails* on both files — the hazard case: a writer mid
    // `write_all` while the watcher attaches. The watcher must neither
    // repair nor consume them.
    let torn_record = b"{\"spec\":\"dead";
    let torn_event = b"{\"v\":\"telemetry/v1\",\"kind\":\"heart";
    for (file, torn) in [
        (RESULTS_FILE.to_string(), &torn_record[..]),
        ("events.jsonl".to_string(), &torn_event[..]),
    ] {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(&file))
            .unwrap();
        f.write_all(torn).unwrap();
    }
    let snapshot = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read(dir.join(&name)).unwrap();
                (name, bytes)
            })
            .collect()
    };
    let before = snapshot(&dir);
    for _ in 0..2 {
        let out = watch_once(&dir, &[]);
        assert!(
            out.status.success(),
            "watch failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Torn tails are invisible, not errors: the frame still renders
        // and reports no malformed lines (the bytes may yet be completed
        // by their writer).
        let frame = String::from_utf8_lossy(&out.stdout);
        assert!(frame.contains("3/4 (75.0%)"), "{frame}");
        assert!(!frame.contains("malformed"), "{frame}");
    }
    assert_eq!(
        before,
        snapshot(&dir),
        "watching must not change any store byte"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn watched_campaign_still_resumes_with_zero_recomputes() {
    let store = fresh_dir("e2e");
    std::fs::remove_dir_all(&store).unwrap(); // campaign creates it
    let cold = figures()
        .args([
            "campaign",
            "--fast",
            "--shards",
            "2",
            "--topology",
            "dumbbell",
            "--store",
        ])
        .arg(&store)
        .output()
        .expect("spawn figures campaign");
    assert!(
        cold.status.success(),
        "cold campaign failed:\n{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_stdout = String::from_utf8_lossy(&cold.stdout);
    assert!(cold_stdout.contains("cached=0"), "{cold_stdout}");
    assert!(cold_stdout.contains("wall_s="), "{cold_stdout}");
    assert!(cold_stdout.contains("cells_per_sec="), "{cold_stdout}");

    // The workers left an events.jsonl sidecar and every line parses.
    let events = std::fs::read_to_string(events_path(&store)).expect("events.jsonl");
    let mut kinds: Vec<&'static str> = Vec::new();
    for line in events.lines() {
        kinds.push(parse_event(line).expect("every event line parses").kind());
    }
    assert!(kinds.contains(&"shard_start"), "{kinds:?}");
    assert!(kinds.contains(&"heartbeat"), "{kinds:?}");
    assert!(kinds.contains(&"shard_done"), "{kinds:?}");
    assert_eq!(kinds.last(), Some(&"campaign_done"), "{kinds:?}");

    let results_before = std::fs::read(store.join(RESULTS_FILE)).unwrap();
    let events_before = std::fs::read(events_path(&store)).unwrap();
    let watched = watch_once(&store, &[]);
    assert!(
        watched.status.success(),
        "watch failed:\n{}",
        String::from_utf8_lossy(&watched.stderr)
    );
    let frame = String::from_utf8_lossy(&watched.stdout);
    assert!(frame.contains("(100.0%)"), "{frame}");
    assert!(frame.contains("cells/s aggregate, eta done"), "{frame}");
    assert!(frame.contains("telemetry:"), "{frame}");
    assert!(frame.contains("heatmap"), "{frame}");
    assert!(!frame.contains("malformed"), "{frame}");
    assert_eq!(
        results_before,
        std::fs::read(store.join(RESULTS_FILE)).unwrap()
    );
    assert_eq!(events_before, std::fs::read(events_path(&store)).unwrap());

    // The watched store resumes exactly as an unwatched one: nothing
    // recomputed.
    let warm = figures()
        .args([
            "campaign",
            "--fast",
            "--shards",
            "2",
            "--topology",
            "dumbbell",
            "--resume",
            "--store",
        ])
        .arg(&store)
        .output()
        .expect("spawn figures campaign --resume");
    assert!(
        warm.status.success(),
        "resume failed:\n{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm_stdout = String::from_utf8_lossy(&warm.stdout);
    assert!(warm_stdout.contains("computed=0"), "{warm_stdout}");
    std::fs::remove_dir_all(&store).unwrap();
}

#[test]
fn watch_refuses_a_directory_without_a_plan() {
    let dir = fresh_dir("no-plan");
    let out = watch_once(&dir, &[]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("plan.json"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
