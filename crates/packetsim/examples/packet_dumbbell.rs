//! Inspect one packet-level dumbbell run: aggregate metrics plus a
//! binned trace from the flight recorder.
//!
//! ```text
//! cargo run --release -p bbr-packetsim --example packet_dumbbell -- [reno|cubic|bbr1|bbr2] [dt|red] [n] [capacity_mbps]
//! ```

use std::sync::Arc;

use bbr_packetsim::engine::SimConfig;
use bbr_packetsim::prelude::*;
use bbr_telemetry::trace::{Recorder, TraceConfig, TraceEvent};
use bbr_telemetry::MemorySink;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kind = match args.get(1).map(|s| s.as_str()) {
        Some("bbr1") => CcaKind::BbrV1,
        Some("bbr2") => CcaKind::BbrV2,
        Some("cubic") => CcaKind::Cubic,
        _ => CcaKind::Reno,
    };
    let qdisc = match args.get(2).map(|s| s.as_str()) {
        Some("red") => QdiscKind::Red,
        _ => QdiscKind::DropTail,
    };
    let n: usize = args.get(3).map(|s| s.parse().unwrap()).unwrap_or(1);
    let cap: f64 = args.get(4).map(|s| s.parse().unwrap()).unwrap_or(20.0);
    let spec = ScenarioSpec::dumbbell(n, cap, 0.010, 1.0)
        .qdisc(qdisc)
        .ccas(vec![kind]);
    // Record flow and bottleneck samples in 250 ms bins.
    let sink = Arc::new(MemorySink::new());
    let trace = TraceConfig {
        interval: 0.25,
        cca: false,
        ..TraceConfig::default()
    };
    let cfg = SimConfig {
        duration: 5.0,
        warmup: 1.0,
        seed: 1,
        recorder: Some(Recorder::new(trace, sink.clone())),
        ..Default::default()
    };
    let r = run_path(&path_network_for_spec(&spec), &cfg);
    println!(
        "util={:.1}% loss={:.2}% occ={:.1}% jain={:.3} jitter={:.3}ms",
        r.utilization_percent, r.loss_percent, r.occupancy_percent, r.jain, r.jitter_ms
    );
    for (i, f) in r.flows.iter().enumerate() {
        println!(
            "flow {i} {}: tput={:.2} rtt={:.1}ms",
            f.kind,
            f.throughput_mbps,
            f.mean_rtt * 1000.0
        );
    }
    // Each bin records the flows first, then the bottleneck link.
    for event in sink.take() {
        match event {
            TraceEvent::FlowSample {
                flow, t, rate_mbps, ..
            } if flow < 3 => {
                if flow == 0 {
                    print!("t={t:.2} ");
                }
                print!("r{flow}={rate_mbps:.1} ");
            }
            TraceEvent::LinkSample {
                queue_frac,
                loss_frac,
                ..
            } => println!("q={queue_frac:.2} loss={loss_frac:.3}"),
            _ => {}
        }
    }
}
