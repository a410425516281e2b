//! Quickstart: simulate one BBRv1 flow through a 100 Mbit/s bottleneck
//! with the fluid model and print the aggregate metrics and a short
//! trace.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use bbr_repro::experiments::tracefmt::CellTrace;
use bbr_repro::fluid::prelude::*;
use bbr_trace::{MemorySink, Recorder, TraceConfig};

fn main() {
    // The paper's §4.2 trace-validation setting: C = 100 Mbit/s,
    // bottleneck propagation delay 10 ms, access delay 5.6 ms, 1-BDP
    // drop-tail buffer.
    let scenario =
        Scenario::dumbbell(1, 100.0, 0.010, 1.0, QdiscKind::DropTail).access_delays(vec![0.0056]);
    let mut sim = scenario.build(&[CcaKind::BbrV1]).expect("valid scenario");
    // Attach a flight recorder sampling every 20 ms.
    let sink = Arc::new(MemorySink::new());
    let config = TraceConfig {
        interval: 0.02,
        ..TraceConfig::default()
    };
    sim.record(Recorder::new(config, sink.clone()));

    let m = sim.run(5.0);
    println!("BBRv1, 5 s fluid simulation");
    println!("  utilization : {:6.2} %", m.utilization_percent);
    println!("  loss        : {:6.2} %", m.loss_percent);
    println!("  occupancy   : {:6.2} %", m.occupancy_percent);
    println!("  mean rate   : {:6.2} Mbit/s", m.mean_rates[0]);

    let trace = CellTrace::from_events(&sink.take(), 0);
    let (flow, link) = (&trace.flows[0], &trace.links[0]);
    println!("\n  t[s]   rate[Mbit/s]   queue[%buf]   RTT[ms]");
    for k in (0..flow.t.len()).step_by(flow.t.len() / 20 + 1) {
        println!(
            "  {:5.2}  {:12.2}  {:12.1}  {:8.2}",
            flow.t[k],
            flow.rate_mbps[k],
            100.0 * link.queue_frac[k],
            1000.0 * flow.rtt_s[k],
        );
    }
}
