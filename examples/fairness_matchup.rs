//! The paper's Fig. 1 as an example: one Reno flow competes with one
//! BBRv1 flow in a shallow drop-tail buffer — BBRv1 takes almost the
//! whole link (Insight 2).
//!
//! ```text
//! cargo run --release --example fairness_matchup [cca_a] [cca_b]
//! ```
//!
//! CCAs: reno, cubic, bbr1, bbr2 (defaults: reno bbr1).

use std::sync::Arc;

use bbr_repro::experiments::tracefmt::CellTrace;
use bbr_repro::fluid::cca::CcaKind;
use bbr_repro::fluid::prelude::*;
use bbr_telemetry::trace::{Recorder, TraceConfig};
use bbr_telemetry::MemorySink;

fn parse(s: &str) -> CcaKind {
    match s {
        "reno" => CcaKind::Reno,
        "cubic" => CcaKind::Cubic,
        "bbr1" => CcaKind::BbrV1,
        "bbr2" => CcaKind::BbrV2,
        _ => panic!("unknown CCA {s} (use reno|cubic|bbr1|bbr2)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = parse(args.first().map(|s| s.as_str()).unwrap_or("reno"));
    let b = parse(args.get(1).map(|s| s.as_str()).unwrap_or("bbr1"));

    let spec =
        ScenarioSpec::dumbbell_with_access(100.0, 0.010, 1.0, &[0.0056, 0.0056]).ccas(vec![a, b]);
    let mut sim = Simulator::for_spec(&spec, ModelConfig::default()).expect("valid scenario");
    // Record the two flows' rates every 50 ms.
    let sink = Arc::new(MemorySink::new());
    let config = TraceConfig {
        interval: 0.05,
        ..TraceConfig::default()
    };
    sim.record(Recorder::new(config, sink.clone()));
    let metrics = sim.run(9.0);

    println!("{a} vs {b}, 9 s, 1-BDP drop-tail buffer");
    println!(
        "  mean rates: {a} = {:.1} Mbit/s, {b} = {:.1} Mbit/s (Jain = {:.3})",
        metrics.mean_rates[0], metrics.mean_rates[1], metrics.jain,
    );
    println!("\n  t[s]   {a:>8}[%]  {b:>8}[%]");
    let trace = CellTrace::from_events(&sink.take(), 0);
    let (fa, fb) = (&trace.flows[0], &trace.flows[1]);
    for k in (0..fa.t.len()).step_by(fa.t.len() / 18 + 1) {
        println!(
            "  {:5.2}  {:10.1}  {:10.1}",
            fa.t[k], fa.rate_mbps[k], fb.rate_mbps[k],
        );
    }
}
