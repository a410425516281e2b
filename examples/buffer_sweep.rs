//! Sweep the bottleneck buffer from 1 to 7 BDP for a CCA mix and watch
//! the fairness/loss/occupancy trends of the paper's Figs. 6–8.
//!
//! ```text
//! cargo run --release --example buffer_sweep [combo]
//! ```
//!
//! Combos: bbr1, bbr1-reno, bbr1-cubic, bbr1-bbr2, bbr2, bbr2-reno,
//! bbr2-cubic (default: bbr1-reno).

use bbr_repro::fluid::cca::CcaKind;
use bbr_repro::fluid::prelude::*;

fn combo(name: &str) -> Vec<CcaKind> {
    match name {
        "bbr1" => vec![CcaKind::BbrV1],
        "bbr2" => vec![CcaKind::BbrV2],
        "bbr1-reno" => vec![CcaKind::BbrV1, CcaKind::Reno],
        "bbr1-cubic" => vec![CcaKind::BbrV1, CcaKind::Cubic],
        "bbr1-bbr2" => vec![CcaKind::BbrV1, CcaKind::BbrV2],
        "bbr2-reno" => vec![CcaKind::BbrV2, CcaKind::Reno],
        "bbr2-cubic" => vec![CcaKind::BbrV2, CcaKind::Cubic],
        _ => panic!("unknown combo {name}"),
    }
}

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "bbr1-reno".into());
    let kinds = combo(&name);
    println!("combo {name}: N = 10 senders, C = 100 Mbit/s, RTT 30–40 ms, drop-tail");
    println!("buffer[BDP]   jain   loss[%]   occupancy[%]   utilization[%]");
    for b in 1..=7 {
        let scenario = Scenario::dumbbell(10, 100.0, 0.010, b as f64, QdiscKind::DropTail)
            .rtt_range(0.030, 0.040);
        let mut sim = scenario.build(&kinds).expect("valid scenario");
        let m = sim.run(5.0);
        println!(
            "{b:>11}   {:.3}   {:7.2}   {:12.1}   {:14.1}",
            m.jain, m.loss_percent, m.occupancy_percent, m.utilization_percent
        );
    }
}
