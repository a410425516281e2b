//! Parallel scenario-grid sweep: the §4.3-shaped evaluation (CCA mixes ×
//! buffer sizes × RTT ranges × qdiscs) fanned out over every core.
//!
//! ```text
//! cargo run --release --example sweep [-- --threads N] [--full]
//! ```
//!
//! The default grid has 3 mixes × 2 buffers × 2 RTT ranges × 2 qdiscs =
//! 24 dumbbell points plus 3 × 2 × 2 = 12 parking-lot points, each
//! evaluated on BOTH the fluid model and the packet simulator through
//! the `SimBackend` trait; `--full` widens it to all 7 mixes × 4
//! buffers. Compare the wall-clock line printed in the table header
//! against a run with `--threads 1` to see the parallel speed-up.

use bbr_repro::experiments::scenarios::COMBOS;
use bbr_repro::experiments::sweep::{Backend, ScenarioGrid};
use bbr_repro::experiments::Effort;
use bbr_repro::fluid::backend::FluidBackend;
use bbr_repro::fluid::topology::QdiscKind;
use bbr_repro::scenario::SimBackend;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(v) = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
    {
        // Error out rather than silently using all cores: the point of
        // the flag is single-thread vs parallel wall-clock comparisons.
        let n: usize = v
            .parse()
            .unwrap_or_else(|_| panic!("invalid --threads value: {v} (expected a number)"));
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("thread pool configuration");
    }
    let full = args.iter().any(|a| a == "--full");

    let (combos, buffers) = if full {
        (COMBOS.to_vec(), vec![1.0, 2.0, 4.0, 7.0])
    } else {
        (vec![COMBOS[0], COMBOS[3], COMBOS[4]], vec![1.0, 4.0])
    };
    let grid = ScenarioGrid::new()
        .effort(Effort::Fast)
        .backend(Backend::Both)
        // Dumbbell AND parking-lot cells: both topologies run through
        // the same backend-agnostic specs.
        .with_parking_lot()
        .combos(combos)
        .flow_counts(vec![4])
        .buffers_bdp(buffers)
        // §4.3 default RTTs and the Appendix C short-RTT band.
        .rtt_ranges(vec![(0.030, 0.040), (0.010, 0.020)])
        .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red])
        .duration(1.5)
        .warmup(0.5)
        .seed(42);

    eprintln!(
        "sweeping {} points (fluid + packet) on {} thread(s)...",
        grid.len(),
        rayon::current_num_threads()
    );
    let report = grid.run();
    println!("{}", report.table());
    if let Some(gap) = report.mean_utilization_gap() {
        println!("mean |model - experiment| utilization gap: {gap:.1} pp");
    }
    println!(
        "{} points in {:.2} s on {} thread(s) ({:.2} points/s)",
        report.len(),
        report.wall_seconds,
        report.threads,
        report.len() as f64 / report.wall_seconds.max(1e-9),
    );

    // The same grid, fluid-only, on the two fluid execution strategies:
    // one per-cell `FluidBackend` run per cell vs lockstep waves of many
    // cells (`Backend::Fluid`). Both run the one fluid engine, so the
    // CSVs must agree byte for byte — batching is not allowed to change
    // a single bit.
    let per_cell: [Box<dyn SimBackend>; 1] = [Box::new(FluidBackend::coarse())];
    let scalar = grid.run_with(&per_cell);
    let batched = grid.clone().backend(Backend::Fluid).run();
    assert_eq!(
        scalar.csv(),
        batched.csv(),
        "batched fluid must be byte-identical to scalar fluid"
    );
    println!(
        "fluid-only re-run: scalar {:.2} s vs batched {:.2} s ({:.1}x), CSVs byte-identical",
        scalar.wall_seconds,
        batched.wall_seconds,
        scalar.wall_seconds / batched.wall_seconds.max(1e-9),
    );
}
