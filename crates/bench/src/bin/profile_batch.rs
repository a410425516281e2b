//! Tiny profiling driver: run the pinned 96-cell grid in a loop on one
//! engine so a sampling profiler sees only that integrator.
//!
//! ```text
//! profile_batch [reps] [scalar|batch|simd]
//! ```

use bbr_experiments::sweep::{backend_named, bench_grid};
use bbr_experiments::Effort;
use bbr_fluid_core::backend::FluidBackend;
use bbr_scenario::SimBackend;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(3);
    let grid = bench_grid(96);
    let backend: Box<dyn SimBackend> = match args.get(1).map(String::as_str) {
        None | Some("batch") => backend_named("fluid", Effort::Fast, 1).expect("built-in column"),
        Some("scalar") => Box::new(FluidBackend::coarse()),
        Some("simd") => backend_named("fluid-simd", Effort::Fast, 1).expect("built-in column"),
        Some(other) => {
            eprintln!("unknown engine: {other} (expected scalar|batch|simd)");
            std::process::exit(2);
        }
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .unwrap();
    let backends = [backend];
    for _ in 0..reps {
        let r = grid.run_with(&backends);
        eprintln!("{:.1} cells/s", 96.0 / r.wall_seconds);
    }
}
