//! Benchmarks of the fluid engine run in lockstep waves
//! (`Backend::FluidBatch`) against one `Simulator` per cell
//! (`Backend::Fluid`, named `scalar` below). The end-to-end numbers live
//! in the repository benchmark (`perfbench/`, declared in
//! `BENCHMARK.json`).
//!
//! Both grids are the pinned benchmark definitions of
//! [`bbr_experiments::sweep::bench_grid`]:
//!
//! * `fluid_scalar_24_cells` / `fluid_batch_24_cells` — mixed-topology
//!   coverage (dumbbell + parking lot + chain lanes in one batch);
//! * `fluid_scalar_96_cells` / `fluid_batch_96_cells` — the §4.3-shaped
//!   dumbbell campaign.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bbr_experiments::sweep::{bench_grid, Backend};

fn bench_cells(c: &mut Criterion, cells: usize) {
    let mut g = c.benchmark_group("fluidbatch");
    g.sample_size(2);
    let scalar = bench_grid(cells); // Backend::Fluid
    let batch = bench_grid(cells).backend(Backend::FluidBatch);
    // Identity guard: a perf number for a wrong answer is worthless.
    assert_eq!(
        scalar.run().csv(),
        batch.run().csv(),
        "batched fluid must stay byte-identical to scalar fluid"
    );
    g.bench_function(format!("fluid_scalar_{cells}_cells"), |b| {
        b.iter(|| black_box(scalar.run().len()))
    });
    g.bench_function(format!("fluid_batch_{cells}_cells"), |b| {
        b.iter(|| black_box(batch.run().len()))
    });
    g.finish();
}

fn fluid_batch_24(c: &mut Criterion) {
    bench_cells(c, 24);
}

fn fluid_batch_96(c: &mut Criterion) {
    bench_cells(c, 96);
}

criterion_group!(benches, fluid_batch_24, fluid_batch_96);
criterion_main!(benches);
