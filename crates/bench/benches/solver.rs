//! Microbenchmarks of the substrates: fluid-model integration steps,
//! packet-simulator event processing, the QR eigensolver, and RK4 on the
//! reduced models.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use bbr_analysis::reduced_v1::ReducedParams;
use bbr_analysis::{reduced_v2, rk4_integrate};
use bbr_fluid_core::cca::CcaKind;
use bbr_fluid_core::prelude::*;
use bbr_linalg::{eigenvalues, Matrix};
use bbr_packetsim::backend::path_network_for_spec;
use bbr_packetsim::engine::SimConfig;
use bbr_packetsim::path::run_path;

fn fluid_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("fluid_step");
    g.sample_size(20);
    for n in [1usize, 10] {
        g.bench_function(format!("{n}_flows_1000_steps"), |b| {
            b.iter_batched(
                || {
                    let spec = ScenarioSpec::dumbbell(n, 100.0, 0.010, 2.0).ccas(vec![
                        CcaKind::BbrV1,
                        CcaKind::BbrV2,
                        CcaKind::Reno,
                        CcaKind::Cubic,
                    ]);
                    Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap()
                },
                |mut sim| {
                    for _ in 0..1000 {
                        sim.step_once();
                    }
                    black_box(sim.queue(0))
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn packet_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("packetsim");
    g.sample_size(10);
    for (label, kind) in [("reno", CcaKind::Reno), ("bbrv1", CcaKind::BbrV1)] {
        g.bench_function(format!("1s_{label}_50mbps"), |b| {
            b.iter(|| {
                let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0).ccas(vec![kind]);
                let cfg = SimConfig {
                    duration: 1.0,
                    warmup: 0.0,
                    seed: 1,
                    ..Default::default()
                };
                black_box(run_path(&path_network_for_spec(&spec), &cfg).utilization_percent)
            })
        });
    }
    g.finish();
}

fn eigensolver(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg");
    for n in [4usize, 11] {
        let m = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5);
        g.bench_function(format!("eigenvalues_{n}x{n}"), |b| {
            b.iter(|| black_box(eigenvalues(black_box(&m)).unwrap()))
        });
    }
    g.finish();
}

fn reduced_models(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduced_rk4");
    g.sample_size(20);
    let p = ReducedParams::new(10, 100.0, 0.035);
    g.bench_function("bbrv2_field_10s", |b| {
        let mut state = vec![reduced_v2::eq_rate(&p) * 1.2; 10];
        state.push(0.5 * reduced_v2::eq_queue(&p));
        b.iter(|| {
            black_box(rk4_integrate(
                |s, o| reduced_v2::field(&p, s, o),
                black_box(&state),
                10.0,
                1e-3,
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    fluid_steps,
    packet_sim,
    eigensolver,
    reduced_models
);
criterion_main!(benches);
