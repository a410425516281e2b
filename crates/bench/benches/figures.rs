//! One bench target per paper figure: each bench regenerates (a
//! fast-mode slice of) the corresponding figure.
//!
//! * Trace figures (1, 2, 4, 5, 11, 12) and the extension reports run
//!   their full fast-mode generator.
//! * Aggregate figures (6–10, 13–17) bench one *cell* of the sweep
//!   (model + experiment at 2 BDP) — the generator caches the sweep
//!   in-process, so benching the cached call would be meaningless; the
//!   full tables come from the `figures` binary.
//! * `thm` benches the two stability analyses (Theorems 2 and 5).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bbr_analysis::{theorem2_stability, theorem5_stability};
use bbr_experiments::aggregate::model_config;
use bbr_experiments::figures::run_figure;
use bbr_experiments::scenarios::{CampaignParams, COMBOS};
use bbr_experiments::Effort;
use bbr_fluid_core::backend::FluidBackend;
use bbr_fluid_core::topology::QdiscKind;
use bbr_packetsim::backend::PacketBackend;
use bbr_scenario::SimBackend;

fn trace_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures_traces");
    g.sample_size(10);
    for id in ["fig01", "fig02", "fig04", "fig05", "fig11", "fig12"] {
        g.bench_function(id, |b| {
            b.iter(|| black_box(run_figure(id, Effort::Fast).unwrap().report.len()))
        });
    }
    g.finish();
}

fn aggregate_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures_aggregates");
    g.sample_size(10);
    // (figure id, campaign, combo index): fig06–10 share the default
    // campaign; fig13–17 the short-RTT one. One representative cell each.
    let cases: [(&str, CampaignParams, usize); 10] = [
        ("fig06_cell", CampaignParams::default_rtt().fast(), 3),
        ("fig07_cell", CampaignParams::default_rtt().fast(), 0),
        ("fig08_cell", CampaignParams::default_rtt().fast(), 4),
        ("fig09_cell", CampaignParams::default_rtt().fast(), 0),
        ("fig10_cell", CampaignParams::default_rtt().fast(), 5),
        ("fig13_cell", CampaignParams::short_rtt().fast(), 3),
        ("fig14_cell", CampaignParams::short_rtt().fast(), 0),
        ("fig15_cell", CampaignParams::short_rtt().fast(), 4),
        ("fig16_cell", CampaignParams::short_rtt().fast(), 0),
        ("fig17_cell", CampaignParams::short_rtt().fast(), 5),
    ];
    let model = FluidBackend::new(model_config(Effort::Fast));
    for (id, params, combo) in cases {
        let spec = params.dumbbell_spec(&COMBOS[combo], 2.0, QdiscKind::DropTail);
        let experiment = PacketBackend::new(params.runs);
        g.bench_function(id, |b| {
            b.iter(|| {
                let m = model.run(&spec, 42);
                let e = experiment.run(&spec, 42);
                black_box((m.jain, e.jain))
            })
        });
    }
    g.finish();
}

fn theorem_checks(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures_theorems");
    g.sample_size(10);
    g.bench_function("thm2_bbrv1", |b| {
        b.iter(|| black_box(theorem2_stability(4, 100.0, 0.035).holds))
    });
    g.bench_function("thm5_bbrv2", |b| {
        b.iter(|| black_box(theorem5_stability(4, 100.0, 0.035).holds))
    });
    g.finish();
}

fn extension_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures_extensions");
    g.sample_size(10);
    for id in ["insight5", "parking_lot", "ablation"] {
        g.bench_function(id, |b| {
            b.iter(|| black_box(run_figure(id, Effort::Fast).unwrap().report.len()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    trace_figures,
    aggregate_figures,
    theorem_checks,
    extension_figures
);
criterion_main!(benches);
