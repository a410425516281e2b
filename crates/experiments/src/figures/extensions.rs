//! Experiments beyond the paper's figures: the Insight-5
//! initial-condition sweep, the multi-bottleneck (parking-lot) scenario
//! the paper names as future work, and ablations of the fluid-model
//! knobs.

use bbr_fluid_core::backend::{hint_for_flow, network_for_spec};
use bbr_fluid_core::cca::{AnyCca, BbrV2, CcaKind, WhiInit};
use bbr_fluid_core::config::{ModelConfig, ResetMode};
use bbr_fluid_core::prelude::*;
use bbr_packetsim::backend::PacketBackend;

use crate::aggregate::model_config;
use crate::figures::FigureOutput;
use crate::table;
use crate::Effort;

/// Insight 5: BBRv2's buffer occupancy in deep drop-tail buffers depends
/// on the start-up `inflight_hi` estimate. Sweeps the buffer size under
/// three initial conditions for `w_hi`.
pub fn insight5(effort: Effort) -> FigureOutput {
    let (n, duration) = if effort.is_fast() {
        (4, 1.5)
    } else {
        (10, 5.0)
    };
    let cfg = ModelConfig {
        // Reference-implementation inflight_lo semantics: the short-term
        // bound stays unset until loss occurs, so the loose 2-BDP
        // fallback of Insight 5 can actually bind.
        bbr2_wlo_unset: true,
        ..model_config(effort)
    };
    let buffers: Vec<f64> = if effort.is_fast() {
        vec![1.0, 5.0]
    } else {
        (1..=7).map(|b| b as f64).collect()
    };
    let inits: [(&str, WhiInit); 3] = [
        ("tight (1.25 w̄)", WhiInit::Tight { factor: 1.25 }),
        ("buffer-dependent", WhiInit::BufferDependent),
        ("unset (∞)", WhiInit::Unset),
    ];
    let header: Vec<String> = std::iter::once("buffer[BDP]".to_string())
        .chain(inits.iter().map(|(l, _)| format!("occ% {l}")))
        .collect();
    let mut rows = Vec::new();
    for b in &buffers {
        let mut row = vec![table::f1(*b)];
        let net = network_for_spec(&ScenarioSpec::dumbbell(n, 100.0, 0.010, *b));
        for (_, init) in &inits {
            let agents = (0..n)
                .map(|i| AnyCca::BbrV2(BbrV2::with_whi_init(&hint_for_flow(&net, i), &cfg, *init)))
                .collect();
            let mut sim = Simulator::new(net.clone(), cfg.clone(), agents, &[]).unwrap();
            let m = sim.run(duration);
            row.push(table::f1(m.occupancy_percent));
        }
        rows.push(row);
    }
    let report = table::render(
        "Insight 5 — BBRv2 buffer occupancy vs initial inflight_hi (drop-tail, homogeneous)",
        &header,
        &rows,
    );
    FigureOutput {
        id: "insight5",
        title: "Insight 5: BBRv2 deep-buffer bufferbloat",
        csv: vec![("insight5.csv".into(), table::to_csv(&header, &rows))],
        report,
    }
}

/// Multi-bottleneck parking lot (the paper's stated follow-up work):
/// agent 0 crosses two bottlenecks, agents 1 and 2 cross one each. Both
/// simulators evaluate the *same* [`ScenarioSpec`] through the
/// [`SimBackend`] trait — the topology is described exactly once.
pub fn parking_lot(effort: Effort) -> FigureOutput {
    let duration = if effort.is_fast() { 2.0 } else { 8.0 };
    let backends: Vec<Box<dyn SimBackend>> = vec![
        Box::new(FluidBackend::new(model_config(effort))),
        Box::new(PacketBackend::new(1)),
    ];
    let (c1, c2) = (100.0, 80.0);
    let mut report = String::new();
    let mut csv = Vec::new();
    for kind in [CcaKind::BbrV1, CcaKind::BbrV2] {
        // 3 Mbit of buffer per link (3 BDP of the 100 Mbit/s × 10 ms
        // first bottleneck).
        let spec = ScenarioSpec::parking_lot(c1, c2, 0.010, 3.0)
            .ccas(vec![kind])
            .duration(duration)
            .warmup(1.0);
        let outcomes: Vec<RunOutcome> = backends.iter().map(|b| b.run(&spec, 13)).collect();
        // One rate column per backend, derived from the backend names so
        // header arity always matches the generated rows.
        let mut header: Vec<String> = vec!["agent".to_string(), "path".to_string()];
        header.extend(
            backends
                .iter()
                .map(|b| format!("{} rate [Mbit/s]", b.name())),
        );
        let paths = ["\u{2113}1+\u{2113}2", "\u{2113}1", "\u{2113}2"];
        let rows: Vec<Vec<String>> = (0..3)
            .map(|i| {
                let mut row = vec![format!("{i}"), paths[i].to_string()];
                row.extend(
                    outcomes
                        .iter()
                        .map(|o| format!("{:.2}", o.flows[i].throughput_mbps)),
                );
                row
            })
            .collect();
        let m = &outcomes[0];
        report.push_str(&table::render(
            &format!(
                "Parking lot ({kind}): C1 = {c1}, C2 = {c2} Mbit/s; {} link occupancy \
                 {:.0} % / {:.0} %",
                backends[0].name(),
                m.per_link_occupancy[0],
                m.per_link_occupancy[1]
            ),
            &header,
            &rows,
        ));
        report.push('\n');
        csv.push((
            format!("parking_lot_{}.csv", kind.name().to_lowercase()),
            table::to_csv(&header, &rows),
        ));
    }
    FigureOutput {
        id: "parking_lot",
        title: "Multi-bottleneck parking lot (extension)",
        report,
        csv,
    }
}

/// Start-up extension: run BBRv2 with the modelled Startup/Drain phase
/// (the paper omits it, Insight 9) and compare the deep-buffer occupancy
/// against the configured-initial-condition runs of [`insight5`]. With
/// the start-up modelled, `inflight_hi` materializes organically: in
/// shallow buffers start-up loss sets a tight bound; in deep buffers no
/// loss occurs, the bound stays unset, and the loose 2-BDP fallback
/// produces the Insight-5 bufferbloat.
pub fn startup(effort: Effort) -> FigureOutput {
    let (n, duration) = if effort.is_fast() {
        (4, 2.0)
    } else {
        (10, 6.0)
    };
    let cfg = ModelConfig {
        model_startup: true,
        bbr2_wlo_unset: true,
        ..model_config(effort)
    };
    let buffers: Vec<f64> = if effort.is_fast() {
        vec![1.0, 5.0]
    } else {
        (1..=7).map(|b| b as f64).collect()
    };
    let header: Vec<String> = [
        "buffer[BDP]",
        "occ[%]",
        "loss[%]",
        "util[%]",
        "whi set [flows]",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    for b in &buffers {
        let spec = ScenarioSpec::dumbbell(n, 100.0, 0.010, *b).ccas(vec![CcaKind::BbrV2]);
        let mut sim = Simulator::for_spec(&spec, cfg.clone()).unwrap();
        let m = sim.run(duration);
        // Count agents whose inflight_hi was materialized during start-up.
        let mut telemetry = Vec::new();
        let whi_set = sim
            .agents()
            .iter()
            .filter(|a| {
                telemetry.clear();
                a.telemetry(&mut telemetry);
                telemetry.iter().any(|(k, v)| *k == "w_hi" && *v >= 0.0)
            })
            .count();
        rows.push(vec![
            table::f1(*b),
            table::f1(m.occupancy_percent),
            table::f1(m.loss_percent),
            table::f1(m.utilization_percent),
            format!("{whi_set}/{n}"),
        ]);
    }
    let report = table::render(
        "Start-up extension — BBRv2 with modelled Startup/Drain (drop-tail, homogeneous)",
        &header,
        &rows,
    );
    FigureOutput {
        id: "startup",
        title: "Modelled start-up phase (extension)",
        csv: vec![("startup.csv".into(), table::to_csv(&header, &rows))],
        report,
    }
}

/// Ablations of the modelling knobs the paper introduces: sigmoid
/// sharpness K, drop-tail exponent L, integration step, and the
/// reset-mode realization (discrete vs literal sigmoid relaxation).
pub fn ablation(effort: Effort) -> FigureOutput {
    let duration = if effort.is_fast() { 1.5 } else { 5.0 };
    let base = model_config(effort);
    let variants: Vec<(String, ModelConfig)> = vec![
        ("baseline".into(), base.clone()),
        (
            "dt ×5".into(),
            ModelConfig {
                dt: base.dt * 5.0,
                ..base.clone()
            },
        ),
        (
            "L = 5".into(),
            ModelConfig {
                drop_exp_l: 5.0,
                ..base.clone()
            },
        ),
        (
            "L = 50".into(),
            ModelConfig {
                drop_exp_l: 50.0,
                ..base.clone()
            },
        ),
        (
            "soft σ (K/10)".into(),
            ModelConfig {
                k_time: base.k_time / 10.0,
                k_rate: base.k_rate / 10.0,
                ..base.clone()
            },
        ),
        (
            "smooth resets (gain 200)".into(),
            ModelConfig {
                reset_mode: ResetMode::Smooth { gain: 200.0 },
                ..base.clone()
            },
        ),
        (
            "max filter on send rate".into(),
            ModelConfig {
                max_filter_on_send_rate: true,
                ..base.clone()
            },
        ),
    ];
    let header: Vec<String> = ["variant", "util[%]", "loss[%]", "occ[%]", "jain"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for (label, cfg) in variants {
        let spec = ScenarioSpec::dumbbell(4, 100.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1]);
        let mut sim = Simulator::for_spec(&spec, cfg).unwrap();
        let m = sim.run(duration);
        rows.push(vec![
            label,
            table::f1(m.utilization_percent),
            table::f1(m.loss_percent),
            table::f1(m.occupancy_percent),
            table::f3(m.jain),
        ]);
    }
    let report = table::render(
        "Ablation — fluid-model knobs on 4 BBRv1 flows, drop-tail, 1 BDP",
        &header,
        &rows,
    );
    FigureOutput {
        id: "ablation",
        title: "Fluid-model ablations",
        csv: vec![("ablation.csv".into(), table::to_csv(&header, &rows))],
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insight5_fast_runs() {
        let out = insight5(Effort::Fast);
        assert!(out.report.contains("buffer-dependent"));
        // Rows: one per buffer size in fast mode.
        assert_eq!(out.csv.len(), 1);
    }

    #[test]
    fn parking_lot_has_both_versions() {
        let out = parking_lot(Effort::Fast);
        assert!(out.report.contains("BBRv1"));
        assert!(out.report.contains("BBRv2"));
    }

    #[test]
    fn startup_extension_runs() {
        let out = startup(Effort::Fast);
        assert!(out.report.contains("whi set"));
    }

    #[test]
    fn ablation_covers_knobs() {
        let out = ablation(Effort::Fast);
        for needle in ["baseline", "dt ×5", "L = 5", "smooth resets"] {
            assert!(out.report.contains(needle), "missing {needle}");
        }
    }
}
