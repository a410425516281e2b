//! Property-based tests (proptest) on the core invariants of the fluid
//! model, the packet simulator, and the numerics.

use std::sync::Arc;

use bbr_repro::campaign::json::Json;
use bbr_repro::fluid::cca::CcaKind;
use bbr_repro::fluid::history::History;
use bbr_repro::fluid::math::{jain, relu_smooth, sigmoid};
use bbr_repro::fluid::prelude::*;
use bbr_repro::linalg::{eigenvalues, Lu, Matrix};
use bbr_telemetry::trace::{Recorder, TraceConfig, TraceEvent};
use bbr_telemetry::MemorySink;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sigmoid_bounded_and_monotone(k in 1.0f64..1e5, a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let sl = sigmoid(k, lo);
        let sh = sigmoid(k, hi);
        prop_assert!((0.0..=1.0).contains(&sl));
        prop_assert!((0.0..=1.0).contains(&sh));
        prop_assert!(sl <= sh + 1e-12);
    }

    #[test]
    fn relu_smooth_close_to_relu_for_sharp_k(v in -100.0f64..100.0) {
        let g = relu_smooth(1e4, v);
        let relu = v.max(0.0);
        // Error bounded by 1/K·ln… in the transition zone; generous bound.
        prop_assert!((g - relu).abs() < 1e-3 + 1e-3 * v.abs());
    }

    #[test]
    fn jain_in_unit_interval(values in proptest::collection::vec(0.0f64..1e4, 1..20)) {
        let j = jain(&values);
        let n = values.len() as f64;
        prop_assert!(j >= 1.0 / n - 1e-9);
        prop_assert!(j <= 1.0 + 1e-9);
    }

    #[test]
    fn history_lookup_interpolates_within_range(
        dt in 1e-4f64..1e-2,
        values in proptest::collection::vec(-100.0f64..100.0, 2..50),
        frac in 0.0f64..1.0,
    ) {
        let max_delay = dt * values.len() as f64;
        let mut h = History::new(max_delay, dt, values[0]);
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(l, u), v| (l.min(*v), u.max(*v)));
        for v in &values {
            h.push(*v);
        }
        // Any delayed lookup inside the retained window lies within the
        // min/max of the pushed values (linear interpolation property).
        let delay = frac * dt * (values.len() - 1) as f64;
        let got = h.at_delay(delay);
        prop_assert!(got >= lo - 1e-9 && got <= hi + 1e-9, "{got} not in [{lo}, {hi}]");
    }

    #[test]
    fn lu_solve_is_consistent(seed in 0u64..1000) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let n = 4;
        let a = Matrix::from_fn(n, n, |_, _| next());
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let lu = Lu::new(&a);
        if !lu.is_singular() {
            let x = lu.solve(&b).unwrap();
            let r = a.mul_vec(&x);
            for i in 0..n {
                prop_assert!((r[i] - b[i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn eigenvalue_sum_equals_trace(seed in 0u64..500) {
        let mut state = seed.wrapping_mul(0xD1342543DE82EF95).wrapping_add(3);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        };
        let n = 5;
        let m = Matrix::from_fn(n, n, |_, _| next());
        let eig = eigenvalues(&m).unwrap();
        let sum_re: f64 = eig.iter().map(|z| z.re).sum();
        let sum_im: f64 = eig.iter().map(|z| z.im).sum();
        prop_assert!((sum_re - m.trace()).abs() < 1e-6 * (1.0 + m.trace().abs()));
        prop_assert!(sum_im.abs() < 1e-7);
    }
}

proptest! {
    // Heavier simulator properties: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fluid_sim_invariants_hold_for_random_scenarios(
        n in 1usize..5,
        buffer_bdp in 0.5f64..6.0,
        kind_sel in 0usize..4,
        red in proptest::bool::ANY,
    ) {
        let kind = [CcaKind::Reno, CcaKind::Cubic, CcaKind::BbrV1, CcaKind::BbrV2][kind_sel];
        let qdisc = if red { QdiscKind::Red } else { QdiscKind::DropTail };
        let spec = ScenarioSpec::dumbbell(n, 50.0, 0.010, buffer_bdp)
            .qdisc(qdisc)
            .rtt_range(0.030, 0.040)
            .ccas(vec![kind]);
        let mut sim = Simulator::for_spec(&spec, ModelConfig::coarse()).unwrap();
        let sink = Arc::new(MemorySink::new());
        let interval = 100.0 * ModelConfig::coarse().dt;
        let config = TraceConfig { interval, ..TraceConfig::default() };
        sim.record(Recorder::new(config, sink.clone()));
        let m = sim.run(1.5);
        let mut samples = 0;
        for event in sink.take() {
            match event {
                // Queue within [0, B] (recorded as a fraction of B); loss
                // probability within [0, 1].
                TraceEvent::LinkSample { link: 0, queue_frac, loss_frac, .. } => {
                    prop_assert!(queue_frac >= -1e-9);
                    prop_assert!(queue_frac <= 1.0 + 1e-9);
                    prop_assert!((0.0..=1.0).contains(&loss_frac));
                    samples += 1;
                }
                TraceEvent::FlowSample { rate_mbps: x, rtt_s: tau, .. } => {
                    prop_assert!(x.is_finite() && x >= 0.0);
                    // RTT at least the propagation delay.
                    prop_assert!(tau >= 0.029);
                }
                _ => {}
            }
        }
        prop_assert!(samples > 0);
        prop_assert!((0.0..=100.0 + 1e-9).contains(&m.loss_percent));
        prop_assert!((0.0..=100.0 + 1e-9).contains(&m.occupancy_percent));
        prop_assert!(m.utilization_percent <= 100.0 + 1e-9);
        prop_assert!(m.jain <= 1.0 + 1e-9);
    }

    #[test]
    fn packet_sim_conservation(seed in 0u64..50, red in proptest::bool::ANY) {
        use bbr_repro::packetsim::backend::path_network_for_spec;
        use bbr_repro::packetsim::engine::SimConfig;
        use bbr_repro::packetsim::path::run_path;
        let qdisc = if red { QdiscKind::Red } else { QdiscKind::DropTail };
        let spec = ScenarioSpec::dumbbell(2, 20.0, 0.010, 1.0)
            .qdisc(qdisc)
            .ccas(vec![CcaKind::Reno, CcaKind::BbrV2]);
        let cfg = SimConfig { duration: 1.5, warmup: 0.0, seed, ..Default::default() };
        let r = run_path(&path_network_for_spec(&spec), &cfg);
        // Rates bounded by capacity (+ small binning slack).
        for f in &r.flows {
            prop_assert!(f.throughput_mbps <= 20.0 * 1.05);
            prop_assert!(f.throughput_mbps >= 0.0);
        }
        prop_assert!((0.0..=100.0).contains(&r.loss_percent));
        prop_assert!((0.0..=100.0 + 1e-9).contains(&r.occupancy_percent));
        prop_assert!(r.utilization_percent <= 100.0 + 1e-9);
    }
}

/// Characters that stress the JSON writer's escaping: quotes,
/// backslashes, control characters, and multi-byte UTF-8.
const JSON_CHARS: [char; 12] = [
    'a', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '€', '😀',
];

/// A JSON string drawn from [`JSON_CHARS`] by the bits of `w`.
fn json_string(w: u64) -> String {
    (0..(w >> 60) as u32)
        .map(|k| JSON_CHARS[((w >> (4 * k)) % 12) as usize])
        .collect()
}

/// A JSON document at most `depth` levels deep, built from `words`:
/// finite numbers from raw bit patterns (`-0.0` and subnormals
/// included), escaped strings, and arrays/objects of up to three items.
fn json_doc(words: &mut std::slice::Iter<u64>, depth: usize) -> Json {
    let w = words.next().copied().unwrap_or(0);
    let kind = if depth == 0 { w % 2 } else { w % 4 };
    let len = (w >> 62) as usize;
    match kind {
        0 => {
            let v = f64::from_bits(w.rotate_left(31));
            Json::Num(if v.is_finite() { v } else { w as f64 })
        }
        1 => Json::Str(json_string(w)),
        2 => Json::Arr((0..len).map(|_| json_doc(words, depth - 1)).collect()),
        _ => Json::Obj(
            (0..len)
                .map(|k| (json_string(w >> k), json_doc(words, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_parse_never_panics_on_hostile_bytes(
        noise in proptest::collection::vec(0u16..256, 0..200),
        structure in proptest::collection::vec(0usize..12, 0..400),
    ) {
        // Arbitrary bytes, and JSON punctuation soup that nests deeply
        // and unbalanced: any outcome but a panic.
        let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
        let _ = Json::parse(&String::from_utf8_lossy(&noise));
        let soup: String = structure.iter().map(|&i| b"[]{}\":, 1-e\\"[i] as char).collect();
        let _ = Json::parse(&soup);
    }

    #[test]
    fn json_writer_output_round_trips(
        words in proptest::collection::vec(0u64..u64::MAX, 1..64),
        depth in 0usize..6,
    ) {
        let doc = json_doc(&mut words.iter(), depth);
        let text = doc.to_compact_string();
        let back = Json::parse(&text).unwrap();
        prop_assert_eq!(&back, &doc);
        // Equal text means equal float bits (`-0.0` included).
        prop_assert_eq!(back.to_compact_string(), text);
    }
}
