//! Campaign plans: the serialized work list handed to worker processes.
//!
//! A [`CampaignPlan`] is everything a worker needs to reproduce its
//! share of a campaign without the parent's in-memory state: the full
//! cell list (each a [`ScenarioSpec`] plus its deterministic base seed),
//! which backends to run with how many repetitions each, and an opaque
//! effort tag the backend factory interprets (integration step size
//! etc.). Plans are persisted as `plan.json` in the store directory via
//! the hand-rolled [`crate::json`] module; specs round-trip exactly, so
//! a worker's [`ScenarioSpec::stable_hash`] — and therefore every cache
//! key — matches the parent's bit for bit.
//!
//! [`CampaignPlan::entries`] is the one place plan data becomes store
//! keys: the worker, the parent's entry count, the watcher and the
//! sweep layer's store reads and writes all expand a plan through it.

use std::path::Path;

use bbr_scenario::{
    run_seed, CcaKind, CustomLink, CustomRoute, FlowSchedule, FlowWindow, QdiscKind, ScenarioSpec,
    Topology,
};

use crate::json::Json;
use crate::store::CellKey;

/// Name of the plan file inside a store directory.
pub const PLAN_FILE: &str = "plan.json";

/// One backend of a campaign: its stable name plus how many repetitions
/// each cell stores under distinct `run_index` keys (deterministic
/// backends use 1; the packet simulator averages several).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSel {
    /// Stable backend name (`"fluid"`, `"packet"`, ...), resolved by
    /// the host's backend factory.
    pub name: String,
    /// Repetitions stored per cell under distinct `run_index` keys.
    pub runs: u32,
}

/// One cell of a campaign: the backend-agnostic spec and the cell's
/// base seed (already derived from the grid seed and the spec's content
/// hash by the sweep layer).
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedCell {
    /// The backend-agnostic scenario of this cell.
    pub spec: ScenarioSpec,
    /// The cell's base seed.
    pub seed: u64,
}

/// A complete campaign work list.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// Opaque effort tag the backend factory interprets (`"fast"` /
    /// `"full"` for the built-in backends).
    pub effort: String,
    /// The backends every cell runs on, with per-backend repetitions.
    pub backends: Vec<BackendSel>,
    /// Every cell of the campaign, in planned order.
    pub cells: Vec<PlannedCell>,
}

/// One store entry of a plan: a repetition of one cell on one backend,
/// and the key its record is stored under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Index into [`CampaignPlan::cells`].
    pub cell: usize,
    /// Index into [`CampaignPlan::backends`].
    pub backend: usize,
    /// Repetition within the cell, `0..runs` of its backend.
    pub run_index: u32,
    /// `(cell spec hash, cell seed, backend name, run_index)`.
    pub key: CellKey,
}

impl CampaignPlan {
    /// Every entry of the plan, cell-major: each cell in plan order, then
    /// each backend in plan order for which `supports(backend index,
    /// spec)` holds, then each of that backend's runs.
    pub fn entries(&self, supports: impl Fn(usize, &ScenarioSpec) -> bool) -> Vec<Entry> {
        let mut entries = Vec::new();
        for (cell, planned) in self.cells.iter().enumerate() {
            let spec_hash = planned.spec.stable_hash();
            for (backend, sel) in self.backends.iter().enumerate() {
                if !supports(backend, &planned.spec) {
                    continue;
                }
                entries.extend((0..sel.runs).map(|run_index| Entry {
                    cell,
                    backend,
                    run_index,
                    key: CellKey {
                        spec_hash,
                        seed: planned.seed,
                        backend: sel.name.clone(),
                        run_index,
                    },
                }));
            }
        }
        entries
    }

    /// The engine job of `entry`: its cell's spec and the repetition's
    /// seed, [`run_seed`]`(cell seed, run_index)`.
    pub fn job(&self, entry: &Entry) -> (&ScenarioSpec, u64) {
        let cell = &self.cells[entry.cell];
        (&cell.spec, run_seed(cell.seed, entry.run_index))
    }

    /// Serialize the plan as one compact JSON document.
    pub fn to_json_string(&self) -> String {
        Json::Obj(vec![
            ("effort".into(), Json::str(&self.effort)),
            (
                "backends".into(),
                Json::Arr(
                    self.backends
                        .iter()
                        .map(|b| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(&b.name)),
                                ("runs".into(), Json::Num(b.runs as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "cells".into(),
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("seed".into(), Json::hex(c.seed)),
                                ("spec".into(), spec_to_json(&c.spec)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_compact_string()
    }

    /// Parse a plan from [`CampaignPlan::to_json_string`]'s form. Every
    /// cell's spec must pass [`ScenarioSpec::validate`]: engines may
    /// panic on an invalid spec, so a corrupted plan fails here instead.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let backends = doc
            .field("backends")?
            .as_arr()
            .ok_or("backends is not an array")?
            .iter()
            .map(|b| {
                Ok(BackendSel {
                    name: b.field("name")?.as_str().ok_or("bad backend name")?.into(),
                    runs: b.field("runs")?.as_usize().ok_or("bad backend runs")? as u32,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let cells = doc
            .field("cells")?
            .as_arr()
            .ok_or("cells is not an array")?
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let seed = c.field("seed")?.as_hex_u64().ok_or("bad cell seed")?;
                let spec = spec_from_json(c.field("spec")?)?;
                spec.validate()
                    .map_err(|e| format!("cell {i}: invalid spec: {e}"))?;
                Ok(PlannedCell { spec, seed })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            effort: doc
                .field("effort")?
                .as_str()
                .ok_or("bad effort tag")?
                .into(),
            backends,
            cells,
        })
    }

    /// Write the plan into `dir` as [`PLAN_FILE`].
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        let path = dir.join(PLAN_FILE);
        std::fs::write(&path, self.to_json_string() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// Load the plan from `dir`'s [`PLAN_FILE`].
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(PLAN_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Self::from_json_str(text.trim_end())
    }
}

/// [`ScenarioSpec`] → JSON. Exact float round-trips (see [`crate::json`])
/// keep [`ScenarioSpec::stable_hash`] identical across the serialization
/// boundary — the property the content-addressed store keys rely on.
pub fn spec_to_json(spec: &ScenarioSpec) -> Json {
    let topology = match &spec.topology {
        &Topology::Dumbbell {
            n,
            capacity,
            bottleneck_delay,
            buffer_bdp,
            rtt_lo,
            rtt_hi,
        } => Json::Obj(vec![
            ("kind".into(), Json::str("dumbbell")),
            ("n".into(), Json::Num(n as f64)),
            ("capacity".into(), Json::Num(capacity)),
            ("bottleneck_delay".into(), Json::Num(bottleneck_delay)),
            ("buffer_bdp".into(), Json::Num(buffer_bdp)),
            ("rtt_lo".into(), Json::Num(rtt_lo)),
            ("rtt_hi".into(), Json::Num(rtt_hi)),
        ]),
        &Topology::ParkingLot {
            c1,
            c2,
            link_delay,
            buffer_bdp,
        } => Json::Obj(vec![
            ("kind".into(), Json::str("parking_lot")),
            ("c1".into(), Json::Num(c1)),
            ("c2".into(), Json::Num(c2)),
            ("link_delay".into(), Json::Num(link_delay)),
            ("buffer_bdp".into(), Json::Num(buffer_bdp)),
        ]),
        &Topology::Chain {
            hops,
            capacity,
            link_delay,
            buffer_bdp,
        } => Json::Obj(vec![
            ("kind".into(), Json::str("chain")),
            ("hops".into(), Json::Num(hops as f64)),
            ("capacity".into(), Json::Num(capacity)),
            ("link_delay".into(), Json::Num(link_delay)),
            ("buffer_bdp".into(), Json::Num(buffer_bdp)),
        ]),
        Topology::Custom { links, routes } => Json::Obj(vec![
            ("kind".into(), Json::str("custom")),
            (
                "links".into(),
                Json::Arr(
                    links
                        .iter()
                        .map(|l| {
                            Json::Arr(vec![
                                Json::Num(l.capacity),
                                Json::Num(l.delay),
                                Json::Num(l.buffer_bdp),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "routes".into(),
                Json::Arr(
                    routes
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                (
                                    "links".into(),
                                    Json::Arr(
                                        r.links.iter().map(|&l| Json::Num(l as f64)).collect(),
                                    ),
                                ),
                                ("fwd".into(), Json::Num(r.extra_fwd_delay)),
                                ("bwd".into(), Json::Num(r.extra_bwd_delay)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    };
    let mut fields = vec![
        ("topology".into(), topology),
        (
            "ccas".into(),
            Json::Arr(spec.ccas.iter().map(|c| Json::str(c.name())).collect()),
        ),
        ("qdisc".into(), Json::str(spec.qdisc.name())),
        ("duration".into(), Json::Num(spec.duration)),
        ("warmup".into(), Json::Num(spec.warmup)),
    ];
    // Churn windows, verbatim (so the spec round-trips field-exactly) —
    // emitted only when windows are present, so churn-free plans (and
    // every plan written before churn existed) keep the exact
    // historical byte format.
    if !spec.churn.is_empty() {
        fields.push((
            "churn".into(),
            Json::Arr(
                spec.churn
                    .iter()
                    .map(|w| Json::Arr(vec![Json::Num(w.start), Json::Num(w.stop)]))
                    .collect(),
            ),
        ));
    }
    // Multi-interval schedules, verbatim, under the same emit-only-when-
    // present rule — plans without schedules keep the exact historical
    // byte format.
    if !spec.schedules.is_empty() {
        fields.push((
            "schedules".into(),
            Json::Arr(
                spec.schedules
                    .iter()
                    .map(|s| {
                        Json::Arr(
                            s.windows
                                .iter()
                                .map(|w| Json::Arr(vec![Json::Num(w.start), Json::Num(w.stop)]))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields)
}

/// JSON → [`ScenarioSpec`] (exact inverse of [`spec_to_json`]).
pub fn spec_from_json(j: &Json) -> Result<ScenarioSpec, String> {
    let t = j.field("topology")?;
    let num = |obj: &Json, key: &str| -> Result<f64, String> {
        obj.field(key)?
            .as_f64()
            .ok_or(format!("bad number `{key}`"))
    };
    let topology = match t.field("kind")?.as_str() {
        Some("dumbbell") => Topology::Dumbbell {
            n: t.field("n")?.as_usize().ok_or("bad dumbbell n")?,
            capacity: num(t, "capacity")?,
            bottleneck_delay: num(t, "bottleneck_delay")?,
            buffer_bdp: num(t, "buffer_bdp")?,
            rtt_lo: num(t, "rtt_lo")?,
            rtt_hi: num(t, "rtt_hi")?,
        },
        Some("parking_lot") => Topology::ParkingLot {
            c1: num(t, "c1")?,
            c2: num(t, "c2")?,
            link_delay: num(t, "link_delay")?,
            buffer_bdp: num(t, "buffer_bdp")?,
        },
        Some("chain") => Topology::Chain {
            hops: t.field("hops")?.as_usize().ok_or("bad chain hops")?,
            capacity: num(t, "capacity")?,
            link_delay: num(t, "link_delay")?,
            buffer_bdp: num(t, "buffer_bdp")?,
        },
        Some("custom") => {
            let links = t
                .field("links")?
                .as_arr()
                .ok_or("custom links is not an array")?
                .iter()
                .map(|l| {
                    let triple = l
                        .as_arr()
                        .filter(|a| a.len() == 3)
                        .ok_or("bad custom link triple")?;
                    Ok(CustomLink {
                        capacity: triple[0].as_f64().ok_or("bad link capacity")?,
                        delay: triple[1].as_f64().ok_or("bad link delay")?,
                        buffer_bdp: triple[2].as_f64().ok_or("bad link buffer_bdp")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            let routes = t
                .field("routes")?
                .as_arr()
                .ok_or("custom routes is not an array")?
                .iter()
                .map(|r| {
                    Ok(CustomRoute {
                        links: r
                            .field("links")?
                            .as_arr()
                            .ok_or("route links is not an array")?
                            .iter()
                            .map(|l| l.as_usize().ok_or("bad route link id".to_string()))
                            .collect::<Result<Vec<_>, String>>()?,
                        extra_fwd_delay: num(r, "fwd")?,
                        extra_bwd_delay: num(r, "bwd")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Topology::Custom { links, routes }
        }
        other => return Err(format!("unknown topology kind {other:?}")),
    };
    let ccas = j
        .field("ccas")?
        .as_arr()
        .ok_or("ccas is not an array")?
        .iter()
        .map(|c| {
            c.as_str()
                .and_then(CcaKind::from_name)
                .ok_or_else(|| format!("unknown CCA {c:?}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if ccas.is_empty() {
        return Err("spec has no CCA kinds".into());
    }
    // Optional churn block (absent in churn-free and pre-churn plans).
    let churn = match j.get("churn") {
        None => Vec::new(),
        Some(c) => c
            .as_arr()
            .ok_or("churn is not an array")?
            .iter()
            .map(|w| {
                let pair = w
                    .as_arr()
                    .filter(|a| a.len() == 2)
                    .ok_or("bad churn window pair")?;
                Ok(FlowWindow {
                    start: pair[0].as_f64().ok_or("bad churn start")?,
                    stop: pair[1].as_f64().ok_or("bad churn stop")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    // Optional multi-interval schedule block (absent in older plans).
    let schedules = match j.get("schedules") {
        None => Vec::new(),
        Some(s) => s
            .as_arr()
            .ok_or("schedules is not an array")?
            .iter()
            .map(|sched| {
                Ok(FlowSchedule {
                    windows: sched
                        .as_arr()
                        .ok_or("schedule is not an array")?
                        .iter()
                        .map(|w| {
                            let pair = w
                                .as_arr()
                                .filter(|a| a.len() == 2)
                                .ok_or("bad schedule window pair")?;
                            Ok(FlowWindow {
                                start: pair[0].as_f64().ok_or("bad window start")?,
                                stop: pair[1].as_f64().ok_or("bad window stop")?,
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    Ok(ScenarioSpec {
        topology,
        ccas,
        qdisc: j
            .field("qdisc")?
            .as_str()
            .and_then(QdiscKind::from_name)
            .ok_or("unknown qdisc")?,
        duration: num(j, "duration")?,
        warmup: num(j, "warmup")?,
        churn,
        schedules,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::dumbbell(10, 100.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV1, CcaKind::Reno])
                .qdisc(QdiscKind::Red)
                .duration(5.0)
                .warmup(1.0),
            ScenarioSpec::dumbbell(3, 1.0 / 3.0, 0.012_345, 0.1 + 0.2),
            ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0).ccas(vec![CcaKind::BbrV2]),
            ScenarioSpec::chain(5, 60.0, 0.007, 1.5).ccas(vec![CcaKind::Cubic, CcaKind::BbrV2]),
            // Churn: a late joiner with an exact-binary start, a flow
            // that never starts in-window, and an infinite stop.
            ScenarioSpec::dumbbell(4, 50.0, 0.010, 2.0)
                .flow_window(1, 0.1 + 0.2, 4.5)
                .flow_window(3, 2.0, f64::INFINITY),
        ]
    }

    #[test]
    fn churn_free_spec_json_keeps_the_pre_churn_format() {
        // Plans written before churn existed must stay parseable and
        // new churn-free plans must serialize byte-identically to them.
        let spec = ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0);
        let json = spec_to_json(&spec).to_compact_string();
        assert!(!json.contains("churn"), "unexpected churn block: {json}");
        let back = spec_from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn specs_round_trip_with_identical_stable_hash() {
        for spec in specs() {
            let json = spec_to_json(&spec).to_compact_string();
            let back = spec_from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(spec, back, "via {json}");
            assert_eq!(spec.stable_hash(), back.stable_hash());
        }
    }

    #[test]
    fn plan_round_trips_through_file() {
        let plan = CampaignPlan {
            effort: "fast".into(),
            backends: vec![
                BackendSel {
                    name: "fluid".into(),
                    runs: 1,
                },
                BackendSel {
                    name: "packet".into(),
                    runs: 3,
                },
            ],
            cells: specs()
                .into_iter()
                .enumerate()
                .map(|(i, spec)| PlannedCell {
                    seed: u64::MAX - i as u64,
                    spec,
                })
                .collect(),
        };
        let text = plan.to_json_string();
        assert_eq!(CampaignPlan::from_json_str(&text).unwrap(), plan);

        let dir = std::env::temp_dir().join(format!("bbr-plan-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        plan.save(&dir).unwrap();
        assert_eq!(CampaignPlan::load(&dir).unwrap(), plan);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejects_invalid_specs_with_the_cell_index() {
        let plan = CampaignPlan {
            effort: "fast".into(),
            backends: vec![BackendSel {
                name: "fluid".into(),
                runs: 1,
            }],
            cells: vec![
                PlannedCell {
                    spec: ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0),
                    seed: 1,
                },
                PlannedCell {
                    spec: ScenarioSpec::dumbbell(2, -50.0, 0.010, 1.0),
                    seed: 2,
                },
            ],
        };
        let err = CampaignPlan::from_json_str(&plan.to_json_string()).unwrap_err();
        assert_eq!(
            err,
            "cell 1: invalid spec: dumbbell parameters must be positive"
        );
    }

    /// A splitmix64 stream: the proptest shim draws flat values only, so
    /// each case's plan grows from one drawn seed.
    struct Draw(u64);

    impl Draw {
        fn word(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.word() % n as u64) as usize
        }

        /// Uniform in `[lo, hi)`, with every mantissa bit drawn.
        fn real(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (self.word() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        }
    }

    /// A valid spec: a dumbbell, parking lot or chain with drawn
    /// parameters, CCAs, qdisc and window, or a generated Custom cell
    /// (whose flows may carry multi-interval schedules); then, half the
    /// time, a churn window on one flow.
    fn drawn_spec(d: &mut Draw) -> ScenarioSpec {
        let family = d.below(4);
        if family == 3 {
            let spec = bbr_scenario::universe::generate_scenario(d.word(), d.below(12)).spec;
            return drawn_churn(d, spec);
        }
        let (cap, delay, buffer) = (d.real(1.0, 200.0), d.real(1e-3, 0.05), d.real(0.1, 8.0));
        let spec = match family {
            0 => {
                let lo = d.real(1e-3, 0.2);
                ScenarioSpec::dumbbell(1 + d.below(6), cap, delay, buffer)
                    .rtt_range(lo, lo + d.real(0.0, 0.1))
            }
            1 => ScenarioSpec::parking_lot(cap, d.real(1.0, 200.0), delay, buffer),
            _ => ScenarioSpec::chain(3 + d.below(4), cap, delay, buffer),
        };
        let ccas = (0..1 + d.below(3))
            .map(|_| CcaKind::ALL[d.below(CcaKind::ALL.len())])
            .collect();
        let qdisc = [QdiscKind::DropTail, QdiscKind::Red][d.below(2)];
        let spec = spec
            .ccas(ccas)
            .qdisc(qdisc)
            .duration(d.real(0.1, 10.0))
            .warmup(d.real(0.0, 1.0));
        drawn_churn(d, spec)
    }

    fn drawn_churn(d: &mut Draw, spec: ScenarioSpec) -> ScenarioSpec {
        if d.below(2) == 0 {
            return spec;
        }
        let start = d.real(0.0, 2.0);
        let stop = [f64::INFINITY, start + d.real(0.01, 5.0)][d.below(2)];
        let flow = d.below(spec.n_flows());
        spec.flow_window(flow, start, stop)
    }

    fn drawn_plan(d: &mut Draw, max_cells: usize) -> CampaignPlan {
        CampaignPlan {
            effort: ["fast", "full"][d.below(2)].into(),
            backends: (0..d.below(4))
                .map(|i| BackendSel {
                    name: ["fluid", "packet", "fluid-simd"][i].into(),
                    runs: d.below(4) as u32,
                })
                .collect(),
            cells: (0..1 + d.below(max_cells))
                .map(|_| PlannedCell {
                    spec: drawn_spec(d),
                    seed: d.word(),
                })
                .collect(),
        }
    }

    /// Loading never panics, and a plan it returns holds only valid
    /// specs.
    fn load_is_safe(text: &str) -> bool {
        CampaignPlan::from_json_str(text)
            .map_or(true, |p| p.cells.iter().all(|c| c.spec.validate().is_ok()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn drawn_plans_round_trip_exactly(seed in 0u64..u64::MAX) {
            let plan = drawn_plan(&mut Draw(seed), 6);
            let back = CampaignPlan::from_json_str(&plan.to_json_string()).unwrap();
            proptest::prop_assert_eq!(&back, &plan);
            for (a, b) in plan.cells.iter().zip(&back.cells) {
                proptest::prop_assert_eq!(a.spec.stable_hash(), b.spec.stable_hash());
            }
        }

        #[test]
        fn hostile_plans_give_errors_not_panics(
            seed in 0u64..u64::MAX,
            noise in proptest::collection::vec(0u16..256, 0..400),
            at in 0usize..1 << 20,
            byte in 0u16..256,
        ) {
            // Arbitrary bytes.
            let noise: Vec<u8> = noise.iter().map(|&b| b as u8).collect();
            proptest::prop_assert!(load_is_safe(&String::from_utf8_lossy(&noise)));
            let text = drawn_plan(&mut Draw(seed), 2).to_json_string();
            // Every strict prefix (a torn write) is an error.
            for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                proptest::prop_assert!(
                    CampaignPlan::from_json_str(&text[..end]).is_err(),
                    "prefix {end} of {text} parsed"
                );
            }
            // One corrupted byte, at 32 places.
            for k in 0..32 {
                let mut bytes = text.clone().into_bytes();
                let i = (at + k * 7919) % bytes.len();
                bytes[i] = (byte as usize + k) as u8;
                proptest::prop_assert!(load_is_safe(&String::from_utf8_lossy(&bytes)));
            }
        }
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(spec_from_json(&Json::parse(r#"{"topology":{"kind":"torus"}}"#).unwrap()).is_err());
        let bad_cca = r#"{"topology":{"kind":"parking_lot","c1":1.0,"c2":1.0,"link_delay":0.01,"buffer_bdp":1.0},"ccas":["TCP"],"qdisc":"DropTail","duration":1.0,"warmup":0.0}"#;
        assert!(spec_from_json(&Json::parse(bad_cca).unwrap()).is_err());
    }
}
