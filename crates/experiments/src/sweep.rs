//! Rayon-parallel scenario-sweep engine over the backend-agnostic
//! [`SimBackend`] layer.
//!
//! The paper's evaluation is a grid: CCA mixes × buffer sizes × RTT
//! ranges × queuing disciplines × sender counts — and, since the
//! backend unification, × topologies (dumbbell, parking lot, chain) ×
//! flow-churn patterns ([`ChurnPattern`]) — each
//! cell evaluated on the fluid model and/or the packet simulator
//! (§4.3's Figs. 6–10 sweep, §5's stability grids, Appendix C's
//! short-RTT replica all have this shape). [`ScenarioGrid`] is the
//! builder for such grids; [`ScenarioGrid::run`] fans the cartesian
//! product out over all cores, fires every cell through each configured
//! backend via the `SimBackend` trait (no per-backend code paths), and
//! returns a [`SweepReport`] that renders as an aligned table or CSV.
//!
//! Determinism: with the same grid (including [`ScenarioGrid::seed`])
//! the report is bit-identical regardless of thread count. Every cell
//! derives its seed from the grid seed and a stable hash of the cell's
//! [`ScenarioSpec`] *contents* — never from scheduling order, and never
//! from the cell's position in the expansion, so adding a grid axis
//! does not reshuffle the seeds of unchanged cells.
//!
//! ```no_run
//! use bbr_experiments::sweep::{Backend, ScenarioGrid};
//! use bbr_experiments::Effort;
//!
//! let report = ScenarioGrid::new()
//!     .effort(Effort::Fast)
//!     .backend(Backend::Both)
//!     .buffers_bdp(vec![1.0, 4.0])
//!     .with_parking_lot()
//!     .run();
//! println!("{}", report.table());
//! ```

use std::time::Instant;

use bbr_campaign::{BackendSel, CampaignPlan, CellKey, PlannedCell, ResultStore};
use bbr_fluid_core::backend::FluidBackend;
use bbr_fluidbatch::{BatchedFluidBackend, SimdFluidBackend};
use bbr_packetsim::backend::PacketBackend;
use bbr_scenario::{
    run_seed, FlowWindow, QdiscKind, RunOutcome, ScenarioSpec, SimBackend, Topology,
};

use crate::aggregate::{model_config, CellMetrics};
use crate::compare::{self, run_column, Delta};
use crate::scenarios::{CampaignParams, Combo, COMBOS};
use crate::table;
use crate::Effort;

/// Which simulator(s) evaluate each grid point. This is only a
/// *selector*: it chooses which [`SimBackend`] trait objects the run
/// constructs, and everything downstream is backend-generic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Fluid model only (fast; the paper's "Model" columns), integrated
    /// one cell at a time, each a one-lane `Simulator`.
    Fluid,
    /// Fluid model only, every cell of the grid one `f64` lane of the
    /// same lockstep engine (`bbr-fluidbatch`'s waves). Outcomes (and
    /// therefore reports, CSVs, and store records) are byte-identical
    /// to [`Backend::Fluid`] — this selects an execution strategy, not a
    /// different model — so the column is still named `"fluid"`.
    FluidBatch,
    /// Fluid model only, integrated by the SIMD-packed engine
    /// (`bbr-fluidbatch`'s `SimdFluidBackend`): scenarios with the same
    /// structure advance four-per-vector-lane through packed-`f64`
    /// kernels. The packed transcendental kernels (sigmoid, pow, cbrt)
    /// are not bit-identical to libm, so this column is named
    /// `"fluid-simd"` and is held to the cross-backend tolerance
    /// contract instead of the byte-identity one (see
    /// `docs/ARCHITECTURE.md`).
    FluidSimd,
    /// Packet-level simulator only (the paper's "Experiment" columns).
    Packet,
    /// Both models, for model-vs-experiment comparison tables (fluid on
    /// the batched engine — identical numbers, faster sweeps).
    Both,
}

/// Topology family of a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// N senders, one bottleneck (the paper's Fig. 3).
    Dumbbell,
    /// Three flows over two bottlenecks in series. Parking-lot cells
    /// ignore the flow-count and RTT-range axes (the topology fixes
    /// both), so the expansion emits each parking-lot combination once.
    ParkingLot,
    /// `chain_hops` equal bottlenecks in series with one end-to-end flow
    /// plus per-hop cross traffic, on both backends (the packet engine
    /// runs chains as general multi-link paths). Collapses the
    /// flow-count and RTT axes like the parking lot.
    Chain,
    /// Explicit [`Topology::Custom`] specs supplied through
    /// [`ScenarioGrid::with_custom`] (hand-written or machine-generated
    /// by `bbr_scenario::universe`). Custom cells iterate the supplied
    /// topologies instead of the flow-count / buffer / RTT axes — all
    /// three are fixed per topology by its links and routes.
    Custom,
}

impl TopologyKind {
    /// Stable display label (also the report/CSV/drift-report value).
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Dumbbell => "dumbbell",
            TopologyKind::ParkingLot => "parklot",
            TopologyKind::Chain => "chain",
            TopologyKind::Custom => "custom",
        }
    }
}

/// Flow-churn pattern of a grid cell — how the cell's flows' activity
/// windows ([`FlowWindow`]) are laid out. Patterns are defined relative
/// to the cell's flow count and measurement window, so one axis value
/// applies meaningfully across topologies and durations. Flow 0 (the
/// multi-hop flow in parking-lot/chain cells) always stays active, so a
/// churned cell never goes fully idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnPattern {
    /// No churn: every flow active for the whole window (the default —
    /// cells with this pattern are byte-identical to pre-churn sweeps,
    /// including their seeds and store keys).
    None,
    /// Every odd-indexed flow joins late, at 25 % of the window.
    LateStart,
    /// Every odd-indexed flow leaves early, at 75 % of the window.
    EarlyStop,
}

impl ChurnPattern {
    /// Every pattern, in the order the `--churn` axis sweeps them.
    pub const ALL: [ChurnPattern; 3] = [
        ChurnPattern::None,
        ChurnPattern::LateStart,
        ChurnPattern::EarlyStop,
    ];

    /// Stable display label (also the report/CSV column value).
    pub fn label(&self) -> &'static str {
        match self {
            ChurnPattern::None => "none",
            ChurnPattern::LateStart => "late",
            ChurnPattern::EarlyStop => "early",
        }
    }

    /// The per-flow windows this pattern assigns to a cell with
    /// `n_flows` flows and a `duration`-second measurement window.
    /// Empty for [`ChurnPattern::None`].
    pub fn windows(&self, n_flows: usize, duration: f64) -> Vec<FlowWindow> {
        match self {
            ChurnPattern::None => Vec::new(),
            ChurnPattern::LateStart => (0..n_flows)
                .map(|i| {
                    if i % 2 == 1 {
                        FlowWindow::starting_at(0.25 * duration)
                    } else {
                        FlowWindow::ALWAYS
                    }
                })
                .collect(),
            ChurnPattern::EarlyStop => (0..n_flows)
                .map(|i| {
                    if i % 2 == 1 {
                        FlowWindow::stopping_at(0.75 * duration)
                    } else {
                        FlowWindow::ALWAYS
                    }
                })
                .collect(),
        }
    }
}

/// One point of the cartesian expansion.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioPoint {
    /// Index in the deterministic cartesian order (display/bookkeeping
    /// only — seeds derive from the spec contents, not from this).
    pub index: usize,
    pub topology: TopologyKind,
    pub combo: Combo,
    pub n: usize,
    pub buffer_bdp: f64,
    /// (min, max) propagation RTT in seconds (dumbbell only).
    pub rtt: (f64, f64),
    pub qdisc: QdiscKind,
    /// Flow-churn pattern applied to the cell's activity windows.
    pub churn: ChurnPattern,
    /// Index into the grid's custom-topology axis
    /// ([`ScenarioGrid::with_custom`]); 0 and unused for the built-in
    /// topology families.
    pub custom: usize,
}

/// Builder for a scenario grid. Defaults mirror the §4.3 campaign
/// (100 Mbit/s bottleneck, 10 ms bottleneck delay, 30–40 ms RTTs) with a
/// small default grid; every axis is settable.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    capacity: f64,
    bottleneck_delay: f64,
    duration: f64,
    warmup: f64,
    runs: usize,
    seed: u64,
    effort: Effort,
    backend: Backend,
    topologies: Vec<TopologyKind>,
    combos: Vec<Combo>,
    flow_counts: Vec<usize>,
    buffers_bdp: Vec<f64>,
    rtt_ranges: Vec<(f64, f64)>,
    qdiscs: Vec<QdiscKind>,
    churn: Vec<ChurnPattern>,
    /// Second-bottleneck capacity of parking-lot cells, as a fraction of
    /// `capacity`.
    parking_c2_ratio: f64,
    /// Hop count of chain cells (≥ 3).
    chain_hops: usize,
    /// The [`TopologyKind::Custom`] axis: explicit topologies swept when
    /// `topologies` contains `Custom`.
    custom_topologies: Vec<Topology>,
}

impl Default for ScenarioGrid {
    fn default() -> Self {
        let p = CampaignParams::default_rtt().fast();
        Self {
            capacity: p.capacity,
            bottleneck_delay: p.bottleneck_delay,
            duration: p.duration,
            warmup: p.warmup,
            runs: p.runs,
            seed: 42,
            effort: Effort::Fast,
            backend: Backend::Both,
            topologies: vec![TopologyKind::Dumbbell],
            combos: vec![COMBOS[0], COMBOS[4]],
            flow_counts: vec![p.n],
            buffers_bdp: vec![1.0, 4.0],
            rtt_ranges: vec![(p.rtt_lo, p.rtt_hi)],
            qdiscs: vec![QdiscKind::DropTail],
            churn: vec![ChurnPattern::None],
            parking_c2_ratio: 0.8,
            chain_hops: 3,
            custom_topologies: Vec::new(),
        }
    }
}

impl ScenarioGrid {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start from a campaign's network/timing parameters (§4.3 default or
    /// the Appendix C short-RTT variant).
    pub fn from_campaign(p: &CampaignParams) -> Self {
        Self {
            capacity: p.capacity,
            bottleneck_delay: p.bottleneck_delay,
            duration: p.duration,
            warmup: p.warmup,
            runs: p.runs,
            flow_counts: vec![p.n],
            rtt_ranges: vec![(p.rtt_lo, p.rtt_hi)],
            ..Self::default()
        }
    }

    pub fn capacity(mut self, mbps: f64) -> Self {
        self.capacity = mbps;
        self
    }

    pub fn bottleneck_delay(mut self, seconds: f64) -> Self {
        self.bottleneck_delay = seconds;
        self
    }

    pub fn duration(mut self, seconds: f64) -> Self {
        self.duration = seconds;
        self
    }

    pub fn warmup(mut self, seconds: f64) -> Self {
        self.warmup = seconds;
        self
    }

    /// Packet-simulator runs averaged per cell.
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs.max(1);
        self
    }

    /// Base seed; every cell's packet-sim seed derives from it and the
    /// cell's spec hash.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn effort(mut self, effort: Effort) -> Self {
        self.effort = effort;
        self
    }

    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Topology families to sweep (default: dumbbell only).
    pub fn topologies(mut self, topologies: Vec<TopologyKind>) -> Self {
        self.topologies = topologies;
        self
    }

    /// Add parking-lot cells next to the dumbbell cells.
    pub fn with_parking_lot(self) -> Self {
        self.topologies(vec![TopologyKind::Dumbbell, TopologyKind::ParkingLot])
    }

    /// Second-bottleneck capacity of parking-lot cells as a fraction of
    /// the grid capacity (default 0.8).
    pub fn parking_c2_ratio(mut self, ratio: f64) -> Self {
        self.parking_c2_ratio = ratio;
        self
    }

    /// Add chain cells next to the already-configured topologies.
    pub fn with_chain(mut self) -> Self {
        if !self.topologies.contains(&TopologyKind::Chain) {
            self.topologies.push(TopologyKind::Chain);
        }
        self
    }

    /// Hop count of chain cells (default 3; must stay ≥ 3 to pass
    /// plan-time validation).
    pub fn chain_hops(mut self, hops: usize) -> Self {
        self.chain_hops = hops;
        self
    }

    /// Add explicit [`Topology::Custom`] cells next to the
    /// already-configured topologies. Each supplied topology becomes one
    /// value of the custom axis; the flow-count, buffer, and RTT axes do
    /// not apply to custom cells (links and routes fix all three).
    /// Non-`Custom` variants are rejected at plan time.
    pub fn with_custom(mut self, topologies: Vec<Topology>) -> Self {
        self.custom_topologies = topologies;
        if !self.topologies.contains(&TopologyKind::Custom) {
            self.topologies.push(TopologyKind::Custom);
        }
        self
    }

    pub fn combos(mut self, combos: Vec<Combo>) -> Self {
        self.combos = combos;
        self
    }

    /// All seven legend mixes of Figs. 6–10.
    pub fn all_combos(self) -> Self {
        self.combos(COMBOS.to_vec())
    }

    pub fn flow_counts(mut self, counts: Vec<usize>) -> Self {
        self.flow_counts = counts;
        self
    }

    pub fn buffers_bdp(mut self, buffers: Vec<f64>) -> Self {
        self.buffers_bdp = buffers;
        self
    }

    pub fn rtt_ranges(mut self, ranges: Vec<(f64, f64)>) -> Self {
        self.rtt_ranges = ranges;
        self
    }

    pub fn qdiscs(mut self, qdiscs: Vec<QdiscKind>) -> Self {
        self.qdiscs = qdiscs;
        self
    }

    /// Flow-churn patterns to sweep (default: [`ChurnPattern::None`]
    /// only, which leaves every cell byte-identical to a churn-free
    /// grid).
    pub fn churn_patterns(mut self, churn: Vec<ChurnPattern>) -> Self {
        self.churn = churn;
        self
    }

    /// Sweep every churn pattern (the CLI's `--churn`).
    pub fn with_churn(self) -> Self {
        self.churn_patterns(ChurnPattern::ALL.to_vec())
    }

    /// Number of grid points. Dumbbell cells span every axis; parking-lot
    /// and chain cells collapse the flow-count and RTT axes (fixed by the
    /// topology); custom cells additionally collapse the buffer axis and
    /// instead iterate the supplied custom topologies.
    pub fn len(&self) -> usize {
        let per_qdisc_combo_buffer =
            self.combos.len() * self.buffers_bdp.len() * self.qdiscs.len() * self.churn.len();
        self.topologies
            .iter()
            .map(|t| match t {
                TopologyKind::Dumbbell => {
                    per_qdisc_combo_buffer * self.flow_counts.len() * self.rtt_ranges.len()
                }
                TopologyKind::ParkingLot | TopologyKind::Chain => per_qdisc_combo_buffer,
                TopologyKind::Custom => {
                    self.custom_topologies.len()
                        * self.combos.len()
                        * self.qdiscs.len()
                        * self.churn.len()
                }
            })
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cartesian expansion, in the fixed deterministic order
    /// topology → combo → flows → buffer → RTT range → qdisc → churn
    /// (innermost last). Parking-lot and chain cells iterate only
    /// topology → combo → buffer → qdisc → churn; custom cells iterate
    /// custom-topology → combo → qdisc → churn.
    pub fn points(&self) -> Vec<ScenarioPoint> {
        let mut pts = Vec::with_capacity(self.len());
        let mut index = 0;
        let chain_flows = [self.chain_hops + 1];
        for &topology in &self.topologies {
            if topology == TopologyKind::Custom {
                for (custom, topo) in self.custom_topologies.iter().enumerate() {
                    let buffer_bdp = match topo {
                        Topology::Custom { links, .. } => {
                            links.first().map(|l| l.buffer_bdp).unwrap_or(0.0)
                        }
                        other => panic!(
                            "invalid grid cell: custom axis value {custom} is {other:?}, \
                             not Topology::Custom"
                        ),
                    };
                    for combo in &self.combos {
                        for &qdisc in &self.qdiscs {
                            for &churn in &self.churn {
                                pts.push(ScenarioPoint {
                                    index,
                                    topology,
                                    combo: *combo,
                                    n: topo.n_flows(),
                                    buffer_bdp,
                                    rtt: (0.0, 0.0),
                                    qdisc,
                                    churn,
                                    custom,
                                });
                                index += 1;
                            }
                        }
                    }
                }
                continue;
            }
            let (flow_counts, rtt_ranges): (&[usize], &[(f64, f64)]) = match topology {
                TopologyKind::Dumbbell => (&self.flow_counts, &self.rtt_ranges),
                // Fixed flow counts and delays: a single placeholder cell
                // on the collapsed axes.
                TopologyKind::ParkingLot => (&[3], &[(0.0, 0.0)]),
                TopologyKind::Chain => (&chain_flows, &[(0.0, 0.0)]),
                TopologyKind::Custom => unreachable!("handled above"),
            };
            for combo in &self.combos {
                for &n in flow_counts {
                    for &buffer_bdp in &self.buffers_bdp {
                        for &rtt in rtt_ranges {
                            for &qdisc in &self.qdiscs {
                                for &churn in &self.churn {
                                    pts.push(ScenarioPoint {
                                        index,
                                        topology,
                                        combo: *combo,
                                        n,
                                        buffer_bdp,
                                        rtt,
                                        qdisc,
                                        churn,
                                        custom: 0,
                                    });
                                    index += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        pts
    }

    /// The backend-agnostic spec of one grid point — the single source of
    /// truth every backend runs.
    ///
    /// The spec is validated here, so a malformed axis value (negative
    /// buffer, zero duration, two-hop chain, ...) is a hard error at
    /// *plan* time — when the grid is expanded, before any simulation
    /// starts — rather than a panic from deep inside a worker thread
    /// halfway through a sweep.
    pub fn spec_for(&self, pt: &ScenarioPoint) -> ScenarioSpec {
        let spec = match pt.topology {
            TopologyKind::Dumbbell => {
                ScenarioSpec::dumbbell(pt.n, self.capacity, self.bottleneck_delay, pt.buffer_bdp)
                    .rtt_range(pt.rtt.0, pt.rtt.1)
            }
            TopologyKind::ParkingLot => ScenarioSpec::parking_lot(
                self.capacity,
                self.capacity * self.parking_c2_ratio,
                self.bottleneck_delay,
                pt.buffer_bdp,
            ),
            TopologyKind::Chain => ScenarioSpec::chain(
                self.chain_hops,
                self.capacity,
                self.bottleneck_delay,
                pt.buffer_bdp,
            ),
            TopologyKind::Custom => match self.custom_topologies.get(pt.custom).cloned() {
                Some(Topology::Custom { links, routes }) => ScenarioSpec::custom(links, routes),
                other => panic!(
                    "invalid grid cell {pt:?}: custom axis value is {other:?}, \
                     not Topology::Custom"
                ),
            },
        };
        let spec = spec
            .ccas(pt.combo.kinds.to_vec())
            .qdisc(pt.qdisc)
            .duration(self.duration)
            .warmup(self.warmup)
            .churn(pt.churn.windows(pt.n, self.duration));
        if let Err(e) = spec.validate() {
            panic!("invalid grid cell {pt:?}: {e}");
        }
        spec
    }

    /// The full expansion with specs and seeds, in deterministic order.
    /// Built sequentially so invalid cells fail fast (and with a stable
    /// cell in the message) before any parallel work begins.
    fn tasks(&self) -> Vec<(ScenarioPoint, ScenarioSpec, u64)> {
        self.points()
            .into_iter()
            .map(|pt| {
                let spec = self.spec_for(&pt);
                let seed = self.cell_seed(&spec);
                (pt, spec, seed)
            })
            .collect()
    }

    /// The deterministic seed of one cell: grid seed mixed with a stable
    /// hash of the cell's spec *contents*. Unchanged cells keep their
    /// seeds when axes are added or reordered.
    pub fn cell_seed(&self, spec: &ScenarioSpec) -> u64 {
        mix_seed(self.seed, spec.stable_hash())
    }

    /// The trait objects the [`Backend`] selector stands for.
    fn backends(&self) -> Vec<Box<dyn SimBackend>> {
        let mut backends: Vec<Box<dyn SimBackend>> = Vec::new();
        match self.backend {
            Backend::Fluid => backends.push(Box::new(FluidBackend::new(model_config(self.effort)))),
            Backend::FluidBatch | Backend::Both => backends.push(Box::new(
                BatchedFluidBackend::new(model_config(self.effort)),
            )),
            Backend::FluidSimd => {
                backends.push(Box::new(SimdFluidBackend::new(model_config(self.effort))))
            }
            Backend::Packet => {}
        }
        if matches!(self.backend, Backend::Packet | Backend::Both) {
            backends.push(Box::new(PacketBackend::new(self.runs)));
        }
        backends
    }

    /// The same selector as *unit* backends — one engine run per
    /// evaluation — plus how many repetitions each stores per cell.
    /// Result stores persist every repetition under its own `run_index`
    /// key; averaging the stored repetitions with [`RunOutcome::average`]
    /// reproduces the internally-averaging backends of
    /// [`ScenarioGrid::backends`] bit for bit (same seeds via
    /// [`run_seed`], same averaging arithmetic).
    fn backend_plan(&self) -> Vec<(Box<dyn SimBackend>, u32)> {
        let mut plan: Vec<(Box<dyn SimBackend>, u32)> = Vec::new();
        match self.backend {
            Backend::Fluid => {
                plan.push((Box::new(FluidBackend::new(model_config(self.effort))), 1))
            }
            Backend::FluidBatch | Backend::Both => plan.push((
                Box::new(BatchedFluidBackend::new(model_config(self.effort))),
                1,
            )),
            Backend::FluidSimd => plan.push((
                Box::new(SimdFluidBackend::new(model_config(self.effort))),
                1,
            )),
            Backend::Packet => {}
        }
        if matches!(self.backend, Backend::Packet | Backend::Both) {
            plan.push((Box::new(PacketBackend::new(1)), self.runs as u32));
        }
        plan
    }

    /// Evaluate the whole grid in parallel across all available cores
    /// (bounded by `rayon`'s global thread count).
    pub fn run(&self) -> SweepReport {
        self.run_with(&self.backends())
    }

    /// Evaluate the grid on an explicit set of backends — the sweep loop
    /// itself is fully backend-generic, so third-party `SimBackend`
    /// implementations plug in here. Cells a backend does not support
    /// (`SimBackend::supports`) get `None` in that backend's column.
    ///
    /// Each backend runs its column through
    /// [`compare::run_column`]: backends exposing a batch view
    /// ([`SimBackend::as_batch`]) receive *all* of their supported cells
    /// in one `run_batch` call — the whole grid integrates in lockstep —
    /// and the rest fan out per cell. Since `run_batch` returns the bits
    /// per-cell `run` calls return, the report never depends on which
    /// path ran.
    pub fn run_with(&self, backends: &[Box<dyn SimBackend>]) -> SweepReport {
        let t0 = Instant::now();
        let tasks = self.tasks();
        let jobs: Vec<(&ScenarioSpec, u64)> =
            tasks.iter().map(|(_, spec, seed)| (spec, *seed)).collect();
        // One column of outcomes per backend, then transpose into cells.
        let columns: Vec<Vec<Option<CellMetrics>>> = backends
            .iter()
            .map(|b| run_column(b.as_ref(), &jobs, |o| CellMetrics::from(&o)))
            .collect();
        let cells: Vec<SweepCell> = tasks
            .iter()
            .enumerate()
            .map(|(i, (pt, _, seed))| SweepCell {
                point: *pt,
                seed: *seed,
                outcomes: columns.iter().map(|col| col[i]).collect(),
            })
            .collect();
        SweepReport {
            capacity: self.capacity,
            bottleneck_delay: self.bottleneck_delay,
            duration: self.duration,
            backends: backends.iter().map(|b| b.name()).collect(),
            threads: rayon::current_num_threads(),
            wall_seconds: t0.elapsed().as_secs_f64(),
            cells,
        }
    }

    /// The campaign work list of this grid: every cell's spec and seed
    /// plus the backend selectors, ready for
    /// [`bbr_campaign::run_sharded`] or a worker process. Covers the
    /// built-in [`Backend`] selector (campaigns re-build their backends
    /// from the plan file by name, so arbitrary `run_with` backends
    /// cannot be campaigned).
    pub fn campaign_plan(&self) -> CampaignPlan {
        let backends = self
            .backend_plan()
            .iter()
            .map(|(b, runs)| BackendSel {
                name: b.name().to_string(),
                runs: *runs,
            })
            .collect();
        let cells = self
            .tasks()
            .into_iter()
            .map(|(_, spec, seed)| PlannedCell { spec, seed })
            .collect();
        CampaignPlan {
            effort: self.effort.tag().to_string(),
            backends,
            cells,
        }
    }

    /// Reassemble the [`SweepReport`] of this grid purely from stored
    /// results — the read side of campaigns. Fails with the first
    /// missing key if the store does not (yet) cover the grid.
    pub fn report_from_store(&self, store: &ResultStore) -> Result<SweepReport, String> {
        let t0 = Instant::now();
        let plan = self.backend_plan();
        let mut cells = Vec::new();
        for (pt, spec, seed) in self.tasks() {
            let spec_hash = spec.stable_hash();
            let mut outcomes = Vec::with_capacity(plan.len());
            for (backend, runs) in &plan {
                if !backend.supports(&spec) {
                    outcomes.push(None);
                    continue;
                }
                let stored: Vec<RunOutcome> = (0..*runs)
                    .map(|run_index| {
                        let key = CellKey {
                            spec_hash,
                            seed,
                            backend: backend.name().to_string(),
                            run_index,
                        };
                        store.get(&key).cloned().ok_or_else(|| {
                            format!(
                                "store {} is missing {}[run {run_index}] of cell {pt:?} \
                                 (spec {spec_hash:x}, seed {seed:x})",
                                store.dir().display(),
                                backend.name()
                            )
                        })
                    })
                    .collect::<Result<_, String>>()?;
                let avg = RunOutcome::average(&stored).expect("runs >= 1 per backend");
                outcomes.push(Some(CellMetrics::from(&avg)));
            }
            cells.push(SweepCell {
                point: pt,
                seed,
                outcomes,
            });
        }
        Ok(SweepReport {
            capacity: self.capacity,
            bottleneck_delay: self.bottleneck_delay,
            duration: self.duration,
            backends: plan.iter().map(|(b, _)| b.name()).collect(),
            threads: rayon::current_num_threads(),
            wall_seconds: t0.elapsed().as_secs_f64(),
            cells,
        })
    }

    /// Evaluate the grid *through* a result store: cells already present
    /// are served from disk, missing cells are computed in parallel and
    /// persisted, and the report is reassembled from the store. With the
    /// same grid, the report is byte-identical (CSV and per-cell
    /// metrics) to [`ScenarioGrid::run`] — whether it came from a cold
    /// store, a warm one, or any mix.
    pub fn run_cached(&self, store: &mut ResultStore) -> Result<(SweepReport, CacheStats), String> {
        let plan = self.backend_plan();
        struct Item {
            spec: ScenarioSpec,
            seed: u64,
            backend_index: usize,
            run_index: u32,
        }
        let mut total_entries = 0;
        let mut missing: Vec<Item> = Vec::new();
        for (_, spec, seed) in self.tasks() {
            let spec_hash = spec.stable_hash();
            for (backend_index, (backend, runs)) in plan.iter().enumerate() {
                if !backend.supports(&spec) {
                    continue;
                }
                for run_index in 0..*runs {
                    total_entries += 1;
                    let key = CellKey {
                        spec_hash,
                        seed,
                        backend: backend.name().to_string(),
                        run_index,
                    };
                    if !store.contains(&key) {
                        missing.push(Item {
                            spec: spec.clone(),
                            seed,
                            backend_index,
                            run_index,
                        });
                    }
                }
            }
        }
        // Fill the missing entries backend by backend, one
        // `run_column` each. Results land back in `missing` order, so the
        // store's append order (and thus its bytes) is the same whichever
        // path computed an entry.
        let mut outcomes: Vec<Option<RunOutcome>> = vec![None; missing.len()];
        for (backend_index, (backend, _)) in plan.iter().enumerate() {
            let mine: Vec<usize> = (0..missing.len())
                .filter(|&i| missing[i].backend_index == backend_index)
                .collect();
            if mine.is_empty() {
                continue;
            }
            let jobs: Vec<(&ScenarioSpec, u64)> = mine
                .iter()
                .map(|&i| {
                    let item = &missing[i];
                    (&item.spec, run_seed(item.seed, item.run_index))
                })
                .collect();
            for (&i, out) in mine.iter().zip(run_column(backend.as_ref(), &jobs, |o| o)) {
                outcomes[i] = out;
            }
        }
        let computed: Vec<(CellKey, RunOutcome)> = missing
            .iter()
            .zip(outcomes)
            .map(|(item, outcome)| {
                let (backend, _) = &plan[item.backend_index];
                let key = CellKey {
                    spec_hash: item.spec.stable_hash(),
                    seed: item.seed,
                    backend: backend.name().to_string(),
                    run_index: item.run_index,
                };
                (key, outcome.expect("every missing entry was computed"))
            })
            .collect();
        let stats = CacheStats {
            computed: computed.len(),
            cached: total_entries - computed.len(),
        };
        for (key, outcome) in computed {
            store.insert(key, outcome)?;
        }
        let report = self.report_from_store(store)?;
        Ok((report, stats))
    }
}

/// The pinned benchmark grids: the repository benchmark's `grid-simd`
/// workload (`perfbench/`), `figures simd-check`, and the criterion
/// benches in `crates/bench`. Fixed definitions so cells/sec numbers
/// stay comparable across changes:
///
/// * **24** — mixed-topology coverage: 2 mixes × 2 buffers × 2 qdiscs ×
///   {dumbbell, parking lot, chain}, 4/3/4 flows per cell. Exercises
///   every lane family the batch integrator supports.
/// * **96** — the §4.3-shaped dumbbell campaign: 6 mixes × 4 buffers ×
///   2 qdiscs × 2 RTT bands at N = 10 flows — the grid family the
///   paper's fluid results (Figs. 6–10, 13–17) are swept on, and the
///   grid `grid-simd` times on the packed engine.
///
/// Both use 1 s measurement windows so a full comparison of fluid
/// backends stays in benchmark territory (seconds, not minutes).
pub fn bench_grid(cells: usize) -> ScenarioGrid {
    let base = ScenarioGrid::new()
        .effort(Effort::Fast)
        .backend(Backend::Fluid)
        .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red])
        .duration(1.0)
        .warmup(0.25)
        .seed(42);
    let grid = match cells {
        24 => base
            .topologies(vec![
                TopologyKind::Dumbbell,
                TopologyKind::ParkingLot,
                TopologyKind::Chain,
            ])
            .combos(vec![COMBOS[0], COMBOS[4]])
            .flow_counts(vec![4])
            .buffers_bdp(vec![1.0, 4.0])
            .rtt_ranges(vec![(0.030, 0.040)]),
        96 => base
            .combos(COMBOS[..6].to_vec())
            .flow_counts(vec![10])
            .buffers_bdp(vec![1.0, 2.0, 4.0, 7.0])
            .rtt_ranges(vec![(0.030, 0.040), (0.010, 0.020)]),
        other => panic!("no pinned bench grid with {other} cells (have 24, 96)"),
    };
    assert_eq!(grid.len(), cells, "pinned bench grid definition drifted");
    grid
}

/// How much of a cached sweep was served from the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Engine runs evaluated by this call.
    pub computed: usize,
    /// Engine runs found in the store.
    pub cached: usize,
}

/// splitmix64 finalizer over (seed, salt): decorrelates neighbouring
/// cells while staying a pure function of the inputs. Also the per-cell
/// seed derivation of universe sweeps (`crate::universe`), so a
/// generated spec that also appears in a grid gets the same seed for
/// the same base seed.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One evaluated grid point: the per-backend metrics, aligned with
/// [`SweepReport::backends`]. `None` marks a backend that does not
/// support this cell's topology (`SimBackend::supports`).
#[derive(Debug, Clone)]
pub struct SweepCell {
    pub point: ScenarioPoint,
    /// The seed every backend received for this cell.
    pub seed: u64,
    pub outcomes: Vec<Option<CellMetrics>>,
}

/// Results of a grid run, with table/CSV rendering.
#[derive(Debug, Clone)]
pub struct SweepReport {
    pub capacity: f64,
    pub bottleneck_delay: f64,
    pub duration: f64,
    /// Backend names, in the column order of every cell's `outcomes`.
    pub backends: Vec<&'static str>,
    /// Worker threads the run was allowed to use.
    pub threads: usize,
    pub wall_seconds: f64,
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Column index of a backend by name.
    pub fn backend_index(&self, name: &str) -> Option<usize> {
        self.backends.iter().position(|b| *b == name)
    }

    /// The metrics a named backend produced for a cell (`None` when the
    /// backend did not run or does not support the cell).
    pub fn metrics<'a>(&self, cell: &'a SweepCell, backend: &str) -> Option<&'a CellMetrics> {
        cell.outcomes.get(self.backend_index(backend)?)?.as_ref()
    }

    fn header(&self) -> Vec<String> {
        let mut h: Vec<String> = [
            "topo", "combo", "N", "buf[BDP]", "RTT[ms]", "qdisc", "churn",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for b in &self.backends {
            for metric in ["jain", "loss%", "occ%", "util%"] {
                h.push(format!("{metric}[{b}]"));
            }
        }
        h
    }

    fn rows(&self) -> Vec<Vec<String>> {
        self.cells
            .iter()
            .map(|c| {
                let p = &c.point;
                let rtt = match p.topology {
                    TopologyKind::Dumbbell => {
                        format!("{:.0}-{:.0}", p.rtt.0 * 1e3, p.rtt.1 * 1e3)
                    }
                    TopologyKind::ParkingLot | TopologyKind::Chain | TopologyKind::Custom => {
                        "-".to_string()
                    }
                };
                let mut row = vec![
                    p.topology.label().to_string(),
                    p.combo.label.to_string(),
                    p.n.to_string(),
                    table::f1(p.buffer_bdp),
                    rtt,
                    format!("{:?}", p.qdisc),
                    p.churn.label().to_string(),
                ];
                for m in &c.outcomes {
                    match m {
                        Some(m) => {
                            row.push(table::f3(m.jain));
                            row.push(table::f3(m.loss_percent));
                            row.push(table::f1(m.occupancy_percent));
                            row.push(table::f1(m.utilization_percent));
                        }
                        // Backend does not support this cell's topology.
                        None => row.extend(["-", "-", "-", "-"].map(String::from)),
                    }
                }
                row
            })
            .collect()
    }

    /// Aligned plain-text table, one metric block per backend.
    pub fn table(&self) -> String {
        let title = format!(
            "Scenario sweep: {} points × {{{}}}, C = {} Mbit/s, {} s windows — {:.2} s wall on {} thread(s)",
            self.cells.len(),
            self.backends.join(", "),
            self.capacity,
            self.duration,
            self.wall_seconds,
            self.threads,
        );
        table::render(&title, &self.header(), &self.rows())
    }

    /// CSV rendering of the same cells (also the canonical form compared
    /// by the determinism tests).
    pub fn csv(&self) -> String {
        table::to_csv(&self.header(), &self.rows())
    }

    /// Mean absolute gap in utilization percentage points between two
    /// named backends over cells where both ran (a coarse §4.3-style
    /// validation number).
    pub fn mean_gap_between(&self, a: &str, b: &str) -> Option<f64> {
        let (ia, ib) = (self.backend_index(a)?, self.backend_index(b)?);
        compare::mean_abs_util_gap(self.cells.iter().filter_map(|c| {
            let (x, y) = (c.outcomes.get(ia)?.as_ref()?, c.outcomes.get(ib)?.as_ref()?);
            Some(Delta::between(x, y))
        }))
    }

    /// Mean absolute model-vs-experiment utilization gap (fluid vs packet
    /// backend).
    pub fn mean_utilization_gap(&self) -> Option<f64> {
        self.mean_gap_between("fluid", "packet")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> ScenarioGrid {
        // 2 combos × 2 buffers = 4 points; short windows and a halved
        // capacity (fewer packets to simulate) keep it quick.
        ScenarioGrid::new()
            .capacity(50.0)
            .combos(vec![COMBOS[0], COMBOS[4]])
            .flow_counts(vec![2])
            .buffers_bdp(vec![1.0, 4.0])
            .duration(1.0)
            .warmup(0.25)
            .runs(1)
    }

    #[test]
    fn cartesian_expansion_counts_and_order() {
        let grid = ScenarioGrid::new()
            .combos(vec![COMBOS[0], COMBOS[3], COMBOS[4]])
            .flow_counts(vec![2, 4])
            .buffers_bdp(vec![1.0, 2.0, 4.0])
            .rtt_ranges(vec![(0.030, 0.040), (0.010, 0.020)])
            .qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red]);
        assert_eq!(grid.len(), 3 * 2 * 3 * 2 * 2);
        let pts = grid.points();
        assert_eq!(pts.len(), grid.len());
        // Indices are the position in the expansion.
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // qdisc is the innermost axis, combo the outermost (single
        // topology).
        assert_eq!(pts[0].qdisc, QdiscKind::DropTail);
        assert_eq!(pts[1].qdisc, QdiscKind::Red);
        assert_eq!(pts[0].combo.label, pts[grid.len() / 3 - 1].combo.label);
        assert_ne!(pts[0].combo.label, pts[grid.len() - 1].combo.label);
        // Two expansions of the same grid are identical.
        let again = grid.points();
        for (a, b) in pts.iter().zip(&again) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.combo.label, b.combo.label);
            assert_eq!(a.buffer_bdp, b.buffer_bdp);
        }
    }

    #[test]
    fn parking_lot_cells_collapse_flow_and_rtt_axes() {
        let grid = ScenarioGrid::new()
            .combos(vec![COMBOS[0], COMBOS[4]])
            .flow_counts(vec![2, 4, 8])
            .buffers_bdp(vec![1.0, 4.0])
            .rtt_ranges(vec![(0.030, 0.040), (0.010, 0.020)])
            .qdiscs(vec![QdiscKind::DropTail])
            .with_parking_lot();
        // Dumbbell: 2×3×2×2×1 = 24; parking lot: 2×2×1 = 4.
        assert_eq!(grid.len(), 24 + 4);
        let pts = grid.points();
        assert_eq!(pts.len(), 28);
        let lots: Vec<_> = pts
            .iter()
            .filter(|p| p.topology == TopologyKind::ParkingLot)
            .collect();
        assert_eq!(lots.len(), 4);
        for p in &lots {
            assert_eq!(p.n, 3);
        }
        // Every parking-lot spec in the expansion is distinct.
        let mut hashes = std::collections::HashSet::new();
        for p in &lots {
            assert!(hashes.insert(grid.spec_for(p).stable_hash()));
        }
    }

    #[test]
    fn cell_seeds_survive_axis_insertion() {
        // The motivating regression: adding a grid axis must not
        // reshuffle the seeds of cells whose specs did not change.
        let small = tiny_grid();
        let grown = tiny_grid().qdiscs(vec![QdiscKind::DropTail, QdiscKind::Red]);
        for pt in small.points() {
            let spec = small.spec_for(&pt);
            let grown_pt = grown
                .points()
                .into_iter()
                .find(|p| grown.spec_for(p) == spec)
                .expect("original cell still in grown grid");
            assert_eq!(
                small.cell_seed(&spec),
                grown.cell_seed(&grown.spec_for(&grown_pt))
            );
        }
    }

    #[test]
    fn chain_cells_collapse_axes_and_run_on_both_backends() {
        let grid = tiny_grid()
            .topologies(vec![TopologyKind::Chain])
            .chain_hops(4);
        // 2 combos × 2 buffers; flow-count and RTT axes collapsed.
        assert_eq!(grid.len(), 4);
        for pt in grid.points() {
            assert_eq!(pt.topology, TopologyKind::Chain);
            assert_eq!(pt.n, 5); // hops + 1 flows
            assert!(grid.spec_for(&pt).validate().is_ok());
        }
        // Since the packet engine learned general multi-link paths,
        // chain cells fill *both* backend columns — the last
        // fluid-only scenario family is gone.
        let r = grid.backend(Backend::Both).duration(0.5).run();
        assert_eq!(r.backends, vec!["fluid", "packet"]);
        for cell in &r.cells {
            assert!(r.metrics(cell, "fluid").is_some(), "fluid ran the chain");
            assert!(
                r.metrics(cell, "packet").is_some(),
                "packet must run chain cells since the path refactor"
            );
        }
        assert!(r.mean_utilization_gap().is_some());
    }

    #[test]
    fn churn_axis_multiplies_cells_and_default_stays_identical() {
        let base = tiny_grid().backend(Backend::Fluid);
        let churned = tiny_grid().backend(Backend::Fluid).with_churn();
        assert_eq!(churned.len(), base.len() * ChurnPattern::ALL.len());
        // The None-pattern cells of a churned grid are the base grid's
        // cells: same specs, same seeds (stable store keys).
        let base_specs: Vec<ScenarioSpec> =
            base.points().iter().map(|p| base.spec_for(p)).collect();
        for pt in churned.points() {
            let spec = churned.spec_for(&pt);
            match pt.churn {
                ChurnPattern::None => {
                    assert!(base_specs.contains(&spec), "None cell drifted: {pt:?}");
                    assert!(!spec.has_churn());
                }
                _ => {
                    assert!(spec.has_churn());
                    assert!(
                        !base_specs.contains(&spec),
                        "churned cell must be a distinct spec"
                    );
                }
            }
        }
        // Churned cells carry distinct seeds (hash includes the windows).
        let seeds: std::collections::HashSet<u64> = churned
            .points()
            .iter()
            .map(|p| churned.cell_seed(&churned.spec_for(p)))
            .collect();
        assert_eq!(seeds.len(), churned.len());
    }

    #[test]
    fn churned_sweep_reports_lower_throughput_for_churned_flows() {
        let r = tiny_grid()
            .backend(Backend::Fluid)
            .combos(vec![COMBOS[0]])
            .buffers_bdp(vec![2.0])
            .churn_patterns(vec![ChurnPattern::None, ChurnPattern::EarlyStop])
            .run();
        assert_eq!(r.len(), 2);
        let util = |i: usize| r.cells[i].outcomes[0].unwrap().utilization_percent;
        // Stopping a flow for a quarter of the window costs utilization.
        assert!(
            util(1) < util(0),
            "early-stop {:.1} must trail none {:.1}",
            util(1),
            util(0)
        );
        // The churn column renders in both table and CSV.
        assert!(r.csv().contains("early"));
        assert!(r.table().contains("early"));
    }

    #[test]
    fn custom_axis_iterates_supplied_topologies() {
        let topos: Vec<Topology> = bbr_scenario::universe::generate_universe(11, 2)
            .into_iter()
            .map(|c| c.spec.topology)
            .collect();
        let n_flows: Vec<usize> = topos.iter().map(|t| t.n_flows()).collect();
        let grid = tiny_grid()
            .topologies(Vec::new())
            .with_custom(topos)
            .backend(Backend::Fluid);
        // 2 custom topologies × 2 combos × 1 qdisc × 1 churn; the
        // flow-count, buffer, and RTT axes are collapsed.
        assert_eq!(grid.len(), 4);
        let pts = grid.points();
        assert_eq!(pts.len(), 4);
        let mut hashes = std::collections::HashSet::new();
        for pt in &pts {
            assert_eq!(pt.topology, TopologyKind::Custom);
            assert_eq!(pt.n, n_flows[pt.custom]);
            assert_eq!(pt.rtt, (0.0, 0.0));
            let spec = grid.spec_for(pt);
            assert!(matches!(spec.topology, Topology::Custom { .. }));
            assert!(hashes.insert(spec.stable_hash()), "duplicate cell {pt:?}");
        }
        let r = grid.run();
        assert_eq!(r.len(), 4);
        assert!(r.csv().lines().skip(1).all(|l| l.starts_with("custom,")));
        assert!(r.cells.iter().all(|c| r.metrics(c, "fluid").is_some()));
    }

    #[test]
    #[should_panic(expected = "invalid grid cell")]
    fn non_custom_axis_values_fail_at_plan_time() {
        let grid = tiny_grid()
            .topologies(Vec::new())
            .with_custom(vec![Topology::Dumbbell {
                n: 2,
                capacity: 50.0,
                bottleneck_delay: 0.010,
                buffer_bdp: 1.0,
                rtt_lo: 0.030,
                rtt_hi: 0.040,
            }]);
        let _ = grid.tasks();
    }

    #[test]
    #[should_panic(expected = "invalid grid cell")]
    fn invalid_cells_fail_at_plan_time() {
        // A negative buffer is only detectable once the axis value is
        // substituted into a spec; the failure must name the cell and
        // happen before any simulation (points -> specs, not mid-run).
        let grid = tiny_grid().buffers_bdp(vec![1.0, -2.0]);
        let _ = grid.tasks();
    }

    #[test]
    #[should_panic(expected = "chain needs at least 3 hops")]
    fn short_chains_fail_at_plan_time() {
        let grid = tiny_grid()
            .topologies(vec![TopologyKind::Chain])
            .chain_hops(2);
        let _ = grid.tasks();
    }

    // Full-simulation determinism and fluid-vs-packet agreement checks
    // live in tests/sweep_engine.rs (through the umbrella crate); the
    // in-crate tests stay cheap and structural. Store/campaign round
    // trips live in tests/campaign_store.rs and
    // crates/experiments/tests/campaign_cli.rs.

    #[test]
    fn fluid_only_backend_skips_packet_sim() {
        let r = tiny_grid().backend(Backend::Fluid).run();
        assert_eq!(r.len(), 4);
        assert_eq!(r.backends, vec!["fluid"]);
        assert!(r
            .cells
            .iter()
            .all(|c| c.outcomes.len() == 1 && r.metrics(c, "packet").is_none()));
        assert!(r.mean_utilization_gap().is_none());
    }

    #[test]
    fn report_renders_table_and_csv() {
        let r = tiny_grid().backend(Backend::Fluid).run();
        let t = r.table();
        assert!(t.contains("Scenario sweep: 4 points"));
        assert!(t.contains("BBRv1") && t.contains("BBRv2"));
        let csv = r.csv();
        assert_eq!(csv.lines().count(), 5); // header + 4 cells
        assert!(csv.starts_with("topo,combo,N,buf[BDP],RTT[ms],qdisc,churn,jain[fluid]"));
    }
}
