//! Backend-agnostic scenario layer.
//!
//! The paper's central method is running the *same* scenario through a
//! fluid model and a packet-level simulator and comparing the resulting
//! throughput/fairness/stability metrics. This crate holds everything
//! both simulators must agree on so that a scenario is described exactly
//! once:
//!
//! * [`CcaKind`] / [`QdiscKind`] — the congestion-control algorithms and
//!   queuing disciplines, shared by both backends (the per-backend state
//!   machines stay in `bbr-fluid-core` and `bbr-packetsim`);
//! * [`ScenarioSpec`] / [`Topology`] — one declarative description of
//!   topology (dumbbell, parking lot, or multi-hop chain), flows,
//!   buffer, qdisc, and measurement window;
//! * [`FlowMetrics`] / [`RunOutcome`] — one result shape both backends
//!   populate, so aggregation code never pattern-matches on the backend;
//! * [`FlowWindow`] — optional per-flow start/stop times (flow churn),
//!   honored identically by every backend;
//! * [`SimBackend`] — the trait every simulator implements:
//!   `run(&ScenarioSpec, seed) -> RunOutcome`.
//!
//! # Cross-backend example
//!
//! The same spec fired through both simulators (`FluidBackend` lives in
//! `bbr-fluid-core`, `PacketBackend` in `bbr-packetsim`):
//!
//! ```
//! use bbr_fluid_core::backend::FluidBackend;
//! use bbr_packetsim::backend::PacketBackend;
//! use bbr_scenario::{CcaKind, ScenarioSpec, SimBackend};
//!
//! let spec = ScenarioSpec::dumbbell(2, 50.0, 0.010, 2.0)
//!     .ccas(vec![CcaKind::Cubic, CcaKind::BbrV1])
//!     .duration(1.0)
//!     .warmup(0.25);
//! let backends: Vec<Box<dyn SimBackend>> = vec![
//!     Box::new(FluidBackend::coarse()),
//!     Box::new(PacketBackend::new(1)),
//! ];
//! for backend in &backends {
//!     let outcome = backend.run(&spec, 42);
//!     assert_eq!(outcome.flows.len(), 2);
//!     assert!(outcome.utilization_percent > 10.0, "{} idle", backend.name());
//! }
//! ```

#![warn(missing_docs)]

pub mod universe;

/// Which congestion-control algorithm a flow runs (shared by the fluid
/// model and the packet simulator; the per-backend state machines are
/// built from this tag by `bbr_fluid_core::cca::build_any` and
/// `bbr_packetsim::cca::build`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcaKind {
    /// TCP Reno (AIMD; the paper's loss-based baseline).
    Reno,
    /// TCP CUBIC (the default loss-based CCA of Linux).
    Cubic,
    /// BBR version 1 (rate-based, loss-agnostic).
    BbrV1,
    /// BBR version 2 (rate-based with loss/ECN reaction).
    BbrV2,
    /// Deployment-grade BBRv2 packet state machine (the high-fidelity
    /// tier of the packet backend: windowed max-bandwidth / min-RTT
    /// deque filters, the full ProbeBW Down/Cruise/Refill/Up cycle with
    /// `inflight_hi/lo` + `bw_hi/lo` bounds, idle restart). The fluid
    /// backend maps it to the same §3.1 BBRv2 fluid model as
    /// [`CcaKind::BbrV2`] — the fluid abstraction has exactly one BBRv2,
    /// which is what the `figures drift` audit quantifies.
    BbrV2Deploy,
}

impl CcaKind {
    /// Every kind, in a fixed order (handy for property tests and CLIs).
    pub const ALL: [CcaKind; 5] = [
        CcaKind::Reno,
        CcaKind::Cubic,
        CcaKind::BbrV1,
        CcaKind::BbrV2,
        CcaKind::BbrV2Deploy,
    ];

    /// Short display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            CcaKind::Reno => "RENO",
            CcaKind::Cubic => "CUBIC",
            CcaKind::BbrV1 => "BBRv1",
            CcaKind::BbrV2 => "BBRv2",
            CcaKind::BbrV2Deploy => "BBRv2D",
        }
    }

    /// Whether the CCA backs off in response to packet loss (all but
    /// BBRv1; used by tests and by the experiment harness).
    pub fn loss_sensitive(&self) -> bool {
        !matches!(self, CcaKind::BbrV1)
    }

    /// Inverse of [`CcaKind::name`] (used by on-disk result stores and
    /// plan files, which persist kinds by display name).
    pub fn from_name(name: &str) -> Option<CcaKind> {
        CcaKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for CcaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Queuing discipline of a link (paper §2, Eqs. (4) and (6)). The fluid
/// model uses the idealized forms; the packet simulator the discrete
/// (EWMA-averaged RED) counterparts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QdiscKind {
    /// Tail drop: packets are dropped only when the buffer is full.
    DropTail,
    /// Random Early Detection: probabilistic drops as the (averaged)
    /// queue grows.
    Red,
}

impl QdiscKind {
    /// Stable display name (also the persisted form in result stores).
    pub fn name(&self) -> &'static str {
        match self {
            QdiscKind::DropTail => "DropTail",
            QdiscKind::Red => "Red",
        }
    }

    /// Inverse of [`QdiscKind::name`].
    pub fn from_name(name: &str) -> Option<QdiscKind> {
        match name {
            "DropTail" => Some(QdiscKind::DropTail),
            "Red" => Some(QdiscKind::Red),
            _ => None,
        }
    }
}

/// One link of a [`Topology::Custom`] layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomLink {
    /// Capacity (Mbit/s).
    pub capacity: f64,
    /// One-way propagation delay (s), counted once per traversal.
    pub delay: f64,
    /// Buffer in multiples of *this link's own* BDP
    /// (`capacity · delay`) — unlike the built-in families, which size
    /// every buffer from the first/bottleneck link's BDP.
    pub buffer_bdp: f64,
}

impl CustomLink {
    /// A link with the given capacity (Mbit/s), one-way delay (s), and
    /// buffer (multiples of this link's BDP).
    pub fn new(capacity: f64, delay: f64, buffer_bdp: f64) -> Self {
        Self {
            capacity,
            delay,
            buffer_bdp,
        }
    }
}

/// The path of one flow through a [`Topology::Custom`] layout. Each
/// route is one flow; flow `i` runs route `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomRoute {
    /// Indices into the topology's link table, in traversal order. Must
    /// be non-empty and free of duplicates (a flow crosses each link at
    /// most once).
    pub links: Vec<usize>,
    /// Extra one-way delay on the data path before the first link (s) —
    /// the access-link delay of the built-in families.
    pub extra_fwd_delay: f64,
    /// Extra one-way delay on the ACK return path (s).
    pub extra_bwd_delay: f64,
}

impl CustomRoute {
    /// A route over `links` (in order) with the given extra forward and
    /// backward delays (s).
    pub fn new(links: Vec<usize>, extra_fwd_delay: f64, extra_bwd_delay: f64) -> Self {
        Self {
            links,
            extra_fwd_delay,
            extra_bwd_delay,
        }
    }
}

/// The link layout of a scenario. All rates in Mbit/s, delays in
/// seconds; buffers in multiples of the bottleneck link's BDP
/// (`capacity · delay`, the paper's §4.1.3 convention) for the built-in
/// families, and of each link's own BDP for [`Topology::Custom`].
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// `n` senders with heterogeneous RTTs share one bottleneck (the
    /// paper's Fig. 3). Total propagation RTTs are spread evenly over
    /// `[rtt_lo, rtt_hi]`.
    Dumbbell {
        /// Number of senders sharing the bottleneck.
        n: usize,
        /// Bottleneck capacity (Mbit/s).
        capacity: f64,
        /// One-way bottleneck propagation delay (s).
        bottleneck_delay: f64,
        /// Buffer in multiples of the bottleneck BDP.
        buffer_bdp: f64,
        /// Smallest total propagation RTT across senders (s).
        rtt_lo: f64,
        /// Largest total propagation RTT across senders (s).
        rtt_hi: f64,
    },
    /// Two bottlenecks in series (the paper's stated future work): flow 0
    /// traverses both, flow 1 only the first, flow 2 only the second.
    /// Always three flows; `buffer_bdp` is measured in BDP of the first
    /// link (`c1 · link_delay`) and applied to both links.
    ParkingLot {
        /// Capacity of the first bottleneck (Mbit/s).
        c1: f64,
        /// Capacity of the second bottleneck (Mbit/s).
        c2: f64,
        /// One-way propagation delay of each bottleneck link (s).
        link_delay: f64,
        /// Buffer per link, in multiples of the first link's BDP.
        buffer_bdp: f64,
    },
    /// `hops` (≥ 3) equal-capacity bottlenecks in series: flow 0 crosses
    /// every hop end to end, and each hop additionally carries one
    /// cross-traffic flow entering and leaving at that hop — `hops + 1`
    /// flows in total. All flows see the same propagation RTT
    /// (`2·access + hops·link_delay`); `buffer_bdp` is measured in BDP of
    /// one hop (`capacity · link_delay`) and applied at every hop.
    Chain {
        /// Number of bottleneck hops in series (≥ 3).
        hops: usize,
        /// Capacity of every hop (Mbit/s).
        capacity: f64,
        /// One-way propagation delay of each hop (s).
        link_delay: f64,
        /// Buffer per hop, in multiples of one hop's BDP.
        buffer_bdp: f64,
    },
    /// An explicit link table plus one route per flow — the escape hatch
    /// beyond the three built-in families (stars, trees, fat-trees,
    /// meshes, and anything the scenario-universe generator emits).
    /// Validated at plan time ([`ScenarioSpec::validate`]): every route
    /// must reference existing links, and every link must be crossed by
    /// at least one route.
    Custom {
        /// The link table.
        links: Vec<CustomLink>,
        /// One route per flow; `routes.len()` is the flow count.
        routes: Vec<CustomRoute>,
    },
}

impl Topology {
    /// Number of flows this topology carries.
    pub fn n_flows(&self) -> usize {
        match self {
            Topology::Dumbbell { n, .. } => *n,
            Topology::ParkingLot { .. } => 3,
            Topology::Chain { hops, .. } => hops + 1,
            Topology::Custom { routes, .. } => routes.len(),
        }
    }

    /// The topology family name without its parameters (`"Dumbbell"`,
    /// `"ParkingLot"`, `"Chain"`, `"Custom"`) — what error messages
    /// about unsupported scenario families should name.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Topology::Dumbbell { .. } => "Dumbbell",
            Topology::ParkingLot { .. } => "ParkingLot",
            Topology::Chain { .. } => "Chain",
            Topology::Custom { .. } => "Custom",
        }
    }
}

/// Activity window of one flow — the per-flow churn primitive.
///
/// The flow sends only while `start <= t < stop`, with `t` measured in
/// seconds from the start of the *measurement window* (`t = 0` is where
/// metrics collection begins; the packet simulator's warm-up runs
/// before it, the fluid model has no warm-up). [`FlowWindow::ALWAYS`]
/// (`start = 0`, `stop = ∞`) is the non-churn default and means "active
/// for the whole run, exactly as before churn existed" — backends
/// treat it specially so churn-free specs keep their historical
/// behaviour bit for bit (including the packet simulator's staggered
/// flow starts during warm-up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowWindow {
    /// Time the flow starts sending (s into the measurement window).
    pub start: f64,
    /// Time the flow stops sending (s; `f64::INFINITY` = never stops).
    pub stop: f64,
}

impl FlowWindow {
    /// The non-churn default: active for the whole run.
    pub const ALWAYS: FlowWindow = FlowWindow {
        start: 0.0,
        stop: f64::INFINITY,
    };

    /// A window active over `[start, stop)`.
    pub fn new(start: f64, stop: f64) -> Self {
        Self { start, stop }
    }

    /// A flow joining late: active from `start` to the end of the run.
    pub fn starting_at(start: f64) -> Self {
        Self {
            start,
            stop: f64::INFINITY,
        }
    }

    /// A flow leaving early: active from the beginning until `stop`.
    pub fn stopping_at(stop: f64) -> Self {
        Self { start: 0.0, stop }
    }

    /// Whether this is the non-churn default ([`FlowWindow::ALWAYS`]).
    pub fn is_always(&self) -> bool {
        self.start == 0.0 && self.stop == f64::INFINITY
    }
}

impl Default for FlowWindow {
    fn default() -> Self {
        Self::ALWAYS
    }
}

/// Multi-interval activity schedule of one flow — churn beyond a single
/// `[start, stop)` window.
///
/// The flow sends during each window in turn (windows must be ordered
/// and non-overlapping: each window's `start` is at least the previous
/// window's `stop`). An *empty* schedule means the flow never activates
/// at all — the degenerate limit of an arrival process that produces no
/// arrivals. The default schedule is the single [`FlowWindow::ALWAYS`]
/// window and defers to the spec's single-window [`ScenarioSpec::churn`]
/// entry for that flow, so padding [`ScenarioSpec::schedules`] changes
/// nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSchedule {
    /// The activity windows, ordered and non-overlapping.
    pub windows: Vec<FlowWindow>,
}

impl FlowSchedule {
    /// A schedule from explicit windows (validated by
    /// [`ScenarioSpec::validate`], not here).
    pub fn new(windows: Vec<FlowWindow>) -> Self {
        Self { windows }
    }

    /// The schedule of a flow that never activates.
    pub fn never() -> Self {
        Self {
            windows: Vec::new(),
        }
    }

    /// Whether this is the default "defer to the single-window churn
    /// entry" schedule (exactly one [`FlowWindow::ALWAYS`] window).
    pub fn is_default(&self) -> bool {
        self.windows.len() == 1 && self.windows[0].is_always()
    }

    /// A deterministic Poisson on/off process: alternating silent and
    /// active periods with exponentially distributed lengths of mean
    /// `mean_off` and `mean_on` seconds, sampled from `seed` until the
    /// first silent period that begins at or after `horizon`. The
    /// process starts silent, so a flow may activate late — or (for
    /// short horizons) never, in which case the schedule is empty.
    /// Identical `(seed, mean_off, mean_on, horizon)` always produce the
    /// identical schedule, on every platform.
    pub fn poisson(seed: u64, mean_off: f64, mean_on: f64, horizon: f64) -> Self {
        assert!(
            mean_off > 0.0 && mean_on > 0.0 && horizon > 0.0,
            "poisson schedule needs positive means and horizon"
        );
        let mut state = seed;
        // Exponential via inversion; floored well away from zero so
        // every sampled window passes `stop > start` validation and
        // consecutive windows never collapse into an overlap.
        let mut sample = |mean: f64| -> f64 {
            let u = rng::unit_f64(rng::splitmix64(&mut state));
            (-mean * (1.0 - u).ln()).max(1e-3)
        };
        let mut windows = Vec::new();
        let mut t = sample(mean_off);
        while t < horizon {
            let stop = t + sample(mean_on);
            windows.push(FlowWindow::new(t, stop));
            t = stop + sample(mean_off);
        }
        Self { windows }
    }
}

impl Default for FlowSchedule {
    fn default() -> Self {
        Self {
            windows: vec![FlowWindow::ALWAYS],
        }
    }
}

/// Small deterministic PRNG helpers shared by [`FlowSchedule::poisson`]
/// and the scenario-universe generator ([`universe`]). Self-contained so
/// generated universes are bit-reproducible across platforms.
pub(crate) mod rng {
    /// One step of the splitmix64 sequence.
    pub fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Map a raw 64-bit draw to the unit interval `[0, 1)` using the
    /// top 53 bits (exactly representable in an `f64`).
    pub fn unit_f64(x: u64) -> f64 {
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One-way access delay of every parking-lot flow (s). Part of the
/// topology definition — both backends must simulate identical
/// propagation RTTs — so it lives here rather than per backend.
pub const PARKING_LOT_ACCESS_DELAY: f64 = 0.005;

/// One-way access delay of every chain flow (s); same rationale as
/// [`PARKING_LOT_ACCESS_DELAY`].
pub const CHAIN_ACCESS_DELAY: f64 = 0.005;

/// One-way access delays (s) of the `n` senders of a
/// [`Topology::Dumbbell`]: total propagation RTTs spread evenly over
/// `[rtt_lo, rtt_hi]` (a single sender gets the midpoint). A sender's
/// RTT is `2·(access + bottleneck_delay)`, so its access delay is
/// `rtt/2 − bottleneck_delay`, floored at zero. The paper draws RTTs
/// randomly from this range; an even deterministic spread keeps runs
/// reproducible while preserving the heterogeneity.
/// [`ScenarioSpec::layout`] expands the dumbbell through this one
/// function, and every engine builds from that layout.
pub fn dumbbell_access_delays(
    n: usize,
    bottleneck_delay: f64,
    rtt_lo: f64,
    rtt_hi: f64,
) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let frac = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.5
            };
            let rtt = rtt_lo + frac * (rtt_hi - rtt_lo);
            (rtt / 2.0 - bottleneck_delay).max(0.0)
        })
        .collect()
}

/// One link of a [`Layout`], with its buffer in both engines' units.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutLink {
    /// Capacity (Mbit/s).
    pub capacity: f64,
    /// One-way propagation delay (s), counted once per traversal.
    pub delay: f64,
    /// Buffer (Mbit), the fluid model's unit.
    pub buffer_mbit: f64,
    /// Buffer (bytes), the packet engine's unit. Not derived from
    /// `buffer_mbit`: see [`ScenarioSpec::layout`] for why.
    pub buffer_bytes: f64,
}

/// A scenario's topology as explicit links plus one route per flow
/// (flow `i` runs `routes[i]`) — what [`ScenarioSpec::layout`] expands
/// every family into, and the one input both engines lower from.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// The link table.
    pub links: Vec<LayoutLink>,
    /// One route per flow, indexing into `links`.
    pub routes: Vec<CustomRoute>,
}

/// Backend-agnostic description of one simulation: topology, flows,
/// queuing discipline, and measurement window. Built once, runnable on
/// every [`SimBackend`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The link layout (dumbbell, parking lot, or chain).
    pub topology: Topology,
    /// CCA kinds assigned round-robin across flows (the paper's
    /// heterogeneous settings use N/2 senders per CCA, which the
    /// alternating assignment reproduces for two kinds).
    pub ccas: Vec<CcaKind>,
    /// Queuing discipline at every queued link.
    pub qdisc: QdiscKind,
    /// Measurement window (s).
    pub duration: f64,
    /// Warm-up excluded from metrics (s). Packet-level CCAs have a
    /// start-up phase (slow start / BBR-Startup) the fluid model
    /// idealizes away, so the fluid backend ignores this field.
    pub warmup: f64,
    /// Per-flow activity windows (flow churn), indexed by flow. May be
    /// shorter than the flow count; flows without an entry get
    /// [`FlowWindow::ALWAYS`]. Empty (the default) means no churn, and
    /// such specs hash ([`ScenarioSpec::stable_hash`]) and simulate
    /// exactly as they did before churn existed.
    pub churn: Vec<FlowWindow>,
    /// Per-flow multi-interval schedules, indexed by flow. A non-default
    /// entry *overrides* the flow's single [`ScenarioSpec::churn`]
    /// window; default or missing entries defer to it. Empty (the
    /// default) means single-window churn semantics, and such specs hash
    /// and simulate exactly as they did before schedules existed.
    pub schedules: Vec<FlowSchedule>,
}

impl ScenarioSpec {
    /// Dumbbell with the paper's default RTT spread: total propagation
    /// RTTs evenly over 3–4× the one-way bottleneck delay (30–40 ms for
    /// a 10 ms bottleneck, the §4.3 setting).
    pub fn dumbbell(n: usize, capacity: f64, bottleneck_delay: f64, buffer_bdp: f64) -> Self {
        Self {
            topology: Topology::Dumbbell {
                n,
                capacity,
                bottleneck_delay,
                buffer_bdp,
                rtt_lo: 3.0 * bottleneck_delay,
                rtt_hi: 4.0 * bottleneck_delay,
            },
            ccas: vec![CcaKind::Reno],
            qdisc: QdiscKind::DropTail,
            duration: 5.0,
            warmup: 1.0,
            churn: Vec::new(),
            schedules: Vec::new(),
        }
    }

    /// A dumbbell whose senders have explicit one-way access delays (s),
    /// one per sender, instead of a spread RTT range — the paper's §4.2
    /// trace-validation setting. It is a one-link [`Topology::Custom`]:
    /// route `i` crosses link 0 with extra delays `access[i]` forward
    /// and `access[i] + bottleneck_delay` back, so every sender's RTT is
    /// `2·(access[i] + bottleneck_delay)` as on [`Topology::Dumbbell`].
    pub fn dumbbell_with_access(
        capacity: f64,
        bottleneck_delay: f64,
        buffer_bdp: f64,
        access: &[f64],
    ) -> Self {
        Self::custom(
            vec![CustomLink::new(capacity, bottleneck_delay, buffer_bdp)],
            access
                .iter()
                .map(|&a| CustomRoute::new(vec![0], a, a + bottleneck_delay))
                .collect(),
        )
    }

    /// Two-bottleneck parking lot (three flows; see
    /// [`Topology::ParkingLot`]).
    pub fn parking_lot(c1: f64, c2: f64, link_delay: f64, buffer_bdp: f64) -> Self {
        Self {
            topology: Topology::ParkingLot {
                c1,
                c2,
                link_delay,
                buffer_bdp,
            },
            ccas: vec![CcaKind::Reno],
            qdisc: QdiscKind::DropTail,
            duration: 5.0,
            warmup: 1.0,
            churn: Vec::new(),
            schedules: Vec::new(),
        }
    }

    /// Chain of `hops` (≥ 3) equal bottlenecks with per-hop cross
    /// traffic (see [`Topology::Chain`]).
    pub fn chain(hops: usize, capacity: f64, link_delay: f64, buffer_bdp: f64) -> Self {
        Self {
            topology: Topology::Chain {
                hops,
                capacity,
                link_delay,
                buffer_bdp,
            },
            ccas: vec![CcaKind::Reno],
            qdisc: QdiscKind::DropTail,
            duration: 5.0,
            warmup: 1.0,
            churn: Vec::new(),
            schedules: Vec::new(),
        }
    }

    /// A custom layout from an explicit link table and one route per
    /// flow (see [`Topology::Custom`]). Defaults match the built-in
    /// family builders: Reno, DropTail, 5 s measurement window after a
    /// 1 s warm-up, no churn.
    pub fn custom(links: Vec<CustomLink>, routes: Vec<CustomRoute>) -> Self {
        Self {
            topology: Topology::Custom { links, routes },
            ccas: vec![CcaKind::Reno],
            qdisc: QdiscKind::DropTail,
            duration: 5.0,
            warmup: 1.0,
            churn: Vec::new(),
            schedules: Vec::new(),
        }
    }

    /// Set the CCA assignment (cycled across flows).
    pub fn ccas(mut self, ccas: Vec<CcaKind>) -> Self {
        assert!(!ccas.is_empty(), "need at least one CCA kind");
        self.ccas = ccas;
        self
    }

    /// Set the queuing discipline of every queued link.
    pub fn qdisc(mut self, qdisc: QdiscKind) -> Self {
        self.qdisc = qdisc;
        self
    }

    /// Spread total propagation RTTs evenly over `[lo, hi]`. No effect on
    /// the parking lot, whose delays are fixed by the topology.
    pub fn rtt_range(mut self, lo: f64, hi: f64) -> Self {
        if let Topology::Dumbbell { rtt_lo, rtt_hi, .. } = &mut self.topology {
            *rtt_lo = lo;
            *rtt_hi = hi;
        }
        self
    }

    /// Measurement window (s).
    pub fn duration(mut self, seconds: f64) -> Self {
        self.duration = seconds;
        self
    }

    /// Warm-up excluded from metrics (s).
    pub fn warmup(mut self, seconds: f64) -> Self {
        self.warmup = seconds;
        self
    }

    /// Set all per-flow activity windows at once (see [`FlowWindow`]).
    /// The vector may be shorter than the flow count; missing flows get
    /// [`FlowWindow::ALWAYS`].
    pub fn churn(mut self, windows: Vec<FlowWindow>) -> Self {
        self.churn = windows;
        self
    }

    /// Restrict flow `flow` to the activity window `[start, stop)`
    /// (seconds into the measurement window; `f64::INFINITY` for a flow
    /// that never stops). Other flows keep their current windows.
    pub fn flow_window(mut self, flow: usize, start: f64, stop: f64) -> Self {
        if self.churn.len() <= flow {
            self.churn.resize(flow + 1, FlowWindow::ALWAYS);
        }
        self.churn[flow] = FlowWindow::new(start, stop);
        self
    }

    /// The activity window of flow `i` ([`FlowWindow::ALWAYS`] when the
    /// spec assigns none).
    pub fn window_of(&self, i: usize) -> FlowWindow {
        self.churn.get(i).copied().unwrap_or(FlowWindow::ALWAYS)
    }

    /// Whether any flow has a non-default activity window. Churn-free
    /// specs take the exact pre-churn code paths in every backend (and
    /// keep their pre-churn [`ScenarioSpec::stable_hash`]).
    pub fn has_churn(&self) -> bool {
        self.churn.iter().any(|w| !w.is_always())
    }

    /// Set all per-flow multi-interval schedules at once (see
    /// [`FlowSchedule`]). The vector may be shorter than the flow count;
    /// missing or default entries defer to the flow's single-window
    /// [`ScenarioSpec::churn`] entry.
    pub fn schedules(mut self, schedules: Vec<FlowSchedule>) -> Self {
        self.schedules = schedules;
        self
    }

    /// Give flow `flow` a multi-interval schedule, padding other flows
    /// with the default (defer-to-churn) schedule.
    pub fn flow_schedule(mut self, flow: usize, schedule: FlowSchedule) -> Self {
        if self.schedules.len() <= flow {
            self.schedules.resize(flow + 1, FlowSchedule::default());
        }
        self.schedules[flow] = schedule;
        self
    }

    /// Whether any flow has a non-default multi-interval schedule.
    /// Schedule-free specs take the exact single-window code paths in
    /// every backend (and keep their pre-schedule
    /// [`ScenarioSpec::stable_hash`]).
    pub fn has_schedule(&self) -> bool {
        self.schedules.iter().any(|s| !s.is_default())
    }

    /// The full activity schedule of flow `i` as a window list: the
    /// flow's [`FlowSchedule`] when it has a non-default one, otherwise
    /// its single [`ScenarioSpec::window_of`] window. An empty list
    /// means the flow never activates. This is the one accessor every
    /// backend lowers churn from, so single-window and multi-interval
    /// specs cannot drift apart.
    pub fn windows_of(&self, i: usize) -> Vec<FlowWindow> {
        match self.schedules.get(i) {
            Some(s) if !s.is_default() => s.windows.clone(),
            _ => vec![self.window_of(i)],
        }
    }

    /// Number of flows.
    pub fn n_flows(&self) -> usize {
        self.topology.n_flows()
    }

    /// The CCA of flow `i` under the round-robin assignment.
    pub fn cca_of(&self, i: usize) -> CcaKind {
        self.ccas[i % self.ccas.len()]
    }

    /// The topology as explicit links and routes: the one place that
    /// writes each family's links, buffers and delay split, so the fluid
    /// and packet engines, which both build from it, cannot drift apart.
    ///
    /// * Dumbbell: one link; route `i` enters over access delay `a[i]`
    ///   ([`dumbbell_access_delays`]) and returns over
    ///   `a[i] + bottleneck_delay`.
    /// * Parking lot: two links, both buffered on the first link's BDP;
    ///   flow 0 crosses both, flow 1 the first and flow 2 the second,
    ///   with delays split so every flow's RTT is `2·access + 2·d`.
    /// * Chain: `hops` equal links; flow 0 crosses all of them and flow
    ///   `j + 1` hop `j` alone, entering behind `j` hops' delay and
    ///   returning over the rest, so every RTT is `2·access + hops·d`.
    /// * Custom: each link sized on its own BDP, routes verbatim.
    ///
    /// The packet engine's byte buffer keeps each family's own rounding:
    /// `buffer_bdp * capacity * 1e6 / 8.0 * delay` for the dumbbell and
    /// the parking lot, `buffer_bdp * (capacity * 1e6 / 8.0) * delay`
    /// for chains and Custom links. The two differ in the last bit for
    /// some inputs (3000.0000000000005 against 3000.0 bytes at 24 Mbit/s,
    /// 10 ms and 0.1 BDP), and neither equals `buffer_mbit · 125000`
    /// bit for bit in general, so each link carries both values; moving
    /// a family to the other rounding would change stored packet
    /// records. The Mbit buffer is `buffer_bdp · capacity · delay` in
    /// every family.
    pub fn layout(&self) -> Layout {
        // Dumbbell and parking-lot links: buffered on the BDP of a link of
        // `c_bdp` Mbit/s (the parking lot's first link for both of its
        // links), in their byte rounding.
        let bottleneck_sized =
            |capacity: f64, delay: f64, buffer_bdp: f64, c_bdp: f64| LayoutLink {
                capacity,
                delay,
                buffer_mbit: buffer_bdp * c_bdp * delay,
                buffer_bytes: buffer_bdp * c_bdp * 1e6 / 8.0 * delay,
            };
        // Chain and Custom links: buffered on their own BDP.
        let self_sized = |capacity: f64, delay: f64, buffer_bdp: f64| LayoutLink {
            capacity,
            delay,
            buffer_mbit: buffer_bdp * capacity * delay,
            buffer_bytes: buffer_bdp * (capacity * 1e6 / 8.0) * delay,
        };
        match &self.topology {
            &Topology::Dumbbell {
                n,
                capacity,
                bottleneck_delay,
                buffer_bdp,
                rtt_lo,
                rtt_hi,
            } => Layout {
                links: vec![bottleneck_sized(
                    capacity,
                    bottleneck_delay,
                    buffer_bdp,
                    capacity,
                )],
                routes: dumbbell_access_delays(n, bottleneck_delay, rtt_lo, rtt_hi)
                    .into_iter()
                    .map(|a| CustomRoute::new(vec![0], a, a + bottleneck_delay))
                    .collect(),
            },
            &Topology::ParkingLot {
                c1,
                c2,
                link_delay: d,
                buffer_bdp,
            } => {
                let access = PARKING_LOT_ACCESS_DELAY;
                Layout {
                    links: vec![
                        bottleneck_sized(c1, d, buffer_bdp, c1),
                        bottleneck_sized(c2, d, buffer_bdp, c1),
                    ],
                    routes: vec![
                        CustomRoute::new(vec![0, 1], access, access),
                        CustomRoute::new(vec![0], access, access + d),
                        CustomRoute::new(vec![1], access + d, access),
                    ],
                }
            }
            &Topology::Chain {
                hops,
                capacity,
                link_delay: d,
                buffer_bdp,
            } => {
                let access = CHAIN_ACCESS_DELAY;
                let cross = (0..hops).map(|j| {
                    let (up, down) = (j as f64 * d, (hops - 1 - j) as f64 * d);
                    CustomRoute::new(vec![j], access + up, access + down)
                });
                Layout {
                    links: vec![self_sized(capacity, d, buffer_bdp); hops],
                    routes: std::iter::once(CustomRoute::new((0..hops).collect(), access, access))
                        .chain(cross)
                        .collect(),
                }
            }
            Topology::Custom { links, routes } => Layout {
                links: links
                    .iter()
                    .map(|l| self_sized(l.capacity, l.delay, l.buffer_bdp))
                    .collect(),
                routes: routes.clone(),
            },
        }
    }

    /// Reject specs no backend can run. Every length, rate and buffer
    /// must be finite: `x <= 0.0` alone waves NaN and +∞ through, and the
    /// engines then panic or never reach the end of an infinite run.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if self.ccas.is_empty() {
            return Err("no CCA kinds given".into());
        }
        if !positive(self.duration) {
            return Err("non-positive duration".into());
        }
        if !(self.warmup.is_finite() && self.warmup >= 0.0) {
            return Err("negative warmup".into());
        }
        if self.churn.len() > self.n_flows() {
            return Err(format!(
                "{} churn windows given for {} flows",
                self.churn.len(),
                self.n_flows()
            ));
        }
        for (i, w) in self.churn.iter().enumerate() {
            // NaN starts fail the finiteness check; NaN stops fail the
            // ordering check — undefined windows never pass validation.
            if !(w.start.is_finite() && w.start >= 0.0) {
                return Err(format!(
                    "flow {i}: start_time {} must be finite and non-negative",
                    w.start
                ));
            }
            let ordered = w.stop > w.start;
            if !ordered {
                return Err(format!(
                    "flow {i}: stop_time {} must be greater than start_time {}",
                    w.stop, w.start
                ));
            }
        }
        if self.schedules.len() > self.n_flows() {
            return Err(format!(
                "{} flow schedules given for {} flows",
                self.schedules.len(),
                self.n_flows()
            ));
        }
        for (i, s) in self.schedules.iter().enumerate() {
            let mut prev_stop = 0.0_f64;
            for (k, w) in s.windows.iter().enumerate() {
                if !(w.start.is_finite() && w.start >= 0.0) {
                    return Err(format!(
                        "flow {i} schedule window {k}: start_time {} must be finite and \
                         non-negative",
                        w.start
                    ));
                }
                // `partial_cmp` rather than `>` so a NaN stop is
                // rejected here too, not waved through by a false `>`.
                if w.stop.partial_cmp(&w.start) != Some(std::cmp::Ordering::Greater) {
                    return Err(format!(
                        "flow {i} schedule window {k}: stop_time {} must be greater than \
                         start_time {}",
                        w.stop, w.start
                    ));
                }
                if w.start < prev_stop {
                    return Err(format!(
                        "flow {i} schedule window {k}: starts at {} before the previous \
                         window stops at {prev_stop} (windows must be ordered and \
                         non-overlapping)",
                        w.start
                    ));
                }
                prev_stop = w.stop;
            }
        }
        match &self.topology {
            &Topology::Dumbbell {
                n,
                capacity,
                bottleneck_delay,
                buffer_bdp,
                rtt_lo,
                rtt_hi,
            } => {
                if n == 0 {
                    return Err("dumbbell needs at least one sender".into());
                }
                if !(positive(capacity) && positive(bottleneck_delay) && positive(buffer_bdp)) {
                    return Err("dumbbell parameters must be positive".into());
                }
                if !(positive(rtt_lo) && positive(rtt_hi) && rtt_hi >= rtt_lo) {
                    return Err("dumbbell RTT range must satisfy 0 < lo <= hi".into());
                }
            }
            &Topology::ParkingLot {
                c1,
                c2,
                link_delay,
                buffer_bdp,
            } => {
                if ![c1, c2, link_delay, buffer_bdp].into_iter().all(positive) {
                    return Err("parking-lot parameters must be positive".into());
                }
            }
            &Topology::Chain {
                hops,
                capacity,
                link_delay,
                buffer_bdp,
            } => {
                if hops < 3 {
                    return Err(format!(
                        "chain needs at least 3 hops (got {hops}); use a parking lot for \
                         shorter multi-bottleneck paths"
                    ));
                }
                if !(positive(capacity) && positive(link_delay) && positive(buffer_bdp)) {
                    return Err("chain parameters must be positive".into());
                }
            }
            Topology::Custom { links, routes } => {
                if links.is_empty() {
                    return Err("custom topology needs at least one link".into());
                }
                if routes.is_empty() {
                    return Err("custom topology needs at least one route".into());
                }
                for (i, l) in links.iter().enumerate() {
                    if !(positive(l.capacity) && positive(l.delay) && positive(l.buffer_bdp)) {
                        return Err(format!(
                            "custom link {i}: capacity, delay, and buffer_bdp must be \
                             positive and finite"
                        ));
                    }
                }
                let mut used = vec![false; links.len()];
                for (i, r) in routes.iter().enumerate() {
                    if r.links.is_empty() {
                        return Err(format!("custom route {i} crosses no links"));
                    }
                    let mut seen = vec![false; links.len()];
                    for &id in &r.links {
                        if id >= links.len() {
                            return Err(format!(
                                "custom route {i} references link {id}, but the topology \
                                 has only {} links",
                                links.len()
                            ));
                        }
                        if seen[id] {
                            return Err(format!(
                                "custom route {i} crosses link {id} more than once"
                            ));
                        }
                        seen[id] = true;
                        used[id] = true;
                    }
                    let extra_ok = |v: f64| v.is_finite() && v >= 0.0;
                    if !(extra_ok(r.extra_fwd_delay) && extra_ok(r.extra_bwd_delay)) {
                        return Err(format!(
                            "custom route {i}: extra delays must be finite and non-negative"
                        ));
                    }
                }
                if let Some(id) = used.iter().position(|u| !u) {
                    return Err(format!(
                        "custom link {id} is not crossed by any route; drop it or route \
                         a flow over it"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Short human-readable cell label — topology family with its
    /// headline parameters, the qdisc, and the CCA mix. Used as the
    /// header line of flight-recorder traces and in walkthrough output;
    /// purely descriptive (never parsed back, never hashed).
    pub fn describe(&self) -> String {
        let topo = match &self.topology {
            Topology::Dumbbell {
                n,
                capacity,
                buffer_bdp,
                ..
            } => format!("dumbbell n={n} C={capacity}Mbps buf={buffer_bdp}BDP"),
            Topology::ParkingLot {
                c1, c2, buffer_bdp, ..
            } => format!("parklot C={c1}/{c2}Mbps buf={buffer_bdp}BDP"),
            Topology::Chain {
                hops,
                capacity,
                buffer_bdp,
                ..
            } => format!("chain hops={hops} C={capacity}Mbps buf={buffer_bdp}BDP"),
            Topology::Custom { links, routes } => {
                format!("custom links={} flows={}", links.len(), routes.len())
            }
        };
        let ccas: Vec<&str> = self.ccas.iter().map(|c| c.name()).collect();
        format!("{topo} {} {}", self.qdisc.name(), ccas.join("+"))
    }

    /// Deterministic hash of the spec's *contents* (not of any grid
    /// position). Sweep engines derive per-cell seeds from this, so that
    /// inserting a grid axis does not silently reshuffle the seeds of
    /// unchanged cells.
    pub fn stable_hash(&self) -> u64 {
        let mut h = Fnv::new();
        match &self.topology {
            &Topology::Dumbbell {
                n,
                capacity,
                bottleneck_delay,
                buffer_bdp,
                rtt_lo,
                rtt_hi,
            } => {
                h.word(0x01);
                h.word(n as u64);
                h.f64(capacity);
                h.f64(bottleneck_delay);
                h.f64(buffer_bdp);
                h.f64(rtt_lo);
                h.f64(rtt_hi);
            }
            &Topology::ParkingLot {
                c1,
                c2,
                link_delay,
                buffer_bdp,
            } => {
                h.word(0x02);
                h.f64(c1);
                h.f64(c2);
                h.f64(link_delay);
                h.f64(buffer_bdp);
            }
            &Topology::Chain {
                hops,
                capacity,
                link_delay,
                buffer_bdp,
            } => {
                h.word(0x03);
                h.word(hops as u64);
                h.f64(capacity);
                h.f64(link_delay);
                h.f64(buffer_bdp);
            }
            // New family word: specs of the built-in families (everything
            // that existed before Custom) hash exactly as they always
            // did, so recorded seeds and store keys stay valid.
            Topology::Custom { links, routes } => {
                h.word(0x04);
                h.word(links.len() as u64);
                for l in links {
                    h.f64(l.capacity);
                    h.f64(l.delay);
                    h.f64(l.buffer_bdp);
                }
                h.word(routes.len() as u64);
                for r in routes {
                    h.word(r.links.len() as u64);
                    for &id in &r.links {
                        h.word(id as u64);
                    }
                    h.f64(r.extra_fwd_delay);
                    h.f64(r.extra_bwd_delay);
                }
            }
        }
        for cca in &self.ccas {
            h.word(match cca {
                CcaKind::Reno => 0x10,
                CcaKind::Cubic => 0x11,
                CcaKind::BbrV1 => 0x12,
                CcaKind::BbrV2 => 0x13,
                // New tier word: specs without BbrV2Deploy (everything
                // that existed before it) hash exactly as they always
                // did, so recorded seeds and store keys stay valid.
                CcaKind::BbrV2Deploy => 0x14,
            });
        }
        h.word(match self.qdisc {
            QdiscKind::DropTail => 0x20,
            QdiscKind::Red => 0x21,
        });
        h.f64(self.duration);
        h.f64(self.warmup);
        // Churn-free specs (the overwhelmingly common case, and every
        // spec that existed before churn) hash exactly as they always
        // did, so persisted store keys and pinned seeds stay valid. The
        // windows are hashed in canonical per-flow form, so a padded
        // all-default suffix does not move the hash either.
        if self.has_churn() {
            h.word(0x30);
            for i in 0..self.n_flows() {
                let w = self.window_of(i);
                h.f64(w.start);
                h.f64(w.stop);
            }
        }
        // Same additivity rule for multi-interval schedules: the 0x31
        // block exists only when some flow has a non-default schedule,
        // so churn-free and single-window specs keep their pre-schedule
        // hashes byte for byte. Windows are hashed in canonical per-flow
        // form (via `windows_of`), so padding with default schedules
        // does not move the hash.
        if self.has_schedule() {
            h.word(0x31);
            for i in 0..self.n_flows() {
                let windows = self.windows_of(i);
                h.word(windows.len() as u64);
                for w in &windows {
                    h.f64(w.start);
                    h.f64(w.stop);
                }
            }
        }
        h.finish()
    }
}

/// FNV-1a over little-endian 8-byte words; stable across platforms and
/// releases (unlike `std::hash`, which is explicitly unstable).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-flow results both backends can populate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowMetrics {
    /// The congestion-control algorithm the flow ran.
    pub cca: CcaKind,
    /// Mean goodput over the measurement window (Mbit/s).
    pub throughput_mbps: f64,
}

/// Aggregate results of one simulation — the §4.3 metric set, populated
/// identically by every backend so comparison code stays generic.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Name of the backend that produced this outcome (e.g. `"fluid"`,
    /// `"packet"`).
    pub backend: &'static str,
    /// Per-flow results, in flow order.
    pub flows: Vec<FlowMetrics>,
    /// Jain fairness index over the per-flow throughputs.
    pub jain: f64,
    /// Lost traffic as a percentage of traffic arriving at queued links
    /// (aggregated over all links).
    pub loss_percent: f64,
    /// Time-averaged queue at the observed (minimum-capacity) link, as a
    /// percentage of its buffer.
    pub occupancy_percent: f64,
    /// Delivered volume at the observed link as a percentage of capacity.
    pub utilization_percent: f64,
    /// Mean delay variation between consecutive (virtual) packets (ms).
    pub jitter_ms: f64,
    /// Per-link time-averaged occupancy percentage.
    pub per_link_occupancy: Vec<f64>,
    /// Per-link utilization percentage.
    pub per_link_utilization: Vec<f64>,
}

impl RunOutcome {
    /// The per-flow throughputs (Mbit/s).
    pub fn throughputs(&self) -> Vec<f64> {
        self.flows.iter().map(|f| f.throughput_mbps).collect()
    }

    /// Element-wise mean of several outcomes of the *same* spec (packet
    /// backends average a few seeds, §4.3). Returns `None` for an empty
    /// slice — there is no meaningful zero-run outcome, and silently
    /// producing NaN-filled metrics would poison downstream aggregation.
    /// Still panics on mismatched flow counts, which indicates outcomes
    /// of *different* specs being mixed (a caller bug, not a data state).
    pub fn average(outcomes: &[RunOutcome]) -> Option<RunOutcome> {
        if outcomes.is_empty() {
            return None;
        }
        let k = outcomes.len() as f64;
        let mut out = outcomes[0].clone();
        for o in &outcomes[1..] {
            assert_eq!(o.flows.len(), out.flows.len(), "mismatched flow counts");
            out.jain += o.jain;
            out.loss_percent += o.loss_percent;
            out.occupancy_percent += o.occupancy_percent;
            out.utilization_percent += o.utilization_percent;
            out.jitter_ms += o.jitter_ms;
            for (a, b) in out.flows.iter_mut().zip(&o.flows) {
                a.throughput_mbps += b.throughput_mbps;
            }
            for (a, b) in out.per_link_occupancy.iter_mut().zip(&o.per_link_occupancy) {
                *a += b;
            }
            for (a, b) in out
                .per_link_utilization
                .iter_mut()
                .zip(&o.per_link_utilization)
            {
                *a += b;
            }
        }
        out.jain /= k;
        out.loss_percent /= k;
        out.occupancy_percent /= k;
        out.utilization_percent /= k;
        out.jitter_ms /= k;
        for f in &mut out.flows {
            f.throughput_mbps /= k;
        }
        for v in &mut out.per_link_occupancy {
            *v /= k;
        }
        for v in &mut out.per_link_utilization {
            *v /= k;
        }
        Some(out)
    }
}

/// The seed of repetition `run_index` of a cell whose base seed is
/// `seed` — the shared convention between [`SimBackend`]s that average
/// several runs internally (e.g. `PacketBackend`) and result stores that
/// persist each repetition under its own `(seed, run_index)` key. Both
/// sides using this one function is what makes a store-assembled average
/// byte-identical to an in-process multi-run evaluation.
pub fn run_seed(seed: u64, run_index: u32) -> u64 {
    seed.wrapping_add(run_index as u64 * 104_729)
}

/// Jain's fairness index over a set of allocations (1 = perfectly fair).
///
/// Degenerate inputs — empty, or allocations whose squares all underflow
/// to zero — are conventionally treated as fair (1.0). The guard is an
/// exact zero test, not an epsilon: nearly-starved flows (throughputs of
/// ~1e-8 and below) must report their true, unfair index rather than be
/// rounded up to "perfectly fair" by an absolute threshold.
pub fn jain_index(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        1.0
    } else {
        sum * sum / (n as f64 * sq)
    }
}

/// Why a backend could not produce a [`RunOutcome`] for a spec — the
/// defined, non-panicking counterpart of the [`SimBackend::run`]
/// contract (see [`SimBackend::try_run`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The backend does not implement this scenario family. Callers
    /// that consulted [`SimBackend::supports`] first never see this.
    Unsupported {
        /// Name of the backend that rejected the spec — kept in the
        /// error itself (not only in the `Display` rendering) so grids
        /// mixing backends can report *which* engine refused a cell.
        backend: &'static str,
        /// What was unsupported, naming the offending topology kind.
        reason: String,
    },
    /// The spec itself is malformed ([`ScenarioSpec::validate`] failed).
    InvalidSpec(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Unsupported { backend, reason } => {
                write!(
                    f,
                    "backend `{backend}` does not support this spec: {reason}"
                )
            }
            RunError::InvalidSpec(e) => write!(f, "invalid scenario spec: {e}"),
        }
    }
}

/// A simulator that can evaluate any [`ScenarioSpec`].
///
/// Implementations: `FluidBackend` (`bbr-fluid-core`) integrates the
/// paper's §2/§3 fluid model; `PacketBackend` (`bbr-packetsim`) runs the
/// packet-level discrete-event simulator; `BatchedFluidBackend`
/// (`bbr-fluidbatch`) integrates whole batches of fluid scenarios in
/// lockstep. Sweep engines hold `Vec<Box<dyn SimBackend>>` and fire
/// every grid cell through each backend — adding a simulator is a
/// single-site change.
pub trait SimBackend: Send + Sync {
    /// Short stable identifier (`"fluid"`, `"packet"`), used as a column
    /// key in reports and as the backend component of result-store keys.
    /// Backends that are pure execution strategies over the same model
    /// (and byte-identical to it) share the model's name, so their
    /// results are interchangeable in stores.
    fn name(&self) -> &'static str;

    /// Whether this backend can evaluate the spec. Sweep engines skip
    /// unsupported (backend, cell) pairs instead of failing mid-grid.
    /// The built-in backends support every topology family since the
    /// packet engine learned general multi-link paths; the hook remains
    /// for partial third-party backends. Defaults to supporting
    /// everything.
    fn supports(&self, spec: &ScenarioSpec) -> bool {
        let _ = spec;
        true
    }

    /// Evaluate the spec. `seed` drives any randomized choices; fully
    /// deterministic backends may ignore it.
    ///
    /// # Contract
    ///
    /// Callers must hand `run` only specs the backend [`supports`] and
    /// that pass [`ScenarioSpec::validate`]; anything else is a caller
    /// bug and may panic. [`SimBackend::try_run`] is the checked
    /// entry point that turns both violations into a [`RunError`]
    /// instead.
    ///
    /// [`supports`]: SimBackend::supports
    fn run(&self, spec: &ScenarioSpec, seed: u64) -> RunOutcome;

    /// Checked evaluation: validates the spec and consults
    /// [`SimBackend::supports`] before running, so unsupported or
    /// malformed specs become a defined error value rather than a panic
    /// from inside the engine.
    fn try_run(&self, spec: &ScenarioSpec, seed: u64) -> Result<RunOutcome, RunError> {
        spec.validate().map_err(RunError::InvalidSpec)?;
        if !self.supports(spec) {
            return Err(RunError::Unsupported {
                backend: self.name(),
                reason: format!(
                    "topology {} is outside backend `{}`'s supported scenario families",
                    spec.topology.kind_name(),
                    self.name()
                ),
            });
        }
        Ok(self.run(spec, seed))
    }

    /// The batch-capable view of this backend, if it has one. Sweep
    /// engines use this to hand a batch backend *all* of a grid's cells
    /// in one [`BatchSimBackend::run_batch`] call instead of looping;
    /// plain backends keep the default `None`.
    fn as_batch(&self) -> Option<&dyn BatchSimBackend> {
        None
    }
}

/// A simulator that can evaluate many `(spec, seed)` jobs in one call —
/// e.g. by packing them into a structure-of-arrays state and advancing
/// every scenario in lockstep (`bbr-fluidbatch`).
///
/// `run_batch` must be *observationally identical* to calling
/// [`SimBackend::run`] per job: outcome `i` is exactly what
/// `self.run(jobs[i].0, jobs[i].1)` would return, bit for bit. Batching
/// is an execution strategy, never a different model.
pub trait BatchSimBackend: SimBackend {
    /// Evaluate every job and return one outcome per job, in order. The
    /// default implementation is the scalar loop; batch integrators
    /// override it.
    fn run_batch(&self, jobs: &[(&ScenarioSpec, u64)]) -> Vec<RunOutcome> {
        jobs.iter()
            .map(|(spec, seed)| self.run(spec, *seed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_have_names_and_sensitivity() {
        assert_eq!(CcaKind::Reno.name(), "RENO");
        assert!(CcaKind::Reno.loss_sensitive());
        assert!(CcaKind::Cubic.loss_sensitive());
        assert!(CcaKind::BbrV2.loss_sensitive());
        assert!(CcaKind::BbrV2Deploy.loss_sensitive());
        assert_eq!(CcaKind::BbrV2Deploy.name(), "BBRv2D");
        assert!(!CcaKind::BbrV1.loss_sensitive());
        assert_eq!(CcaKind::ALL.len(), 5);
    }

    #[test]
    fn dumbbell_defaults_match_paper() {
        let s = ScenarioSpec::dumbbell(10, 100.0, 0.010, 1.0);
        match s.topology {
            Topology::Dumbbell { rtt_lo, rtt_hi, .. } => {
                assert!((rtt_lo - 0.030).abs() < 1e-12);
                assert!((rtt_hi - 0.040).abs() < 1e-12);
            }
            _ => panic!("expected dumbbell"),
        }
        assert_eq!(s.n_flows(), 10);
        s.validate().unwrap();
    }

    #[test]
    fn parking_lot_is_three_flows() {
        let s = ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 3.0)
            .ccas(vec![CcaKind::BbrV2])
            .duration(2.0);
        assert_eq!(s.n_flows(), 3);
        assert_eq!(s.cca_of(2), CcaKind::BbrV2);
        s.validate().unwrap();
    }

    #[test]
    fn round_robin_cca_assignment() {
        let s =
            ScenarioSpec::dumbbell(4, 100.0, 0.010, 1.0).ccas(vec![CcaKind::BbrV1, CcaKind::Reno]);
        assert_eq!(s.cca_of(0), CcaKind::BbrV1);
        assert_eq!(s.cca_of(1), CcaKind::Reno);
        assert_eq!(s.cca_of(2), CcaKind::BbrV1);
        assert_eq!(s.cca_of(3), CcaKind::Reno);
    }

    /// Total propagation RTT of a dumbbell sender with access delay `a`.
    fn dumbbell_rtt(a: f64, bottleneck_delay: f64) -> f64 {
        2.0 * (a + bottleneck_delay)
    }

    #[test]
    fn rtt_range_spreads_evenly() {
        let access = dumbbell_access_delays(10, 0.010, 0.030, 0.040);
        assert_eq!(access.len(), 10);
        assert!((dumbbell_rtt(access[0], 0.010) - 0.030).abs() < 1e-9);
        assert!((dumbbell_rtt(access[9], 0.010) - 0.040).abs() < 1e-9);
        // Monotone spread.
        for i in 1..10 {
            assert!(access[i] > access[i - 1]);
        }
    }

    #[test]
    fn single_sender_uses_midpoint_rtt() {
        let access = dumbbell_access_delays(1, 0.010, 0.030, 0.040);
        assert!((dumbbell_rtt(access[0], 0.010) - 0.035).abs() < 1e-9);
    }

    #[test]
    fn explicit_access_dumbbell_is_a_one_link_custom_layout() {
        let s = ScenarioSpec::dumbbell_with_access(100.0, 0.010, 1.0, &[0.0056, 0.002]);
        s.validate().unwrap();
        assert_eq!(s.n_flows(), 2);
        let Topology::Custom { links, routes } = &s.topology else {
            panic!("expected a custom layout");
        };
        assert_eq!(links, &[CustomLink::new(100.0, 0.010, 1.0)]);
        assert_eq!(routes[0], CustomRoute::new(vec![0], 0.0056, 0.0056 + 0.010));
        assert_eq!(routes[1], CustomRoute::new(vec![0], 0.002, 0.002 + 0.010));
    }

    #[test]
    fn validate_rejects_nonsense() {
        assert!(ScenarioSpec::dumbbell(0, 100.0, 0.010, 1.0)
            .validate()
            .is_err());
        assert!(ScenarioSpec::dumbbell(2, -1.0, 0.010, 1.0)
            .validate()
            .is_err());
        assert!(ScenarioSpec::dumbbell(2, 100.0, 0.010, 1.0)
            .duration(0.0)
            .validate()
            .is_err());
        assert!(ScenarioSpec::parking_lot(100.0, 0.0, 0.010, 1.0)
            .validate()
            .is_err());
        assert!(ScenarioSpec::dumbbell(2, 100.0, 0.010, 1.0)
            .rtt_range(0.040, 0.030)
            .validate()
            .is_err());
        // NaN compares false with every bound and +∞ is positive, so a
        // bare `x <= 0.0` test lets both through.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let base = ScenarioSpec::dumbbell(2, 100.0, 0.010, 1.0);
            for spec in [
                base.clone().duration(bad),
                base.clone().warmup(bad),
                ScenarioSpec::dumbbell(2, bad, 0.010, 1.0),
                ScenarioSpec::dumbbell(2, 100.0, bad, 1.0).rtt_range(0.030, 0.040),
                ScenarioSpec::dumbbell(2, 100.0, 0.010, bad),
                base.clone().rtt_range(bad, 0.040),
                base.clone().rtt_range(0.030, bad),
                ScenarioSpec::parking_lot(bad, 80.0, 0.010, 1.0),
                ScenarioSpec::parking_lot(100.0, bad, 0.010, 1.0),
                ScenarioSpec::parking_lot(100.0, 80.0, bad, 1.0),
                ScenarioSpec::parking_lot(100.0, 80.0, 0.010, bad),
                ScenarioSpec::chain(3, bad, 0.010, 1.0),
                ScenarioSpec::chain(3, 100.0, bad, 1.0),
                ScenarioSpec::chain(3, 100.0, 0.010, bad),
            ] {
                assert!(spec.validate().is_err(), "{bad} accepted: {spec:?}");
            }
        }
    }

    #[test]
    fn stable_hash_depends_on_contents_only() {
        let a = ScenarioSpec::dumbbell(4, 100.0, 0.010, 2.0).ccas(vec![CcaKind::BbrV1]);
        let b = ScenarioSpec::dumbbell(4, 100.0, 0.010, 2.0).ccas(vec![CcaKind::BbrV1]);
        assert_eq!(a.stable_hash(), b.stable_hash());
        // Every field change must move the hash.
        assert_ne!(
            a.stable_hash(),
            a.clone().qdisc(QdiscKind::Red).stable_hash()
        );
        assert_ne!(a.stable_hash(), a.clone().duration(2.0).stable_hash());
        assert_ne!(
            a.stable_hash(),
            a.clone().ccas(vec![CcaKind::BbrV2]).stable_hash()
        );
        // The deploy tier is a distinct hash word (0x14), so deploy
        // cells never collide with classic-BBRv2 cells in stores.
        assert_ne!(
            a.clone().ccas(vec![CcaKind::BbrV2]).stable_hash(),
            a.clone().ccas(vec![CcaKind::BbrV2Deploy]).stable_hash()
        );
        assert_ne!(
            a.stable_hash(),
            ScenarioSpec::dumbbell(5, 100.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV1])
                .stable_hash()
        );
        assert_ne!(
            a.stable_hash(),
            ScenarioSpec::parking_lot(100.0, 80.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV1])
                .stable_hash()
        );
    }

    #[test]
    fn jain_index_bounds() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[30.0, 60.0]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn outcome_averaging() {
        let mk = |tput: f64, util: f64| RunOutcome {
            backend: "test",
            flows: vec![FlowMetrics {
                cca: CcaKind::Reno,
                throughput_mbps: tput,
            }],
            jain: 1.0,
            loss_percent: 2.0,
            occupancy_percent: 50.0,
            utilization_percent: util,
            jitter_ms: 0.5,
            per_link_occupancy: vec![50.0],
            per_link_utilization: vec![util],
        };
        let avg = RunOutcome::average(&[mk(10.0, 80.0), mk(20.0, 100.0)]).unwrap();
        assert!((avg.flows[0].throughput_mbps - 15.0).abs() < 1e-12);
        assert!((avg.utilization_percent - 90.0).abs() < 1e-12);
        assert!((avg.per_link_utilization[0] - 90.0).abs() < 1e-12);
        assert!((avg.loss_percent - 2.0).abs() < 1e-12);
        // Averaging a single outcome is exact (division by 1.0 changes no
        // bits) — result stores rely on this when reassembling cells.
        assert_eq!(
            RunOutcome::average(&[mk(10.0, 80.0)]).unwrap(),
            mk(10.0, 80.0)
        );
    }

    #[test]
    fn average_of_nothing_is_none() {
        assert!(RunOutcome::average(&[]).is_none());
    }

    #[test]
    fn jain_index_degenerate_cases() {
        // Empty and all-zero allocations are defined as perfectly fair
        // rather than NaN (0/0).
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0, 0.0]), 1.0);
        // A single non-zero allocation is trivially fair.
        assert!((jain_index(&[7.5]) - 1.0).abs() < 1e-12);
        // One active flow among n starved ones scores 1/n.
        assert!((jain_index(&[10.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Tiny but non-zero values compute their true index — the zero
        // guard is exact, not an absolute epsilon, so nearly-starved
        // flows are not misreported as perfectly fair.
        assert!((jain_index(&[1e-150, 2e-150]) - 0.9).abs() < 1e-12);
        assert!((jain_index(&[1e-8, 2e-8]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn chain_spec_shape_and_validation() {
        let s = ScenarioSpec::chain(3, 100.0, 0.010, 2.0).ccas(vec![CcaKind::BbrV2]);
        assert_eq!(s.n_flows(), 4); // end-to-end + one cross flow per hop
        s.validate().unwrap();
        assert!(ScenarioSpec::chain(2, 100.0, 0.010, 2.0)
            .validate()
            .is_err());
        assert!(ScenarioSpec::chain(3, 0.0, 0.010, 2.0).validate().is_err());
        assert!(ScenarioSpec::chain(3, 100.0, 0.010, -1.0)
            .validate()
            .is_err());
        // Distinct from every other topology at equal parameters.
        assert_ne!(
            s.stable_hash(),
            ScenarioSpec::parking_lot(100.0, 100.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV2])
                .stable_hash()
        );
        assert_ne!(
            s.stable_hash(),
            ScenarioSpec::chain(4, 100.0, 0.010, 2.0)
                .ccas(vec![CcaKind::BbrV2])
                .stable_hash()
        );
    }

    #[test]
    fn flow_windows_default_always_and_pad() {
        let w = FlowWindow::default();
        assert!(w.is_always());
        assert!(!FlowWindow::starting_at(0.5).is_always());
        assert!(!FlowWindow::stopping_at(2.0).is_always());
        let s = ScenarioSpec::dumbbell(4, 50.0, 0.010, 1.0).flow_window(2, 1.0, 3.0);
        // Flows 0..2 were padded with ALWAYS; flow 3 has no entry.
        assert!(s.window_of(0).is_always());
        assert!(s.window_of(1).is_always());
        assert_eq!(s.window_of(2), FlowWindow::new(1.0, 3.0));
        assert!(s.window_of(3).is_always());
        assert!(s.has_churn());
        assert!(!ScenarioSpec::dumbbell(4, 50.0, 0.010, 1.0).has_churn());
        // An all-default vector is not churn.
        assert!(!ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0)
            .churn(vec![FlowWindow::ALWAYS; 2])
            .has_churn());
        s.validate().unwrap();
    }

    #[test]
    fn churn_moves_the_stable_hash_but_defaults_do_not() {
        let base = ScenarioSpec::dumbbell(3, 50.0, 0.010, 2.0);
        // Padding with defaults keeps the pre-churn hash: persisted
        // store keys and pinned seeds stay valid.
        assert_eq!(
            base.stable_hash(),
            base.clone()
                .churn(vec![FlowWindow::ALWAYS; 3])
                .stable_hash()
        );
        // Real windows move it, per flow and per bound.
        let a = base.clone().flow_window(1, 0.5, 2.0);
        assert_ne!(base.stable_hash(), a.stable_hash());
        assert_ne!(
            a.stable_hash(),
            base.clone().flow_window(1, 0.5, 2.5).stable_hash()
        );
        assert_ne!(
            a.stable_hash(),
            base.clone().flow_window(2, 0.5, 2.0).stable_hash()
        );
        // Canonicalization: the same windows via a padded explicit
        // vector hash identically.
        let b = base.clone().churn(vec![
            FlowWindow::ALWAYS,
            FlowWindow::new(0.5, 2.0),
            FlowWindow::ALWAYS,
        ]);
        assert_eq!(a.stable_hash(), b.stable_hash());
    }

    #[test]
    fn churn_validation_rejects_impossible_windows() {
        let base = ScenarioSpec::dumbbell(2, 50.0, 0.010, 1.0);
        assert!(base.clone().flow_window(0, 1.0, 0.5).validate().is_err());
        assert!(base.clone().flow_window(0, 1.0, 1.0).validate().is_err());
        assert!(base.clone().flow_window(0, -1.0, 1.0).validate().is_err());
        assert!(base
            .clone()
            .churn(vec![FlowWindow::ALWAYS; 3])
            .validate()
            .is_err());
        // Open-ended and beyond-deadline windows are fine.
        assert!(base
            .clone()
            .flow_window(1, 0.5, f64::INFINITY)
            .validate()
            .is_ok());
        assert!(base.clone().flow_window(1, 100.0, 101.0).validate().is_ok());
    }

    #[test]
    fn kind_names_round_trip() {
        for k in CcaKind::ALL {
            assert_eq!(CcaKind::from_name(k.name()), Some(k));
        }
        assert_eq!(CcaKind::from_name("bbr"), None);
        for q in [QdiscKind::DropTail, QdiscKind::Red] {
            assert_eq!(QdiscKind::from_name(q.name()), Some(q));
        }
        assert_eq!(QdiscKind::from_name("codel"), None);
    }

    /// A stub backend for trait-default tests: reports a fixed
    /// throughput equal to the seed, supports dumbbells only.
    struct Stub;

    impl SimBackend for Stub {
        fn name(&self) -> &'static str {
            "stub"
        }

        fn supports(&self, spec: &ScenarioSpec) -> bool {
            matches!(spec.topology, Topology::Dumbbell { .. })
        }

        fn run(&self, spec: &ScenarioSpec, seed: u64) -> RunOutcome {
            RunOutcome {
                backend: "stub",
                flows: vec![FlowMetrics {
                    cca: spec.cca_of(0),
                    throughput_mbps: seed as f64,
                }],
                jain: 1.0,
                loss_percent: 0.0,
                occupancy_percent: 0.0,
                utilization_percent: 0.0,
                jitter_ms: 0.0,
                per_link_occupancy: vec![0.0],
                per_link_utilization: vec![0.0],
            }
        }
    }

    impl BatchSimBackend for Stub {}

    #[test]
    fn try_run_turns_contract_violations_into_errors() {
        let b = Stub;
        let ok = ScenarioSpec::dumbbell(2, 100.0, 0.010, 1.0);
        assert_eq!(b.try_run(&ok, 7).unwrap(), b.run(&ok, 7));
        // Unsupported family: a defined error naming the backend.
        let chain = ScenarioSpec::chain(3, 100.0, 0.010, 1.0);
        match b.try_run(&chain, 0) {
            Err(RunError::Unsupported { backend, .. }) => assert_eq!(backend, "stub"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // A rejected `Topology::Custom` spec names its family in the
        // reason, so a sweep over a mixed universe reports *which*
        // topology the backend refused rather than a generic shrug.
        let custom = ScenarioSpec::custom(
            vec![CustomLink {
                capacity: 10.0,
                delay: 0.005,
                buffer_bdp: 2.0,
            }],
            vec![CustomRoute::new(vec![0], 0.001, 0.001)],
        );
        match b.try_run(&custom, 0) {
            Err(RunError::Unsupported { backend, reason }) => {
                assert_eq!(backend, "stub");
                assert!(
                    reason.contains("Custom"),
                    "reason must name the family: {reason}"
                );
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // Malformed spec: reported before `supports` is even consulted.
        let bad = ScenarioSpec::dumbbell(0, 100.0, 0.010, 1.0);
        assert!(matches!(b.try_run(&bad, 0), Err(RunError::InvalidSpec(_))));
        // Errors render as readable messages.
        let msg = b.try_run(&chain, 0).unwrap_err().to_string();
        assert!(msg.contains("stub"), "{msg}");
    }

    #[test]
    fn default_run_batch_is_the_scalar_loop() {
        let b = Stub;
        let s1 = ScenarioSpec::dumbbell(2, 100.0, 0.010, 1.0);
        let s2 = ScenarioSpec::dumbbell(4, 100.0, 0.010, 2.0);
        let jobs = [(&s1, 3u64), (&s2, 9u64)];
        let batch = b.run_batch(&jobs);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], b.run(&s1, 3));
        assert_eq!(batch[1], b.run(&s2, 9));
        // Plain backends expose no batch view by default.
        assert!(Stub.as_batch().is_none());
    }

    #[test]
    fn run_seed_is_the_shared_repetition_offset() {
        assert_eq!(run_seed(42, 0), 42);
        assert_eq!(run_seed(42, 1), 42 + 104_729);
        assert_eq!(run_seed(u64::MAX, 1), 104_728); // wraps, never panics
    }
}
