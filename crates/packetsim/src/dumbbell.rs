//! Dumbbell scenario builder and aggregate reporting — the packet-level
//! counterpart of the paper's mininet experiments (§4.1).

use bbr_scenario::jain_index;

use crate::cca::CcaKind;
use crate::engine::{Engine, SimConfig};
use crate::path::{run_path, PathFlowSpec, PathLinkSpec, PathNetwork};
use crate::qdisc::QdiscKind;

/// The dumbbell of the paper's Fig. 3 at packet level.
#[derive(Debug, Clone)]
pub struct DumbbellSpec {
    pub n: usize,
    /// Bottleneck capacity (Mbit/s).
    pub capacity_mbps: f64,
    /// Bottleneck propagation delay (s).
    pub bottleneck_delay: f64,
    /// Buffer in multiples of the mean-RTT BDP.
    pub buffer_bdp: f64,
    pub qdisc: QdiscKind,
    /// One-way access delay per sender (s).
    pub access: Vec<f64>,
    /// CCA kinds, assigned round-robin.
    pub ccas: Vec<CcaKind>,
}

impl DumbbellSpec {
    /// Defaults mirror the fluid-side `Scenario::dumbbell`: total
    /// propagation RTTs spread evenly over 3–4× the bottleneck RTT
    /// (30–40 ms for a 10 ms bottleneck).
    pub fn new(
        n: usize,
        capacity_mbps: f64,
        bottleneck_delay: f64,
        buffer_bdp: f64,
        qdisc: QdiscKind,
    ) -> Self {
        let mut s = Self {
            n,
            capacity_mbps,
            bottleneck_delay,
            buffer_bdp,
            qdisc,
            access: Vec::new(),
            ccas: vec![CcaKind::Reno],
        };
        s = s.rtt_range(3.0 * bottleneck_delay, 4.0 * bottleneck_delay);
        s
    }

    /// Spread total propagation RTTs evenly over `[lo, hi]`.
    pub fn rtt_range(mut self, lo: f64, hi: f64) -> Self {
        self.access = (0..self.n)
            .map(|i| {
                let frac = if self.n > 1 {
                    i as f64 / (self.n - 1) as f64
                } else {
                    0.5
                };
                let rtt = lo + frac * (hi - lo);
                (rtt / 2.0 - self.bottleneck_delay).max(0.0)
            })
            .collect();
        self
    }

    /// Explicit access delays (one-way, s).
    pub fn access_delays(mut self, access: Vec<f64>) -> Self {
        assert_eq!(access.len(), self.n);
        self.access = access;
        self
    }

    /// Set the CCA assignment (cycled across senders).
    pub fn ccas(mut self, ccas: Vec<CcaKind>) -> Self {
        assert!(!ccas.is_empty());
        self.ccas = ccas;
        self
    }

    /// Mean propagation RTT across senders (s).
    pub fn mean_rtt(&self) -> f64 {
        self.access
            .iter()
            .map(|a| 2.0 * (a + self.bottleneck_delay))
            .sum::<f64>()
            / self.n as f64
    }

    /// Buffer size in bytes: `buffer_bdp` × the BDP of the bottleneck
    /// link (`capacity · bottleneck_delay`, §4.1.3).
    pub fn buffer_bytes(&self) -> f64 {
        self.buffer_bdp * self.capacity_mbps * 1e6 / 8.0 * self.bottleneck_delay
    }

    /// The CCA of sender `i`.
    pub fn kind_of(&self, i: usize) -> CcaKind {
        self.ccas[i % self.ccas.len()]
    }
}

/// Per-flow results.
#[derive(Debug, Clone)]
pub struct FlowReport {
    pub kind: CcaKind,
    pub throughput_mbps: f64,
    pub mean_rtt: f64,
    pub jitter_ms: f64,
}

/// Aggregate results of one packet-level run (the "Experiment" column of
/// the paper's figures). The headline occupancy/utilization refer to the
/// bottleneck (minimum-capacity) link; the `per_link_*` vectors cover all
/// queued links of multi-bottleneck topologies.
#[derive(Debug, Clone)]
pub struct PacketSimReport {
    pub flows: Vec<FlowReport>,
    pub jain: f64,
    /// Lost traffic as a percentage of traffic arriving at queued links,
    /// aggregated over all links.
    pub loss_percent: f64,
    pub occupancy_percent: f64,
    pub utilization_percent: f64,
    pub jitter_ms: f64,
    pub per_link_loss: Vec<f64>,
    pub per_link_occupancy: Vec<f64>,
    pub per_link_utilization: Vec<f64>,
}

/// Collect the per-flow and per-link statistics of a finished engine.
/// `links` holds each link's (service rate in bytes/s, buffer in bytes);
/// `headline` selects the link whose occupancy/utilization become the
/// headline numbers.
pub(crate) fn collect_report(
    engine: &Engine,
    kinds: &[CcaKind],
    links: &[(f64, f64)],
    headline: usize,
) -> PacketSimReport {
    let window = engine.window().max(1e-9);
    let flows: Vec<FlowReport> = kinds
        .iter()
        .enumerate()
        .map(|(i, kind)| FlowReport {
            kind: *kind,
            throughput_mbps: engine.flow_delivered(i) * 8.0 / 1e6 / window,
            mean_rtt: engine.flow_mean_rtt(i),
            jitter_ms: engine.flow_jitter(i) * 1000.0,
        })
        .collect();
    let mut total_arrived = 0.0;
    let mut total_dropped = 0.0;
    let mut per_link_loss = Vec::with_capacity(links.len());
    let mut per_link_occupancy = Vec::with_capacity(links.len());
    let mut per_link_utilization = Vec::with_capacity(links.len());
    for (l, (rate, buffer)) in links.iter().enumerate() {
        let (arrived, dropped, delivered, occ_int) = engine.link_stats(l);
        total_arrived += arrived;
        total_dropped += dropped;
        per_link_loss.push(if arrived > 0.0 {
            100.0 * dropped / arrived
        } else {
            0.0
        });
        per_link_occupancy.push(100.0 * occ_int / (buffer * window));
        per_link_utilization.push(100.0 * delivered / (rate * window));
    }
    let tputs: Vec<f64> = flows.iter().map(|f| f.throughput_mbps).collect();
    PacketSimReport {
        jain: jain_index(&tputs),
        loss_percent: if total_arrived > 0.0 {
            100.0 * total_dropped / total_arrived
        } else {
            0.0
        },
        occupancy_percent: per_link_occupancy[headline],
        utilization_percent: per_link_utilization[headline],
        jitter_ms: flows.iter().map(|f| f.jitter_ms).sum::<f64>() / flows.len().max(1) as f64,
        per_link_loss,
        per_link_occupancy,
        per_link_utilization,
        flows,
    }
}

impl DumbbellSpec {
    /// The dumbbell as a degenerate [`PathNetwork`]: one queued link,
    /// every flow routing over it, staggered starts (i · 5 ms) avoiding
    /// artificial phase lock.
    pub fn path_network(&self) -> PathNetwork {
        let rate = self.capacity_mbps * 1e6 / 8.0; // bytes/s
        let buffer = self.buffer_bytes();
        PathNetwork {
            links: vec![PathLinkSpec {
                rate,
                prop_delay: self.bottleneck_delay,
                buffer,
                qdisc: self.qdisc,
            }],
            flows: (0..self.n)
                .map(|i| PathFlowSpec {
                    links: vec![0],
                    access_delay: self.access[i],
                    bwd_delay: self.access[i] + self.bottleneck_delay,
                    cca: self.kind_of(i),
                    start: i as f64 * 0.005,
                    stop: f64::INFINITY,
                    gaps: Vec::new(),
                })
                .collect(),
            headline: 0,
        }
    }
}

/// Run one dumbbell simulation (a degenerate path network; see
/// [`DumbbellSpec::path_network`]).
pub fn run_dumbbell(spec: &DumbbellSpec, cfg: &SimConfig) -> PacketSimReport {
    run_path(&spec.path_network(), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            duration: 3.0,
            warmup: 1.0,
            seed: 1,
            ..Default::default()
        }
    }

    #[test]
    fn single_bbrv1_fills_the_bottleneck() {
        let spec =
            DumbbellSpec::new(1, 50.0, 0.010, 1.0, QdiscKind::DropTail).ccas(vec![CcaKind::BbrV1]);
        let r = run_dumbbell(&spec, &quick_cfg());
        assert!(
            r.utilization_percent > 85.0,
            "util {}",
            r.utilization_percent
        );
        // Single-link dumbbell: headline == the only per-link entry.
        assert_eq!(r.per_link_utilization.len(), 1);
        assert_eq!(r.per_link_utilization[0], r.utilization_percent);
        assert_eq!(r.per_link_loss[0], r.loss_percent);
    }

    #[test]
    fn homogeneous_reno_is_fair() {
        let spec =
            DumbbellSpec::new(4, 50.0, 0.010, 2.0, QdiscKind::DropTail).ccas(vec![CcaKind::Reno]);
        let cfg = SimConfig {
            duration: 8.0,
            warmup: 2.0,
            seed: 3,
            ..Default::default()
        };
        let r = run_dumbbell(&spec, &cfg);
        assert!(r.jain > 0.8, "jain {}", r.jain);
        assert!(r.utilization_percent > 80.0);
    }

    #[test]
    fn bbrv1_starves_reno_in_shallow_buffers() {
        // The paper's Insight 2 at packet level.
        let spec = DumbbellSpec::new(2, 50.0, 0.010, 1.0, QdiscKind::DropTail)
            .ccas(vec![CcaKind::BbrV1, CcaKind::Reno]);
        let cfg = SimConfig {
            duration: 10.0,
            warmup: 3.0,
            seed: 5,
            ..Default::default()
        };
        let r = run_dumbbell(&spec, &cfg);
        let bbr = r.flows[0].throughput_mbps;
        let reno = r.flows[1].throughput_mbps;
        assert!(
            bbr > 2.0 * reno,
            "BBRv1 {bbr} vs Reno {reno} — expected strong dominance"
        );
    }

    #[test]
    fn buffer_bytes_matches_bdp_definition() {
        let spec =
            DumbbellSpec::new(2, 100.0, 0.010, 2.0, QdiscKind::DropTail).rtt_range(0.030, 0.040);
        // Link BDP = 100e6/8 · 0.010 = 125000 B; ×2.
        assert!((spec.buffer_bytes() - 250_000.0).abs() < 1.0);
    }
}
