//! Aggregate performance metrics (paper §4.3): Jain fairness, loss rate,
//! buffer occupancy, bottleneck utilization, and jitter.

use crate::lanes::Lanes;
pub use crate::math::jain as jain_fairness;

/// Aggregated metrics of one simulation run.
#[derive(Debug, Clone)]
pub struct AggregateMetrics {
    /// Measurement duration (s).
    pub duration: f64,
    /// Time-averaged sending rate per agent (Mbit/s).
    pub mean_rates: Vec<f64>,
    /// Jain fairness index over the mean rates.
    pub jain: f64,
    /// Lost traffic as a percentage of traffic arriving at queued links.
    pub loss_percent: f64,
    /// Time-averaged queue length at the observed (bottleneck) link, as a
    /// percentage of its buffer.
    pub occupancy_percent: f64,
    /// Delivered volume at the observed link as a percentage of capacity.
    pub utilization_percent: f64,
    /// Mean delay variation between consecutive (virtual) packets, in ms
    /// (§4.3.5: the fluid RTT sampled at a virtual packet rate).
    pub jitter_ms: f64,
    /// Per-link time-averaged occupancy percentage.
    pub per_link_occupancy: Vec<f64>,
    /// Per-link utilization percentage.
    pub per_link_utilization: Vec<f64>,
}

/// Streaming accumulator for [`AggregateMetrics`], over one scenario
/// (`V = f64`) or a pack of them in [`Lanes`] (`V = F64x4`). The jitter
/// sampling clock is shared by a pack's lanes: it depends only on time.
#[derive(Debug, Clone)]
pub struct MetricsAccumulator<V = f64> {
    n_agents: usize,
    n_links: usize,
    observed_link: usize,
    /// Virtual packet interval for jitter sampling (s).
    jitter_interval: f64,
    elapsed: f64,
    rate_integral: Vec<V>,
    lost: V,
    arrived: V,
    occupancy_integral: Vec<V>,
    delivered: Vec<V>,
    last_tau: Vec<V>,
    /// Whether `last_tau` holds a sample yet. A flag rather than a NaN
    /// sentinel, so the latch is shared by a pack's lanes; the two agree
    /// because every τ sample is finite (propagation RTT plus queue over
    /// a positive capacity).
    has_last: Vec<bool>,
    next_jitter_sample: Vec<f64>,
    jitter_sum: Vec<V>,
    jitter_count: Vec<u64>,
}

impl<V: Lanes> MetricsAccumulator<V> {
    /// `observed_link` is the link whose occupancy/utilization become the
    /// headline numbers; `jitter_interval` is the virtual packet spacing
    /// `g·N/C_ℓ` of §4.3.5.
    pub fn new(
        n_agents: usize,
        n_links: usize,
        observed_link: usize,
        jitter_interval: f64,
    ) -> Self {
        let zero = V::splat(0.0);
        Self {
            n_agents,
            n_links,
            observed_link,
            jitter_interval: jitter_interval.max(1e-6),
            elapsed: 0.0,
            rate_integral: vec![zero; n_agents],
            lost: zero,
            arrived: zero,
            occupancy_integral: vec![zero; n_links],
            delivered: vec![zero; n_links],
            last_tau: vec![zero; n_agents],
            has_last: vec![false; n_agents],
            next_jitter_sample: vec![0.0; n_agents],
            jitter_sum: vec![zero; n_agents],
            jitter_count: vec![0; n_agents],
        }
    }

    /// Discard everything accumulated so far (used to skip warm-up).
    pub fn reset(&mut self) {
        *self = Self::new(
            self.n_agents,
            self.n_links,
            self.observed_link,
            self.jitter_interval,
        );
    }

    /// Record one integration step.
    ///
    /// * `rates[i]` — sending rate of agent i (Mbit/s)
    /// * `taus[i]` — current RTT of agent i (s)
    /// * per link: arrival rate `y`, loss prob `p`, queue `q` (Mbit),
    ///   relative queue `q/B`, service rate (Mbit/s)
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn record(
        &mut self,
        t: f64,
        dt: f64,
        rates: &[V],
        taus: &[V],
        y: &[V],
        p: &[V],
        rel_q: &[V],
        service: &[V],
    ) {
        self.elapsed += dt;
        for i in 0..self.n_agents {
            self.rate_integral[i] = self.rate_integral[i] + rates[i] * dt;
            if t >= self.next_jitter_sample[i] {
                if self.has_last[i] {
                    self.jitter_sum[i] = self.jitter_sum[i] + (taus[i] - self.last_tau[i]).abs();
                    self.jitter_count[i] += 1;
                }
                self.last_tau[i] = taus[i];
                self.has_last[i] = true;
                self.next_jitter_sample[i] = t + self.jitter_interval;
            }
        }
        for l in 0..self.n_links {
            self.lost = self.lost + p[l] * y[l] * dt;
            self.arrived = self.arrived + y[l] * dt;
            self.occupancy_integral[l] = self.occupancy_integral[l] + rel_q[l] * dt;
            self.delivered[l] = self.delivered[l] + service[l] * dt;
        }
    }

    /// Finalize lane `j` into [`AggregateMetrics`]; `link_capacities` in
    /// Mbit/s.
    pub fn finalize_lane(&self, j: usize, link_capacities: &[f64]) -> AggregateMetrics {
        let t = self.elapsed.max(1e-12);
        let mean_rates: Vec<f64> = self.rate_integral.iter().map(|r| r.lane(j) / t).collect();
        let per_link_occupancy: Vec<f64> = self
            .occupancy_integral
            .iter()
            .map(|o| 100.0 * o.lane(j) / t)
            .collect();
        let per_link_utilization: Vec<f64> = self
            .delivered
            .iter()
            .zip(link_capacities)
            .map(|(d, c)| 100.0 * d.lane(j) / (c * t))
            .collect();
        let jitter_per_agent: Vec<f64> = self
            .jitter_sum
            .iter()
            .zip(&self.jitter_count)
            .map(|(s, c)| if *c > 0 { s.lane(j) / *c as f64 } else { 0.0 })
            .collect();
        let jitter_ms = if jitter_per_agent.is_empty() {
            0.0
        } else {
            1000.0 * jitter_per_agent.iter().sum::<f64>() / jitter_per_agent.len() as f64
        };
        let (lost, arrived) = (self.lost.lane(j), self.arrived.lane(j));
        AggregateMetrics {
            duration: self.elapsed,
            jain: jain_fairness(&mean_rates),
            mean_rates,
            loss_percent: if arrived > 0.0 {
                100.0 * lost / arrived
            } else {
                0.0
            },
            occupancy_percent: per_link_occupancy[self.observed_link],
            utilization_percent: per_link_utilization[self.observed_link],
            jitter_ms,
            per_link_occupancy,
            per_link_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_inputs_average_exactly() {
        let mut acc = MetricsAccumulator::new(2, 1, 0, 0.01);
        let dt = 0.001;
        let mut t = 0.0;
        for _ in 0..1000 {
            acc.record(
                t,
                dt,
                &[30.0, 60.0],
                &[0.04, 0.04],
                &[90.0],
                &[0.1],
                &[0.5],
                &[90.0],
            );
            t += dt;
        }
        let m = acc.finalize_lane(0, &[100.0]);
        assert!((m.duration - 1.0).abs() < 1e-9);
        assert!((m.mean_rates[0] - 30.0).abs() < 1e-9);
        assert!((m.mean_rates[1] - 60.0).abs() < 1e-9);
        assert!((m.loss_percent - 10.0).abs() < 1e-9);
        assert!((m.occupancy_percent - 50.0).abs() < 1e-9);
        assert!((m.utilization_percent - 90.0).abs() < 1e-9);
        // Constant RTT ⇒ zero jitter.
        assert!(m.jitter_ms.abs() < 1e-12);
        // Jain for (30, 60): (90)^2 / (2*(900+3600)) = 0.9.
        assert!((m.jain - 0.9).abs() < 1e-9);
    }

    #[test]
    fn jitter_captures_rtt_variation() {
        let mut acc = MetricsAccumulator::new(1, 1, 0, 0.01);
        let dt = 0.01;
        let mut t = 0.0;
        for k in 0..100 {
            // RTT alternates by 1 ms between samples.
            let tau = 0.04 + if k % 2 == 0 { 0.0 } else { 0.001 };
            acc.record(t, dt, &[10.0], &[tau], &[10.0], &[0.0], &[0.0], &[10.0]);
            t += dt;
        }
        let m = acc.finalize_lane(0, &[100.0]);
        assert!((m.jitter_ms - 1.0).abs() < 0.05, "jitter = {}", m.jitter_ms);
    }

    #[test]
    fn reset_clears_state() {
        let mut acc = MetricsAccumulator::new(1, 1, 0, 0.01);
        acc.record(0.0, 1.0, &[50.0], &[0.04], &[50.0], &[0.5], &[1.0], &[50.0]);
        acc.reset();
        let m = acc.finalize_lane(0, &[100.0]);
        assert_eq!(m.duration, 0.0);
        assert_eq!(m.loss_percent, 0.0);
    }

    #[test]
    fn zero_arrivals_give_zero_loss() {
        let acc: MetricsAccumulator = MetricsAccumulator::new(1, 1, 0, 0.01);
        let m = acc.finalize_lane(0, &[100.0]);
        assert_eq!(m.loss_percent, 0.0);
    }
}
