//! Utilities shared by the packet-level BBR variants: the windowed
//! filters and the flight-recorder hook ([`CcaTrace`]).
//!
//! Both filters are monotonic deques: `update` is amortized O(1) per sample
//! (each sample enters and leaves the deque at most once), so the
//! per-ACK hot path never rescans the sample history. The window axis
//! is caller-defined — wall-clock seconds for the 10 s RTprop filter,
//! packet-timed round counts for the bottleneck-bandwidth filter (a
//! wall-clock bandwidth window would evict the high samples during
//! loss-recovery stalls and collapse the rate estimate).

use std::collections::VecDeque;

use bbr_telemetry::trace::{Recorder, TraceEvent};

/// The recorder a BBR state machine reports its phase transitions and
/// estimator updates to, labelled with the controller's flow index.
/// Advisory only: no control decision ever reads it.
#[derive(Debug, Clone, Default)]
pub struct CcaTrace(Option<(usize, Recorder)>);

impl CcaTrace {
    /// Record to `rec` as flow `flow`.
    pub fn attach(&mut self, flow: usize, rec: &Recorder) {
        self.0 = Some((flow, rec.clone()));
    }

    /// Whether a recorder is attached — the gate for work that exists
    /// only to feed the trace.
    #[inline]
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Record a transition from state `from` to state `to`.
    pub fn phase(&self, t: f64, from: &'static str, to: &'static str) {
        if let Some((flow, rec)) = &self.0 {
            rec.record(&TraceEvent::CcaPhase {
                lane: 0,
                flow: *flow,
                t,
                from,
                to,
            });
        }
    }

    /// Record a bound/filter change. Non-finite values (bounds reset to
    /// +∞) are not serializable and carry no information beyond the
    /// phase event that caused them, so they are skipped.
    pub fn signal(&self, t: f64, signal: &'static str, value: f64) {
        if let Some((flow, rec)) = &self.0 {
            if value.is_finite() {
                rec.record(&TraceEvent::CcaSignal {
                    lane: 0,
                    flow: *flow,
                    t,
                    signal,
                    value,
                });
            }
        }
    }
}

/// Windowed max filter over (time, value) samples, used for BBR's
/// bottleneck-bandwidth estimate.
#[derive(Debug, Clone, Default)]
pub struct WindowedMax {
    samples: VecDeque<(f64, f64)>,
}

impl WindowedMax {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a sample and evict everything older than `window` seconds.
    pub fn update(&mut self, t: f64, v: f64, window: f64) {
        // Monotonic deque: drop smaller trailing samples.
        while let Some(&(_, back)) = self.samples.back() {
            if back <= v {
                self.samples.pop_back();
            } else {
                break;
            }
        }
        self.samples.push_back((t, v));
        while let Some(&(front_t, _)) = self.samples.front() {
            if front_t < t - window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Current windowed maximum (0 if empty).
    pub fn max(&self) -> f64 {
        self.samples.front().map(|&(_, v)| v).unwrap_or(0.0)
    }
}

/// Windowed min filter over (time, value) samples, used for the
/// deployment-grade BBRv2's RTprop estimate. Unlike a lifetime min, the
/// estimate *rises again* once the old minimum ages out of the window —
/// a path whose base RTT steps up (reroute, churn) is re-measured
/// within one window length instead of being pinned to a stale value
/// forever.
#[derive(Debug, Clone, Default)]
pub struct WindowedMin {
    samples: VecDeque<(f64, f64)>,
}

impl WindowedMin {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a sample and evict everything older than `window` seconds.
    pub fn update(&mut self, t: f64, v: f64, window: f64) {
        // Monotonic deque: drop larger trailing samples.
        while let Some(&(_, back)) = self.samples.back() {
            if back >= v {
                self.samples.pop_back();
            } else {
                break;
            }
        }
        self.samples.push_back((t, v));
        while let Some(&(front_t, _)) = self.samples.front() {
            if front_t < t - window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// Current windowed minimum (+∞ if empty).
    pub fn min(&self) -> f64 {
        self.samples
            .front()
            .map(|&(_, v)| v)
            .unwrap_or(f64::INFINITY)
    }

    /// Time the current minimum was sampled (`None` if empty).
    pub fn min_stamp(&self) -> Option<f64> {
        self.samples.front().map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_max_tracks_maximum() {
        let mut f = WindowedMax::new();
        f.update(0.0, 5.0, 1.0);
        f.update(0.1, 3.0, 1.0);
        assert_eq!(f.max(), 5.0);
        f.update(0.2, 8.0, 1.0);
        assert_eq!(f.max(), 8.0);
    }

    #[test]
    fn windowed_max_evicts_old_samples() {
        let mut f = WindowedMax::new();
        f.update(0.0, 10.0, 1.0);
        f.update(0.5, 4.0, 1.0);
        // At t = 1.5 the sample from t = 0 is outside the 1 s window.
        f.update(1.5, 1.0, 1.0);
        assert_eq!(f.max(), 4.0);
    }

    #[test]
    fn windowed_min_tracks_minimum() {
        let mut f = WindowedMin::new();
        assert!(f.min().is_infinite());
        f.update(0.0, 0.040, 10.0);
        f.update(0.1, 0.050, 10.0);
        assert_eq!(f.min(), 0.040);
        assert_eq!(f.min_stamp(), Some(0.0));
        f.update(0.2, 0.030, 10.0);
        assert_eq!(f.min(), 0.030);
        assert_eq!(f.min_stamp(), Some(0.2));
    }

    #[test]
    fn windowed_min_rises_after_expiry() {
        // The staleness property the deployment tier needs: once the
        // old minimum ages out, the estimate steps *up* to the best
        // recent sample.
        let mut f = WindowedMin::new();
        f.update(0.0, 0.040, 10.0);
        f.update(5.0, 0.080, 10.0);
        assert_eq!(f.min(), 0.040);
        f.update(11.0, 0.080, 10.0);
        assert_eq!(f.min(), 0.080);
    }

    #[test]
    fn filters_agree_with_naive_scans() {
        // Deque filters must be value-identical to an O(n) rescan of the
        // same window at every step (the byte-identity argument for
        // swapping one in where a scan used to be).
        let mut max_f = WindowedMax::new();
        let mut min_f = WindowedMin::new();
        let mut history: Vec<(f64, f64)> = Vec::new();
        let window = 1.0;
        let mut x = 0x9e3779b97f4a7c15u64;
        for k in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = k as f64 * 0.01;
            let v = (x >> 33) as f64 / (1u64 << 31) as f64;
            history.push((t, v));
            max_f.update(t, v, window);
            min_f.update(t, v, window);
            let in_window = history.iter().filter(|&&(s, _)| s >= t - window);
            let naive_max = in_window
                .clone()
                .map(|&(_, v)| v)
                .fold(f64::NEG_INFINITY, f64::max);
            let naive_min = in_window.map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
            assert_eq!(max_f.max(), naive_max);
            assert_eq!(min_f.min(), naive_min);
        }
    }
}
