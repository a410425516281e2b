//! Queue dynamics and loss models (paper §2, Eqs. (2), (4)–(6)).

use crate::config::ModelConfig;
use crate::lanes::Lanes;
use crate::math::sigmoid;
use crate::topology::{LinkSpec, QdiscKind};

/// Loss probability of a link given its arrival rate `y` and queue `q`.
///
/// Drop-tail (Eq. (4)): `σ(y − C) · (1 − C/y) · (q/B)^L` — the relative
/// excess rate once the queue is (nearly) full. RED (Eq. (6)): `q/B`.
#[inline]
pub fn loss_probability(link: &LinkSpec, y: f64, q: f64, cfg: &ModelConfig) -> f64 {
    match link.qdisc {
        QdiscKind::DropTail => {
            if y <= 0.0 {
                return 0.0;
            }
            let fill_ratio = (q / link.buffer).clamp(0.0, 1.0);
            // Exact short-circuits at the clamp endpoints — `0^L` zeroes
            // the whole product (`gate·excess` is finite and
            // non-negative, so `· +0.0` is exactly `+0.0`) and `1^L = 1`
            // drops out of it — skipping `powf`, and with an empty
            // queue the sigmoid too, in the empty- and pinned-full-queue
            // regimes where drop-tail links spend most of their time.
            if fill_ratio == 0.0 {
                return 0.0;
            }
            let fill = if fill_ratio == 1.0 {
                1.0
            } else {
                fill_ratio.powf(cfg.drop_exp_l)
            };
            let gate = sigmoid(cfg.k_rate, y - link.capacity);
            let excess = (1.0 - link.capacity / y).max(0.0);
            (gate * excess * fill).clamp(0.0, 1.0)
        }
        QdiscKind::Red => (q / link.buffer).clamp(0.0, 1.0),
    }
}

/// One Euler step of the queue dynamics, Eq. (2):
/// `q̇ = (1 − p)·y − C`, with `q` clamped to `[0, B]`.
#[inline]
pub fn step_queue(link: &LinkSpec, q: f64, y: f64, p: f64, dt: f64) -> f64 {
    let dq = (1.0 - p) * y - link.capacity;
    (q + dt * dq).clamp(0.0, link.buffer)
}

/// Instantaneous service (departure) rate of the link: `C` while a queue
/// exists, otherwise the (post-loss) arrival rate capped at `C`. Used for
/// the utilization metric. Lane-wise, so one definition serves every
/// lane type of the step loop.
#[inline(always)]
pub fn service_rate<V: Lanes>(link: &LinkSpec, q: V, y: V, p: V) -> V {
    let cap = V::splat(link.capacity);
    V::select(
        q.gt(V::splat(1e-12)),
        cap,
        ((V::splat(1.0) - p) * y).min(cap),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn droptail_link() -> LinkSpec {
        LinkSpec {
            capacity: 100.0,
            buffer: 0.5,
            prop_delay: 0.01,
            qdisc: QdiscKind::DropTail,
        }
    }

    fn red_link() -> LinkSpec {
        LinkSpec {
            qdisc: QdiscKind::Red,
            ..droptail_link()
        }
    }

    #[test]
    fn droptail_no_loss_when_queue_empty() {
        let cfg = ModelConfig::default();
        let l = droptail_link();
        // Even with excess arrival rate, an empty buffer has (q/B)^L = 0.
        assert!(loss_probability(&l, 150.0, 0.0, &cfg) < 1e-12);
    }

    #[test]
    fn droptail_no_loss_below_capacity() {
        let cfg = ModelConfig::default();
        let l = droptail_link();
        // Full queue but arrivals below capacity: sigmoid gate ≈ 0.
        assert!(loss_probability(&l, 50.0, 0.5, &cfg) < 1e-6);
    }

    #[test]
    fn droptail_loss_equals_relative_excess_when_full() {
        let cfg = ModelConfig::default();
        let l = droptail_link();
        let p = loss_probability(&l, 125.0, 0.5, &cfg);
        // Relative excess = 1 - 100/125 = 0.2.
        assert!((p - 0.2).abs() < 1e-3, "p = {p}");
    }

    #[test]
    fn droptail_loss_suppressed_at_partial_fill() {
        let cfg = ModelConfig::default();
        let l = droptail_link();
        let p = loss_probability(&l, 125.0, 0.25, &cfg);
        // (1/2)^20 ≈ 1e-6 suppression.
        assert!(p < 1e-6, "p = {p}");
    }

    #[test]
    fn red_loss_proportional_to_queue() {
        let cfg = ModelConfig::default();
        let l = red_link();
        assert!((loss_probability(&l, 10.0, 0.25, &cfg) - 0.5).abs() < 1e-12);
        assert_eq!(loss_probability(&l, 10.0, 0.0, &cfg), 0.0);
        assert_eq!(loss_probability(&l, 10.0, 5.0, &cfg), 1.0);
    }

    #[test]
    fn queue_grows_with_excess_and_clamps() {
        let l = droptail_link();
        let q1 = step_queue(&l, 0.0, 150.0, 0.0, 0.01);
        assert!((q1 - 0.5_f64.min(0.01 * 50.0)).abs() < 1e-12);
        // Clamp at buffer.
        let q2 = step_queue(&l, 0.49, 200.0, 0.0, 1.0);
        assert_eq!(q2, 0.5);
        // Clamp at zero.
        let q3 = step_queue(&l, 0.01, 0.0, 0.0, 1.0);
        assert_eq!(q3, 0.0);
    }

    #[test]
    fn loss_reduces_queue_growth() {
        let l = droptail_link();
        let no_loss = step_queue(&l, 0.1, 150.0, 0.0, 0.001);
        let with_loss = step_queue(&l, 0.1, 150.0, 0.2, 0.001);
        assert!(with_loss < no_loss);
    }

    #[test]
    fn service_rate_cases() {
        let l = droptail_link();
        assert_eq!(service_rate(&l, 0.2, 10.0, 0.0), 100.0);
        assert_eq!(service_rate(&l, 0.0, 60.0, 0.0), 60.0);
        assert_eq!(service_rate(&l, 0.0, 150.0, 0.0), 100.0);
        assert!((service_rate(&l, 0.0, 60.0, 0.5) - 30.0).abs() < 1e-12);
    }
}
