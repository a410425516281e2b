//! Fixed-step ring-buffer histories for the delayed terms of the delay
//! differential equations (method of steps, cf. Erneux §1.1.2).
//!
//! A [`History`] samples a signal once per integration step; delayed
//! lookups interpolate linearly between the two neighbouring samples.
//! It is the reference layout: the lockstep engine (`crate::sim`) keeps
//! its histories in sliding arena regions that retain exactly the
//! samples of a `History` of the same capacity and answer every delayed
//! lookup with the bits of [`History::at_delay`].

/// Ring buffer holding the last `capacity` samples of a scalar signal
/// sampled every `dt` seconds.
#[derive(Debug, Clone)]
pub struct History {
    dt: f64,
    buf: Vec<f64>,
    /// Index of the most recent sample.
    head: usize,
}

impl History {
    /// Create a history able to answer lookups up to `max_delay` seconds
    /// into the past, pre-filled with `initial` (the DDE history function
    /// on `t < 0`).
    pub fn new(max_delay: f64, dt: f64, initial: f64) -> Self {
        assert!(dt > 0.0, "dt must be positive");
        assert!(max_delay >= 0.0, "max_delay must be non-negative");
        Self {
            dt,
            buf: vec![initial; Self::capacity_for(max_delay, dt)],
            head: 0,
        }
    }

    /// The number of samples a history retains for lookups up to
    /// `max_delay` at step `dt` — exposed so the lockstep engine's
    /// sliding arena retains exactly as much and clamps deep lookups at
    /// exactly the same horizon.
    pub fn capacity_for(max_delay: f64, dt: f64) -> usize {
        (max_delay / dt).ceil() as usize + 2
    }

    /// Number of retained samples.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Record the current value of the signal; must be called exactly once
    /// per integration step.
    pub fn push(&mut self, value: f64) {
        self.head = (self.head + 1) % self.buf.len();
        self.buf[self.head] = value;
    }

    /// The most recently pushed sample.
    pub fn latest(&self) -> f64 {
        self.buf[self.head]
    }

    /// Value `delay` seconds in the past, linearly interpolated. Lookups
    /// beyond the retained window are clamped to the oldest sample.
    pub fn at_delay(&self, delay: f64) -> f64 {
        debug_assert!(delay >= 0.0, "delay must be non-negative");
        let steps = delay / self.dt;
        let lo = steps.floor() as usize;
        let frac = steps - steps.floor();
        let max_back = self.buf.len() - 1;
        if lo >= max_back {
            return self.sample_back(max_back);
        }
        let a = self.sample_back(lo);
        let b = self.sample_back((lo + 1).min(max_back));
        a * (1.0 - frac) + b * frac
    }

    /// Sample `n` steps back (0 = latest).
    fn sample_back(&self, n: usize) -> f64 {
        let len = self.buf.len();
        let idx = (self.head + len - (n % len)) % len;
        self.buf[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_initial_before_any_push() {
        let h = History::new(0.1, 0.01, 7.0);
        assert_eq!(h.at_delay(0.0), 7.0);
        assert_eq!(h.at_delay(0.05), 7.0);
        assert_eq!(h.latest(), 7.0);
    }

    #[test]
    fn latest_tracks_pushes() {
        let mut h = History::new(0.1, 0.01, 0.0);
        h.push(1.0);
        h.push(2.0);
        assert_eq!(h.latest(), 2.0);
    }

    #[test]
    fn exact_delay_lookup() {
        let mut h = History::new(1.0, 0.1, 0.0);
        // Push ramp 1, 2, ..., 10 at t = 0.1, ..., 1.0.
        for i in 1..=10 {
            h.push(i as f64);
        }
        assert_eq!(h.at_delay(0.0), 10.0);
        assert_eq!(h.at_delay(0.1), 9.0);
        assert_eq!(h.at_delay(0.5), 5.0);
    }

    #[test]
    fn interpolates_between_samples() {
        let mut h = History::new(1.0, 0.1, 0.0);
        for i in 1..=10 {
            h.push(i as f64);
        }
        let v = h.at_delay(0.15);
        assert!((v - 8.5).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn clamps_to_oldest() {
        let mut h = History::new(0.3, 0.1, 42.0);
        h.push(1.0);
        // Far beyond the window: returns the oldest retained sample.
        let v = h.at_delay(100.0);
        assert_eq!(v, 42.0);
    }

    #[test]
    fn ring_wraps_correctly() {
        let mut h = History::new(0.2, 0.1, 0.0);
        for i in 0..100 {
            h.push(i as f64);
        }
        assert_eq!(h.latest(), 99.0);
        assert_eq!(h.at_delay(0.1), 98.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_dt() {
        History::new(0.1, 0.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_max_delay() {
        History::new(-0.1, 0.01, 0.0);
    }

    #[test]
    fn zero_max_delay_still_answers_lookups() {
        // max_delay = 0 keeps 2 samples, enough for latest + one step back.
        let mut h = History::new(0.0, 0.01, 3.0);
        assert!(h.capacity() >= 2);
        assert_eq!(h.at_delay(0.0), 3.0);
        h.push(5.0);
        assert_eq!(h.latest(), 5.0);
        assert_eq!(h.at_delay(0.0), 5.0);
    }

    #[test]
    fn lookup_at_exact_window_boundary_clamps() {
        let mut h = History::new(0.5, 0.1, 9.0);
        h.push(1.0);
        h.push(2.0);
        // Delay equal to the retained window hits the clamped branch and
        // must return the oldest sample (still the initial fill here).
        assert_eq!(h.at_delay(0.5), 9.0);
        // One sample further than the capacity is clamped identically.
        assert_eq!(h.at_delay(0.5 + 0.1), 9.0);
    }

    #[test]
    fn interpolates_between_pushed_and_initial_fill() {
        let mut h = History::new(0.3, 0.1, 10.0);
        h.push(20.0);
        // 0.05 s back: halfway between latest (20) and the initial 10.
        let v = h.at_delay(0.05);
        assert!((v - 15.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn fractional_delay_near_clamp_boundary() {
        let mut h = History::new(0.3, 0.1, 0.0);
        for i in 1..=10 {
            h.push(i as f64);
        }
        let max_back = h.capacity() - 1;
        // Just inside the window: interpolates between the last two
        // retained samples instead of snapping to the oldest.
        let delay = (max_back as f64 - 0.5) * 0.1;
        let a = h.at_delay((max_back - 1) as f64 * 0.1);
        let b = h.at_delay(max_back as f64 * 0.1);
        let mid = h.at_delay(delay);
        assert!(
            (mid - 0.5 * (a + b)).abs() < 1e-9,
            "got {mid}, ends {a} {b}"
        );
    }

    #[test]
    fn delay_not_on_grid_is_robust_to_float_noise() {
        let dt = 0.001;
        let mut h = History::new(0.05, dt, 0.0);
        for i in 1..=50 {
            h.push(i as f64);
        }
        // 3·dt computed via a float expression that lands a hair off the
        // grid point; the lookup must stay within one sample of exact.
        let delay = 3.0f64 * dt * (1.0 + 1e-15);
        let v = h.at_delay(delay);
        assert!((v - 47.0).abs() < 1e-6, "got {v}");
    }
}
