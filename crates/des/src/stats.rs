//! Online statistics for simulation outputs.
//!
//! Everything here is single-pass and allocation-light so it can sit on hot
//! event paths:
//!
//! * [`TimeWeighted`] — integral-of-value-over-time averages; the correct way
//!   to measure utilization and queue length.
//! * [`Utilization`] / [`TimeBuckets`] — busy-capacity and windowed-sum
//!   conveniences built on the same idea.
//! * [`ci_student_t`] — replication-level confidence intervals.
//! * [`exact_quantile`] — nearest-rank quantiles of a stored sample.
//!
//! Streaming quantiles live in [`crate::sketch`]: one estimator serves the
//! online span statistics and the offline trace analyzer alike.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Time-weighted average of a piecewise-constant signal, e.g. "busy nodes".
///
/// Call [`TimeWeighted::set`] whenever the value changes; query the average
/// over any elapsed window with [`TimeWeighted::average`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    start: SimTime,
    integral: f64, // value·seconds accumulated before `last_change`
    peak: f64,
}

impl TimeWeighted {
    /// Start tracking at `start` with initial `value`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted {
            value,
            last_change: start,
            start,
            integral: 0.0,
            peak: value,
        }
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// The maximum value the signal has reached.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Change the signal's value at time `now` (must be monotone).
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_change, "TimeWeighted: time went backwards");
        let dt = now.saturating_since(self.last_change).as_secs_f64();
        self.integral += self.value * dt;
        self.value = value;
        self.last_change = now;
        self.peak = self.peak.max(value);
    }

    /// Add `delta` to the signal at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// The time-weighted average over `[start, now]`. Returns 0 for an empty
    /// window.
    pub fn average(&self, now: SimTime) -> f64 {
        let span = now.saturating_since(self.start).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let tail = now.saturating_since(self.last_change).as_secs_f64();
        (self.integral + self.value * tail) / span
    }

    /// The integral of the signal over `[start, now]`, in value·seconds.
    pub fn integral(&self, now: SimTime) -> f64 {
        let tail = now.saturating_since(self.last_change).as_secs_f64();
        self.integral + self.value * tail
    }
}

/// Two-sided Student-t critical values at 95% confidence, by degrees of
/// freedom (1-based index; `[0]` unused). Beyond 30 d.o.f. we use 1.96.
const T_TABLE_95: [f64; 31] = [
    f64::NAN,
    12.706,
    4.303,
    3.182,
    2.776,
    2.571,
    2.447,
    2.365,
    2.306,
    2.262,
    2.228,
    2.201,
    2.179,
    2.160,
    2.145,
    2.131,
    2.120,
    2.110,
    2.101,
    2.093,
    2.086,
    2.080,
    2.074,
    2.069,
    2.064,
    2.060,
    2.056,
    2.052,
    2.048,
    2.045,
    2.042,
];

/// Mean and 95% confidence half-width across replication means.
///
/// Returns `(mean, half_width)`; the half-width is 0 for fewer than two
/// replications.
pub fn ci_student_t(replication_means: &[f64]) -> (f64, f64) {
    let n = replication_means.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = replication_means.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let var = replication_means
        .iter()
        .map(|x| (x - mean) * (x - mean))
        .sum::<f64>()
        / (n - 1) as f64;
    let dof = n - 1;
    let t = if dof <= 30 { T_TABLE_95[dof] } else { 1.96 };
    (mean, t * (var / n as f64).sqrt())
}

/// Exact quantile of a *stored* sample (for small result sets where storing
/// is fine). Uses the nearest-rank method. Returns `None` if empty.
pub fn exact_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let q = q.clamp(0.0, 1.0);
    let idx = ((q * sorted.len() as f64).ceil() as usize).saturating_sub(1);
    Some(sorted[idx.min(sorted.len() - 1)])
}

/// Convenience: a utilization tracker counting busy capacity out of a fixed
/// total (e.g. busy cores on a cluster).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Utilization {
    busy: TimeWeighted,
    capacity: f64,
}

impl Utilization {
    /// Track utilization of `capacity` units starting at `start` with nothing busy.
    pub fn new(start: SimTime, capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        Utilization {
            busy: TimeWeighted::new(start, 0.0),
            capacity,
        }
    }

    /// Mark `amount` additional units busy at `now`.
    pub fn acquire(&mut self, now: SimTime, amount: f64) {
        let v = self.busy.current() + amount;
        debug_assert!(
            v <= self.capacity + 1e-9,
            "over capacity: {v} > {}",
            self.capacity
        );
        self.busy.set(now, v);
    }

    /// Release `amount` units at `now`.
    pub fn release(&mut self, now: SimTime, amount: f64) {
        let v = self.busy.current() - amount;
        debug_assert!(v >= -1e-9, "released more than acquired");
        self.busy.set(now, v.max(0.0));
    }

    /// Currently busy units.
    pub fn busy(&self) -> f64 {
        self.busy.current()
    }

    /// Total capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Average utilization in `[start, now]` as a fraction of capacity.
    pub fn average(&self, now: SimTime) -> f64 {
        self.busy.average(now) / self.capacity
    }

    /// Busy integral in unit·seconds (e.g. core-seconds delivered).
    pub fn busy_integral(&self, now: SimTime) -> f64 {
        self.busy.integral(now)
    }
}

/// Helper: bucket a (time, value) stream into fixed windows, summing values —
/// used for "usage per quarter" style series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeBuckets {
    width: SimDuration,
    sums: Vec<f64>,
}

impl TimeBuckets {
    /// Buckets of the given width starting at time zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bucket width must be positive");
        TimeBuckets {
            width,
            sums: Vec::new(),
        }
    }

    /// Add `value` to the bucket containing `at`.
    pub fn add(&mut self, at: SimTime, value: f64) {
        let idx = at.bucket_index(self.width) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
        }
        self.sums[idx] += value;
    }

    /// Per-bucket sums, index 0 first.
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Bucket width.
    pub fn width(&self) -> SimDuration {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(10), 4.0); // 0 for 10 s
        tw.set(SimTime::from_secs(20), 2.0); // 4 for 10 s
                                             // then 2 for 10 s → integral = 0 + 40 + 20 = 60 over 30 s
        assert!((tw.average(SimTime::from_secs(30)) - 2.0).abs() < 1e-12);
        assert!((tw.integral(SimTime::from_secs(30)) - 60.0).abs() < 1e-9);
        assert_eq!(tw.peak(), 4.0);
        assert_eq!(tw.current(), 2.0);
    }

    #[test]
    fn time_weighted_add_and_empty_window() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5), 1.0);
        assert_eq!(tw.average(SimTime::from_secs(5)), 0.0);
        tw.add(SimTime::from_secs(10), 2.0);
        assert_eq!(tw.current(), 3.0);
        // [5,10]: 1 for 5s; [10,15]: 3 for 5s → avg (5+15)/10 = 2
        assert!((tw.average(SimTime::from_secs(15)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ci_behaviour() {
        assert_eq!(ci_student_t(&[]), (0.0, 0.0));
        assert_eq!(ci_student_t(&[5.0]), (5.0, 0.0));
        let (m, hw) = ci_student_t(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert!((m - 11.0).abs() < 1e-12);
        assert!(hw > 0.0 && hw < 5.0);
        // Identical replications → zero width.
        let (_, hw0) = ci_student_t(&[7.0; 10]);
        assert_eq!(hw0, 0.0);
        // Wider sample → wider CI.
        let (_, hw_wide) = ci_student_t(&[1.0, 21.0, 11.0, 2.0, 20.0]);
        assert!(hw_wide > hw);
    }

    #[test]
    fn exact_quantile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(exact_quantile(&v, 0.5), Some(3.0));
        assert_eq!(exact_quantile(&v, 0.0), Some(1.0));
        assert_eq!(exact_quantile(&v, 1.0), Some(5.0));
        assert_eq!(exact_quantile(&[], 0.5), None);
    }

    #[test]
    fn utilization_tracks_busy_fraction() {
        let mut u = Utilization::new(SimTime::ZERO, 10.0);
        u.acquire(SimTime::ZERO, 5.0);
        u.release(SimTime::from_secs(50), 5.0);
        // busy 5/10 for 50 s then 0 for 50 s → 25% average
        assert!((u.average(SimTime::from_secs(100)) - 0.25).abs() < 1e-12);
        assert!((u.busy_integral(SimTime::from_secs(100)) - 250.0).abs() < 1e-9);
        assert_eq!(u.busy(), 0.0);
        assert_eq!(u.capacity(), 10.0);
    }

    #[test]
    fn time_buckets_accumulate() {
        let mut tb = TimeBuckets::new(SimDuration::from_days(7));
        tb.add(SimTime::from_days(1), 10.0);
        tb.add(SimTime::from_days(6), 5.0);
        tb.add(SimTime::from_days(8), 2.0);
        assert_eq!(tb.sums(), &[15.0, 2.0]);
        assert_eq!(tb.width(), SimDuration::from_days(7));
    }
}
