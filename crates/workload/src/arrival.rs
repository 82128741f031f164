//! Arrival processes.
//!
//! * [`Poisson`] — homogeneous Poisson arrivals (exponential inter-arrivals).
//! * [`DiurnalPoisson`] — non-homogeneous Poisson with day/night and
//!   weekday/weekend modulation, sampled by Lewis–Shedler thinning. Human-
//!   driven modalities (interactive, gateway portals) follow office hours;
//!   machine-driven ones don't.
//! * [`Mmpp2`] — a two-state Markov-modulated Poisson process for bursty
//!   streams (workflow engines dumping task batches).
//!
//! All processes are driven by a caller-supplied [`SimRng`] stream and
//! produce the *next arrival instant after* a given time, so generators can
//! interleave many processes deterministically.

use tg_des::{SimDuration, SimRng, SimTime};

/// The clock has microsecond resolution; a sampled gap that rounds to zero
/// ticks would produce two arrivals at the same instant (or no progress at
/// all in thinning loops). Every process advances by at least one tick.
#[inline]
fn at_least_one_tick(gap_secs: f64) -> SimDuration {
    SimDuration::from_secs_f64(gap_secs).max(SimDuration::from_micros(1))
}

/// A stochastic point process over simulation time.
pub trait ArrivalProcess {
    /// The first arrival strictly after `after`. Returns `None` if the
    /// process has ended (never, for the processes here, but trace replay
    /// uses it).
    fn next_after(&mut self, after: SimTime, rng: &mut SimRng) -> Option<SimTime>;

    /// Long-run average rate in arrivals per second (for load calculations).
    fn mean_rate(&self) -> f64;
}

/// Homogeneous Poisson process.
#[derive(Debug, Clone)]
pub struct Poisson {
    rate_per_sec: f64,
}

impl Poisson {
    /// A Poisson process with the given rate (arrivals per second).
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "rate must be positive"
        );
        Poisson { rate_per_sec }
    }

    /// Convenience: rate given per hour.
    pub fn per_hour(rate: f64) -> Self {
        Poisson::new(rate / 3600.0)
    }

    /// Convenience: rate given per day.
    pub fn per_day(rate: f64) -> Self {
        Poisson::new(rate / 86_400.0)
    }
}

impl ArrivalProcess for Poisson {
    fn next_after(&mut self, after: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        let gap = rng.standard_exponential() / self.rate_per_sec;
        Some(after + at_least_one_tick(gap))
    }

    fn mean_rate(&self) -> f64 {
        self.rate_per_sec
    }
}

/// Diurnal/weekly-modulated non-homogeneous Poisson process.
///
/// The instantaneous rate is `base_rate · d(t) · w(t)` where `d(t)` is a
/// smooth day-shape (cosine, peaking at `peak_hour`, with `day_night_ratio`
/// between peak and trough) and `w(t)` is `weekend_factor` on days 5–6 of
/// each week, 1 otherwise. Sampled by thinning against the rate's upper
/// bound, which is exact for NHPPs.
#[derive(Debug, Clone)]
pub struct DiurnalPoisson {
    base_rate_per_sec: f64,
    day_night_ratio: f64,
    peak_hour: f64,
    weekend_factor: f64,
}

impl DiurnalPoisson {
    /// A diurnal process averaging `mean_rate_per_day` arrivals per day, with
    /// peak/trough ratio `day_night_ratio ≥ 1`, peaking at `peak_hour`
    /// (0–24), and weekends scaled by `weekend_factor ∈ (0, 1]`.
    pub fn new(
        mean_rate_per_day: f64,
        day_night_ratio: f64,
        peak_hour: f64,
        weekend_factor: f64,
    ) -> Self {
        assert!(mean_rate_per_day > 0.0, "rate must be positive");
        assert!(day_night_ratio >= 1.0, "ratio must be >= 1");
        assert!((0.0..24.0).contains(&peak_hour), "peak hour out of range");
        assert!(
            weekend_factor > 0.0 && weekend_factor <= 1.0,
            "weekend factor in (0,1]"
        );
        DiurnalPoisson {
            base_rate_per_sec: mean_rate_per_day / 86_400.0,
            day_night_ratio,
            peak_hour,
            weekend_factor,
        }
    }

    /// The modulation factor at `t` (mean 1 over a week, up to weekend dip).
    fn modulation(&self, t: SimTime) -> f64 {
        // Cosine day shape normalized to mean 1:
        //   d(h) = 1 + a·cos(2π(h - peak)/24),  a = (r-1)/(r+1)
        let r = self.day_night_ratio;
        let a = (r - 1.0) / (r + 1.0);
        let h = t.second_of_day() as f64 / 3600.0;
        let day = 1.0 + a * ((h - self.peak_hour) * std::f64::consts::TAU / 24.0).cos();
        let week = if t.day_of_week() >= 5 {
            self.weekend_factor
        } else {
            1.0
        };
        day * week
    }

    /// Upper bound on the instantaneous rate (for thinning).
    fn rate_bound(&self) -> f64 {
        let r = self.day_night_ratio;
        let a = (r - 1.0) / (r + 1.0);
        self.base_rate_per_sec * (1.0 + a)
    }
}

impl ArrivalProcess for DiurnalPoisson {
    fn next_after(&mut self, after: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        // Lewis–Shedler thinning.
        let bound = self.rate_bound();
        let mut t = after;
        loop {
            let gap = rng.standard_exponential() / bound;
            t += at_least_one_tick(gap);
            let rate = self.base_rate_per_sec * self.modulation(t);
            if rng.uniform() < rate / bound {
                return Some(t);
            }
        }
    }

    fn mean_rate(&self) -> f64 {
        // Weekday mean 1, weekend mean weekend_factor → 5/7 + 2/7·wf.
        self.base_rate_per_sec * (5.0 + 2.0 * self.weekend_factor) / 7.0
    }
}

/// Two-state Markov-modulated Poisson process: a *quiet* state with rate
/// `rate_quiet` and a *burst* state with rate `rate_burst`, with exponential
/// state holding times.
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    rate_quiet: f64,
    rate_burst: f64,
    mean_quiet: f64,
    mean_burst: f64,
    in_burst: bool,
    state_until: SimTime,
}

impl Mmpp2 {
    /// An MMPP(2) starting in the quiet state. Rates in arrivals/second,
    /// mean state durations in seconds.
    pub fn new(rate_quiet: f64, rate_burst: f64, mean_quiet_s: f64, mean_burst_s: f64) -> Self {
        assert!(rate_quiet >= 0.0 && rate_burst > 0.0, "bad rates");
        assert!(mean_quiet_s > 0.0 && mean_burst_s > 0.0, "bad durations");
        Mmpp2 {
            rate_quiet,
            rate_burst,
            mean_quiet: mean_quiet_s,
            mean_burst: mean_burst_s,
            in_burst: false,
            state_until: SimTime::ZERO,
        }
    }

    fn advance_state(&mut self, t: SimTime, rng: &mut SimRng) {
        while t >= self.state_until {
            let mean = if self.in_burst {
                self.mean_burst
            } else {
                self.mean_quiet
            };
            // On first use state_until is 0: initialize rather than flip.
            let hold = rng.standard_exponential() * mean;
            if self.state_until > SimTime::ZERO {
                self.in_burst = !self.in_burst;
            }
            self.state_until = self.state_until.max(t) + SimDuration::from_secs_f64(hold);
        }
    }
}

impl ArrivalProcess for Mmpp2 {
    fn next_after(&mut self, after: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        let mut t = after;
        loop {
            self.advance_state(t, rng);
            let rate = if self.in_burst {
                self.rate_burst
            } else {
                self.rate_quiet
            };
            if rate <= 0.0 {
                // Quiet state emits nothing; jump to the state change.
                t = self.state_until;
                continue;
            }
            let gap = rng.standard_exponential() / rate;
            let cand = t + at_least_one_tick(gap);
            if cand <= self.state_until {
                return Some(cand);
            }
            // Arrival would fall past the state change; restart from there.
            t = self.state_until;
        }
    }

    fn mean_rate(&self) -> f64 {
        let total = self.mean_quiet + self.mean_burst;
        (self.rate_quiet * self.mean_quiet + self.rate_burst * self.mean_burst) / total
    }
}

/// Drain a process into a vector of arrivals in `[start, horizon)` — the
/// form the offline generator consumes.
pub fn arrivals_in(
    process: &mut dyn ArrivalProcess,
    start: SimTime,
    horizon: SimTime,
    rng: &mut SimRng,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    let mut t = start;
    while let Some(next) = process.next_after(t, rng) {
        if next >= horizon {
            break;
        }
        out.push(next);
        t = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_matches() {
        let mut p = Poisson::per_hour(60.0); // 1 per minute
        let mut rng = SimRng::seeded(1);
        let horizon = SimTime::from_days(10);
        let arrivals = arrivals_in(&mut p, SimTime::ZERO, horizon, &mut rng);
        let expect = 60.0 * 24.0 * 10.0;
        let got = arrivals.len() as f64;
        assert!((got - expect).abs() / expect < 0.05, "{got} vs {expect}");
        assert!((p.mean_rate() - 1.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_arrivals_strictly_increase() {
        let mut p = Poisson::new(10.0);
        let mut rng = SimRng::seeded(2);
        let arrivals = arrivals_in(&mut p, SimTime::ZERO, SimTime::from_secs(100), &mut rng);
        for w in arrivals.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(!arrivals.is_empty());
    }

    #[test]
    fn diurnal_peaks_during_the_day() {
        let mut d = DiurnalPoisson::new(1000.0, 5.0, 14.0, 1.0);
        let mut rng = SimRng::seeded(3);
        let arrivals = arrivals_in(&mut d, SimTime::ZERO, SimTime::from_days(28), &mut rng);
        // Count arrivals near the peak (12:00–16:00) vs trough (00:00–04:00).
        let peak = arrivals
            .iter()
            .filter(|t| (12 * 3600..16 * 3600).contains(&(t.second_of_day() as usize)))
            .count();
        let trough = arrivals
            .iter()
            .filter(|t| (0..4 * 3600).contains(&(t.second_of_day() as usize)))
            .count();
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "peak {peak} vs trough {trough}"
        );
    }

    #[test]
    fn diurnal_weekend_dip() {
        let mut d = DiurnalPoisson::new(1000.0, 1.0, 12.0, 0.25);
        let mut rng = SimRng::seeded(4);
        let arrivals = arrivals_in(&mut d, SimTime::ZERO, SimTime::from_days(56), &mut rng);
        let weekday = arrivals.iter().filter(|t| t.day_of_week() < 5).count() as f64 / 5.0;
        let weekend = arrivals.iter().filter(|t| t.day_of_week() >= 5).count() as f64 / 2.0;
        let ratio = weekend / weekday;
        assert!((ratio - 0.25).abs() < 0.07, "weekend/weekday ratio {ratio}");
    }

    #[test]
    fn diurnal_total_rate_close_to_mean() {
        let mut d = DiurnalPoisson::new(500.0, 3.0, 10.0, 0.5);
        let mut rng = SimRng::seeded(5);
        let days = 35u64;
        let arrivals = arrivals_in(&mut d, SimTime::ZERO, SimTime::from_days(days), &mut rng);
        let expect = d.mean_rate() * 86_400.0 * days as f64;
        let got = arrivals.len() as f64;
        assert!((got - expect).abs() / expect < 0.07, "{got} vs {expect}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Compare squared CV of inter-arrival times.
        let mut rng = SimRng::seeded(6);
        let mut mmpp = Mmpp2::new(0.01, 2.0, 500.0, 50.0);
        let arr = arrivals_in(&mut mmpp, SimTime::ZERO, SimTime::from_days(3), &mut rng);
        assert!(arr.len() > 100, "need data, got {}", arr.len());
        let gaps: Vec<f64> = arr
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let scv = var / (mean * mean);
        assert!(scv > 1.5, "MMPP scv {scv} should exceed Poisson's 1.0");
    }

    #[test]
    fn mmpp_mean_rate_formula() {
        let m = Mmpp2::new(0.1, 1.0, 300.0, 100.0);
        let expect = (0.1 * 300.0 + 1.0 * 100.0) / 400.0;
        assert!((m.mean_rate() - expect).abs() < 1e-12);
    }

    #[test]
    fn mmpp_zero_quiet_rate_still_progresses() {
        let mut m = Mmpp2::new(0.0, 5.0, 60.0, 60.0);
        let mut rng = SimRng::seeded(7);
        let arr = arrivals_in(&mut m, SimTime::ZERO, SimTime::from_hours(10), &mut rng);
        assert!(!arr.is_empty(), "burst state must emit arrivals");
        for w in arr.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn determinism_same_seed_same_arrivals() {
        let run = |seed| {
            let mut p = DiurnalPoisson::new(200.0, 2.0, 9.0, 0.5);
            let mut rng = SimRng::seeded(seed);
            arrivals_in(&mut p, SimTime::ZERO, SimTime::from_days(2), &mut rng)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
