//! Probability distributions for workload modelling.
//!
//! Implemented locally (rather than via `rand_distr`) so that sampling
//! algorithms are fixed, documented, and deterministic under our stream
//! discipline. The set covers what forty years of workload-characterization
//! literature says grid workloads look like:
//!
//! * inter-arrival times — [`Exponential`], [`Hyperexponential`] (burstiness),
//! * runtimes — [`LogNormal`], [`Weibull`], [`Gamma`],
//! * heavy-tailed sizes — [`Pareto`],
//! * popularity / per-user activity — [`Zipf`],
//! * categorical mixes — [`Empirical`] (Walker alias method),
//! * plus [`Uniform`], [`Normal`], [`Constant`].
//!
//! Every sampler draws only from [`SimRng`]; moments are unit-tested against
//! closed forms.

use crate::param::Rule;
use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// A continuous, non-negative sampling distribution.
pub trait Dist {
    /// Draw one value.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean, if finite and known in closed form.
    fn mean(&self) -> Option<f64>;
}

/// Degenerate distribution: always `value`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constant {
    /// The single value returned by every draw.
    pub value: f64,
}

impl Constant {
    /// A constant distribution at `value`.
    pub fn new(value: f64) -> Self {
        Constant { value }
    }
}

impl Dist for Constant {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.value
    }
    fn mean(&self) -> Option<f64> {
        Some(self.value)
    }
}

/// Uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Uniform over `[lo, hi)`. Panics if `lo > hi` or bounds are non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform bounds"
        );
        Uniform { lo, hi }
    }
}

impl Dist for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.uniform_range(self.lo, self.hi)
    }
    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`). The memoryless workhorse
/// for Poisson arrival processes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    /// Rate parameter λ > 0.
    pub lambda: f64,
}

impl Exponential {
    /// Exponential with rate `lambda`. Panics unless `lambda > 0` and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive"
        );
        Exponential { lambda }
    }

    /// Exponential with the given mean (`1/lambda`).
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        Exponential { lambda: 1.0 / mean }
    }
}

impl Dist for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF; 1 - U avoids ln(0).
        -(1.0 - rng.uniform()).ln() / self.lambda
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// Normal (Gaussian); draws may be negative — see [`Normal::sample_clamped`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    /// Mean μ.
    pub mu: f64,
    /// Standard deviation σ ≥ 0.
    pub sigma: f64,
}

impl Normal {
    /// Normal with mean `mu` and standard deviation `sigma ≥ 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "bad normal params"
        );
        Normal { mu, sigma }
    }

    /// Draw, truncated below at `lo` by clamping (fast, slightly biases the
    /// mean upward; fine for "runtime can't be negative" uses).
    pub fn sample_clamped(&self, rng: &mut SimRng, lo: f64) -> f64 {
        self.sample(rng).max(lo)
    }
}

impl Dist for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mu + self.sigma * rng.standard_normal()
    }
    fn mean(&self) -> Option<f64> {
        Some(self.mu)
    }
}

/// Log-normal: `exp(N(mu, sigma))`. The canonical job-runtime distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    /// Location parameter of the underlying normal (log scale).
    pub mu: f64,
    /// Scale parameter of the underlying normal (log scale), σ ≥ 0.
    pub sigma: f64,
}

impl LogNormal {
    /// Log-normal from log-scale parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "bad lognormal params"
        );
        LogNormal { mu, sigma }
    }

    /// Log-normal with the given *linear-scale* mean and coefficient of
    /// variation `cv = sd/mean` — the natural way to specify "runtimes
    /// average 2 h with high spread".
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        assert!(cv.is_finite() && cv >= 0.0, "cv must be non-negative");
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        LogNormal {
            mu,
            sigma: sigma2.sqrt(),
        }
    }
}

impl Dist for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

/// Weibull with shape `k` and scale `lambda`. `k < 1` gives the
/// decreasing-hazard runtimes seen in long-tailed batch traces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weibull {
    /// Shape k > 0.
    pub k: f64,
    /// Scale λ > 0.
    pub lambda: f64,
}

impl Weibull {
    /// Weibull with shape `k > 0` and scale `lambda > 0`.
    pub fn new(k: f64, lambda: f64) -> Self {
        assert!(
            k.is_finite() && k > 0.0 && lambda.is_finite() && lambda > 0.0,
            "bad weibull params"
        );
        Weibull { k, lambda }
    }
}

impl Dist for Weibull {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.lambda * (-(1.0 - rng.uniform()).ln()).powf(1.0 / self.k)
    }
    fn mean(&self) -> Option<f64> {
        Some(self.lambda * gamma_fn(1.0 + 1.0 / self.k))
    }
}

/// Pareto (type I) with scale `xm` and tail index `alpha`. Heavy-tailed;
/// the mean is infinite for `alpha ≤ 1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pareto {
    /// Minimum value (scale) x_m > 0.
    pub xm: f64,
    /// Tail index α > 0; smaller is heavier.
    pub alpha: f64,
}

impl Pareto {
    /// Pareto with scale `xm > 0` and tail index `alpha > 0`.
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(
            xm.is_finite() && xm > 0.0 && alpha.is_finite() && alpha > 0.0,
            "bad pareto params"
        );
        Pareto { xm, alpha }
    }
}

impl Dist for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.xm / (1.0 - rng.uniform()).powf(1.0 / self.alpha)
    }
    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.xm / (self.alpha - 1.0))
    }
}

/// Gamma with shape `k` and scale `theta`, via Marsaglia–Tsang squeeze.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gamma {
    /// Shape k > 0.
    pub k: f64,
    /// Scale θ > 0.
    pub theta: f64,
}

impl Gamma {
    /// Gamma with shape `k > 0` and scale `theta > 0`.
    pub fn new(k: f64, theta: f64) -> Self {
        assert!(
            k.is_finite() && k > 0.0 && theta.is_finite() && theta > 0.0,
            "bad gamma params"
        );
        Gamma { k, theta }
    }
}

impl Dist for Gamma {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.theta * sample_std_gamma(self.k, rng)
    }
    fn mean(&self) -> Option<f64> {
        Some(self.k * self.theta)
    }
}

/// Marsaglia–Tsang (2000) standard gamma sampler; handles `k < 1` by boosting.
fn sample_std_gamma(k: f64, rng: &mut SimRng) -> f64 {
    if k < 1.0 {
        // Gamma(k) = Gamma(k+1) * U^(1/k)
        let boost = rng.uniform().powf(1.0 / k);
        return sample_std_gamma(k + 1.0, rng) * boost;
    }
    let d = k - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.standard_normal();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.uniform();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// Lanczos approximation of Γ(x) for x > 0 (used for Weibull means and tests).
pub fn gamma_fn(x: f64) -> f64 {
    // g = 7, n = 9 coefficients (Numerical Recipes / Boost-style).
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// Two-phase hyperexponential: with probability `p` draw Exp(l1), else
/// Exp(l2). CV > 1 — models bursty inter-arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hyperexponential {
    /// Probability of the first phase.
    pub p: f64,
    /// Rate of the first phase.
    pub l1: f64,
    /// Rate of the second phase.
    pub l2: f64,
}

impl Hyperexponential {
    /// Two-phase hyperexponential. Panics unless `0 ≤ p ≤ 1` and rates positive.
    pub fn new(p: f64, l1: f64, l2: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p out of range");
        assert!(l1 > 0.0 && l2 > 0.0, "rates must be positive");
        Hyperexponential { p, l1, l2 }
    }

    /// Balanced two-phase fit for a target `mean` and squared coefficient of
    /// variation `scv ≥ 1` (standard moment-matching construction).
    pub fn from_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(mean > 0.0 && scv >= 1.0, "need mean>0, scv>=1");
        let p = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
        let l1 = 2.0 * p / mean;
        let l2 = 2.0 * (1.0 - p) / mean;
        Hyperexponential { p, l1, l2 }
    }
}

impl Dist for Hyperexponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let lambda = if rng.chance(self.p) { self.l1 } else { self.l2 };
        -(1.0 - rng.uniform()).ln() / lambda
    }
    fn mean(&self) -> Option<f64> {
        Some(self.p / self.l1 + (1.0 - self.p) / self.l2)
    }
}

/// Zipf over ranks `1..=n` with exponent `s`: `P(k) ∝ k^-s`.
///
/// Models per-user activity skew and configuration popularity. Sampling is
/// O(log n) by binary search over the precomputed CDF (n is at most a few
/// hundred thousand in our scenarios, so the table is cheap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    n: u64,
    s: f64,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf over `1..=n` with exponent `s ≥ 0`. Panics if `n == 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf needs n >= 1");
        assert!(s.is_finite() && s >= 0.0, "bad zipf exponent");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { n, s, cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exponent.
    pub fn s(&self) -> f64 {
        self.s
    }

    /// Draw a rank in `1..=n` (rank 1 is the most popular).
    pub fn sample_rank(&self, rng: &mut SimRng) -> u64 {
        let u = rng.uniform();
        // partition_point returns the count of entries < u, i.e. the index of
        // the first cdf entry >= u.
        let idx = self.cdf.partition_point(|&c| c < u);
        (idx as u64 + 1).min(self.n)
    }

    /// Probability mass of rank `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        assert!((1..=self.n).contains(&k));
        let prev = if k == 1 {
            0.0
        } else {
            self.cdf[(k - 2) as usize]
        };
        self.cdf[(k - 1) as usize] - prev
    }
}

impl Dist for Zipf {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_rank(rng) as f64
    }
    fn mean(&self) -> Option<f64> {
        Some((1..=self.n).map(|k| k as f64 * self.pmf(k)).sum())
    }
}

/// Empirical categorical distribution over `0..weights.len()` using Walker's
/// alias method: O(n) setup, O(1) sampling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Empirical {
    prob: Vec<f64>,
    alias: Vec<usize>,
    weights: Vec<f64>,
}

impl Empirical {
    /// Build from non-negative weights (at least one positive). NaN/negative
    /// weights are treated as zero.
    pub fn new(weights: &[f64]) -> Self {
        let w: Vec<f64> = weights
            .iter()
            .map(|&x| if x.is_finite() && x > 0.0 { x } else { 0.0 })
            .collect();
        let total: f64 = w.iter().sum();
        assert!(total > 0.0, "empirical: need a positive weight");
        let n = w.len();
        let mut prob = vec![0.0; n];
        let mut alias = vec![0usize; n];
        let mut scaled: Vec<f64> = w.iter().map(|&x| x * n as f64 / total).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in large {
            prob[i] = 1.0;
        }
        for i in small {
            prob[i] = 1.0;
        }
        Empirical {
            prob,
            alias,
            weights: w,
        }
    }

    /// Draw a category index.
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let n = self.prob.len();
        let i = rng.below(n as u64) as usize;
        if rng.uniform() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if there are no categories (never constructible; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// The normalized probability of category `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let total: f64 = self.weights.iter().sum();
        self.weights[i] / total
    }
}

impl Dist for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_index(rng) as f64
    }
    fn mean(&self) -> Option<f64> {
        Some(
            (0..self.len())
                .map(|i| i as f64 * self.probability(i))
                .sum(),
        )
    }
}

/// A serializable, closed description of any distribution in this module —
/// what scenario config files store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
#[serde(deny_unknown_fields)]
pub enum DistKind {
    /// See [`Constant`].
    Constant {
        /// The constant value.
        value: f64,
    },
    /// See [`Uniform`].
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// See [`Exponential`] (specified by mean, the ergonomic form).
    Exponential {
        /// Mean (1/λ).
        mean: f64,
    },
    /// See [`Normal`].
    Normal {
        /// Mean μ.
        mu: f64,
        /// Standard deviation σ.
        sigma: f64,
    },
    /// See [`LogNormal`] (mean / coefficient-of-variation form).
    LogNormal {
        /// Linear-scale mean.
        mean: f64,
        /// Coefficient of variation (sd / mean).
        cv: f64,
    },
    /// See [`Weibull`].
    Weibull {
        /// Shape k.
        k: f64,
        /// Scale λ.
        lambda: f64,
    },
    /// See [`Pareto`].
    Pareto {
        /// Scale (minimum) x_m.
        xm: f64,
        /// Tail index α.
        alpha: f64,
    },
    /// See [`Gamma`].
    Gamma {
        /// Shape k.
        k: f64,
        /// Scale θ.
        theta: f64,
    },
    /// See [`Hyperexponential`] (mean / squared-CV form).
    Hyperexp {
        /// Mean.
        mean: f64,
        /// Squared coefficient of variation (≥ 1).
        scv: f64,
    },
}

impl DistKind {
    /// Check the parameters the constructors (and [`DistKind::sample`])
    /// require. The error names the offending parameter, e.g. `cv: …`.
    pub fn validate(&self) -> Result<(), String> {
        use Rule::{AtLeast, Finite, NonNegative, Positive};
        let checks = match *self {
            DistKind::Constant { value } => vec![("value", Finite, value)],
            DistKind::Uniform { lo, hi } => vec![("lo", Finite, lo), ("hi", AtLeast(lo), hi)],
            DistKind::Exponential { mean } => vec![("mean", Positive, mean)],
            DistKind::Normal { mu, sigma } => {
                vec![("mu", Finite, mu), ("sigma", NonNegative, sigma)]
            }
            DistKind::LogNormal { mean, cv } => {
                vec![("mean", Positive, mean), ("cv", NonNegative, cv)]
            }
            DistKind::Weibull { k, lambda } => {
                vec![("k", Positive, k), ("lambda", Positive, lambda)]
            }
            DistKind::Pareto { xm, alpha } => {
                vec![("xm", Positive, xm), ("alpha", Positive, alpha)]
            }
            DistKind::Gamma { k, theta } => vec![("k", Positive, k), ("theta", Positive, theta)],
            DistKind::Hyperexp { mean, scv } => {
                vec![("mean", Positive, mean), ("scv", AtLeast(1.0), scv)]
            }
        };
        checks
            .into_iter()
            .try_for_each(|(name, rule, v)| rule.check(name, v))
    }

    /// Instantiate the described distribution.
    pub fn build(&self) -> Box<dyn Dist + Send + Sync> {
        match *self {
            DistKind::Constant { value } => Box::new(Constant::new(value)),
            DistKind::Uniform { lo, hi } => Box::new(Uniform::new(lo, hi)),
            DistKind::Exponential { mean } => Box::new(Exponential::with_mean(mean)),
            DistKind::Normal { mu, sigma } => Box::new(Normal::new(mu, sigma)),
            DistKind::LogNormal { mean, cv } => Box::new(LogNormal::from_mean_cv(mean, cv)),
            DistKind::Weibull { k, lambda } => Box::new(Weibull::new(k, lambda)),
            DistKind::Pareto { xm, alpha } => Box::new(Pareto::new(xm, alpha)),
            DistKind::Gamma { k, theta } => Box::new(Gamma::new(k, theta)),
            DistKind::Hyperexp { mean, scv } => {
                Box::new(Hyperexponential::from_mean_scv(mean, scv))
            }
        }
    }

    /// Draw one value directly from the description.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        // Small enum dispatch; avoids boxing on hot paths that keep a DistKind.
        match *self {
            DistKind::Constant { value } => value,
            DistKind::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            DistKind::Exponential { mean } => Exponential::with_mean(mean).sample(rng),
            DistKind::Normal { mu, sigma } => Normal::new(mu, sigma).sample(rng),
            DistKind::LogNormal { mean, cv } => LogNormal::from_mean_cv(mean, cv).sample(rng),
            DistKind::Weibull { k, lambda } => Weibull::new(k, lambda).sample(rng),
            DistKind::Pareto { xm, alpha } => Pareto::new(xm, alpha).sample(rng),
            DistKind::Gamma { k, theta } => Gamma::new(k, theta).sample(rng),
            DistKind::Hyperexp { mean, scv } => {
                Hyperexponential::from_mean_scv(mean, scv).sample(rng)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean_var(d: &impl Dist, seed: u64, n: usize) -> (f64, f64) {
        let mut rng = SimRng::seeded(seed);
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = d.sample(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        (mean, sumsq / n as f64 - mean * mean)
    }

    #[test]
    fn exponential_mean_and_memorylessness_proxy() {
        let d = Exponential::with_mean(5.0);
        let (mean, var) = empirical_mean_var(&d, 1, 200_000);
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 25.0).abs() < 1.5, "var {var}");
        assert_eq!(d.mean(), Some(5.0));
    }

    #[test]
    fn lognormal_from_mean_cv_matches_target() {
        let d = LogNormal::from_mean_cv(100.0, 2.0);
        let (mean, var) = empirical_mean_var(&d, 2, 400_000);
        assert!((mean - 100.0).abs() < 3.0, "mean {mean}");
        let cv = var.sqrt() / mean;
        assert!((cv - 2.0).abs() < 0.2, "cv {cv}");
        assert!((d.mean().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn weibull_mean_matches_gamma_formula() {
        let d = Weibull::new(1.5, 10.0);
        let (mean, _) = empirical_mean_var(&d, 3, 200_000);
        let expect = d.mean().unwrap();
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let d = Weibull::new(1.0, 4.0);
        assert!((d.mean().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn pareto_tail_and_mean() {
        let d = Pareto::new(1.0, 2.5);
        let (mean, _) = empirical_mean_var(&d, 4, 400_000);
        let expect = 2.5 / 1.5;
        assert!((mean - expect).abs() < 0.05, "mean {mean} vs {expect}");
        let mut rng = SimRng::seeded(5);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 1.0);
        }
        assert_eq!(Pareto::new(1.0, 0.9).mean(), None, "infinite mean");
    }

    #[test]
    fn gamma_mean_and_variance() {
        let d = Gamma::new(3.0, 2.0);
        let (mean, var) = empirical_mean_var(&d, 6, 300_000);
        assert!((mean - 6.0).abs() < 0.1, "mean {mean}");
        assert!((var - 12.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn gamma_small_shape_boost_path() {
        let d = Gamma::new(0.5, 1.0);
        let (mean, _) = empirical_mean_var(&d, 7, 300_000);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let mut rng = SimRng::seeded(8);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn gamma_fn_known_values() {
        assert!((gamma_fn(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma_fn(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma_fn(5.0) - 24.0).abs() < 1e-7);
        assert!((gamma_fn(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        assert!((gamma_fn(1.5) - 0.5 * std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn hyperexponential_moment_matching() {
        let d = Hyperexponential::from_mean_scv(10.0, 4.0);
        let (mean, var) = empirical_mean_var(&d, 9, 400_000);
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
        let scv = var / (mean * mean);
        assert!((scv - 4.0).abs() < 0.3, "scv {scv}");
        assert!((d.mean().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SimRng::seeded(10);
        let mut counts = vec![0u32; 100];
        for _ in 0..100_000 {
            counts[(z.sample_rank(&mut rng) - 1) as usize] += 1;
        }
        assert!(counts[0] > counts[9], "rank 1 should beat rank 10");
        // P(1)/P(2) should be ~2 for s=1.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.25, "ratio {ratio}");
        // pmf sums to 1.
        let total: f64 = (1..=100).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_ranks_in_range() {
        let z = Zipf::new(7, 1.2);
        let mut rng = SimRng::seeded(11);
        for _ in 0..10_000 {
            let r = z.sample_rank(&mut rng);
            assert!((1..=7).contains(&r));
        }
    }

    #[test]
    fn empirical_alias_matches_weights() {
        let e = Empirical::new(&[1.0, 2.0, 0.0, 5.0]);
        let mut rng = SimRng::seeded(12);
        let mut counts = [0u32; 4];
        let n = 200_000;
        for _ in 0..n {
            counts[e.sample_index(&mut rng)] += 1;
        }
        assert_eq!(counts[2], 0);
        for (i, expect) in [(0usize, 1.0 / 8.0), (1, 2.0 / 8.0), (3, 5.0 / 8.0)] {
            let rate = counts[i] as f64 / n as f64;
            assert!((rate - expect).abs() < 0.01, "cat {i}: {rate} vs {expect}");
            assert!((e.probability(i) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_single_category() {
        let e = Empirical::new(&[3.0]);
        let mut rng = SimRng::seeded(13);
        for _ in 0..100 {
            assert_eq!(e.sample_index(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn empirical_all_zero_panics() {
        Empirical::new(&[0.0, f64::NAN, -2.0]);
    }

    #[test]
    fn dist_kind_build_and_sample_agree_on_mean() {
        let kinds = vec![
            DistKind::Constant { value: 3.0 },
            DistKind::Uniform { lo: 0.0, hi: 2.0 },
            DistKind::Exponential { mean: 4.0 },
            DistKind::LogNormal {
                mean: 10.0,
                cv: 1.0,
            },
            DistKind::Gamma { k: 2.0, theta: 3.0 },
            DistKind::Hyperexp {
                mean: 5.0,
                scv: 2.0,
            },
        ];
        for kind in kinds {
            let boxed = kind.build();
            let mut r1 = SimRng::seeded(99);
            let mut acc_direct = 0.0;
            let n = 50_000;
            for _ in 0..n {
                acc_direct += kind.sample(&mut r1);
            }
            let direct_mean = acc_direct / n as f64;
            let closed = boxed.mean().unwrap();
            assert!(
                (direct_mean - closed).abs() / closed.max(1.0) < 0.05,
                "{kind:?}: sampled {direct_mean} vs closed {closed}"
            );
        }
    }

    #[test]
    fn normal_clamped_never_below_floor() {
        let d = Normal::new(0.0, 10.0);
        let mut rng = SimRng::seeded(14);
        for _ in 0..1000 {
            assert!(d.sample_clamped(&mut rng, 0.5) >= 0.5);
        }
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant::new(7.5);
        let mut rng = SimRng::seeded(15);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7.5);
        }
    }

    #[test]
    fn uniform_bounds_respected() {
        let d = Uniform::new(2.0, 3.0);
        let mut rng = SimRng::seeded(16);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn dist_kind_validate_matches_constructors() {
        let good = [
            DistKind::Constant { value: -1.0 },
            DistKind::Uniform { lo: 2.0, hi: 2.0 },
            DistKind::Normal {
                mu: -3.0,
                sigma: 0.0,
            },
            DistKind::LogNormal { mean: 1.0, cv: 0.0 },
            DistKind::Hyperexp {
                mean: 1.0,
                scv: 1.0,
            },
        ];
        for d in good {
            assert_eq!(d.validate(), Ok(()), "{d:?}");
            d.build();
        }
        let bad = [
            (
                DistKind::Constant { value: f64::NAN },
                "value: must be finite, got NaN",
            ),
            (
                DistKind::Uniform { lo: 3.0, hi: 1.0 },
                "hi: must be finite and >= 3, got 1",
            ),
            (DistKind::Exponential { mean: 0.0 }, "mean:"),
            (
                DistKind::Normal {
                    mu: 0.0,
                    sigma: -1.0,
                },
                "sigma:",
            ),
            (
                DistKind::LogNormal {
                    mean: 1.0,
                    cv: -1.0,
                },
                "cv:",
            ),
            (
                DistKind::Weibull {
                    k: 1.0,
                    lambda: f64::INFINITY,
                },
                "lambda:",
            ),
            (
                DistKind::Pareto {
                    xm: 0.0,
                    alpha: 1.0,
                },
                "xm:",
            ),
            (
                DistKind::Gamma {
                    k: 1.0,
                    theta: -2.0,
                },
                "theta:",
            ),
            (
                DistKind::Hyperexp {
                    mean: 1.0,
                    scv: 0.5,
                },
                "scv:",
            ),
        ];
        for (d, want) in bad {
            let err = d.validate().expect_err(want);
            assert!(err.starts_with(want), "want `{want}…`, got `{err}`");
        }
    }
}
