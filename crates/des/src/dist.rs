//! Probability distributions for workload modelling.
//!
//! Implemented locally (rather than via `rand_distr`) so that sampling
//! algorithms are fixed, documented, and deterministic under our stream
//! discipline. [`DistKind`] is the one continuous distribution type: what
//! scenario configs store, what profiles hold, and what draws a value. Its
//! variants cover what forty years of workload-characterization literature
//! says grid workloads look like:
//!
//! * inter-arrival times — exponential, two-phase hyperexponential (burstiness),
//! * runtimes — log-normal, Weibull, gamma,
//! * heavy-tailed sizes — Pareto,
//! * plus uniform, normal and constant.
//!
//! [`Zipf`] draws popularity / per-user activity ranks. Categorical mixes
//! use [`SimRng::pick_weighted`].
//!
//! Every sampler draws only from [`SimRng`]; sample moments are unit-tested
//! against the closed forms ([`DistKind::mean`] and the test's raw moments).

use crate::param::Rule;
use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

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

/// Zipf over ranks `1..=n` with exponent `s`: `P(k) ∝ k^-s`.
///
/// Models per-user activity skew and configuration popularity. Sampling is
/// O(log n) by binary search over the precomputed CDF (n is at most a few
/// hundred thousand in our scenarios, so the table is cheap).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
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
        Zipf { n, cdf }
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

/// A continuous sampling distribution: a closed, serializable description
/// that also draws its own values — what scenario config files store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
#[serde(deny_unknown_fields)]
pub enum DistKind {
    /// Degenerate: every draw is `value`.
    Constant {
        /// The constant value.
        value: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential (rate `1/mean`), the memoryless workhorse of Poisson
    /// arrival processes.
    Exponential {
        /// Mean (1/λ).
        mean: f64,
    },
    /// Normal (Gaussian); draws may be negative.
    Normal {
        /// Mean μ.
        mu: f64,
        /// Standard deviation σ.
        sigma: f64,
    },
    /// Log-normal `exp(N(μ, σ))` given by its *linear-scale* mean and
    /// coefficient of variation — the canonical job-runtime distribution
    /// ("runtimes average 2 h with high spread").
    LogNormal {
        /// Linear-scale mean.
        mean: f64,
        /// Coefficient of variation (sd / mean).
        cv: f64,
    },
    /// Weibull; shape `k < 1` gives the decreasing-hazard runtimes seen in
    /// long-tailed batch traces.
    Weibull {
        /// Shape k.
        k: f64,
        /// Scale λ.
        lambda: f64,
    },
    /// Pareto (type I): heavy-tailed, with an infinite mean for `alpha ≤ 1`.
    Pareto {
        /// Scale (minimum) x_m.
        xm: f64,
        /// Tail index α; smaller is heavier.
        alpha: f64,
    },
    /// Gamma, drawn by Marsaglia–Tsang squeeze.
    Gamma {
        /// Shape k.
        k: f64,
        /// Scale θ.
        theta: f64,
    },
    /// Two-phase hyperexponential (CV ≥ 1, bursty inter-arrivals) from the
    /// balanced moment-matching fit to a mean and squared CV.
    Hyperexp {
        /// Mean.
        mean: f64,
        /// Squared coefficient of variation (≥ 1).
        scv: f64,
    },
}

impl DistKind {
    /// Check the parameters [`DistKind::sample`] requires. The error names
    /// the offending parameter, e.g. `cv: …`.
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

    /// Draw one value. The parameters must pass [`DistKind::validate`].
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            DistKind::Constant { value } => value,
            DistKind::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            DistKind::Exponential { mean } => rng.standard_exponential() / (1.0 / mean),
            DistKind::Normal { mu, sigma } => mu + sigma * rng.standard_normal(),
            DistKind::LogNormal { mean, cv } => {
                let (mu, sigma) = lognormal_params(mean, cv);
                (mu + sigma * rng.standard_normal()).exp()
            }
            DistKind::Weibull { k, lambda } => lambda * rng.standard_exponential().powf(1.0 / k),
            DistKind::Pareto { xm, alpha } => xm / (1.0 - rng.uniform()).powf(1.0 / alpha),
            DistKind::Gamma { k, theta } => theta * sample_std_gamma(k, rng),
            DistKind::Hyperexp { mean, scv } => {
                let (p, l1, l2) = hyperexp_params(mean, scv);
                let lambda = if rng.chance(p) { l1 } else { l2 };
                rng.standard_exponential() / lambda
            }
        }
    }

    /// The closed-form mean, or `None` where it is infinite (Pareto with
    /// `alpha ≤ 1`).
    pub fn mean(&self) -> Option<f64> {
        Some(match *self {
            DistKind::Constant { value } => value,
            DistKind::Uniform { lo, hi } => 0.5 * (lo + hi),
            DistKind::Exponential { mean }
            | DistKind::LogNormal { mean, .. }
            | DistKind::Hyperexp { mean, .. } => mean,
            DistKind::Normal { mu, .. } => mu,
            DistKind::Weibull { k, lambda } => lambda * gamma_fn(1.0 + 1.0 / k),
            DistKind::Pareto { xm, alpha } => {
                return (alpha > 1.0).then(|| alpha * xm / (alpha - 1.0))
            }
            DistKind::Gamma { k, theta } => k * theta,
        })
    }
}

/// Log-scale `(μ, σ)` of the log-normal with linear-scale `mean` and `cv`.
fn lognormal_params(mean: f64, cv: f64) -> (f64, f64) {
    let sigma2 = (1.0 + cv * cv).ln();
    (mean.ln() - 0.5 * sigma2, sigma2.sqrt())
}

/// Phase probability and rates `(p, l1, l2)` of the balanced two-phase
/// hyperexponential with the given `mean` and squared CV.
fn hyperexp_params(mean: f64, scv: f64) -> (f64, f64, f64) {
    let p = 0.5 * (1.0 + ((scv - 1.0) / (scv + 1.0)).sqrt());
    (p, 2.0 * p / mean, 2.0 * (1.0 - p) / mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Closed-form raw moment `E[X^n]` (`n ≤ 4`); infinite where it diverges.
    fn raw_moment(kind: &DistKind, n: i32) -> f64 {
        let nf = n as f64;
        let factorial = (1..=n).product::<i32>() as f64;
        match *kind {
            DistKind::Constant { value } => value.powi(n),
            DistKind::Uniform { lo, hi } => {
                (hi.powi(n + 1) - lo.powi(n + 1)) / ((nf + 1.0) * (hi - lo))
            }
            DistKind::Exponential { mean } => factorial * mean.powi(n),
            DistKind::Normal { mu, sigma } => {
                let s2 = sigma * sigma;
                [
                    1.0,
                    mu,
                    mu * mu + s2,
                    mu.powi(3) + 3.0 * mu * s2,
                    mu.powi(4) + 6.0 * mu * mu * s2 + 3.0 * s2 * s2,
                ][n as usize]
            }
            DistKind::LogNormal { mean, cv } => {
                let (mu, sigma) = lognormal_params(mean, cv);
                (nf * mu + 0.5 * nf * nf * sigma * sigma).exp()
            }
            DistKind::Weibull { k, lambda } => lambda.powi(n) * gamma_fn(1.0 + nf / k),
            DistKind::Pareto { xm, alpha } => {
                if alpha > nf {
                    alpha * xm.powi(n) / (alpha - nf)
                } else {
                    f64::INFINITY
                }
            }
            DistKind::Gamma { k, theta } => {
                theta.powi(n) * (0..n).map(|i| k + i as f64).product::<f64>()
            }
            DistKind::Hyperexp { mean, scv } => {
                let (p, l1, l2) = hyperexp_params(mean, scv);
                factorial * (p / l1.powi(n) + (1.0 - p) / l2.powi(n))
            }
        }
    }

    /// Sample mean and (biased) sample variance of `n` draws at `seed`.
    fn sample_mean_var(kind: &DistKind, seed: u64, n: usize) -> (f64, f64) {
        let mut rng = SimRng::seeded(seed);
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = kind.sample(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        (mean, sumsq / n as f64 - mean * mean)
    }

    /// One parameter point per variant (two where a shape changes the
    /// sampling path or the tail), all with finite variance.
    fn finite_variance_kinds() -> Vec<DistKind> {
        vec![
            DistKind::Constant { value: 3.0 },
            DistKind::Uniform { lo: 2.0, hi: 5.0 },
            DistKind::Exponential { mean: 5.0 },
            DistKind::Normal {
                mu: 10.0,
                sigma: 3.0,
            },
            DistKind::LogNormal {
                mean: 100.0,
                cv: 1.0,
            },
            DistKind::LogNormal {
                mean: 100.0,
                cv: 2.0,
            },
            DistKind::Weibull {
                k: 1.5,
                lambda: 10.0,
            },
            DistKind::Weibull {
                k: 0.7,
                lambda: 4.0,
            },
            DistKind::Pareto {
                xm: 1.0,
                alpha: 5.0,
            },
            // Finite variance, infinite fourth moment: mean checked, cv not.
            DistKind::Pareto {
                xm: 1.0,
                alpha: 2.5,
            },
            DistKind::Gamma { k: 3.0, theta: 2.0 },
            DistKind::Gamma { k: 0.5, theta: 1.0 },
            DistKind::Hyperexp {
                mean: 10.0,
                scv: 4.0,
            },
            DistKind::Hyperexp {
                mean: 1.0,
                scv: 1.0,
            },
        ]
    }

    #[test]
    fn every_kind_matches_its_closed_form_mean_and_cv() {
        let n = 200_000;
        for kind in finite_variance_kinds() {
            let mean = kind.mean().expect("finite mean");
            let m1 = raw_moment(&kind, 1);
            assert!((m1 - mean).abs() <= 1e-9 * mean.abs(), "{kind:?}");
            let var = raw_moment(&kind, 2) - m1 * m1;
            // Fourth central moment from the raw moments.
            let mu4 = raw_moment(&kind, 4) - 4.0 * m1 * raw_moment(&kind, 3)
                + 6.0 * m1 * m1 * raw_moment(&kind, 2)
                - 3.0 * m1.powi(4);
            let eps = 1e-12 * mean.abs();
            for seed in 1..=3 {
                let (got_mean, got_var) = sample_mean_var(&kind, seed, n);
                // Mean within 5 standard errors (CLT).
                let se = (var / n as f64).sqrt();
                assert!(
                    (got_mean - mean).abs() <= 5.0 * se + eps,
                    "{kind:?} seed {seed}: mean {got_mean} vs {mean} (se {se})"
                );
                if mu4.is_finite() {
                    // Sample variance within 5 standard errors, so the cv
                    // (sd / mean, the mean being checked above) is as well.
                    let se_var = ((mu4 - var * var) / n as f64).sqrt();
                    assert!(
                        (got_var - var).abs() <= 5.0 * se_var + eps,
                        "{kind:?} seed {seed}: var {got_var} vs {var} (se {se_var})"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_cv_matches_the_cv_parameters() {
        let cv2 = |kind: DistKind| {
            let m1 = raw_moment(&kind, 1);
            (raw_moment(&kind, 2) - m1 * m1) / (m1 * m1)
        };
        for cv in [0.0, 0.5, 1.5, 3.0] {
            let got = cv2(DistKind::LogNormal { mean: 7.0, cv });
            assert!((got - cv * cv).abs() < 1e-9, "log-normal cv {cv}: {got}");
        }
        for scv in [1.0, 2.0, 6.0] {
            let got = cv2(DistKind::Hyperexp { mean: 3.0, scv });
            assert!((got - scv).abs() < 1e-9, "hyperexp scv {scv}: {got}");
        }
        assert!((cv2(DistKind::Exponential { mean: 9.0 }) - 1.0).abs() < 1e-12);
        // Weibull with shape 1 is the exponential with mean λ.
        let w = DistKind::Weibull {
            k: 1.0,
            lambda: 4.0,
        };
        assert!((w.mean().unwrap() - 4.0).abs() < 1e-9);
        assert!((cv2(w) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pareto_tail_and_infinite_mean() {
        let d = DistKind::Pareto {
            xm: 1.0,
            alpha: 2.5,
        };
        let mut rng = SimRng::seeded(5);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 1.0);
        }
        let heavy = DistKind::Pareto {
            xm: 1.0,
            alpha: 0.9,
        };
        assert_eq!(heavy.mean(), None, "infinite mean");
    }

    #[test]
    fn gamma_small_shape_boost_path_is_non_negative() {
        let d = DistKind::Gamma { k: 0.5, theta: 1.0 };
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
    fn constant_is_constant() {
        let d = DistKind::Constant { value: 7.5 };
        let mut rng = SimRng::seeded(15);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 7.5);
        }
    }

    #[test]
    fn uniform_bounds_respected() {
        let d = DistKind::Uniform { lo: 2.0, hi: 3.0 };
        let mut rng = SimRng::seeded(16);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn dist_kind_validate_accepts_what_samples_finitely() {
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
        let mut rng = SimRng::seeded(17);
        for d in good {
            assert_eq!(d.validate(), Ok(()), "{d:?}");
            let x = d.sample(&mut rng);
            assert!(x.is_finite(), "{d:?} drew {x}");
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
