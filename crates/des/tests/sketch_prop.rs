//! Property tests for the mergeable quantile sketch.
//!
//! Two families of properties, with deliberately different strengths:
//!
//! 1. **Algebraic, exact.** Merge is element-wise `u64` addition over a
//!    fixed bin layout, so it must be *exactly* associative, commutative,
//!    and partition-invariant — merge-then-query equals query-on-pooled
//!    data bit for bit. These are `assert_eq!` on whole sketches, no
//!    tolerance. This is the property that makes a sketchbook's pooled
//!    tables independent of slot order, and it is precisely what adaptive
//!    rank sketches (t-digest, KLL) cannot offer.
//!
//! 2. **Analytic, bounded.** Reported quantiles stay within the documented
//!    [`RELATIVE_ERROR`] of exact sorted-sample quantiles on uniform,
//!    exponential, and bimodal inputs, under the same nearest-rank
//!    convention as [`exact_quantile`].

use tg_des::sketch::{QuantileSketch, RELATIVE_ERROR};
use tg_des::stats::exact_quantile;

/// Deterministic 64-bit LCG (MMIX constants); no external RNG needed.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn uniform(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n).map(|_| lo + (hi - lo) * rng.next_f64()).collect()
}

fn exponential(n: usize, mean: f64, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| -mean * (1.0 - rng.next_f64()).ln())
        .collect()
}

/// Two well-separated uniform lobes: short jobs around ~1 minute, long
/// jobs around ~10 hours — the shape batch wait times actually have.
fn bimodal(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            if rng.next_f64() < 0.7 {
                30.0 + 60.0 * rng.next_f64()
            } else {
                30_000.0 + 12_000.0 * rng.next_f64()
            }
        })
        .collect()
}

/// A "nasty" stream: zeros, sub-nanosecond values, year-scale values, and
/// everything in between — exercises the under/over guard bins too.
fn wild(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| match rng.next_u64() % 5 {
            0 => 0.0,
            1 => rng.next_f64() * 1e-10,
            2 => rng.next_f64() * 1.0,
            3 => rng.next_f64() * 86_400.0,
            _ => rng.next_f64() * 3.2e7, // ~ a year of seconds
        })
        .collect()
}

fn sketch_of(vals: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in vals {
        s.record(v);
    }
    s
}

#[test]
fn merge_is_exactly_commutative() {
    for seed in 1..=8u64 {
        let xs = wild(400, seed);
        let ys = exponential(300, 500.0, seed ^ 0xFF);
        let (a, b) = (sketch_of(&xs), sketch_of(&ys));
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba, "seed {seed}: a⊕b != b⊕a");
    }
}

#[test]
fn merge_is_exactly_associative() {
    for seed in 1..=8u64 {
        let (a, b, c) = (
            sketch_of(&wild(300, seed)),
            sketch_of(&uniform(250, 0.0, 7200.0, seed ^ 0xA)),
            sketch_of(&bimodal(350, seed ^ 0xB)),
        );
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge_from(&b);
        left.merge_from(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge_from(&c);
        let mut right = a.clone();
        right.merge_from(&bc);
        assert_eq!(left, right, "seed {seed}: (a⊕b)⊕c != a⊕(b⊕c)");
    }
}

/// Merge-then-query ≡ query-then-pool, for *any* partition of the stream:
/// splitting the observations across k sketches (as a sketchbook splits
/// spans across its keyed slots) and merging yields the whole-stream sketch
/// bit for bit — so every query answer is identical too.
#[test]
fn any_partition_merges_to_the_whole_stream_sketch() {
    for seed in 1..=10u64 {
        let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9));
        let vals = wild(1000, seed);
        let whole = sketch_of(&vals);
        let k = 2 + (rng.next_u64() % 6) as usize;
        let mut parts = vec![QuantileSketch::new(); k];
        for &v in &vals {
            parts[(rng.next_u64() % k as u64) as usize].record(v);
        }
        let mut merged = QuantileSketch::new();
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(merged, whole, "seed {seed}: {k}-way partition diverged");
        // And therefore every answer matches exactly, not approximately.
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q));
        }
        assert_eq!(merged.mean(), whole.mean());
        assert_eq!(merged.summary(), whole.summary());
    }
}

fn check_bound(vals: &[f64], label: &str) {
    let s = sketch_of(vals);
    let mut sorted = vals.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for q in [0.5, 0.95, 0.99] {
        let want = exact_quantile(&sorted, q).unwrap();
        let got = s.quantile(q);
        // Same nearest-rank convention on both sides, so the only error is
        // the half-bin width — the documented bound, plus float dust.
        let tol = want.abs() * (RELATIVE_ERROR + 1e-9) + 1e-9;
        assert!(
            (got - want).abs() <= tol,
            "{label} q={q}: sketch {got} vs exact {want} (tol {tol})"
        );
    }
    // Extremes are tracked exactly.
    assert_eq!(s.min(), sorted[0], "{label}: min");
    assert_eq!(s.max(), sorted[sorted.len() - 1], "{label}: max");
    // The mean inherits the same per-value midpoint bound.
    let exact_mean = vals.iter().sum::<f64>() / vals.len() as f64;
    assert!(
        (s.mean() - exact_mean).abs() <= exact_mean.abs() * RELATIVE_ERROR + 1e-9,
        "{label}: mean {} vs exact {exact_mean}",
        s.mean()
    );
}

#[test]
fn quantiles_within_bound_on_uniform_input() {
    check_bound(&uniform(4000, 0.0, 3600.0, 0xA11CE), "uniform");
    check_bound(&uniform(4000, 1.0, 100.0, 0xA11CF), "uniform-narrow");
}

#[test]
fn quantiles_within_bound_on_exponential_input() {
    check_bound(&exponential(4000, 1800.0, 0xB0B), "exponential");
    check_bound(&exponential(4000, 0.001, 0xB0C), "exponential-fast");
}

#[test]
fn quantiles_within_bound_on_bimodal_input() {
    check_bound(&bimodal(4000, 0xD1CE), "bimodal");
}

#[test]
fn quantiles_within_bound_on_many_random_seeds() {
    for seed in 100..130u64 {
        check_bound(&exponential(500, 60.0 * (seed - 99) as f64, seed), "sweep");
    }
}

/// Merging an empty sketch is the identity, in both directions.
#[test]
fn empty_is_the_merge_identity() {
    let s = sketch_of(&exponential(200, 42.0, 7));
    let mut left = QuantileSketch::new();
    left.merge_from(&s);
    assert_eq!(left, s);
    let mut right = s.clone();
    right.merge_from(&QuantileSketch::new());
    assert_eq!(right, s);
}
