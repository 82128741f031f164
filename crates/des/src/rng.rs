//! Deterministic random-number streams.
//!
//! Every stochastic component of a simulation (each arrival process, each
//! service-time sampler, each router) gets its **own** stream, derived from a
//! single master seed and a stable stream identifier. Two consequences:
//!
//! 1. Runs are bit-reproducible given `(master_seed)`.
//! 2. Streams are independent: adding a component, or a component drawing
//!    more numbers, never perturbs the sequence any *other* component sees.
//!    This is the "common random numbers" discipline that makes A/B policy
//!    comparisons low-variance.
//!
//! Derivation uses SplitMix64 over `master_seed ⊕ hash(stream id)` —
//! SplitMix64 is the recommended seeder for small PRNGs and guarantees
//! distinct, well-mixed states even for adjacent identifiers.

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

/// Stable identifier for a random stream.
///
/// Combines a static label (component kind) with a numeric discriminator
/// (component instance), e.g. `StreamId::new("arrival", site_index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    label: &'static str,
    index: u64,
}

impl StreamId {
    /// A stream id from a label and instance index.
    pub const fn new(label: &'static str, index: u64) -> Self {
        StreamId { label, index }
    }

    /// A stream id from a label only (singleton components).
    pub const fn global(label: &'static str) -> Self {
        StreamId { label, index: 0 }
    }

    /// FNV-1a over the label bytes, mixed with the index.
    fn mix(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in self.label.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^ self.index.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// SplitMix64 step — the standard seed-expansion function.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Factory deriving independent [`SimRng`] streams from one master seed.
#[derive(Debug, Clone, Copy)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// A factory keyed by `master_seed`.
    pub const fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// The master seed this factory was built with.
    pub const fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derive the stream for `id`. The same `(master_seed, id)` always yields
    /// the same sequence.
    pub fn stream(&self, id: StreamId) -> SimRng {
        let mut state = self.master_seed ^ id.mix();
        // Burn a few SplitMix64 rounds to build a full 32-byte seed for the
        // underlying generator.
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        SimRng {
            inner: SmallRng::from_seed(seed),
        }
    }

    /// Derive a sub-factory, e.g. one per replication:
    /// `factory.child(replication_index)`.
    pub fn child(&self, index: u64) -> RngFactory {
        let mut state = self
            .master_seed
            .wrapping_add(index.wrapping_mul(0xd1b5_4a32_d192_ed03));
        RngFactory {
            master_seed: splitmix64(&mut state),
        }
    }
}

/// One deterministic random stream.
///
/// Wraps a small, fast PRNG and adds the convenience draws simulations use
/// constantly. Implements [`rand::RngCore`], so it also plugs into any
/// `rand`-compatible API.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// A standalone stream from a raw seed (tests, tools). Production code
    /// should derive streams through [`RngFactory`].
    pub fn seeded(seed: u64) -> Self {
        RngFactory::new(seed).stream(StreamId::global("standalone"))
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits — the canonical open-interval construction.
        (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` via Lemire's unbiased method. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        // Widening-multiply rejection sampling (unbiased).
        let mut x = self.inner.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.inner.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` inclusive. Panics if `lo > hi`.
    pub fn int_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "int_range: lo > hi");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Pick an index in `[0, weights.len())` with probability proportional to
    /// `weights[i]`. Non-finite or negative weights count as zero. Panics if
    /// all weights are zero or the slice is empty.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let clean = |w: f64| if w.is_finite() && w > 0.0 { w } else { 0.0 };
        let total: f64 = weights.iter().copied().map(clean).sum();
        assert!(total > 0.0, "pick_weighted: no positive weight");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            let w = clean(w);
            if target < w {
                return i;
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights
            .iter()
            .rposition(|&w| clean(w) > 0.0)
            .expect("positive weight exists")
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Standard exponential draw (mean 1) by inverse CDF; `1 - U` avoids
    /// `ln(0)`. Divide by a rate or multiply by a mean to scale it.
    #[inline]
    pub fn standard_exponential(&mut self) -> f64 {
        -(1.0 - self.uniform()).ln()
    }

    /// Standard normal draw (Box–Muller, polar-free single-value variant).
    pub fn standard_normal(&mut self) -> f64 {
        // Marsaglia polar method; rejects ~21.5% of pairs, branch-light.
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_is_reproducible() {
        let f = RngFactory::new(42);
        let id = StreamId::new("arrival", 3);
        let a: Vec<u64> = {
            let mut r = f.stream(id);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = f.stream(id);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_streams_diverge() {
        let f = RngFactory::new(42);
        let mut a = f.stream(StreamId::new("arrival", 0));
        let mut b = f.stream(StreamId::new("arrival", 1));
        let mut c = f.stream(StreamId::new("service", 0));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(xs, ys);
        assert_ne!(xs, zs);
        assert_ne!(ys, zs);
    }

    #[test]
    fn different_master_seeds_diverge() {
        let id = StreamId::global("x");
        let mut a = RngFactory::new(1).stream(id);
        let mut b = RngFactory::new(2).stream(id);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn child_factories_are_independent_and_deterministic() {
        let f = RngFactory::new(7);
        assert_eq!(f.child(0).master_seed(), f.child(0).master_seed());
        assert_ne!(f.child(0).master_seed(), f.child(1).master_seed());
        assert_ne!(f.child(0).master_seed(), f.master_seed());
    }

    #[test]
    fn uniform_is_in_unit_interval_and_covers_it() {
        let mut r = SimRng::seeded(9);
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01, "min {lo} too high");
        assert!(hi > 0.99, "max {hi} too low");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::seeded(11);
        let n = 10u64;
        let mut counts = [0u32; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[r.below(n) as usize] += 1;
        }
        let expect = draws as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i}: count {c} deviates {dev:.3}");
        }
    }

    #[test]
    fn int_range_is_inclusive() {
        let mut r = SimRng::seeded(13);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            let v = r.int_range(5, 8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::seeded(1).below(0);
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = SimRng::seeded(17);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!(!SimRng::seeded(1).chance(0.0));
        assert!(SimRng::seeded(1).chance(1.1));
    }

    #[test]
    fn pick_weighted_respects_weights() {
        let mut r = SimRng::seeded(19);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[r.pick_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn pick_weighted_ignores_bad_weights() {
        let mut r = SimRng::seeded(23);
        let weights = [f64::NAN, -5.0, 2.0, f64::INFINITY];
        for _ in 0..100 {
            assert_eq!(r.pick_weighted(&weights), 2);
        }
    }

    #[test]
    #[should_panic(expected = "no positive weight")]
    fn pick_weighted_all_zero_panics() {
        SimRng::seeded(1).pick_weighted(&[0.0, 0.0]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seeded(29);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::seeded(31);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.standard_normal();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }
}
