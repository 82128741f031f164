//! Mergeable quantile sketches for online span statistics.
//!
//! The streaming runs opened by the million-user scenarios cannot retain a
//! span trace for post-hoc analysis: at ~11M events the JSONL trace is
//! multi-GB while the run itself holds steady a few hundred MiB. This module
//! provides the constant-memory alternative: a fixed-layout, log-binned
//! counting sketch ([`QuantileSketch`]) updated once per span close, and a
//! keyed collection ([`SpanSketchbook`]) that groups span durations by span
//! kind, wait cause, site, and modality without ever seeing a trace line.
//! The offline [`analyze::TraceAnalyzer`](crate::analyze::TraceAnalyzer)
//! folds a trace through the same book, so there is one estimator and one
//! grouping for both paths.
//!
//! # Why a counting sketch and not a t-digest / KLL
//!
//! The report tables are *pooled* views: the by-kind table folds every
//! cause/site/modality slot of a kind into one sketch, and the offline
//! analyzer must reproduce them from per-key partial sketches. Rank sketches like
//! t-digest and KLL compress adaptively, so their state depends on
//! insertion and merge order — pooling the same spans in a different slot
//! order would give different centroids and different reported quantiles.
//! A fixed-layout counting sketch has none of that freedom: every value
//! maps to one predetermined bin, merge is element-wise `u64` addition, and
//! therefore merge is **exactly** associative, commutative, and
//! partition-invariant. Merge-then-query does not just approximate
//! query-on-pooled-data — it *equals* it, which the property tests in
//! `crates/des/tests/sketch_prop.rs` assert with `assert_eq!`.
//!
//! # Layout and error bound
//!
//! Bins are geometric with [`SUBBINS`] sub-bins per octave starting at
//! [`LO_SECS`] (2⁻³⁰ s ≈ 0.93 ns): bin *i* covers
//! `[LO·2^(i/8), LO·2^((i+1)/8))`. With [`OCTAVES`] = 64 octaves the range
//! spans ~1 ns to ~1.6·10¹⁰ s, comfortably covering both microsecond
//! stage-ins and year-long spans in one layout. Values below the range land in
//! an `under` bin, values above in an `over` bin, and the sketch tracks the
//! exact `min`/`max`/`count`. Quantiles are answered by nearest-rank walk
//! over the bins, reporting the geometric midpoint of the selected bin
//! clamped to `[min, max]` — so the relative error of any quantile is at
//! most [`RELATIVE_ERROR`] = 2^(1/16) − 1 ≈ 4.43%. The mean is approximated
//! from bin midpoints under the same bound (no floating-point running sum is
//! kept: summing f64 is order-dependent and would break partition
//! invariance).
//!
//! Memory: 512 bins × 8 bytes ≈ 4 KiB per sketch, allocated lazily per
//! observed key — a few hundred KiB for a fully populated book, independent
//! of event count.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::span::{SpanKind, WaitCause};

/// Sub-bins per octave (γ = 2^(1/8) ≈ 1.0905 growth per bin).
pub const SUBBINS: usize = 8;
/// Octaves covered by the fixed layout.
pub const OCTAVES: usize = 64;
/// Total bins.
pub const NBINS: usize = SUBBINS * OCTAVES;
/// Lower edge of bin 0, in seconds (2⁻³⁰ s). Chosen as a power of two so
/// `v / LO_SECS` is exact for all finite `v`.
pub const LO_SECS: f64 = 1.0 / (1u64 << 30) as f64;
/// Worst-case relative error of any reported quantile or the mean, for
/// values inside the bin range: half a bin in log space, 2^(1/16) − 1.
pub const RELATIVE_ERROR: f64 = 0.044_273_782_427_413_84;

/// A fixed-layout log-binned counting sketch over non-negative seconds.
///
/// See the module docs for the design rationale. All operations are
/// deterministic; `merge_from` is exactly associative and commutative.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    bins: Box<[u64]>,
    /// Values in `[0, LO_SECS)` — sub-nanosecond, including exact zeros.
    under: u64,
    /// Values at or above the top edge (`LO_SECS · 2^OCTAVES`).
    over: u64,
    count: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            bins: vec![0u64; NBINS].into_boxed_slice(),
            under: 0,
            over: 0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bin index for a value known to be in `[LO_SECS, ∞)`; `None` means the
    /// overflow bin.
    fn bin_of(v: f64) -> Option<usize> {
        let idx = ((v / LO_SECS).log2() * SUBBINS as f64).floor() as isize;
        if idx < 0 {
            // Rounding at the bottom edge; the value is ~LO_SECS.
            Some(0)
        } else if (idx as usize) < NBINS {
            Some(idx as usize)
        } else {
            None
        }
    }

    /// Record one observation. Negative, NaN, and infinite values are
    /// clamped to the representable range (spans never produce them; the
    /// clamp keeps the sketch total-function).
    pub fn record(&mut self, secs: f64) {
        let v = if secs.is_finite() && secs > 0.0 {
            secs
        } else {
            0.0
        };
        self.count += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        if v < LO_SECS {
            self.under += 1;
        } else {
            match Self::bin_of(v) {
                Some(i) => self.bins[i] += 1,
                None => self.over += 1,
            }
        }
    }

    /// Element-wise merge: the result is identical to a sketch that saw both
    /// input streams in any order.
    pub fn merge_from(&mut self, other: &QuantileSketch) {
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += *b;
        }
        self.under += other.under;
        self.over += other.over;
        self.count += other.count;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum observed value (0.0 on an empty sketch).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum observed value (0.0 on an empty sketch).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Geometric midpoint of bin `i`.
    fn bin_mid(i: usize) -> f64 {
        LO_SECS * ((i as f64 + 0.5) / SUBBINS as f64).exp2()
    }

    /// Nearest-rank quantile estimate for `q ∈ [0, 1]`, within
    /// [`RELATIVE_ERROR`] of the true value (and exact at the extremes,
    /// which are clamped to the observed min/max). Returns 0.0 on an empty
    /// sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the ceil(q·n)-th smallest value, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = self.under;
        let est = if rank <= cum {
            // Sub-range values are below ~1 ns; report the observed floor.
            self.min
        } else {
            let mut found = None;
            for (i, &c) in self.bins.iter().enumerate() {
                cum += c;
                if rank <= cum {
                    found = Some(Self::bin_mid(i));
                    break;
                }
            }
            found.unwrap_or(self.max)
        };
        est.clamp(self.min, self.max)
    }

    /// Mean approximated from bin midpoints (within [`RELATIVE_ERROR`];
    /// sub-range values contribute their observed floor, overflow values the
    /// observed max). Returns 0.0 on an empty sketch.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut sum = self.under as f64 * self.min;
        for (i, &c) in self.bins.iter().enumerate() {
            if c > 0 {
                sum += c as f64 * Self::bin_mid(i);
            }
        }
        sum += self.over as f64 * self.max;
        (sum / self.count as f64).clamp(self.min, self.max)
    }

    /// Condensed serializable view.
    pub fn summary(&self) -> SketchSummary {
        SketchSummary {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// Serializable digest of one sketch: count, approximate mean, key
/// quantiles, and the exact extremes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SketchSummary {
    /// Observation count (exact).
    pub count: u64,
    /// Mean, within [`RELATIVE_ERROR`].
    pub mean: f64,
    /// Median, within [`RELATIVE_ERROR`].
    pub p50: f64,
    /// 95th percentile, within [`RELATIVE_ERROR`].
    pub p95: f64,
    /// 99th percentile, within [`RELATIVE_ERROR`].
    pub p99: f64,
    /// Minimum (exact).
    pub min: f64,
    /// Maximum (exact).
    pub max: f64,
}

const NKINDS: usize = SpanKind::ALL.len();
// One slot per cause plus a "no cause" sentinel (non-wait spans).
const NCAUSES: usize = WaitCause::ALL.len() + 1;

/// Span-duration sketches keyed by `(kind, cause, site, modality)`.
///
/// Storage is a dense lazily-filled slot table over the full key
/// cross-product, so the span-close hot path is an index computation plus a
/// bin increment — no map lookups, no allocation after first touch of a
/// key. Snapshots pool slots into the analyzer-aligned groupings, and
/// pooling is itself a sketch merge. The offline analyzer fills a book of
/// its own through [`SpanSketchbook::merge`], so a trace and the run that
/// wrote it report identical tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSketchbook {
    enabled: bool,
    nsites: usize,
    modalities: Vec<String>,
    slots: Vec<Option<Box<QuantileSketch>>>,
    spans: u64,
}

impl SpanSketchbook {
    /// A disabled book: `record` is a no-op, snapshots are empty.
    pub fn disabled() -> Self {
        SpanSketchbook {
            enabled: false,
            nsites: 0,
            modalities: Vec::new(),
            slots: Vec::new(),
            spans: 0,
        }
    }

    /// An enabled book for a federation of `nsites` sites and the given
    /// modality names (index-aligned with the caller's modality enum).
    pub fn enabled(nsites: usize, modalities: Vec<String>) -> Self {
        let slots = NKINDS * NCAUSES * (nsites + 1) * (modalities.len() + 1);
        SpanSketchbook {
            enabled: true,
            nsites,
            modalities,
            slots: vec![None; slots],
            spans: 0,
        }
    }

    /// Is the book recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Total spans recorded.
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// Number of distinct `(kind, cause, site, modality)` keys observed.
    pub fn groups(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn dims(&self) -> (usize, usize) {
        (self.nsites + 1, self.modalities.len() + 1)
    }

    fn slot_index(&self, kind: usize, cause: usize, site: usize, modality: usize) -> usize {
        let (s, m) = self.dims();
        ((kind * NCAUSES + cause) * s + site) * m + modality
    }

    /// Record one closed span. `site`/`modality` out of the configured range
    /// fold into the "none" sentinel, so the call is total.
    pub fn record(
        &mut self,
        kind: SpanKind,
        cause: Option<WaitCause>,
        site: Option<usize>,
        modality: Option<usize>,
        secs: f64,
    ) {
        if !self.enabled {
            return;
        }
        self.slot_mut(kind, cause, site, modality).record(secs);
        self.spans += 1;
    }

    /// Merge a sketch of spans sharing one `(kind, cause, site, modality)`
    /// key into its slot, exactly as if each span had been recorded here.
    /// Out-of-range keys fold like [`SpanSketchbook::record`]'s.
    pub fn merge(
        &mut self,
        kind: SpanKind,
        cause: Option<WaitCause>,
        site: Option<usize>,
        modality: Option<usize>,
        sketch: &QuantileSketch,
    ) {
        if !self.enabled {
            return;
        }
        self.slot_mut(kind, cause, site, modality)
            .merge_from(sketch);
        self.spans += sketch.count();
    }

    /// The (lazily created) sketch for a key.
    fn slot_mut(
        &mut self,
        kind: SpanKind,
        cause: Option<WaitCause>,
        site: Option<usize>,
        modality: Option<usize>,
    ) -> &mut QuantileSketch {
        let c = cause.map(|c| c as usize).unwrap_or(NCAUSES - 1);
        let s = site.filter(|&s| s < self.nsites).unwrap_or(self.nsites);
        let m = modality
            .filter(|&m| m < self.modalities.len())
            .unwrap_or(self.modalities.len());
        let idx = self.slot_index(kind as usize, c, s, m);
        self.slots[idx].get_or_insert_with(|| Box::new(QuantileSketch::new()))
    }

    /// Pool every slot matching `keep(kind, cause, site, modality)` into one
    /// sketch (cause/site/modality are `None` for the sentinel slots).
    pub fn pooled<F>(&self, mut keep: F) -> QuantileSketch
    where
        F: FnMut(SpanKind, Option<WaitCause>, Option<usize>, Option<usize>) -> bool,
    {
        let mut out = QuantileSketch::new();
        if !self.enabled {
            return out;
        }
        let (s_dim, m_dim) = self.dims();
        for (k_i, &kind) in SpanKind::ALL.iter().enumerate() {
            for c_i in 0..NCAUSES {
                let cause = WaitCause::ALL.get(c_i).copied();
                for s_i in 0..s_dim {
                    let site = (s_i < self.nsites).then_some(s_i);
                    for m_i in 0..m_dim {
                        let modality = (m_i < self.modalities.len()).then_some(m_i);
                        if !keep(kind, cause, site, modality) {
                            continue;
                        }
                        if let Some(sk) = &self.slots[self.slot_index(k_i, c_i, s_i, m_i)] {
                            out.merge_from(sk);
                        }
                    }
                }
            }
        }
        out
    }

    /// Snapshot the analyzer-aligned tables. Empty groups are omitted, like
    /// the offline analyzer's.
    pub fn snapshot(&self) -> SpanStatsSnapshot {
        let mut by_kind = BTreeMap::new();
        for kind in SpanKind::ALL {
            let pooled = self.pooled(|k, _, _, _| k == kind);
            if !pooled.is_empty() {
                by_kind.insert(kind.name().to_string(), pooled.summary());
            }
        }
        let mut queued_by_cause = BTreeMap::new();
        for cause in WaitCause::ALL {
            let pooled = self.pooled(|k, c, _, _| k == SpanKind::Queued && c == Some(cause));
            if !pooled.is_empty() {
                queued_by_cause.insert(cause.name().to_string(), pooled.summary());
            }
        }
        let mut stage_in_by_cause = BTreeMap::new();
        for cause in WaitCause::ALL {
            let pooled = self.pooled(|k, c, _, _| k == SpanKind::StageIn && c == Some(cause));
            if !pooled.is_empty() {
                stage_in_by_cause.insert(cause.name().to_string(), pooled.summary());
            }
        }
        let mut queued_by_site = BTreeMap::new();
        for site in 0..self.nsites {
            let pooled = self.pooled(|k, _, s, _| k == SpanKind::Queued && s == Some(site));
            if !pooled.is_empty() {
                queued_by_site.insert(site as u64, pooled.summary());
            }
        }
        let mut wait_spans_by_modality = BTreeMap::new();
        for (m_i, name) in self.modalities.iter().enumerate() {
            let pooled = self.pooled(|k, _, _, m| k.is_wait() && m == Some(m_i));
            if !pooled.is_empty() {
                wait_spans_by_modality.insert(name.clone(), pooled.summary());
            }
        }
        SpanStatsSnapshot {
            spans: self.spans,
            groups: self.groups(),
            by_kind,
            queued_by_cause,
            stage_in_by_cause,
            queued_by_site,
            wait_spans_by_modality,
        }
    }
}

/// Serializable span-statistics tables — the `--live-stats` `stats.spans`
/// object, and (flattened) the span tables of an offline
/// [`TraceAnalysis`](crate::analyze::TraceAnalysis). The modality table is
/// per *wait span*, not per job — the analyzer's `wait_by_modality` sums
/// each job's wait spans first, which cannot be done in constant memory —
/// so the two modality tables are intentionally named differently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStatsSnapshot {
    /// Total spans recorded.
    pub spans: u64,
    /// Distinct `(kind, cause, site, modality)` keys observed.
    pub groups: usize,
    /// Duration summary per span kind.
    pub by_kind: BTreeMap<String, SketchSummary>,
    /// Queued-span durations per attributed wait cause.
    pub queued_by_cause: BTreeMap<String, SketchSummary>,
    /// Stage-in span durations per cause (`cache-hit` / `cache-miss` for
    /// dataset-carrying jobs; cause-less bulk staging spans are excluded).
    pub stage_in_by_cause: BTreeMap<String, SketchSummary>,
    /// Queued-span durations per site index.
    pub queued_by_site: BTreeMap<u64, SketchSummary>,
    /// Individual wait-span durations (stage-in, queued, reconfig) per
    /// modality.
    pub wait_spans_by_modality: BTreeMap<String, SketchSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_answers_zeroes() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_value_is_exact_via_clamp() {
        let mut s = QuantileSketch::new();
        s.record(42.0);
        assert_eq!(s.quantile(0.0), 42.0);
        assert_eq!(s.quantile(0.5), 42.0);
        assert_eq!(s.quantile(1.0), 42.0);
        assert_eq!(s.mean(), 42.0);
    }

    #[test]
    fn quantiles_stay_within_the_documented_bound() {
        let mut s = QuantileSketch::new();
        for i in 1..=10_000u64 {
            s.record(i as f64 * 0.01); // 0.01 .. 100.0
        }
        for &(q, truth) in &[(0.5, 50.0), (0.95, 95.0), (0.99, 99.0)] {
            let got = s.quantile(q);
            assert!(
                (got - truth).abs() / truth <= RELATIVE_ERROR + 1e-4,
                "q={q}: got {got}, want {truth} ± {RELATIVE_ERROR}"
            );
        }
        let mean = s.mean();
        assert!((mean - 50.005).abs() / 50.005 <= RELATIVE_ERROR + 1e-4);
    }

    #[test]
    fn extreme_magnitudes_hit_the_guard_bins() {
        let mut s = QuantileSketch::new();
        s.record(0.0);
        s.record(1e-12); // below LO_SECS
        s.record(1e12); // above the top edge (~1.6e10 s)
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 1e12);
        assert_eq!(s.quantile(1.0), 1e12);
        assert_eq!(s.quantile(0.0), 0.0);
    }

    #[test]
    fn nan_and_negative_clamp_to_zero() {
        let mut s = QuantileSketch::new();
        s.record(f64::NAN);
        s.record(-5.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
    }

    #[test]
    fn merge_equals_pooled_stream_exactly() {
        let vals: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.7).exp2() % 1e6).collect();
        let mut whole = QuantileSketch::new();
        for &v in &vals {
            whole.record(v);
        }
        let (mut a, mut b) = (QuantileSketch::new(), QuantileSketch::new());
        for (i, &v) in vals.iter().enumerate() {
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge_from(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn sketchbook_pools_by_key() {
        let mods = vec!["batch".to_string(), "gateway".to_string()];
        let mut book = SpanSketchbook::enabled(2, mods);
        book.record(
            SpanKind::Queued,
            Some(WaitCause::AheadInQueue),
            Some(0),
            Some(0),
            10.0,
        );
        book.record(
            SpanKind::Queued,
            Some(WaitCause::Immediate),
            Some(1),
            Some(1),
            0.0,
        );
        book.record(SpanKind::Run, None, Some(0), Some(0), 100.0);
        assert_eq!(book.spans(), 3);
        assert_eq!(book.groups(), 3);
        let snap = book.snapshot();
        assert_eq!(snap.by_kind["queued"].count, 2);
        assert_eq!(snap.by_kind["run"].count, 1);
        assert_eq!(snap.queued_by_cause["ahead-in-queue"].count, 1);
        assert_eq!(snap.queued_by_site[&0].count, 1);
        assert_eq!(snap.wait_spans_by_modality["batch"].count, 1);
        assert_eq!(book.pooled(|k, _, _, _| k == SpanKind::Queued).count(), 2);
    }

    #[test]
    fn disabled_book_is_inert() {
        let mut book = SpanSketchbook::disabled();
        book.record(SpanKind::Run, None, Some(0), Some(0), 1.0);
        assert_eq!(book.spans(), 0);
        assert!(book.snapshot().by_kind.is_empty());
    }
}
