//! Data-grid layer for the TeraGrid reproduction: named datasets, a
//! federation-wide replica catalog, and per-site LRU caches.
//!
//! The paper's usage modalities differ most in *how they move data*; this
//! crate gives the simulation the machinery to exhibit that. A scenario may
//! declare a catalog of named datasets ([`DataGridSpec`]): each has a size
//! and one or more *permanent replicas* pinned at sites. The workload
//! generator assigns datasets to jobs per modality with seed-derived Zipf
//! popularity (rank 1 is the hottest dataset), and at routing time the
//! simulator consults the runtime [`DataLayer`]:
//!
//! * if the chosen site holds the dataset (permanent replica or a warm
//!   cache entry) the job's stage-in is a **cache hit** — no WAN transfer;
//! * otherwise it is a **cache miss**: the dataset is fetched from the
//!   cheapest resident site over the WAN, replacing the flat
//!   bytes-over-bandwidth staging charge, and the copy is admitted into the
//!   destination site's LRU cache (possibly evicting colder datasets).
//!
//! Everything is deterministic: the LRU order is driven by a monotone access
//! tick (no wall clock, no hashing), the fetch source is chosen by
//! `(transfer_time, site id)` with a total order, and the layer is only ever
//! touched from the routing path, in event order. When no datasets
//! are configured the layer is never constructed and the simulation is
//! byte-identical to a build without this crate.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};
use tg_model::{Network, SiteId};

/// Identifies a dataset: an index into the scenario's catalog, which is also
/// its Zipf popularity rank minus one (dataset 0 is the most popular).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct DatasetId(pub u32);

impl DatasetId {
    /// The catalog index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One named dataset in the scenario catalog.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DatasetSpec {
    /// Human-readable name (shows up in reports only).
    pub name: String,
    /// Size in megabytes; the unit the WAN model prices.
    pub size_mb: f64,
    /// Site indices holding a permanent replica. Must be non-empty; these
    /// copies are never evicted.
    pub replicas: Vec<usize>,
}

/// How the workload generator attaches datasets to jobs: per-modality attach
/// probabilities plus the Zipf skew over catalog ranks.
///
/// This is the only piece of the data-grid spec the generator needs, split
/// out so the workload crate stays independent of cache/catalog mechanics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DatasetAssignment {
    /// Catalog size (number of datasets).
    pub count: usize,
    /// Zipf exponent over dataset ranks (rank 1 = dataset 0 = hottest).
    pub zipf_s: f64,
    /// Modality wire name → probability a job of that modality reads a
    /// dataset. Absent modalities attach nothing.
    pub attach: BTreeMap<String, f64>,
}

impl DatasetAssignment {
    /// Attach probability for a modality wire name.
    pub fn prob(&self, modality: &str) -> f64 {
        self.attach.get(modality).copied().unwrap_or(0.0)
    }

    /// True when no job can ever be assigned a dataset.
    pub fn is_trivial(&self) -> bool {
        self.count == 0 || self.attach.values().all(|&p| p <= 0.0)
    }
}

/// The full scenario-level data-grid declaration: the dataset catalog plus
/// the assignment rule. Lives in `ScenarioConfig` under `"data"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DataGridSpec {
    /// The dataset catalog, in popularity order (index 0 is the hottest
    /// under the Zipf assignment).
    pub datasets: Vec<DatasetSpec>,
    /// Zipf exponent for popularity-weighted assignment (0 = uniform).
    #[serde(default)]
    pub zipf_s: f64,
    /// Modality wire name → attach probability.
    #[serde(default)]
    pub attach: BTreeMap<String, f64>,
}

impl DataGridSpec {
    /// True when the spec can never affect a run: no datasets, or no
    /// modality ever attaches one. A trivial spec must be byte-identical to
    /// no spec at all.
    pub fn is_trivial(&self) -> bool {
        self.datasets.is_empty() || self.attach.values().all(|&p| p <= 0.0)
    }

    /// The generator-facing slice of this spec.
    pub fn assignment(&self) -> DatasetAssignment {
        DatasetAssignment {
            count: self.datasets.len(),
            zipf_s: self.zipf_s,
            attach: self.attach.clone(),
        }
    }

    /// Validate against a federation of `nsites` sites. Returns a
    /// human-readable error for the first problem found, led by the path
    /// of the offending field within the spec.
    pub fn validate(&self, nsites: usize) -> Result<(), String> {
        for (i, d) in self.datasets.iter().enumerate() {
            if d.name.trim().is_empty() {
                return Err(format!("datasets[{i}].name: empty name"));
            }
            if !(d.size_mb.is_finite() && d.size_mb > 0.0) {
                return Err(format!(
                    "datasets[{i}].size_mb: dataset '{}' has non-positive size {} MB",
                    d.name, d.size_mb
                ));
            }
            if d.replicas.is_empty() {
                return Err(format!(
                    "datasets[{i}].replicas: dataset '{}' has no replica sites",
                    d.name
                ));
            }
            for (j, &r) in d.replicas.iter().enumerate() {
                if r >= nsites {
                    return Err(format!(
                        "datasets[{i}].replicas[{j}]: dataset '{}' replica site {r} out of range \
                         (federation has {nsites} sites)",
                        d.name
                    ));
                }
            }
        }
        for (m, &p) in &self.attach {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(format!("attach.{m}: probability out of [0,1]: {p}"));
            }
        }
        if !(self.zipf_s.is_finite() && self.zipf_s >= 0.0) {
            return Err(format!(
                "zipf_s: must be finite and >= 0, got {}",
                self.zipf_s
            ));
        }
        Ok(())
    }
}

/// Where a dataset access resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locate {
    /// Resident at the destination (permanent replica or warm cache).
    Hit,
    /// Absent at the destination; fetch from `source` over the WAN.
    Miss {
        /// The cheapest resident site, by `(transfer_time, site id)`.
        source: SiteId,
    },
}

/// Per-site LRU dataset cache with deterministic eviction.
///
/// Recency is a monotone access tick supplied by the owning [`DataLayer`] —
/// never wall-clock, never hash order — so eviction order is a pure function
/// of the access sequence.
#[derive(Debug, Clone)]
struct SiteCache {
    capacity_mb: f64,
    used_mb: f64,
    /// DatasetId → (last-access tick, size). BTreeMap for deterministic
    /// iteration (debug/report paths only; the hot path uses direct lookup).
    entries: BTreeMap<DatasetId, (u64, f64)>,
    /// tick → DatasetId, mirroring `entries` for O(log n) LRU pop.
    by_tick: BTreeMap<u64, DatasetId>,
}

impl SiteCache {
    fn new(capacity_mb: f64) -> Self {
        SiteCache {
            capacity_mb: capacity_mb.max(0.0),
            used_mb: 0.0,
            entries: BTreeMap::new(),
            by_tick: BTreeMap::new(),
        }
    }

    fn contains(&self, d: DatasetId) -> bool {
        self.entries.contains_key(&d)
    }

    fn touch(&mut self, d: DatasetId, tick: u64) {
        if let Some((old, _size)) = self.entries.get_mut(&d) {
            let prev = *old;
            *old = tick;
            self.by_tick.remove(&prev);
            self.by_tick.insert(tick, d);
        }
    }

    /// Admit `d` (size `mb`) at `tick`, evicting least-recently-used entries
    /// until it fits. Returns the number of evictions. Datasets larger than
    /// the whole cache are not admitted (the fetch still happened; the copy
    /// just isn't retained).
    fn admit(&mut self, d: DatasetId, mb: f64, tick: u64) -> u64 {
        if mb > self.capacity_mb {
            return 0;
        }
        let mut evicted = 0;
        while self.used_mb + mb > self.capacity_mb {
            let (&t, &victim) = self
                .by_tick
                .iter()
                .next()
                .expect("cache over capacity but empty");
            let (_, size) = self.entries.remove(&victim).expect("mirrored entry");
            self.by_tick.remove(&t);
            self.used_mb -= size;
            evicted += 1;
        }
        self.used_mb += mb;
        self.entries.insert(d, (tick, mb));
        self.by_tick.insert(tick, d);
        evicted
    }
}

/// Per-site counters for the [`DataReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SiteDataStats {
    /// Accesses that found the dataset resident (replica or cache).
    pub hits: u64,
    /// Accesses that had to fetch over the WAN.
    pub misses: u64,
    /// Cache evictions at this site.
    pub evictions: u64,
    /// Megabytes fetched into this site over the WAN.
    pub wan_in_mb: f64,
    /// Hit rate (`hits / (hits + misses)`, 0 when unused).
    pub hit_rate: f64,
}

/// End-of-run data-movement summary surfaced in `SimOutput`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataReport {
    /// Catalog size.
    pub datasets: usize,
    /// Dataset accesses (one per routed dataset-carrying job).
    pub accesses: u64,
    /// Total hits across the federation.
    pub hits: u64,
    /// Total misses (WAN fetches).
    pub misses: u64,
    /// Federation-wide hit rate.
    pub hit_rate: f64,
    /// Total megabytes moved over the WAN for replica fetches.
    pub wan_mb: f64,
    /// Total cache evictions.
    pub evictions: u64,
    /// Per-site breakdown, index-aligned with the federation's sites.
    pub per_site: Vec<SiteDataStats>,
}

/// Runtime state: the replica catalog plus every site's cache and counters.
///
/// Owned by the simulation driver and consulted from the routing path only.
#[derive(Debug, Clone)]
pub struct DataLayer {
    /// Permanent replica holders per dataset, sorted by site index.
    permanent: Vec<Vec<SiteId>>,
    sizes: Vec<f64>,
    caches: Vec<SiteCache>,
    stats: Vec<SiteDataStats>,
    tick: u64,
    datasets: usize,
}

impl DataLayer {
    /// Build the runtime layer from a validated spec and each site's cache
    /// capacity in MB (index-aligned with the federation).
    pub fn new(spec: &DataGridSpec, cache_mb: &[f64]) -> Self {
        let permanent = spec
            .datasets
            .iter()
            .map(|d| {
                let mut sites: Vec<SiteId> = d.replicas.iter().map(|&r| SiteId(r)).collect();
                sites.sort();
                sites.dedup();
                sites
            })
            .collect();
        DataLayer {
            permanent,
            sizes: spec.datasets.iter().map(|d| d.size_mb).collect(),
            caches: cache_mb.iter().map(|&c| SiteCache::new(c)).collect(),
            stats: vec![SiteDataStats::default(); cache_mb.len()],
            tick: 0,
            datasets: spec.datasets.len(),
        }
    }

    /// Dataset size in MB.
    pub fn size_mb(&self, d: DatasetId) -> f64 {
        self.sizes[d.index()]
    }

    /// Is `d` resident at `site` (permanent replica or warm cache)?
    pub fn resident(&self, d: DatasetId, site: SiteId) -> bool {
        self.permanent[d.index()].binary_search(&site).is_ok()
            || self.caches[site.index()].contains(d)
    }

    /// Every site currently holding `d`, sorted by site index — the set a
    /// locality-aware metascheduler routes toward.
    pub fn holders(&self, d: DatasetId) -> Vec<SiteId> {
        let mut out = self.permanent[d.index()].clone();
        for (i, c) in self.caches.iter().enumerate() {
            if c.contains(d) {
                out.push(SiteId(i));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Resolve a routed job's dataset access at `dest`, updating caches and
    /// counters. On a miss the returned source is the resident site with the
    /// cheapest `(transfer_time, site id)` and the copy is admitted into
    /// `dest`'s cache.
    pub fn access(&mut self, d: DatasetId, dest: SiteId, network: &Network) -> Locate {
        self.tick += 1;
        let tick = self.tick;
        let mb = self.size_mb(d);
        if self.resident(d, dest) {
            self.caches[dest.index()].touch(d, tick);
            self.stats[dest.index()].hits += 1;
            return Locate::Hit;
        }
        let source = self
            .holders(d)
            .into_iter()
            .min_by(|&a, &b| {
                network
                    .transfer_time(a, dest, mb)
                    .cmp(&network.transfer_time(b, dest, mb))
                    .then(a.cmp(&b))
            })
            .expect("dataset has at least one permanent replica");
        let st = &mut self.stats[dest.index()];
        st.misses += 1;
        st.wan_in_mb += mb;
        let evicted = self.caches[dest.index()].admit(d, mb, tick);
        self.stats[dest.index()].evictions += evicted;
        Locate::Miss { source }
    }

    /// Snapshot the end-of-run report.
    pub fn report(&self) -> DataReport {
        let mut per_site = self.stats.clone();
        for s in &mut per_site {
            let n = s.hits + s.misses;
            s.hit_rate = if n > 0 { s.hits as f64 / n as f64 } else { 0.0 };
        }
        let hits: u64 = per_site.iter().map(|s| s.hits).sum();
        let misses: u64 = per_site.iter().map(|s| s.misses).sum();
        let wan_mb: f64 = per_site.iter().map(|s| s.wan_in_mb).sum();
        let evictions: u64 = per_site.iter().map(|s| s.evictions).sum();
        DataReport {
            datasets: self.datasets,
            accesses: hits + misses,
            hits,
            misses,
            hit_rate: if hits + misses > 0 {
                hits as f64 / (hits + misses) as f64
            } else {
                0.0
            },
            wan_mb,
            evictions,
            per_site,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_model::network::Uplink;

    fn spec() -> DataGridSpec {
        DataGridSpec {
            datasets: vec![
                DatasetSpec {
                    name: "hot".into(),
                    size_mb: 100.0,
                    replicas: vec![0],
                },
                DatasetSpec {
                    name: "warm".into(),
                    size_mb: 150.0,
                    replicas: vec![1],
                },
                DatasetSpec {
                    name: "cold".into(),
                    size_mb: 120.0,
                    replicas: vec![0, 1],
                },
            ],
            zipf_s: 1.1,
            attach: [("batch".to_string(), 0.5)].into_iter().collect(),
        }
    }

    fn network(n: usize) -> Network {
        // Uniform uplinks: transfer time then depends only on size, so
        // source tie-breaks fall to the site id.
        let mut net = Network::new();
        for _ in 0..n {
            net.add_uplink(Uplink::new(1000.0, 10.0));
        }
        net
    }

    #[test]
    fn validation_catches_bad_specs() {
        let good = spec();
        assert!(good.validate(3).is_ok());
        let mut bad = spec();
        bad.datasets[1].replicas = vec![7];
        let err = bad.validate(3).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let mut bad = spec();
        bad.datasets[0].size_mb = 0.0;
        let err = bad.validate(3).unwrap_err();
        assert!(err.contains("non-positive size"), "{err}");
        let mut bad = spec();
        bad.datasets[2].replicas.clear();
        assert!(bad.validate(3).unwrap_err().contains("no replica sites"));
        let mut bad = spec();
        bad.attach.insert("gateway".into(), 1.5);
        assert!(bad.validate(3).unwrap_err().contains("out of [0,1]"));
    }

    #[test]
    fn trivial_specs_are_recognized() {
        let mut s = spec();
        assert!(!s.is_trivial());
        s.attach.insert("batch".into(), 0.0);
        assert!(s.is_trivial());
        let mut s = spec();
        s.datasets.clear();
        assert!(s.is_trivial());
        assert!(s.assignment().is_trivial());
    }

    #[test]
    fn hits_misses_and_lru_eviction_are_deterministic() {
        let s = spec();
        let net = network(3);
        // Site 2 has room for d0+d1 (250) or d1+d2 (270), not all three.
        let mut layer = DataLayer::new(&s, &[1000.0, 1000.0, 280.0]);
        let d0 = DatasetId(0);
        let d1 = DatasetId(1);
        let d2 = DatasetId(2);

        // Replica site: hit without any cache involvement.
        assert_eq!(layer.access(d0, SiteId(0), &net), Locate::Hit);
        // Miss at site 2 fetches from the only holder.
        assert_eq!(
            layer.access(d0, SiteId(2), &net),
            Locate::Miss { source: SiteId(0) }
        );
        // Now cached at 2: second access is a hit.
        assert_eq!(layer.access(d0, SiteId(2), &net), Locate::Hit);
        // Fill the cache (100 + 150 = 250 <= 280).
        assert_eq!(
            layer.access(d1, SiteId(2), &net),
            Locate::Miss { source: SiteId(1) }
        );
        // d2 (120 MB) forces eviction of the LRU entry, which is d0 — its
        // last touch predates d1's admit.
        assert_eq!(
            layer.access(d2, SiteId(2), &net),
            Locate::Miss { source: SiteId(0) }
        );
        assert!(!layer.resident(d0, SiteId(2)), "d0 evicted");
        assert!(layer.resident(d1, SiteId(2)), "d1 retained");
        assert!(layer.resident(d2, SiteId(2)), "d2 admitted");

        let report = layer.report();
        assert_eq!(report.accesses, 5);
        assert_eq!(report.hits, 2);
        assert_eq!(report.misses, 3);
        assert_eq!(report.evictions, 1);
        assert!((report.wan_mb - 370.0).abs() < 1e-9, "{}", report.wan_mb);
        assert_eq!(report.per_site[2].misses, 3);
        assert!((report.per_site[2].hit_rate - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cache_hits_advertise_holders_to_the_scheduler() {
        let s = spec();
        let net = network(3);
        let mut layer = DataLayer::new(&s, &[500.0, 500.0, 500.0]);
        assert_eq!(layer.holders(DatasetId(0)), vec![SiteId(0)]);
        layer.access(DatasetId(0), SiteId(2), &net);
        assert_eq!(layer.holders(DatasetId(0)), vec![SiteId(0), SiteId(2)]);
        // Cheapest-source selection prefers the lower site id on a tie.
        assert_eq!(
            layer.access(DatasetId(0), SiteId(1), &net),
            Locate::Miss { source: SiteId(0) }
        );
    }

    #[test]
    fn oversized_datasets_fetch_but_are_not_retained() {
        let s = spec();
        let net = network(3);
        let mut layer = DataLayer::new(&s, &[0.0, 0.0, 50.0]);
        assert!(matches!(
            layer.access(DatasetId(0), SiteId(2), &net),
            Locate::Miss { .. }
        ));
        // Not admitted (100 MB > 50 MB capacity): next access misses again.
        assert!(matches!(
            layer.access(DatasetId(0), SiteId(2), &net),
            Locate::Miss { .. }
        ));
        assert_eq!(layer.report().evictions, 0);
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let s = spec();
        let j = serde_json::to_string(&s).unwrap();
        let back: DataGridSpec = serde_json::from_str(&j).unwrap();
        assert_eq!(s, back);
        // zipf_s and attach default when omitted.
        let min: DataGridSpec = serde_json::from_str(r#"{"datasets":[]}"#).unwrap();
        assert_eq!(min.zipf_s, 0.0);
        assert!(min.is_trivial());
    }
}
