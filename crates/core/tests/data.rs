//! Data-grid differential suite.
//!
//! The tg-data layer (datasets, replica catalog, per-site LRU caches, WAN
//! fetch events) must be *inert by construction* when no datasets are
//! configured — byte-identical to a build without the crate — and fully
//! deterministic when they are: the same bytes however many replications
//! run at once (`--threads N`) and under streaming generation. This suite
//! enforces both, checks the locality-aware metascheduler actually wins on WAN bytes
//! moved, and property-tests conservation invariants over random catalogs.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tg_core::{replicate_with, RunOptions, ScenarioConfig, SimOutput};
use tg_data::{DataGridSpec, DatasetSpec};
use tg_sched::MetaPolicy;

/// A small federation with site caches and a skewed dataset catalog: three
/// datasets pinned at distinct sites, Zipf-popular, attached to the job-like
/// modalities. Sites are shrunk so queues (and therefore non-trivial routing
/// choices) actually form.
fn datagrid(users: usize, days: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(users, days);
    cfg.name = format!("datagrid-{users}u-{days}d");
    cfg.sites[0].batch_nodes = 64;
    cfg.sites[1].batch_nodes = 128;
    cfg.sites[2].batch_nodes = 32;
    for s in &mut cfg.sites {
        s.data_cache_mb = 4_000.0;
    }
    cfg.data = Some(DataGridSpec {
        datasets: vec![
            DatasetSpec {
                name: "survey-hot".into(),
                size_mb: 1_800.0,
                replicas: vec![0],
            },
            DatasetSpec {
                name: "reference-genome".into(),
                size_mb: 2_500.0,
                replicas: vec![1],
            },
            DatasetSpec {
                name: "climate-archive".into(),
                size_mb: 3_200.0,
                replicas: vec![2],
            },
            DatasetSpec {
                name: "cold-tape".into(),
                size_mb: 900.0,
                replicas: vec![0, 1],
            },
        ],
        zipf_s: 0.9,
        attach: [
            ("batch".to_string(), 0.6),
            ("ensemble".to_string(), 0.5),
            ("workflow".to_string(), 0.4),
        ]
        .into_iter()
        .collect(),
    });
    cfg
}

/// Every deterministic field of [`SimOutput`] must match.
fn assert_same_simulation(a: &SimOutput, b: &SimOutput, label: &str) {
    assert_eq!(a.events_delivered, b.events_delivered, "{label}: events");
    assert_eq!(a.end, b.end, "{label}: end time");
    assert_eq!(a.db.jobs, b.db.jobs, "{label}: job records");
    assert_eq!(a.db.transfers, b.db.transfers, "{label}: transfers");
    assert_eq!(a.db.sessions, b.db.sessions, "{label}: sessions");
    assert_eq!(a.db.rc_placements, b.db.rc_placements, "{label}: rc");
    assert_eq!(a.samples, b.samples, "{label}: sample series");
    assert_eq!(a.site_stats, b.site_stats, "{label}: site stats");
    assert_eq!(a.fault_report, b.fault_report, "{label}: fault report");
    assert_eq!(a.data_report, b.data_report, "{label}: data report");
}

/// A scenario with no `data` spec and one with a *trivial* spec (a catalog
/// nobody ever attaches) must produce byte-identical output: the trivial
/// spec may not construct the layer, draw RNG, or schedule a single event.
#[test]
fn trivial_data_spec_is_byte_identical_to_none() {
    let plain = ScenarioConfig::baseline(120, 7);
    let mut trivial = ScenarioConfig::baseline(120, 7);
    trivial.data = Some(DataGridSpec {
        datasets: vec![DatasetSpec {
            name: "unused".into(),
            size_mb: 500.0,
            replicas: vec![0],
        }],
        zipf_s: 1.0,
        attach: BTreeMap::new(),
    });
    let a = plain.build().run_with(11, &RunOptions::default());
    let b = trivial.build().run_with(11, &RunOptions::default());
    assert!(a.data_report.is_none(), "no spec must mean no report");
    assert!(b.data_report.is_none(), "trivial spec must mean no report");
    assert_same_simulation(&a, &b, "trivial-vs-none");
}

/// The datasets run itself: replications of it running two at a time must
/// reproduce the one-at-a-time batch exactly, data report included — each
/// replication owns its own catalog and caches.
#[test]
fn datasets_run_is_identical_at_any_worker_count() {
    let scenario = datagrid(120, 7).build();
    let one = replicate_with(&scenario, 23, 3, 1, &RunOptions::default());
    let two = replicate_with(&scenario, 23, 3, 2, &RunOptions::default());
    let report = one[0].output.data_report.as_ref().expect("data grid ran");
    assert!(report.accesses > 0, "no dataset accesses: {report:?}");
    assert!(
        report.hits > 0 && report.misses > 0,
        "want a mix: {report:?}"
    );
    for (a, b) in one.iter().zip(&two) {
        assert_eq!(a.seed, b.seed);
        let label = format!("seed {}, 1 vs 2 workers", a.seed);
        assert_same_simulation(&a.output, &b.output, &label);
        assert_eq!(a.output.stats, b.output.stats, "{label}: stats");
    }
}

/// Streaming generation must not perturb a datasets run: the dataset draw
/// rides the shared per-user generator, so materialized and streamed
/// workloads see identical assignment sequences.
#[test]
fn streaming_generation_matches_materialized_with_datasets() {
    let scenario = datagrid(120, 7).build();
    let materialized = scenario.run_with(31, &RunOptions::default());
    let streamed = scenario.run_with(
        31,
        &RunOptions {
            stream_gen: true,
            ..RunOptions::default()
        },
    );
    assert_same_simulation(&materialized, &streamed, "stream-vs-materialized");
}

/// The live-stats sketches must agree with the data report on hit/miss
/// counts: every routed dataset job closes exactly one stage-in span tagged
/// with its cache outcome.
#[test]
fn stage_in_spans_account_for_every_dataset_access() {
    let out = datagrid(120, 7).build().run_with(
        23,
        &RunOptions {
            live_stats: true,
            ..RunOptions::default()
        },
    );
    let report = out.data_report.as_ref().expect("data grid ran");
    let spans = &out.stats.as_ref().expect("live stats").spans;
    let count = |cause: &str| spans.stage_in_by_cause.get(cause).map_or(0, |s| s.count);
    assert_eq!(count("cache-hit"), report.hits, "hit spans vs report");
    assert_eq!(count("cache-miss"), report.misses, "miss spans vs report");
}

/// The point of the subsystem: a replica-catalog-aware metascheduler moves
/// fewer bytes over the WAN than a locality-blind one on the same workload,
/// and lands a higher cache-hit rate.
#[test]
fn locality_aware_routing_beats_locality_blind() {
    let mut blind_cfg = datagrid(150, 10);
    blind_cfg.meta = MetaPolicy::ShortestEta;
    let mut aware_cfg = datagrid(150, 10);
    aware_cfg.meta = MetaPolicy::DataLocality;
    let blind = blind_cfg.build().run_with(7, &RunOptions::default());
    let aware = aware_cfg.build().run_with(7, &RunOptions::default());
    let b = blind.data_report.as_ref().expect("blind report");
    let a = aware.data_report.as_ref().expect("aware report");
    assert!(
        a.wan_mb < b.wan_mb,
        "locality-aware moved {} MB over the WAN, blind moved {}",
        a.wan_mb,
        b.wan_mb
    );
    assert!(
        a.hit_rate > b.hit_rate,
        "locality-aware hit rate {} vs blind {}",
        a.hit_rate,
        b.hit_rate
    );
}

/// Conservation and determinism over random catalogs: for any valid spec,
/// hits + misses == accesses, the per-site breakdown sums to the totals,
/// WAN bytes are a whole number of dataset fetches, and a 2-thread run
/// reproduces the serial bytes.
fn catalog_strategy() -> impl Strategy<Value = DataGridSpec> {
    // Replica placement as a non-empty bitmask over the three sites.
    let dataset = (100.0f64..3_000.0, 1u8..8).prop_map(|(size_mb, mask)| DatasetSpec {
        name: format!("d{mask}-{}", size_mb as u64),
        size_mb,
        replicas: (0..3).filter(|i| mask & (1 << i) != 0).collect(),
    });
    (
        proptest::collection::vec(dataset, 1..5),
        0.0f64..1.5,
        0.1f64..0.9,
        0.0f64..0.9,
    )
        .prop_map(|(datasets, zipf_s, p_batch, p_ens)| DataGridSpec {
            datasets,
            zipf_s,
            attach: [
                ("batch".to_string(), p_batch),
                ("ensemble".to_string(), p_ens),
            ]
            .into_iter()
            .collect(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn random_catalogs_conserve_and_stay_deterministic(
        spec in catalog_strategy(),
        seed in 0u64..1_000,
        cache_mb in 0.0f64..6_000.0,
    ) {
        let mut cfg = datagrid(40, 3);
        for s in &mut cfg.sites {
            s.data_cache_mb = cache_mb;
        }
        prop_assert!(spec.validate(cfg.sites.len()).is_ok());
        cfg.data = Some(spec.clone());
        let scenario = cfg.build();
        let serial = scenario.run_with(seed, &RunOptions::default());
        let report = serial.data_report.as_ref().expect("non-trivial spec");
        prop_assert_eq!(report.hits + report.misses, report.accesses);
        prop_assert_eq!(report.datasets, spec.datasets.len());
        let site_hits: u64 = report.per_site.iter().map(|s| s.hits).sum();
        let site_misses: u64 = report.per_site.iter().map(|s| s.misses).sum();
        let site_evictions: u64 = report.per_site.iter().map(|s| s.evictions).sum();
        let site_wan: f64 = report.per_site.iter().map(|s| s.wan_in_mb).sum();
        prop_assert_eq!(site_hits, report.hits);
        prop_assert_eq!(site_misses, report.misses);
        prop_assert_eq!(site_evictions, report.evictions);
        prop_assert!((site_wan - report.wan_mb).abs() < 1e-6);
        // Every WAN megabyte is a whole dataset fetched end-to-end: misses
        // bound the total by the smallest and largest catalog entries.
        let min = spec.datasets.iter().map(|d| d.size_mb).fold(f64::MAX, f64::min);
        let max = spec.datasets.iter().map(|d| d.size_mb).fold(0.0, f64::max);
        prop_assert!(report.wan_mb >= report.misses as f64 * min - 1e-6);
        prop_assert!(report.wan_mb <= report.misses as f64 * max + 1e-6);
        let again = scenario.run_with(seed, &RunOptions::default());
        prop_assert_eq!(&serial.db.jobs, &again.db.jobs);
        prop_assert_eq!(&serial.db.transfers, &again.db.transfers);
        prop_assert_eq!(serial.end, again.end);
        prop_assert_eq!(&serial.data_report, &again.data_report);
    }
}
