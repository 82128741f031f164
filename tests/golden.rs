//! Golden determinism anchors: exact event, job, fault and data-grid counts
//! for fixed `(config, seed)` pairs. Every result is a pure function of
//! `(config, seed)`, so these numbers may only change in a commit that
//! means to change simulator behaviour, and that commit updates them here.

use teragrid_repro::prelude::*;

/// Seeds of the three replications each anchor covers.
const SEEDS: [u64; 3] = [9000, 9001, 9002];

/// `(events, jobs)` per seed of the healthy 300-user × 14-day baseline.
const HEALTHY: [(u64, usize); 3] = [(80527, 27524), (82231, 28087), (75509, 25832)];

/// A crash trickle (120 h MTBF) plus two outages: roughly 5% of the
/// baseline's 1008 site-hours down.
fn faulted_spec() -> FaultSpec {
    FaultSpec {
        node_crashes: Some(NodeCrashSpec {
            mtbf_hours: 120.0,
            repair_hours: 4.0,
            cores_per_crash: 64,
            horizon_days: 14.0,
        }),
        site_outages: vec![
            OutageWindow {
                site: 1,
                start_hours: 72.0,
                duration_hours: 30.0,
                notice_hours: 2.0,
            },
            OutageWindow {
                site: 0,
                start_hours: 240.0,
                duration_hours: 20.0,
                notice_hours: 0.0,
            },
        ],
        ..FaultSpec::default()
    }
}

#[test]
fn healthy_baseline_counts_are_pinned() {
    let scenario = ScenarioConfig::baseline(300, 14).build();
    for (seed, (events, jobs)) in SEEDS.into_iter().zip(HEALTHY) {
        let out = scenario.run(seed);
        assert_eq!(out.events_delivered, events, "seed {seed}: events");
        assert_eq!(out.db.jobs.len(), jobs, "seed {seed}: jobs");
    }
}

#[test]
fn faulted_baseline_counts_are_pinned() {
    // `(events, killed, requeued)` per seed, 40 kills in all; the job
    // counts equal the healthy run's, since every killed job is requeued
    // and completes.
    const FAULTED: [(u64, u64, u64); 3] = [(80566, 10, 10), (82278, 11, 11), (75572, 19, 19)];
    let mut cfg = ScenarioConfig::baseline(300, 14);
    cfg.faults = Some(faulted_spec());
    let scenario = cfg.build();
    for ((seed, (_, jobs)), (events, killed, requeued)) in
        SEEDS.into_iter().zip(HEALTHY).zip(FAULTED)
    {
        let out = scenario.run(seed);
        let report = out.fault_report.as_ref().expect("faulted run reports");
        assert_eq!(out.events_delivered, events, "seed {seed}: events");
        assert_eq!(out.db.jobs.len(), jobs, "seed {seed}: jobs");
        assert_eq!(report.jobs_killed, killed, "seed {seed}: killed");
        assert_eq!(report.jobs_requeued, requeued, "seed {seed}: requeued");
    }
}

#[test]
fn datagrid_cache_totals_are_pinned() {
    let out = ScenarioConfig::datagrid(300, 14).build().run(9000);
    let data = out.data_report.expect("datagrid run reports cache totals");
    assert_eq!(
        (data.accesses, data.hits, data.misses, data.evictions),
        (6112, 5941, 171, 164)
    );
    assert_eq!(data.wan_mb, 396000.0);
}
