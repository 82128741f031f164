//! Whole-scenario differential suite: optimized vs reference schedulers.
//!
//! The per-crate property tests (`tg-sched/tests/differential_prop.rs`)
//! compare decision streams on synthetic queues; this suite closes the loop
//! at the system level by running *entire scenarios* both ways —
//! `RunOptions::reference_schedulers` swaps in the frozen naive scheduler
//! ports — and asserting the outputs are identical record for record. Any
//! divergence in start order, backfill choice, or completion time would
//! show up in the accounting database or the event count.

use tg_core::{RunOptions, ScenarioConfig, SimOutput};

fn run_both(cfg: ScenarioConfig, seed: u64) -> (SimOutput, SimOutput) {
    let scenario = cfg.build();
    let fast = scenario.run_with(seed, &RunOptions::default());
    let slow = scenario.run_with(
        seed,
        &RunOptions {
            reference_schedulers: true,
            ..RunOptions::default()
        },
    );
    (fast, slow)
}

fn assert_identical(fast: &SimOutput, slow: &SimOutput) {
    assert_eq!(
        fast.events_delivered, slow.events_delivered,
        "event counts diverge"
    );
    assert_eq!(fast.end, slow.end, "end times diverge");
    assert_eq!(fast.db.jobs, slow.db.jobs, "job records diverge");
    assert_eq!(fast.db.transfers, slow.db.transfers);
    assert_eq!(fast.db.sessions, slow.db.sessions);
    assert_eq!(
        fast.fault_report, slow.fault_report,
        "fault outcomes diverge"
    );
}

#[test]
fn baseline_scenario_is_identical_under_reference_schedulers() {
    for seed in [9000, 9001] {
        let (fast, slow) = run_both(ScenarioConfig::baseline(60, 4), seed);
        assert!(fast.db.jobs.len() > 100, "scenario produced real load");
        assert_identical(&fast, &slow);
    }
}

#[test]
fn saturated_scenario_is_identical_under_reference_schedulers() {
    // Small sites + the baseline population → long queues, so the backfill
    // and drain paths (where the optimized index does real work) are hot.
    let mut cfg = ScenarioConfig::baseline(80, 3);
    for s in &mut cfg.sites {
        s.batch_nodes = (s.batch_nodes / 8).max(4);
    }
    let (fast, slow) = run_both(cfg, 424242);
    assert_identical(&fast, &slow);
}

#[test]
fn faulted_scenario_is_identical_under_reference_schedulers() {
    // Crash/outage kills exercise the out-of-order removal path
    // (`on_complete` for a job that is *not* the earliest-ending one).
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/faults-demo.json"
    ))
    .expect("fault spec exists");
    let spec = serde_json::from_str(&text).expect("fault spec parses");
    let mut cfg = ScenarioConfig::baseline(60, 4);
    cfg.faults = Some(spec);
    let (fast, slow) = run_both(cfg, 31337);
    let fr = fast.fault_report.as_ref().expect("faults ran");
    assert!(
        fr.jobs_killed > 0 || fr.node_crashes > 0,
        "fault schedule actually fired: {fr:?}"
    );
    assert_identical(&fast, &slow);
}

fn faults_demo() -> tg_core::FaultSpec {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/faults-demo.json"
    ))
    .expect("fault spec exists");
    serde_json::from_str(&text).expect("fault spec parses")
}

/// A small scenario whose shrunk machines queue work under every policy.
fn congested(kind: tg_sched::SchedulerKind, days: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(40, days);
    cfg.scheduler = kind;
    for s in &mut cfg.sites {
        s.batch_nodes = (s.batch_nodes / 4).max(8);
    }
    cfg
}

#[test]
fn every_scheduler_kind_matches_its_reference() {
    use tg_sched::SchedulerKind;
    for kind in SchedulerKind::ALL {
        let (fast, slow) = run_both(congested(kind, 3), 777);
        assert_eq!(
            fast.db.jobs, slow.db.jobs,
            "scheduler {kind:?} diverges from its reference"
        );
        assert_eq!(fast.end, slow.end);
        assert_eq!(fast.events_delivered, slow.events_delivered);
    }
}

#[test]
fn every_scheduler_kind_matches_its_reference_under_faults() {
    // The announced outage (site 1, two hours' notice at hour 94) sends
    // each kind a drain notice inside the arrival window; kinds that
    // honour it and kinds that ignore it must both match their oracle.
    use tg_sched::SchedulerKind;
    for kind in SchedulerKind::ALL {
        let mut cfg = congested(kind, 5);
        cfg.faults = Some(faults_demo());
        let (fast, slow) = run_both(cfg, 4242);
        let fr = fast.fault_report.as_ref().expect("faults ran");
        assert!(fr.jobs_killed > 0, "{kind:?}: outages killed work: {fr:?}");
        assert_identical(&fast, &slow);
    }
}

/// A deep-queue data grid (900 users for 60 days, locality routing onto
/// small machines) with a crash trickle at every site and an outage
/// announced two hours ahead: EASY's backfill and drain passes run over
/// deep queues, and kills remove jobs out of end order. The reference
/// schedulers walk the whole queue on every pass, so the pair takes ~20 s
/// in release on a 2-core host; CI runs it there.
#[test]
#[ignore = "deep queues; CI runs it in release"]
fn deep_queue_data_grid_is_identical_under_reference_schedulers() {
    use tg_core::{FaultSpec, NodeCrashSpec, OutageWindow};
    let days = 60;
    let mut cfg = ScenarioConfig::datagrid(900, days);
    cfg.faults = Some(FaultSpec {
        node_crashes: Some(NodeCrashSpec {
            mtbf_hours: 36.0,
            repair_hours: 4.0,
            cores_per_crash: 64,
            horizon_days: days as f64,
        }),
        site_outages: vec![OutageWindow {
            site: 1,
            start_hours: days as f64 * 24.0 * 0.4,
            duration_hours: 12.0,
            notice_hours: 2.0,
        }],
        ..FaultSpec::default()
    });
    let (fast, slow) = run_both(cfg, 9000);
    let fr = fast.fault_report.as_ref().expect("faults ran");
    assert!(
        fr.node_crashes > 0 && fr.site_outages == 1 && fr.jobs_killed > 0,
        "crashes and the outage fired: {fr:?}"
    );
    assert_identical(&fast, &slow);
}
