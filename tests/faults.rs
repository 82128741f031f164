//! Fault-injection integration tests: the fault layer is provably inert
//! when disabled, fully deterministic when enabled, visible end to end in
//! the span stream, and its lossy ingest degrades measurement coverage
//! monotonically while never touching ground truth.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use teragrid_repro::prelude::*;
use tg_des::TraceAnalyzer;

/// A unique scratch path for one test's trace file.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tg-faults-{tag}-{}.jsonl", std::process::id()))
}

/// One announced outage plus a crash trickle on the shrunk baseline.
fn eventful_spec() -> FaultSpec {
    FaultSpec {
        node_crashes: Some(NodeCrashSpec {
            mtbf_hours: 36.0,
            repair_hours: 2.0,
            cores_per_crash: 64,
            horizon_days: 7.0,
        }),
        site_outages: vec![OutageWindow {
            site: 1,
            start_hours: 72.0,
            duration_hours: 12.0,
            notice_hours: 2.0,
        }],
        wan_degradations: vec![DegradeWindow {
            site: 2,
            start_hours: 24.0,
            duration_hours: 12.0,
            bandwidth_factor: 8.0,
            latency_factor: 4.0,
        }],
        ingest: Some(IngestFaults {
            loss: 0.02,
            duplication: 0.005,
        }),
        retry: None,
        outage_policy: OutagePolicy::Requeue,
    }
}

fn small() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(120, 7);
    cfg.sites[0].batch_nodes = 64;
    cfg.sites[1].batch_nodes = 128;
    cfg.sites[2].batch_nodes = 32;
    cfg
}

fn assert_identical(a: &SimOutput, b: &SimOutput, what: &str) {
    assert_eq!(
        format!("{:?}", a.db),
        format!("{:?}", b.db),
        "{what}: accounting database diverged"
    );
    assert_eq!(a.end, b.end, "{what}: end time diverged");
    assert_eq!(
        a.events_delivered, b.events_delivered,
        "{what}: event count diverged"
    );
    assert_eq!(a.site_stats, b.site_stats, "{what}: site stats diverged");
    let sorted = |m: &std::collections::HashMap<JobId, Modality>| {
        m.iter()
            .map(|(k, v)| (*k, *v))
            .collect::<BTreeMap<JobId, Modality>>()
    };
    assert_eq!(sorted(&a.truth), sorted(&b.truth), "{what}: truth diverged");
}

#[test]
fn faults_disabled_is_byte_identical_to_no_fault_layer() {
    // `faults: None` and a trivial (empty) spec must both produce exactly
    // the run a build of this crate without the fault subsystem produced:
    // same records, same event count, same end, same truth.
    let plain = small().build().run(31);

    let mut none_cfg = small();
    none_cfg.faults = None;
    assert_identical(&plain, &none_cfg.build().run(31), "faults: None");

    let mut trivial_cfg = small();
    trivial_cfg.faults = Some(FaultSpec::default());
    let trivial = trivial_cfg.build().run(31);
    assert_identical(&plain, &trivial, "trivial spec");
    assert!(
        trivial.fault_report.is_none(),
        "a trivial spec must not even attach the fault layer"
    );
}

#[test]
fn same_seed_same_faults_same_output() {
    let mut cfg = small();
    cfg.faults = Some(eventful_spec());
    let a = cfg.clone().build().run(99);
    let b = cfg.build().run(99);
    assert_identical(&a, &b, "repeat run");
    let (ra, rb) = (a.fault_report.unwrap(), b.fault_report.unwrap());
    assert_eq!(ra, rb, "fault reports diverged between identical runs");
    assert!(ra.node_crashes > 0, "spec should produce crashes");
    assert_eq!(ra.site_outages, 1);
}

#[test]
fn same_seed_same_compiled_schedule() {
    let factory = RngFactory::new(4711);
    let spec = eventful_spec();
    let cores = [512usize, 1024, 256];
    let a = spec.compile(&cores, &factory);
    let b = spec.compile(&cores, &factory);
    assert_eq!(a.events.len(), b.events.len());
    for (x, y) in a.events.iter().zip(&b.events) {
        assert_eq!(x.at, y.at);
        assert_eq!(format!("{:?}", x.kind), format!("{:?}", y.kind));
    }
    // A different seed reshuffles the stochastic part (node crashes).
    let c = spec.compile(&cores, &RngFactory::new(4712));
    assert!(
        a.events.len() != c.events.len()
            || a.events
                .iter()
                .zip(&c.events)
                .any(|(x, y)| x.at != y.at || format!("{:?}", x.kind) != format!("{:?}", y.kind)),
        "different seeds produced an identical crash schedule"
    );
}

#[test]
fn outage_run_emits_fault_and_requeue_spans_the_analyzer_counts() {
    let mut cfg = small();
    cfg.faults = Some(eventful_spec());
    let path = scratch("spans");
    let opts = RunOptions {
        metrics: false,
        trace_path: Some(path.clone()),
        ..RunOptions::default()
    };
    let out = cfg.build().run_with(99, &opts);
    let health = out.trace_health.expect("trace requested");
    assert!(health.sink_clean(), "trace writes failed: {health:?}");
    let report = out.fault_report.expect("fault layer attached");
    assert!(report.jobs_killed > 0, "outage should kill running work");
    assert!(report.jobs_requeued > 0);
    assert!(report.records_lost > 0, "lossy ingest should drop records");

    let file = std::fs::File::open(&path).expect("trace file exists");
    let mut analyzer = TraceAnalyzer::new();
    for line in std::io::BufReader::new(file).lines() {
        analyzer.add_line(&line.expect("readable line"));
    }
    let _ = std::fs::remove_file(&path);
    let analysis = analyzer.finish();
    let count = |kind: &str| {
        analysis
            .spans
            .by_kind
            .get(kind)
            .map(|s| s.count)
            .unwrap_or_default()
    };
    assert!(count("fault") > 0, "no fault spans in the trace");
    assert!(count("requeue") > 0, "no requeue spans in the trace");
    assert!(
        count("fault") >= report.jobs_killed,
        "every kill emits a fault span"
    );
}

#[test]
fn ingest_loss_degrades_coverage_monotonically_and_spares_truth() {
    let mut kept = Vec::new();
    let mut truth_sizes = Vec::new();
    for (i, loss) in [0.0f64, 0.1, 0.3].into_iter().enumerate() {
        let mut cfg = small();
        if loss > 0.0 {
            cfg.faults = Some(FaultSpec {
                ingest: Some(IngestFaults {
                    loss,
                    duplication: 0.0,
                }),
                ..FaultSpec::default()
            });
        }
        let out = cfg.build().run(7);
        kept.push(out.db.jobs.len());
        truth_sizes.push(out.truth.len());
        if i > 0 {
            let lost = out.fault_report.expect("lossy run").records_lost;
            assert!(lost > 0, "loss {loss} dropped nothing");
        }
    }
    assert!(
        kept[0] > kept[1] && kept[1] > kept[2],
        "record survival must shrink with the loss rate: {kept:?}"
    );
    assert_eq!(
        truth_sizes[0], truth_sizes[1],
        "ground truth must not depend on ingest loss"
    );
    assert_eq!(truth_sizes[1], truth_sizes[2]);
}
