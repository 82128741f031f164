//! Streaming-vs-materialized differential suite.
//!
//! The streaming run path's contract is *byte-identical* `SimOutput` to the
//! materialized serial path at the same seed (`crates/core/src/scenario.rs`,
//! `RunOptions::stream_gen`). This suite enforces it on every scenario
//! config shipped in `configs/`, on fault-injected and sampled runs, and
//! checks the record-sink diversion: a sink run's tally must agree exactly
//! with the retained run's database counts.

use tg_core::{RecordStreaming, RunOptions, Scenario, ScenarioConfig, SimOutput};

fn load_config(name: &str) -> ScenarioConfig {
    let path = format!("{}/../../configs/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn run_pair(cfg: &ScenarioConfig, seed: u64) -> (SimOutput, SimOutput) {
    let scenario = cfg.clone().build();
    let mut opts = RunOptions::with_metrics();
    let materialized = scenario.run_with(seed, &opts);
    opts.stream_gen = true;
    let streamed = scenario.run_with(seed, &opts);
    (materialized, streamed)
}

/// Every deterministic field of [`SimOutput`] must match. (The engine
/// profile is excluded — it carries wall-clock time by design.)
fn assert_identical(mat: &SimOutput, streamed: &SimOutput, label: &str) {
    assert_eq!(
        mat.events_delivered, streamed.events_delivered,
        "{label}: event counts diverge"
    );
    assert_eq!(mat.end, streamed.end, "{label}: end times diverge");
    assert_eq!(mat.db.jobs, streamed.db.jobs, "{label}: job records");
    assert_eq!(
        mat.db.transfers, streamed.db.transfers,
        "{label}: transfer records"
    );
    assert_eq!(
        mat.db.sessions, streamed.db.sessions,
        "{label}: session records"
    );
    assert_eq!(
        mat.db.gateway_attrs, streamed.db.gateway_attrs,
        "{label}: gateway attributes"
    );
    assert_eq!(
        mat.db.rc_placements, streamed.db.rc_placements,
        "{label}: rc placements"
    );
    assert_eq!(mat.truth, streamed.truth, "{label}: ground truth");
    assert_eq!(
        mat.population.users, streamed.population.users,
        "{label}: populations"
    );
    assert_eq!(mat.samples, streamed.samples, "{label}: sample series");
    assert_eq!(mat.site_stats, streamed.site_stats, "{label}: site stats");
    assert_eq!(
        mat.fault_report, streamed.fault_report,
        "{label}: fault report"
    );
    match (&mat.metrics, &streamed.metrics) {
        (Some(a), Some(b)) => {
            assert_eq!(a.counters, b.counters, "{label}: metric counters");
            assert_eq!(a.gauges, b.gauges, "{label}: metric gauges");
            assert_eq!(a.series, b.series, "{label}: metric series");
        }
        (None, None) => {}
        _ => panic!("{label}: metrics presence diverges"),
    }
}

#[test]
fn baseline_config_is_identical_streamed() {
    let mut cfg = load_config("baseline-300u-14d");
    // Keep the sampler on so Sample events interleave with the stream.
    cfg.sample_interval = Some(tg_des::SimDuration::from_hours(12));
    let (mat, streamed) = run_pair(&cfg, 42);
    assert!(mat.db.jobs.len() > 1000, "config produced real load");
    assert_identical(&mat, &streamed, "baseline-300u-14d");
}

#[test]
fn faulty_config_is_identical_streamed() {
    let mut cfg = load_config("faulty-300u-14d");
    cfg.sample_interval = Some(tg_des::SimDuration::from_hours(12));
    let (mat, streamed) = run_pair(&cfg, 42);
    let fr = mat.fault_report.as_ref().expect("faults ran");
    assert!(fr.jobs_killed > 0, "kills actually happened: {fr:?}");
    assert_identical(&mat, &streamed, "faulty-300u-14d");
}

/// The big perf config. Expensive in debug: CI runs it in release as part
/// of the streaming memory-budget smoke step.
#[test]
#[ignore = "large config; CI runs it in release via the streaming smoke step"]
fn large_config_is_identical_streamed() {
    let cfg = load_config("large-3000u-90d");
    let (mat, streamed) = run_pair(&cfg, 42);
    assert_identical(&mat, &streamed, "large-3000u-90d");
}

#[test]
fn several_seeds_are_identical_streamed() {
    let mut cfg = ScenarioConfig::baseline(80, 5);
    cfg.sites[0].batch_nodes = 64;
    cfg.sites[1].batch_nodes = 128;
    cfg.sites[2].batch_nodes = 32;
    for seed in [1u64, 7, 31337] {
        let (mat, streamed) = run_pair(&cfg, seed);
        assert_identical(&mat, &streamed, &format!("seed={seed}"));
    }
}

/// Record-sink diversion: the tally must agree exactly with what a retained
/// run stores, the database must come back empty, and everything that is
/// not a record (site stats, truth, samples, end time) must be untouched.
#[test]
fn record_sink_tally_matches_retained_database() {
    let cfg = ScenarioConfig::baseline(80, 5);
    let scenario = cfg.build();
    let retained = scenario.run_with(9, &RunOptions::default());
    let opts = RunOptions {
        stream_gen: true,
        record_streaming: RecordStreaming::Discard,
        ..RunOptions::default()
    };
    let diverted = scenario.run_with(9, &opts);

    assert!(diverted.db.jobs.is_empty(), "records left the database");
    let tally = diverted.ingest_tally.expect("sink attached");
    assert_eq!(tally.jobs, retained.db.jobs.len() as u64);
    assert_eq!(tally.transfers, retained.db.transfers.len() as u64);
    assert_eq!(tally.sessions, retained.db.sessions.len() as u64);
    assert_eq!(tally.gateway_attrs, retained.db.gateway_attrs.len() as u64);
    assert_eq!(tally.rc_placements, retained.db.rc_placements.len() as u64);
    assert_eq!(tally.write_errors, 0);
    let retained_core_hours: f64 = retained.db.jobs.iter().map(|j| j.core_hours()).sum();
    assert!((tally.core_hours - retained_core_hours).abs() < 1e-6);

    // The simulation behind the sink is the same simulation.
    assert_eq!(retained.end, diverted.end);
    assert_eq!(retained.events_delivered, diverted.events_delivered);
    assert_eq!(retained.truth, diverted.truth);
    assert_eq!(retained.site_stats, diverted.site_stats);
    assert!(
        retained.ingest_tally.is_none(),
        "retained runs carry no tally"
    );
}

/// JSONL sink: the file holds one line per record, kinds tallied correctly.
#[test]
fn jsonl_record_sink_writes_complete_file() {
    let cfg = ScenarioConfig::baseline(40, 3);
    let scenario: Scenario = cfg.build();
    let dir = std::env::temp_dir().join("tg-streaming-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("records-jsonl-sink.jsonl");
    let opts = RunOptions {
        stream_gen: true,
        record_streaming: RecordStreaming::Jsonl(path.clone()),
        ..RunOptions::default()
    };
    let out = scenario.run_with(4, &opts);
    let tally = out.ingest_tally.expect("sink attached");
    assert_eq!(tally.write_errors, 0);
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count() as u64, tally.len());
    let mut jobs = 0u64;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON line");
        let kind = v.get("kind").and_then(|k| k.as_str()).expect("kind tag");
        if kind == "job" {
            jobs += 1;
        }
        assert!(v.get("rec").is_some(), "record body present");
    }
    assert_eq!(jobs, tally.jobs);
    std::fs::remove_file(&path).ok();
}
