//! Self-test of the benchmark on tiny scenarios: the timing wrapper
//! reproduces `Scenario::run_with`, every reported metric name is
//! well-formed and declared in BENCHMARK.json, and the seed drives the
//! outputs.

use perfbench::traced::{run_traced, trace_sim};
use perfbench::{congested_faults, run_rep, Plan, Report, Workload};
use std::path::{Path, PathBuf};
use tg_core::{RecordStreaming, RunOptions, ScenarioConfig};
use tg_des::SimDuration;

const SEED: u64 = 7;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// One tiny plan per workload shape: materialized, streamed, congested
/// (data grid, faults, samples, live stats) and ensemble.
fn tiny_plans() -> Vec<Plan> {
    let mut congested = ScenarioConfig::datagrid(40, 4);
    congested.faults = Some(congested_faults(4.0));
    congested.sample_interval = Some(SimDuration::from_hours(1));
    vec![
        Plan::single(ScenarioConfig::baseline(20, 3), RunOptions::default()),
        Plan::single(
            ScenarioConfig::million(3_000, 30),
            RunOptions {
                stream_gen: true,
                record_streaming: RecordStreaming::Discard,
                ..RunOptions::default()
            },
        ),
        Plan::single(
            congested,
            RunOptions {
                live_stats: true,
                ..RunOptions::default()
            },
        ),
        Plan {
            config: ScenarioConfig::baseline(20, 3),
            options: RunOptions::default(),
            ensemble: true,
        },
    ]
}

#[test]
fn timing_wrapper_matches_scenario_run() {
    for plan in tiny_plans().into_iter().filter(|p| !p.ensemble) {
        let out = plan.config.clone().build().run_with(SEED, &plan.options);
        assert!(out.events_delivered > 0);
        let traced = trace_sim(&plan.config, &plan.options, SEED, "");
        let name = &plan.config.name;
        let events = out.events_delivered.to_string();
        assert_eq!(traced.anchor_of("events"), Some(events.as_str()), "{name}");
        let jobs = out.truth.len().to_string();
        assert_eq!(traced.anchor_of("jobs"), Some(jobs.as_str()), "{name}");
        let end = out.end.as_secs_f64().to_string();
        assert_eq!(traced.anchor_of("end_s"), Some(end.as_str()), "{name}");
    }
}

fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(|v| v.as_array())
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_reports(report: &Report, names: &[String], what: &str) {
    for (name, value) in &report.metrics {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {name:?}"
        );
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    for name in names {
        assert!(report.get(name).is_some(), "{what} lacks {name}");
    }
}

#[test]
fn every_declared_metric_is_reported_under_a_valid_name() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    // The memory figures are sampled by the binary, per process.
    let in_library: Vec<String> = end_to_end
        .into_iter()
        .filter(|n| !n.starts_with("peak_"))
        .collect();
    for plan in tiny_plans() {
        let what = &plan.config.name;
        assert_reports(&run_rep(&plan, SEED), &in_library, what);
        assert_reports(&run_traced(&plan, SEED), &per_layer, what);
    }
}

#[test]
fn the_seed_drives_the_outputs() {
    for plan in tiny_plans() {
        let a = run_rep(&plan, SEED).anchors;
        assert_eq!(a, run_rep(&plan, SEED).anchors, "same seed, same outputs");
        assert_ne!(a, run_rep(&plan, SEED + 1).anchors, "another seed differs");
    }
}

#[test]
fn workloads_resolve_by_name() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        w.plan(&root()).expect("plan builds");
    }
    assert_eq!(Workload::from_name("nope"), None);
}
