//! Online-observability differential suite.
//!
//! The live-stats layer (`crates/des/src/sketch.rs`, `crates/des/src/series.rs`,
//! wired through `GridSim`) is an *observer*: enabling it must not change a
//! single byte of simulation output, and the report it produces must itself
//! be byte-identical however many replications run at once (`--threads N`).
//! This suite enforces both, and checks the offline trace analyzer fed the
//! same run's trace reproduces the online span tables exactly.

use std::io::BufRead;
use std::path::PathBuf;

use tg_core::{replicate_with, Replication, RunOptions, Scenario, ScenarioConfig, SimOutput};
use tg_des::analyze::parse_span_line;
use tg_des::sketch::RELATIVE_ERROR;
use tg_des::{SpanKind, TraceAnalyzer};

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tg-obs-{tag}-{}.jsonl", std::process::id()))
}

fn observed() -> RunOptions {
    RunOptions {
        live_stats: true,
        ..RunOptions::default()
    }
}

/// Every deterministic field of [`SimOutput`] must match between an observed
/// and an unobserved run (`stats` and `profile` are the intentional deltas).
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

/// Run three replications from `seed` on one worker and on two, and assert
/// the batches match replication by replication — stats report included.
/// Returns the one-worker batch for the caller's own assertions.
fn assert_same_at_one_and_two_workers(
    scenario: &Scenario,
    seed: u64,
    opts: &RunOptions,
) -> Vec<Replication> {
    let one = replicate_with(scenario, seed, 3, 1, opts);
    let two = replicate_with(scenario, seed, 3, 2, opts);
    for (a, b) in one.iter().zip(&two) {
        let label = format!("seed {}, 1 vs 2 workers", a.seed);
        assert_eq!(a.seed, b.seed, "{label}: seed");
        assert_same_simulation(&a.output, &b.output, &label);
        assert_eq!(a.output.stats, b.output.stats, "{label}: stats");
    }
    one
}

#[test]
fn live_stats_never_perturb_serial_results() {
    let cfg = ScenarioConfig::baseline(120, 7);
    let scenario = cfg.build();
    let plain = scenario.run_with(11, &RunOptions::default());
    let obs = scenario.run_with(11, &observed());
    assert!(plain.stats.is_none(), "unobserved run grew a stats report");
    let stats = obs.stats.as_ref().expect("observed run reports stats");
    assert!(stats.spans.spans > 0, "no spans recorded");
    assert_same_simulation(&plain, &obs, "serial observed-vs-not");
}

/// Observed replications running two at a time match unobserved ones run
/// one at a time.
#[test]
fn live_stats_never_perturb_parallel_replications() {
    let scenario = ScenarioConfig::baseline(120, 7).build();
    let plain = replicate_with(&scenario, 11, 2, 1, &RunOptions::default());
    let obs = replicate_with(&scenario, 11, 2, 2, &observed());
    for (a, b) in plain.iter().zip(&obs) {
        assert!(
            b.output.stats.is_some(),
            "observed replication reports stats"
        );
        assert_same_simulation(&a.output, &b.output, &format!("seed {}", a.seed));
    }
}

/// The stats report itself — sketch tables *and* the f64 series rows — must
/// be byte-identical at any worker count: each replication runs whole on
/// one worker.
#[test]
fn stats_report_is_identical_at_any_worker_count() {
    let mut cfg = ScenarioConfig::baseline(120, 7);
    cfg.sites[0].batch_nodes = 64;
    let scenario = cfg.build();
    let reps = assert_same_at_one_and_two_workers(&scenario, 23, &observed());
    let want = reps[0].output.stats.as_ref().expect("stats");
    assert!(want.spans.spans > 0 && !want.series.rows.is_empty());
}

/// Faults exercise the kill → requeue span path; the faulted stats report
/// must not depend on the worker count either.
#[test]
fn stats_report_survives_faults_at_any_worker_count() {
    let mut cfg = ScenarioConfig::baseline(120, 6);
    for s in &mut cfg.sites {
        s.batch_nodes = (s.batch_nodes / 4).max(16);
    }
    cfg.faults = Some(tg_core::FaultSpec {
        site_outages: vec![tg_core::OutageWindow {
            site: 1,
            start_hours: 30.0,
            duration_hours: 12.0,
            notice_hours: 0.0,
        }],
        retry: Some(tg_sched::RetryPolicy::default()),
        ..tg_core::FaultSpec::default()
    });
    let scenario = cfg.build();
    let reps = assert_same_at_one_and_two_workers(&scenario, 4242, &observed());
    let first = &reps[0].output;
    let fr = first.fault_report.as_ref().expect("faults ran");
    assert!(fr.jobs_killed > 0, "outage killed running work: {fr:?}");
    let want = first.stats.as_ref().expect("stats");
    assert!(
        want.spans.by_kind.contains_key("requeue"),
        "kill path produced requeue spans: {:?}",
        want.spans.by_kind.keys().collect::<Vec<_>>()
    );
}

fn load_config(name: &str) -> ScenarioConfig {
    let path = format!("{}/../../configs/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Run `cfg` once with both the JSONL trace and the online sketches, and
/// check the offline analyzer fed that trace reproduces the online span
/// tables *exactly*. Exact nearest-rank quantiles over the parsed span
/// durations referee the shared estimator against its documented
/// [`RELATIVE_ERROR`].
fn assert_offline_equals_online(cfg: ScenarioConfig, seed: u64, tag: &str) -> SimOutput {
    let path = scratch(tag);
    let opts = RunOptions {
        trace_path: Some(path.clone()),
        live_stats: true,
        ..RunOptions::default()
    };
    let out = cfg.build().run_with(seed, &opts);
    let stats = out.stats.as_ref().expect("stats collected");

    let mut analyzer = TraceAnalyzer::new();
    let mut durations: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let file = std::fs::File::open(&path).expect("trace file exists");
    for line in std::io::BufReader::new(file).lines() {
        let line = line.expect("readable line");
        if let Some(span) = parse_span_line(&line) {
            durations
                .entry(span.kind.name().to_string())
                .or_default()
                .push(span.duration());
        }
        analyzer.add_line(&line);
    }
    let _ = std::fs::remove_file(&path);
    let analysis = analyzer.finish();

    assert_eq!(
        analysis.spans, stats.spans,
        "{tag}: offline vs online tables"
    );
    assert_eq!(analysis.span_lines, stats.spans.spans, "{tag}: span count");

    for (kind, vals) in &mut durations {
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let online = &stats.spans.by_kind[kind.as_str()];
        for (q, got) in [(0.50, online.p50), (0.95, online.p95), (0.99, online.p99)] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let want = vals[rank - 1];
            let tol = want.abs() * RELATIVE_ERROR + 1e-6;
            assert!(
                (got - want).abs() <= tol,
                "{tag}: {kind} p{:.0}: sketch {got} vs exact {want} (tol {tol}, n={})",
                q * 100.0,
                vals.len()
            );
        }
        assert_eq!(online.min, vals[0], "{tag}: {kind} min");
        assert_eq!(online.max, vals[vals.len() - 1], "{tag}: {kind} max");
    }
    out
}

/// Acceptance cross-check: one estimator, so the analyzer fed a run's trace
/// and the run's own `--live-stats` tables are equal, on the baseline, on a
/// faulted run (kill → fault/requeue spans), and on the data grid
/// (cache-hit/miss stage-in causes).
#[test]
fn online_sketches_agree_with_offline_analyzer() {
    let out = assert_offline_equals_online(ScenarioConfig::baseline(150, 7), 777, "agree-baseline");
    let stats = out.stats.as_ref().expect("stats collected");
    // The windowed series agrees with the accounting database on totals.
    let digest = stats.series.digest();
    assert_eq!(
        digest.completed,
        out.db.jobs.len() as u64,
        "series completion count vs accounting db"
    );
    assert!(digest.buckets > 0 && digest.peak_active > 0);
    // Queued spans: one per completed job (requeues add more, baseline has
    // none), so the queued table covers every job.
    assert_eq!(
        stats.spans.by_kind[SpanKind::Queued.name()].count,
        out.db.jobs.len() as u64 + stats.spans.by_kind.get("requeue").map_or(0, |s| s.count),
        "queued span coverage"
    );

    let mut faulty = load_config("faulty-300u-14d");
    let demo = std::fs::read_to_string(format!(
        "{}/../../configs/faults-demo.json",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("read faults-demo");
    faulty.faults = Some(serde_json::from_str(&demo).expect("parse faults-demo"));
    let out = assert_offline_equals_online(faulty, 99, "agree-faulty");
    let by_kind = &out.stats.as_ref().expect("stats").spans.by_kind;
    assert!(by_kind.contains_key("fault") && by_kind.contains_key("requeue"));

    let out = assert_offline_equals_online(load_config("datagrid-300u-14d"), 42, "agree-datagrid");
    let stage_in = &out.stats.as_ref().expect("stats").spans.stage_in_by_cause;
    assert!(stage_in.contains_key("cache-hit") && stage_in.contains_key("cache-miss"));
}

/// The JSONL live sink streams exactly the closed-bucket rows of the final
/// snapshot, in order, as parseable JSON.
#[test]
fn live_sink_rows_match_the_final_snapshot() {
    let cfg = ScenarioConfig::baseline(80, 5);
    let path = scratch("sink");
    let opts = RunOptions {
        live_stats_path: Some(path.clone()),
        ..RunOptions::default()
    };
    let out = cfg.build().run_with(5, &opts);
    let stats = out.stats.as_ref().expect("stats collected");
    assert_eq!(stats.live_sink_errors, 0, "sink writes failed");
    let file = std::fs::File::open(&path).expect("live-stats file exists");
    let rows: Vec<tg_des::SeriesRow> = std::io::BufReader::new(file)
        .lines()
        .map(|l| serde_json::from_str(&l.expect("readable")).expect("row parses"))
        .collect();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        rows, stats.series.rows,
        "streamed rows vs final snapshot rows"
    );
    assert!(rows.len() > 24, "a 5-day run closes >24 hourly buckets");
}
