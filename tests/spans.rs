//! Lifecycle-span integration tests: the offline analyzer reproduces
//! accounting aggregates from the trace alone, every completed job's spans
//! partition its lifecycle, and span emission never perturbs results.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use teragrid_repro::prelude::*;
use tg_core::{RunOptions, ScenarioConfig, SimOutput};
use tg_des::analyze::parse_span_line;
use tg_des::{Span, SpanKind, TraceAnalyzer};
use tg_sched::SchedulerKind;

/// A unique scratch path for one test's trace file.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tg-spans-{tag}-{}.jsonl", std::process::id()))
}

/// Run `cfg` once at `seed` with a JSONL trace, returning the output and
/// every span parsed back from the file.
fn run_traced(cfg: &ScenarioConfig, seed: u64, tag: &str) -> (SimOutput, Vec<Span>) {
    let path = scratch(tag);
    let opts = RunOptions {
        metrics: false,
        trace_path: Some(path.clone()),
        ..RunOptions::default()
    };
    let out = cfg.clone().build().run_with(seed, &opts);
    let health = out.trace_health.expect("trace requested");
    assert!(health.sink_clean(), "trace writes failed: {health:?}");
    let file = std::fs::File::open(&path).expect("trace file exists");
    let spans: Vec<Span> = std::io::BufReader::new(file)
        .lines()
        .filter_map(|l| parse_span_line(&l.expect("readable line")))
        .collect();
    let _ = std::fs::remove_file(&path);
    assert!(!spans.is_empty(), "trace produced no spans");
    (out, spans)
}

/// An F3-shaped scenario (one overloaded site, batch + interactive mix)
/// under the given scheduler, small enough for the test suite.
fn f3_shaped(kind: SchedulerKind) -> ScenarioConfig {
    let population = [(Modality::BatchComputing, 40), (Modality::Interactive, 10)];
    tg_bench::single_site_config("spans-f3", 64, 7, &population, kind)
}

#[test]
fn analyzer_reproduces_per_scheduler_mean_wait_within_1pct() {
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::Easy,
        SchedulerKind::Conservative,
        SchedulerKind::WeeklyDrain,
        SchedulerKind::FairshareEasy,
    ] {
        let cfg = f3_shaped(kind);
        let path = scratch(&format!("xcheck-{}", kind.name()));
        let opts = RunOptions {
            metrics: false,
            trace_path: Some(path.clone()),
            ..RunOptions::default()
        };
        let out = cfg.build().run_with(4242, &opts);
        let file = std::fs::File::open(&path).expect("trace file exists");
        let mut analyzer = TraceAnalyzer::new();
        for line in std::io::BufReader::new(file).lines() {
            analyzer.add_line(&line.expect("readable line"));
        }
        let _ = std::fs::remove_file(&path);
        let analysis = analyzer.finish();
        let db_mean = out.mean_wait_secs();
        assert_eq!(
            analysis.jobs,
            out.db.jobs.len() as u64,
            "{}: analyzer job count",
            kind.name()
        );
        let rel = (analysis.mean_wait_s - db_mean).abs() / db_mean.max(1e-9);
        assert!(
            rel <= 0.01,
            "{}: analyzer mean wait {:.3}s vs accounting {:.3}s (rel {rel:.5})",
            kind.name(),
            analysis.mean_wait_s,
            db_mean
        );
    }
}

#[test]
fn spans_partition_each_completed_jobs_lifecycle() {
    // The stock baseline exercises every span kind: workflows (held),
    // data jobs (stage in/out), RC tasks (reconfig), and queueing.
    let cfg = ScenarioConfig::baseline(150, 7);
    let (out, spans) = run_traced(&cfg, 777, "partition");

    let mut by_job: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_job.entry(s.job).or_default().push(s);
    }
    let kinds_seen: std::collections::BTreeSet<SpanKind> =
        by_job.values().flatten().map(|s| s.kind).collect();
    for kind in [
        SpanKind::Held,
        SpanKind::StageIn,
        SpanKind::Queued,
        SpanKind::Run,
    ] {
        assert!(kinds_seen.contains(&kind), "no {kind} span in the baseline");
    }

    for rec in &out.db.jobs {
        let mut spans = by_job
            .remove(&(rec.job.index() as u64))
            .unwrap_or_else(|| panic!("{}: no spans", rec.job));
        spans.sort_by(|a, b| (a.t0, a.t1).partial_cmp(&(b.t0, b.t1)).unwrap());
        // Contiguous: each span starts exactly where the previous ended.
        for pair in spans.windows(2) {
            assert!(
                (pair[1].t0 - pair[0].t1).abs() < 1e-9,
                "{}: gap/overlap between {} and {}",
                rec.job,
                pair[0].kind,
                pair[1].kind
            );
        }
        // The run span is the recorded execution interval.
        let run = spans
            .iter()
            .find(|s| s.kind == SpanKind::Run)
            .unwrap_or_else(|| panic!("{}: no run span", rec.job));
        assert!(
            (run.t0 - rec.start.as_secs_f64()).abs() < 1e-9,
            "{}: run start",
            rec.job
        );
        assert!(
            (run.t1 - rec.end.as_secs_f64()).abs() < 1e-9,
            "{}: run end",
            rec.job
        );
        // Wait-attributed spans sum exactly to the recorded queue wait.
        let wait_sum: f64 = spans
            .iter()
            .filter(|s| s.kind.is_wait())
            .map(|s| s.duration())
            .sum();
        let rec_wait = rec.wait().as_secs_f64();
        assert!(
            (wait_sum - rec_wait).abs() < 1e-6,
            "{}: wait spans sum {wait_sum:.6} vs recorded wait {rec_wait:.6}",
            rec.job
        );
        // Nothing before the first span or after stage-out: the chain starts
        // at (or before) the recorded submission and covers through the end.
        assert!(
            spans[0].t0 <= rec.submit.as_secs_f64() + 1e-9,
            "{}: first span starts after submission",
            rec.job
        );
        let last = spans.last().unwrap();
        assert!(
            last.t1 >= rec.end.as_secs_f64() - 1e-9,
            "{}: spans end before the job does",
            rec.job
        );
    }
    assert!(
        by_job.is_empty(),
        "spans for jobs that never completed: {:?}",
        by_job.keys().collect::<Vec<_>>()
    );
}

#[test]
fn span_emission_never_perturbs_results() {
    let cfg = ScenarioConfig::baseline(120, 7);
    let plain = cfg.clone().build().run(31);
    let (traced, _) = run_traced(&cfg, 31, "determinism");
    // Byte-identical deterministic outputs, spans on or off.
    assert_eq!(
        format!("{:?}", plain.db),
        format!("{:?}", traced.db),
        "accounting database diverged under span emission"
    );
    assert_eq!(plain.end, traced.end);
    assert_eq!(plain.events_delivered, traced.events_delivered);
    assert_eq!(plain.site_stats, traced.site_stats);
    assert_eq!(plain.truth, traced.truth, "ground truth diverged");
}
