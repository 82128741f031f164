//! Integration tests for the `tgsim` CLI binary.

use std::process::Command;
use teragrid_repro::prelude::{
    ConfigLibrary, FaultSpec, IngestFaults, NodeCrashSpec, OutageWindow, RngFactory,
    ScenarioConfig, SimDuration, WorkloadGenerator,
};
use tg_des::dist::DistKind;
use tg_workload::profiles::ArrivalKind;

fn tgsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tgsim"))
}

#[test]
fn emit_baseline_produces_valid_config() {
    let out = tgsim()
        .args(["emit-baseline", "40", "2"])
        .output()
        .expect("tgsim runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    let cfg: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(cfg["sites"].as_array().expect("sites").len(), 3);
    assert_eq!(cfg["scheduler"], "easy");
    assert_eq!(cfg["workload"]["sites"], 3);
}

/// A bad USERS or DAYS, or an argument past them, is a usage error (exit 2,
/// no config printed) rather than a silently defaulted 300-user config.
/// Omitted arguments still default.
#[test]
fn emit_baseline_rejects_bad_arguments() {
    for (args, err) in [
        (&["abc", "2"][..], "bad USERS"),
        (&["-3", "2"][..], "bad USERS"),
        (&["40", "2.5"][..], "bad DAYS"),
        (&["40", "2", "extra"][..], "unexpected argument \"extra\""),
    ] {
        let out = tgsim()
            .arg("emit-baseline")
            .args(args)
            .output()
            .expect("tgsim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
        assert!(
            stderr.contains(err) && stderr.contains("usage:"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a config");
    }
    for args in [&[][..], &["40"][..]] {
        let out = tgsim()
            .arg("emit-baseline")
            .args(args)
            .output()
            .expect("tgsim runs");
        assert!(out.status.success(), "{args:?}");
    }
}

#[test]
fn run_executes_a_config_end_to_end() {
    let dir = std::env::temp_dir().join(format!("tgsim-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scen = dir.join("scenario.json");
    let summary = dir.join("summary.json");

    let emit = tgsim()
        .args(["emit-baseline", "40", "2"])
        .output()
        .expect("emit runs");
    std::fs::write(&scen, &emit.stdout).expect("write scenario");

    let run = tgsim()
        .args([
            "run",
            scen.to_str().expect("utf8 path"),
            "--seed",
            "9",
            "--classify",
            "--sample-hours",
            "12",
            "--out",
            summary.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run executes");
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("NU%"), "usage report printed");
    assert!(stdout.contains("classifier [with-attributes]"));

    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&summary).expect("summary written"))
            .expect("summary is JSON");
    assert!(parsed["jobs"].as_u64().expect("jobs") > 0);
    assert!(!parsed["samples"].as_array().expect("samples").is_empty());
    assert_eq!(parsed["seed"], 9);

    // Same seed reproduces the same job count.
    let rerun = tgsim()
        .args(["run", scen.to_str().expect("utf8"), "--seed", "9"])
        .output()
        .expect("rerun executes");
    let text = String::from_utf8_lossy(&rerun.stdout).to_string()
        + &String::from_utf8_lossy(&rerun.stderr);
    let jobs = parsed["jobs"].as_u64().expect("jobs");
    assert!(
        text.contains(&format!("{jobs} jobs")),
        "deterministic job count {jobs} not found in: {text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_drives_an_swf_trace_with_faults() {
    use teragrid_repro::prelude::*;
    let dir = std::env::temp_dir().join(format!("tgsim-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.swf");

    // Export a small generated workload to SWF — the archive-trace pathway.
    let gen_cfg = GeneratorConfig::baseline(40, 2, 3);
    let workload = WorkloadGenerator::new(gen_cfg).generate(&RngFactory::new(7));
    let n_jobs = workload.jobs.len();
    std::fs::write(&trace, tg_workload::swf::to_swf(&workload.jobs)).expect("write trace");

    let faults = concat!(env!("CARGO_MANIFEST_DIR"), "/configs/faults-demo.json");
    let run = tgsim()
        .args([
            "replay",
            trace.to_str().expect("utf8 path"),
            "--seed",
            "7",
            "--faults",
            faults,
            "--classify",
        ])
        .output()
        .expect("replay executes");
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.contains(&format!("of {n_jobs} jobs finished")),
        "replay reports the trace's job count: {stdout}"
    );
    assert!(
        stdout.contains("faults:"),
        "fault report printed for a faulted replay: {stdout}"
    );
    assert!(stdout.contains("classifier on replayed trace"));

    // Same trace, same seed: byte-identical summary line (determinism
    // holds through the SWF round trip and the fault schedule).
    let rerun = tgsim()
        .args([
            "replay",
            trace.to_str().expect("utf8"),
            "--seed",
            "7",
            "--faults",
            faults,
        ])
        .output()
        .expect("rerun executes");
    assert!(rerun.status.success());
    let line = |s: &str| {
        s.lines()
            .find(|l| l.starts_with("replay complete"))
            .expect("summary line")
            .to_string()
    };
    assert_eq!(line(&stdout), line(&String::from_utf8_lossy(&rerun.stdout)));

    // Bad trace fails cleanly.
    let bad = tgsim()
        .args(["replay", "/nonexistent/trace.swf"])
        .output()
        .expect("runs");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("cannot read"));

    // A repeated job number is a bad trace, not a panic (it exited 101 in
    // the simulator's running registry before `from_swf` rejected it).
    let replay = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write trace");
        tgsim()
            .args(["replay", path.to_str().expect("utf8 path")])
            .output()
            .expect("runs")
    };
    let line = |number: u64, submit: u64| {
        format!("{number} {submit} -1 60 4 -1 -1 4 100 -1 -1 0 0 -1 1 1 -1 -1\n")
    };
    let dup = replay("dup.swf", &(line(1, 0) + &line(1, 10)));
    let stderr = String::from_utf8_lossy(&dup.stderr);
    assert_eq!(dup.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("SWF line 2: job number 1 repeats the job on line 1"),
        "{stderr}"
    );
    // Job numbers need not be dense: the simulator's job tables grow with
    // the number of jobs, not with the largest number.
    let sparse = replay("sparse.swf", &(line(1, 0) + &line(999_999_999_999, 10)));
    assert_eq!(
        sparse.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&sparse.stderr)
    );
    assert!(String::from_utf8_lossy(&sparse.stdout).contains("of 2 jobs finished"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_out_diverts_records_and_matches_retained_run() {
    let dir = std::env::temp_dir().join(format!("tgsim-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scen = dir.join("scenario.json");
    let records = dir.join("records.jsonl");

    let emit = tgsim()
        .args(["emit-baseline", "40", "2"])
        .output()
        .expect("emit runs");
    std::fs::write(&scen, &emit.stdout).expect("write scenario");

    let retained = tgsim()
        .args(["run", scen.to_str().expect("utf8"), "--seed", "11"])
        .output()
        .expect("retained run");
    assert!(retained.status.success());
    let retained_text = String::from_utf8_lossy(&retained.stdout).to_string()
        + &String::from_utf8_lossy(&retained.stderr);

    let streamed = tgsim()
        .args([
            "run",
            scen.to_str().expect("utf8"),
            "--seed",
            "11",
            "--stream-out",
            records.to_str().expect("utf8 path"),
            "--assert-peak-rss-mb",
            "2048",
        ])
        .output()
        .expect("streamed run");
    assert!(
        streamed.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&streamed.stderr)
    );
    let stdout = String::from_utf8_lossy(&streamed.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("streamed "))
        .expect("tally line printed");
    let total: u64 = line
        .split_whitespace()
        .nth(1)
        .expect("record count")
        .parse()
        .expect("numeric");
    let text = std::fs::read_to_string(&records).expect("records written");
    assert_eq!(text.lines().count() as u64, total, "JSONL file complete");
    assert!(stdout.contains("memory: peak RSS"), "budget line: {stdout}");

    // The streamed simulation is the retained simulation: same job count.
    let jobs = line.split('(').nth(1).expect("kinds").to_string();
    let jobs: u64 = jobs
        .split_whitespace()
        .next()
        .expect("jobs count")
        .parse()
        .expect("numeric");
    assert!(
        retained_text.contains(&format!("{jobs} jobs")),
        "streamed job count {jobs} not found in retained output: {retained_text}"
    );

    // --stream-out diverts records away from the report path: --classify
    // needs the retained database, so the combination is refused.
    let conflict = tgsim()
        .args([
            "run",
            scen.to_str().expect("utf8"),
            "--stream-out",
            records.to_str().expect("utf8 path"),
            "--classify",
        ])
        .output()
        .expect("runs");
    assert!(!conflict.status.success());
    assert!(
        String::from_utf8_lossy(&conflict.stderr).contains("--classify"),
        "conflict names the flag"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_stats_streams_buckets_and_lands_in_the_summary() {
    let dir = std::env::temp_dir().join(format!("tgsim-livestats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scen = dir.join("scenario.json");
    let rows = dir.join("series.jsonl");
    let summary = dir.join("summary.json");

    let emit = tgsim()
        .args(["emit-baseline", "40", "2"])
        .output()
        .expect("emit runs");
    std::fs::write(&scen, &emit.stdout).expect("write scenario");

    let run = tgsim()
        .args([
            "run",
            scen.to_str().expect("utf8"),
            "--seed",
            "3",
            &format!("--live-stats={}", rows.to_str().expect("utf8 path")),
            "--out",
            summary.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run executes");
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    let live_line = stdout
        .lines()
        .find(|l| l.starts_with("live stats:"))
        .expect("live stats line printed")
        .to_string();

    // The streamed file is one JSON object per closed hourly bucket, with
    // the documented schema.
    let text = std::fs::read_to_string(&rows).expect("series file written");
    let parsed: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("row parses"))
        .collect();
    assert!(parsed.len() > 24, "2-day run closes >24 hourly buckets");
    for row in &parsed {
        for key in [
            "bucket",
            "t_end_s",
            "submitted",
            "started",
            "completed",
            "active",
            "utilization",
            "queue_depth",
        ] {
            assert!(!row[key].is_null(), "row missing {key}: {row}");
        }
    }

    // The summary JSON carries the full deterministic stats report.
    let summary: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&summary).expect("summary written"))
            .expect("summary is JSON");
    let stats = &summary["stats"];
    assert!(stats["spans"]["spans"].as_u64().expect("span count") > 0);
    assert!(!stats["spans"]["by_kind"]["queued"].is_null());
    assert_eq!(
        stats["series"]["rows"].as_array().expect("rows").len(),
        parsed.len(),
        "streamed rows == snapshot rows"
    );

    // Bare --live-stats works with several replications in flight: the
    // summaries written at one and at two workers are byte-identical apart
    // from the `threads` field, and the first replication's live-stats line
    // is the single run's line (same seed, same run).
    let summary_at = |threads: &str| {
        let path = dir.join(format!("reps-{threads}.json"));
        let run = tgsim()
            .args([
                "run",
                scen.to_str().expect("utf8"),
                "--seed",
                "3",
                "--reps",
                "2",
                "--live-stats",
                "--threads",
                threads,
                "--out",
                path.to_str().expect("utf8 path"),
            ])
            .output()
            .expect("replicated run");
        assert!(
            run.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let line = String::from_utf8_lossy(&run.stdout)
            .lines()
            .find(|l| l.starts_with("live stats:"))
            .expect("replicated live stats line")
            .to_string();
        let summary: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("summary written"))
                .expect("summary is JSON");
        assert_eq!(summary["threads"].as_u64(), threads.parse().ok());
        let serde_json::Value::Map(mut fields) = summary else {
            panic!("summary is not an object");
        };
        fields.retain(|(k, _)| k != "threads");
        (line, fields)
    };
    let (line_one, summary_one) = summary_at("1");
    let (line_two, summary_two) = summary_at("2");
    assert_eq!(live_line, line_one, "first replication is the single run");
    assert_eq!(line_one, line_two, "live stats diverge across workers");
    assert_eq!(summary_one, summary_two, "summaries diverge across workers");

    // --live-stats=FILE is single-replication only: multiple replications
    // would clobber the one file, so the combination is refused.
    let conflict = tgsim()
        .args([
            "run",
            scen.to_str().expect("utf8"),
            &format!("--live-stats={}", rows.to_str().expect("utf8")),
            "--reps",
            "2",
        ])
        .output()
        .expect("runs");
    assert!(!conflict.status.success());
    assert!(
        String::from_utf8_lossy(&conflict.stderr).contains("--live-stats=FILE"),
        "conflict names the flag"
    );
    let empty = tgsim()
        .args(["run", scen.to_str().expect("utf8"), "--live-stats="])
        .output()
        .expect("runs");
    assert!(!empty.status.success(), "--live-stats= without a file");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite check: `tgsim analyze` streams line-by-line (BufReader), so a
/// trace far larger than any in-test simulation must analyze correctly with
/// exact counts. The trace is synthesized directly in the span-line schema.
#[test]
fn analyze_handles_a_large_synthetic_trace() {
    let dir = std::env::temp_dir().join(format!("tgsim-bigtrace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("big.jsonl");

    const JOBS: u64 = 100_000;
    {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(&trace).expect("create"));
        for job in 0..JOBS {
            // queued (60s, cause cycles) then run (600s), site cycles 0..3.
            let t0 = job as f64;
            let cause = ["ahead-in-queue", "drain-window", "immediate"][(job % 3) as usize];
            let site = job % 3;
            writeln!(
                w,
                "{{\"t\":{t1},\"cat\":\"span\",\"fields\":{{\"v\":1,\"job\":{job},\
                 \"kind\":\"queued\",\"t0\":{t0},\"t1\":{t1},\"site\":{site},\
                 \"cause\":\"{cause}\",\"modality\":\"batch\"}}}}",
                t1 = t0 + 60.0,
            )
            .expect("write");
            writeln!(
                w,
                "{{\"t\":{t1},\"cat\":\"span\",\"fields\":{{\"v\":1,\"job\":{job},\
                 \"kind\":\"run\",\"t0\":{t0},\"t1\":{t1},\"site\":{site},\
                 \"modality\":\"batch\"}}}}",
                t0 = t0 + 60.0,
                t1 = t0 + 660.0,
            )
            .expect("write");
            // Interleave non-span noise the analyzer must skip, not choke on.
            if job % 10 == 0 {
                writeln!(w, "{{\"t\":{t0},\"cat\":\"sched\",\"fields\":{{}}}}").expect("write");
            }
        }
    }

    let out = tgsim()
        .args(["analyze", trace.to_str().expect("utf8"), "--json"])
        .output()
        .expect("analyze runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("analysis is JSON");
    assert_eq!(v["span_lines"].as_u64().expect("spans"), 2 * JOBS);
    assert_eq!(v["skipped"].as_u64().expect("skipped"), JOBS / 10);
    assert_eq!(v["jobs"].as_u64().expect("jobs"), JOBS);
    // Every job waited exactly 60s, ran exactly 600s.
    assert!((v["mean_wait_s"].as_f64().expect("mean") - 60.0).abs() < 1e-6);
    assert_eq!(v["by_kind"]["queued"]["count"].as_u64(), Some(JOBS));
    assert_eq!(v["by_kind"]["run"]["count"].as_u64(), Some(JOBS));
    assert!((v["by_kind"]["run"]["mean"].as_f64().expect("run mean") - 600.0).abs() < 1e-6);
    for cause in ["ahead-in-queue", "drain-window", "immediate"] {
        let n = v["queued_by_cause"][cause]["count"].as_u64().expect(cause);
        assert!((JOBS / 3..=JOBS / 3 + 1).contains(&n), "{cause}: {n}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--metrics-out` only observes: the same config and seed with and without
/// it produce the same run (no implied sampler, no extra events).
#[test]
fn metrics_out_is_a_pure_observer() {
    let dir = std::env::temp_dir().join(format!("tgsim-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scen = dir.join("scenario.json");
    let emit = tgsim()
        .args(["emit-baseline", "40", "2"])
        .output()
        .expect("emit runs");
    std::fs::write(&scen, &emit.stdout).expect("write scenario");
    let summary = |extra: &[&str]| {
        let out = dir.join(format!("summary-{}.json", extra.len()));
        let run = tgsim()
            .args(["run", scen.to_str().expect("utf8"), "--seed", "5", "--out"])
            .arg(&out)
            .args(extra)
            .output()
            .expect("run executes");
        assert!(
            run.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let text = std::fs::read_to_string(&out).expect("summary written");
        serde_json::from_str::<serde_json::Value>(&text).expect("summary is JSON")
    };
    let metrics = dir.join("metrics.json");
    let plain = summary(&[]);
    let observed = summary(&["--metrics-out", metrics.to_str().expect("utf8")]);
    for key in ["events", "jobs", "samples"] {
        assert_eq!(
            plain[key], observed[key],
            "{key} differs with --metrics-out"
        );
    }
    assert!(metrics.exists(), "metrics snapshot written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_invocations_fail_cleanly() {
    let out = tgsim().output().expect("runs");
    assert!(!out.status.success());
    let out = tgsim()
        .args(["run", "/nonexistent/file.json"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
    let out = tgsim().args(["run", "Cargo.toml"]).output().expect("runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid scenario"));
}

/// 2^54 hours overflows the microsecond clock: a clean exit 1, not a
/// wrapped zero interval and a panic.
#[test]
fn sample_hours_overflow_exits_1() {
    let out = tgsim()
        .args([
            "run",
            "configs/baseline-300u-14d.json",
            "--sample-hours",
            "18014398509481984",
        ])
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("tgsim: bad --sample-hours"), "{stderr}");
}

/// The demo fault spec (every section present) installed on `c`, for a
/// case to break one field of.
fn demo_faults(c: &mut ScenarioConfig) -> &mut FaultSpec {
    c.faults.get_or_insert_with(|| {
        serde_json::from_str(include_str!("../configs/faults-demo.json")).expect("demo spec")
    })
}

/// The demo spec's crash process, for a case to break.
fn crashes(c: &mut ScenarioConfig) -> &mut NodeCrashSpec {
    demo_faults(c)
        .node_crashes
        .as_mut()
        .expect("demo spec has crashes")
}

/// The workflow profile (index 3 in modality order) with a bursty arrival
/// process of the given parameters.
fn workflow_bursty(c: &mut ScenarioConfig, burst_ratio: f64, quiet: f64, burst: f64) {
    c.workload.profiles[3].arrival = ArrivalKind::Bursty {
        burst_ratio,
        mean_quiet_s: quiet,
        mean_burst_s: burst,
    };
}

/// The synthetic RC library the workload draws from, written out in the
/// config with its first entry broken by `mutate`.
fn rc_library(c: &mut ScenarioConfig, mutate: fn(&mut tg_model::config::ProcessorConfig)) {
    let mut library = ConfigLibrary::new();
    for (id, k) in ConfigLibrary::synthetic(c.workload.rc_config_count).iter() {
        let mut k = k.clone();
        if id.index() == 0 {
            mutate(&mut k);
        }
        library.add(k);
    }
    c.library = Some(library);
}

/// Configs that parse but break a per-field or cross-field invariant (fault
/// specs included) are rejected up front: exit 1 (not a panic) with the
/// offending field's path.
#[test]
fn invalid_configs_exit_1_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("tgsim-invalid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    type Mutation = fn(&mut ScenarioConfig);
    let cases: &[(&str, Mutation, &str)] = &[
        ("data-home", |c| c.data_home = 9, "data_home: site 9"),
        (
            "sample-interval",
            |c| c.sample_interval = Some(SimDuration::ZERO),
            "sample_interval:",
        ),
        (
            "coreless-site",
            |c| c.sites[1].batch_nodes = 0,
            "sites[1].batch_nodes:",
        ),
        (
            "site-count",
            |c| {
                c.sites.pop();
            },
            "workload.sites:",
        ),
        (
            "replica",
            |c| {
                c.data = Some(tg_data::DataGridSpec {
                    datasets: vec![tg_data::DatasetSpec {
                        name: "d".into(),
                        size_mb: 100.0,
                        replicas: vec![7],
                    }],
                    zipf_s: 1.0,
                    attach: [("batch".to_string(), 0.5)].into_iter().collect(),
                })
            },
            "data.datasets[0].replicas[0]:",
        ),
        (
            "library",
            |c| c.library = Some(ConfigLibrary::synthetic(1)),
            "library:",
        ),
        // RC library entries. Before `ProcessorConfig::validate`, a
        // negative bitstream size panicked in the network model (exit 101)
        // and the other three ran silently (exit 0).
        (
            "bitstream-mb",
            |c| rc_library(c, |k| k.bitstream_mb = -5.0),
            "library.configs[0].bitstream_mb:",
        ),
        (
            "rc-area",
            |c| rc_library(c, |k| k.area = 0),
            "library.configs[0].area:",
        ),
        (
            "speedup-zero",
            |c| rc_library(c, |k| k.speedup = 0.0),
            "library.configs[0].speedup:",
        ),
        (
            "speedup-negative",
            |c| rc_library(c, |k| k.speedup = -3.0),
            "library.configs[0].speedup:",
        ),
        (
            "outage-site",
            |c| demo_faults(c).site_outages[0].site = 5,
            "faults.site_outages[0].site:",
        ),
        (
            "mtbf",
            |c| crashes(c).mtbf_hours = 0.0,
            "faults.node_crashes.mtbf_hours:",
        ),
        (
            "repair",
            |c| crashes(c).repair_hours = -1.0,
            "faults.node_crashes.repair_hours:",
        ),
        (
            "outage-duration",
            |c| demo_faults(c).site_outages[1].duration_hours = 0.0,
            "faults.site_outages[1].duration_hours:",
        ),
        (
            "bandwidth-factor",
            |c| demo_faults(c).wan_degradations[0].bandwidth_factor = 0.5,
            "faults.wan_degradations[0].bandwidth_factor:",
        ),
        (
            "latency-factor",
            |c| demo_faults(c).wan_degradations[0].latency_factor = 0.0,
            "faults.wan_degradations[0].latency_factor:",
        ),
        (
            "ingest-loss",
            |c| {
                demo_faults(c).ingest = Some(IngestFaults {
                    loss: 2.0,
                    duplication: 0.0,
                })
            },
            "faults.ingest.loss:",
        ),
        (
            "mean-quiet",
            |c| workflow_bursty(c, 20.0, 0.0, 1800.0),
            "workload.profiles[3].arrival.mean_quiet_s:",
        ),
        (
            "mean-burst",
            |c| workflow_bursty(c, 20.0, 21_600.0, -5.0),
            "workload.profiles[3].arrival.mean_burst_s:",
        ),
        (
            "burst-ratio",
            |c| workflow_bursty(c, 0.0, 21_600.0, 1800.0),
            "workload.profiles[3].arrival.burst_ratio:",
        ),
        (
            "runtime-cv",
            |c| {
                c.workload.profiles[0].runtime = DistKind::LogNormal {
                    mean: 3600.0,
                    cv: -1.0,
                }
            },
            "workload.profiles[0].runtime.cv:",
        ),
        (
            "cores-empty",
            |c| c.workload.profiles[1].cores_weights.clear(),
            "workload.profiles[1].cores_weights:",
        ),
        (
            "cores-weight",
            |c| c.workload.profiles[1].cores_weights[2].1 = 0.0,
            "workload.profiles[1].cores_weights[2]:",
        ),
        (
            "rate",
            |c| c.workload.profiles[2].per_user_per_day = -1.0,
            "workload.profiles[2].per_user_per_day:",
        ),
        (
            "pinned-prob",
            |c| c.workload.profiles[4].site_pinned_prob = 2.0,
            "workload.profiles[4].site_pinned_prob:",
        ),
        (
            "estimate-bounds",
            |c| c.workload.profiles[5].estimate_factor = DistKind::Uniform { lo: 3.0, hi: 1.0 },
            "workload.profiles[5].estimate_factor.hi:",
        ),
        // Site hardware figures. Before `SiteConfig::validate`, the first
        // three panicked in the model constructors (exit 101) and the last
        // two ran silently (exit 0).
        (
            "wan-bandwidth",
            |c| c.sites[0].wan_bandwidth_mbps = 0.0,
            "sites[0].wan_bandwidth_mbps:",
        ),
        (
            "wan-latency",
            |c| c.sites[0].wan_latency_ms = -1.0,
            "sites[0].wan_latency_ms:",
        ),
        (
            "charge-factor",
            |c| c.sites[0].charge_factor = -1.0,
            "sites[0].charge_factor:",
        ),
        (
            "core-speed",
            |c| c.sites[0].core_speed = 0.0,
            "sites[0].core_speed:",
        ),
        (
            "data-cache",
            |c| c.sites[0].data_cache_mb = -1.0,
            "sites[0].data_cache_mb:",
        ),
    ];
    for &(tag, mutate, field) in cases {
        let mut cfg = ScenarioConfig::baseline(20, 1);
        mutate(&mut cfg);
        let path = dir.join(format!("{tag}.json"));
        let json = serde_json::to_string(&cfg).expect("config serializes");
        std::fs::write(&path, json).expect("write config");
        let out = tgsim()
            .args(["run", path.to_str().expect("utf8 path")])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: stderr {stderr}");
        let want = format!(
            "tgsim: invalid scenario config: {}: {field}",
            path.display()
        );
        assert!(stderr.contains(&want), "{tag}: want `{want}` in {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_fault_spec_files_exit_1_naming_the_field() {
    // `--faults` replaces the config's fault section; `run` and `replay`
    // both validate it before anything compiles it.
    let dir = std::env::temp_dir().join(format!("tgsim-bad-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = dir.join("scenario.json");
    let cfg = ScenarioConfig::baseline(20, 1);
    std::fs::write(&scenario, serde_json::to_string(&cfg).expect("json")).expect("write");
    let trace = dir.join("trace.swf");
    let workload = WorkloadGenerator::new(cfg.workload).generate(&RngFactory::new(7));
    std::fs::write(&trace, tg_workload::swf::to_swf(&workload.jobs)).expect("write trace");
    let faults = dir.join("faults.json");
    let spec = FaultSpec {
        site_outages: vec![OutageWindow {
            site: 7,
            start_hours: 1.0,
            duration_hours: 2.0,
            notice_hours: 0.0,
        }],
        ..FaultSpec::default()
    };
    std::fs::write(&faults, serde_json::to_string(&spec).expect("json")).expect("write");
    for (cmd, input) in [("run", &scenario), ("replay", &trace)] {
        let out = tgsim()
            .args([cmd, input.to_str().expect("utf8 path"), "--faults"])
            .arg(&faults)
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: stderr {stderr}");
        assert!(
            stderr.contains("faults.site_outages[0].site: site 7 is out of range"),
            "{cmd}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The entries of a JSON object, for a case to add a key to.
fn object(v: &mut serde_json::Value) -> &mut Vec<(String, serde_json::Value)> {
    match v {
        serde_json::Value::Map(entries) => entries,
        other => panic!("not an object: {other}"),
    }
}

/// `sites[0]` of a serialized scenario config.
fn first_site(v: &mut serde_json::Value) -> &mut Vec<(String, serde_json::Value)> {
    let sites = object(v)
        .iter_mut()
        .find(|(k, _)| k == "sites")
        .map(|(_, v)| v)
        .expect("config has sites");
    match sites {
        serde_json::Value::Seq(sites) => object(&mut sites[0]),
        other => panic!("sites is not an array: {other}"),
    }
}

/// Misspelled or retired keys are rejected while parsing: exit 1 naming
/// the key and the struct it sits in. Before, every case here exited 0 and
/// ran as if the key were absent (a misspelled `faults` section injected
/// nothing), except the retired `storage_bandwidth_mbps: -5`, which
/// panicked in the storage model (exit 101).
#[test]
fn unknown_config_keys_exit_1_naming_the_key() {
    let dir = std::env::temp_dir().join(format!("tgsim-unknown-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let base = serde_json::to_string(&ScenarioConfig::baseline(20, 1)).expect("json");
    type Mutation = fn(&mut serde_json::Value);
    let cases: &[(&str, Mutation, &str)] = &[
        (
            "fault",
            |v| {
                let crash = serde_json::json!({"node_crashes": {"mtbf_hours": 1.0,
                    "repair_hours": 1.0, "cores_per_crash": 8, "horizon_days": 1.0}});
                object(v).push(("fault".into(), crash));
            },
            "unknown field `fault` in struct ScenarioConfig",
        ),
        (
            "bogus",
            |v| object(v).push(("bogus_key".into(), serde_json::json!(1))),
            "unknown field `bogus_key` in struct ScenarioConfig",
        ),
        (
            "schedular",
            |v| first_site(v).push(("schedular".into(), serde_json::json!("easy"))),
            "unknown field `schedular` in struct SiteConfig",
        ),
        (
            "storage",
            |v| first_site(v).push(("storage_bandwidth_mbps".into(), serde_json::json!(-5.0))),
            "unknown field `storage_bandwidth_mbps` in struct SiteConfig",
        ),
    ];
    for &(tag, mutate, want) in cases {
        let mut v: serde_json::Value = serde_json::from_str(&base).expect("json");
        mutate(&mut v);
        let path = dir.join(format!("{tag}.json"));
        std::fs::write(&path, v.to_string()).expect("write config");
        let out = tgsim()
            .args(["run", path.to_str().expect("utf8 path")])
            .output()
            .expect("runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: stderr {stderr}");
        assert!(stderr.contains(want), "{tag}: want `{want}` in {stderr}");
    }

    // A typo inside a `--faults` file fails the same way.
    let scenario = dir.join("scenario.json");
    std::fs::write(&scenario, &base).expect("write config");
    let faults = dir.join("faults.json");
    std::fs::write(
        &faults,
        r#"{"node_crashes": {"mtbf_hour": 1.0, "mtbf_hours": 1.0, "repair_hours": 1.0,
            "cores_per_crash": 8, "horizon_days": 1.0}}"#,
    )
    .expect("write faults");
    let out = tgsim()
        .args(["run", scenario.to_str().expect("utf8 path"), "--faults"])
        .arg(&faults)
        .output()
        .expect("runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr}");
    assert!(
        stderr.contains("unknown field `mtbf_hour` in struct NodeCrashSpec"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checked_in_config_still_parses() {
    // Guard against config-format drift: every committed config loads as
    // what it is (`faults-demo.json` is a `--faults` file, the rest are
    // scenarios) and passes validation.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/configs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("configs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 6, "configs: {paths:?}");
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("config exists");
        let name = path.display();
        if path.ends_with("faults-demo.json") {
            let spec: FaultSpec =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            spec.validate(3).unwrap_or_else(|e| panic!("{name}: {e}"));
        } else {
            let cfg: ScenarioConfig =
                serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            cfg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(cfg.sites.len(), 3, "{name}");
        }
    }

    // `emit-baseline` writes a config that parses, validates, and
    // serializes back to the same bytes.
    let out = tgsim()
        .args(["emit-baseline", "40", "2"])
        .output()
        .expect("tgsim runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    let cfg: ScenarioConfig = serde_json::from_str(&text).expect("emitted config parses");
    cfg.validate().expect("emitted config is valid");
    let again = serde_json::to_string_pretty(&cfg).expect("serializes");
    assert_eq!(format!("{again}\n"), text, "emit-baseline round-trips");
}
