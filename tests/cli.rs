//! Integration tests for the `tgsim` CLI binary.

use std::process::Command;
use teragrid_repro::prelude::{ConfigLibrary, FaultSpec, OutageWindow, ScenarioConfig};

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

/// Configs that parse but break a cross-field invariant are rejected up
/// front: exit 1 (not a panic) with the offending field's path.
#[test]
fn invalid_configs_exit_1_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("tgsim-invalid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    type Mutation = fn(&mut ScenarioConfig);
    let cases: [(&str, Mutation, &str); 5] = [
        ("data-home", |c| c.data_home = 9, "data_home: site 9"),
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
        (
            "outage-site",
            |c| {
                c.faults = Some(FaultSpec {
                    site_outages: vec![OutageWindow {
                        site: 5,
                        start_hours: 1.0,
                        duration_hours: 2.0,
                        notice_hours: 0.0,
                    }],
                    ..FaultSpec::default()
                })
            },
            "faults.site_outages[0].site:",
        ),
    ];
    for (tag, mutate, field) in cases {
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
fn checked_in_config_still_parses() {
    // Guard against config-format drift: the committed example must load.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/configs/baseline-300u-14d.json"
    );
    let text = std::fs::read_to_string(path).expect("config exists");
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(v["sites"].as_array().expect("sites").len(), 3);
}
