//! `tgsim` — run a simulation scenario from a JSON config file.
//!
//! ```text
//! tgsim emit-baseline [USERS DAYS] > scenario.json   # write a starter config
//! tgsim run scenario.json [--seed N] [--reps K] [--threads N]
//!       [--sample-hours H] [--classify] [--out results.json] [--faults spec.json]
//!       [--metrics-out metrics.json] [--trace-out trace.jsonl]
//!       [--stream-out records.jsonl] [--assert-peak-rss-mb N]
//! tgsim analyze trace.jsonl [--json]
//! tgsim replay trace.swf [--scenario cfg.json] [--seed N]
//!       [--faults spec.json] [--classify]
//! ```
//!
//! `run` prints the usage report (ground-truth labels) and, with
//! `--classify`, the classifier accuracy in both instrumentation modes;
//! `--out` writes a JSON summary. `--metrics-out` writes the first
//! replication's run-level metrics snapshot (per-site busy/queue gauges,
//! closed out from the windowed series' per-site tracks, which see
//! outages; per-modality completion counters; engine profile) as JSON; it
//! only observes, so a run with it is the same run as without it.
//! `--trace-out` streams the first replication's JSONL event trace; the
//! summary's `trace` object (null without it) reports that file's
//! `sink_errors`, `flush_ok` and `complete`, and an incomplete trace fails
//! the run (exit 1). `--sample-hours H` (or the config's
//! `sample_interval`) samples per-site busy fraction and queue length
//! every `H` hours into the summary's `samples` array. `--faults` loads a
//! [`FaultSpec`] JSON file and overrides the config's `faults` section
//! (node crashes, site outages, WAN degradation, lossy accounting ingest);
//! the run summary then includes the fault report. `--stream-out` switches to the O(in-flight) memory-diet
//! path: the workload is generated lazily (jobs pulled as simulated time
//! advances) and accounting records stream to the given JSONL file instead
//! of accumulating in memory — outputs are byte-identical to the default
//! path at the same seed, but the usage report is replaced by a compact
//! ingest tally (and `--classify` is unavailable: classification needs the
//! retained records). `--assert-peak-rss-mb` fails the run (exit 1) if the
//! process peak RSS exceeded the budget — the CI memory-regression guard.
//! `--live-stats` collects constant-memory online observability during the
//! run — span-latency quantile sketches keyed by (kind, cause, site,
//! modality) plus an hourly windowed series of submit/start/complete rates,
//! active jobs, utilization, and queue depth — reported at the end and
//! included as a `stats` object in the `--out` summary. `--live-stats=FILE`
//! additionally streams each closed series bucket as a JSONL row while the
//! run progresses (single replication only, like `--stream-out`).
//! `--threads N` sets how many replications run at once (each replication's
//! event loop is sequential, so outputs are identical at any `N`); the default
//! `0` auto-detects the available cores
//! (`std::thread::available_parallelism`), and the resolved worker count
//! lands in the `--out` summary's `threads` field. A config that parses but
//! breaks an invariant ([`ScenarioConfig::validate`]) exits 1 with the
//! offending field's path. `analyze` reconstructs per-job
//! lifecycle spans from a `--trace-out` trace offline and prints wait-time
//! breakdowns by span kind, wait cause, site, and modality (mean, p50/p95/p99,
//! min/max) — including the `fault`/`requeue` spans a faulted run emits.
//! Its span tables are the `--live-stats` tables: the same sketches, so
//! `analyze --json` of a run's trace and that run's `stats.spans` agree
//! exactly. `replay` drives the simulator from a Standard Workload Format
//! archive trace instead of the generator: the federation, policies,
//! sampler, data grid and (with `--faults`) fault schedule come from the
//! scenario config, the jobs from the trace (`Scenario::run_jobs`) — so
//! archive workloads get the same degraded-operation machinery as
//! synthetic ones.

use std::process::ExitCode;
use teragrid_repro::prelude::*;
use tg_des::memory::CountingAlloc;
use tg_des::stats::ci_student_t;
use tg_des::{SketchSummary, TraceAnalyzer, TraceHealth};

/// Exact heap accounting for `--assert-peak-rss-mb`: the counting allocator
/// gives a live-bytes high-water alongside the kernel's `VmHWM`, so the
/// memory guard has one signal immune to RSS noise (page-cache, arenas).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tgsim emit-baseline [USERS DAYS]\n  tgsim run <scenario.json> \
         [--seed N] [--reps K] [--threads N|0=auto] [--sample-hours H] [--classify] \
         [--out FILE] [--faults FILE] [--metrics-out FILE] [--trace-out FILE] \
         [--stream-out FILE] [--assert-peak-rss-mb N] [--live-stats[=FILE]]\n  \
         tgsim analyze <trace.jsonl> [--json] [--data]\n  \
         tgsim replay <trace.swf> [--scenario FILE] [--seed N] \
         [--faults FILE] [--classify]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("emit-baseline") => emit_baseline(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("analyze") => analyze(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => usage(),
    }
}

fn emit_baseline(rest: &[String]) -> ExitCode {
    if let Some(extra) = rest.get(2) {
        eprintln!("tgsim: emit-baseline: unexpected argument {extra:?}");
        return usage();
    }
    let users = match rest.first().map_or(Ok(300usize), |s| s.parse()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("tgsim: bad USERS: {e}");
            return usage();
        }
    };
    let max_days = GeneratorConfig::MAX_HORIZON_DAYS;
    let days = match rest.get(1).map_or(Ok(14u64), |s| s.parse()) {
        Ok(v) if (1..=max_days).contains(&v) => v,
        Ok(v) => {
            eprintln!("tgsim: bad DAYS: {v} is outside 1..={max_days}");
            return usage();
        }
        Err(e) => {
            eprintln!("tgsim: bad DAYS: {e}");
            return usage();
        }
    };
    let cfg = ScenarioConfig::baseline(users, days);
    match serde_json::to_string_pretty(&cfg) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tgsim: cannot serialize baseline: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `tgsim run` flag combinations that interact; one place holds every
/// rejection rule so the CLI and its tests cannot drift apart.
struct RunFlags {
    /// `--stream-out FILE` was given.
    stream_out: bool,
    /// `--classify` was given.
    classify: bool,
    /// `--reps K`.
    reps: usize,
    /// `--live-stats=FILE` (the streaming form; bare `--live-stats` never
    /// conflicts with anything).
    live_stats_file: bool,
}

/// Resolve the `--threads` flag: `0` means "one replication worker per
/// available core". `detected` is [`std::thread::available_parallelism`],
/// `None` when the platform cannot tell, in which case auto degrades to
/// one worker.
fn resolve_threads(raw: usize, detected: Option<usize>) -> usize {
    if raw == 0 {
        detected.unwrap_or(1)
    } else {
        raw
    }
}

/// Why this flag combination is rejected, or `None` if it is fine. Checked
/// before any file is touched so a bad invocation costs nothing.
fn run_flag_conflict(f: &RunFlags) -> Option<&'static str> {
    if f.stream_out && f.classify {
        return Some(
            "--stream-out and --classify are incompatible \
             (classification needs the retained record database)",
        );
    }
    if f.stream_out && f.reps > 1 {
        return Some(
            "--stream-out supports a single replication \
             (every rep would clobber the same file); use --reps 1",
        );
    }
    if f.live_stats_file && f.reps > 1 {
        return Some(
            "--live-stats=FILE supports a single replication \
             (every rep would clobber the same file); use --reps 1 or bare --live-stats",
        );
    }
    None
}

/// Read the scenario config at `path` (the built-in `baseline(300, 14)`
/// when `None`), replace its fault section with the `--faults` file when
/// one is given, and validate the result. A failure is printed naming the
/// file (and, for a config that parses but breaks an invariant, the
/// field); the caller then exits 1.
fn load_scenario(path: Option<&str>, faults_path: Option<&str>) -> Option<ScenarioConfig> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| eprintln!("tgsim: cannot read {p}: {e}"))
            .ok()
    };
    let mut cfg = match path {
        Some(p) => serde_json::from_str::<ScenarioConfig>(&read(p)?)
            .map_err(|e| eprintln!("tgsim: invalid scenario config: {p}: {e}"))
            .ok()?,
        None => ScenarioConfig::baseline(300, 14),
    };
    if let Some(fp) = faults_path {
        let spec = serde_json::from_str::<FaultSpec>(&read(fp)?)
            .map_err(|e| eprintln!("tgsim: invalid fault spec {fp}: {e}"))
            .ok()?;
        cfg.faults = Some(spec);
    }
    if let Err(e) = cfg.validate() {
        let source = path.unwrap_or("built-in baseline");
        eprintln!("tgsim: invalid scenario config: {source}: {e}");
        return None;
    }
    Some(cfg)
}

fn run(rest: &[String]) -> ExitCode {
    let Some(path) = rest.first() else {
        return usage();
    };
    let mut seed = 42u64;
    let mut reps = 1usize;
    let mut threads = 0usize;
    let mut classify = false;
    let mut out_path: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut faults_path: Option<String> = None;
    let mut sample_interval: Option<SimDuration> = None;
    let mut stream_out: Option<String> = None;
    let mut rss_budget_mb: Option<u64> = None;
    let mut live_stats = false;
    let mut live_stats_file: Option<String> = None;
    let mut i = 1;
    while i < rest.len() {
        match rest[i].as_str() {
            "--seed"
            | "--reps"
            | "--threads"
            | "--out"
            | "--sample-hours"
            | "--metrics-out"
            | "--trace-out"
            | "--faults"
            | "--stream-out"
            | "--assert-peak-rss-mb" => {
                let flag = rest[i].clone();
                i += 1;
                let Some(value) = rest.get(i) else {
                    eprintln!("tgsim: {flag} needs a value");
                    return usage();
                };
                match flag.as_str() {
                    "--seed" => match value.parse() {
                        Ok(v) => seed = v,
                        Err(e) => {
                            eprintln!("tgsim: bad --seed: {e}");
                            return usage();
                        }
                    },
                    "--reps" => match value.parse() {
                        Ok(v) if v >= 1 => reps = v,
                        _ => {
                            eprintln!("tgsim: bad --reps");
                            return usage();
                        }
                    },
                    // `0` = auto-detect cores, resolved below.
                    "--threads" => match value.parse() {
                        Ok(v) => threads = v,
                        Err(_) => {
                            eprintln!("tgsim: bad --threads");
                            return usage();
                        }
                    },
                    "--sample-hours" => match value.parse::<u64>() {
                        Ok(v) if v >= 1 => {
                            let per_hour = SimDuration::from_hours(1).as_micros();
                            let Some(us) = v.checked_mul(per_hour) else {
                                eprintln!(
                                    "tgsim: bad --sample-hours: {v} h overflows the \
                                     microsecond clock"
                                );
                                return ExitCode::FAILURE;
                            };
                            sample_interval = Some(SimDuration::from_micros(us));
                        }
                        _ => {
                            eprintln!("tgsim: bad --sample-hours");
                            return usage();
                        }
                    },
                    "--metrics-out" => metrics_out = Some(value.clone()),
                    "--trace-out" => trace_out = Some(value.clone()),
                    "--faults" => faults_path = Some(value.clone()),
                    "--stream-out" => stream_out = Some(value.clone()),
                    "--assert-peak-rss-mb" => match value.parse() {
                        Ok(v) if v >= 1 => rss_budget_mb = Some(v),
                        _ => {
                            eprintln!("tgsim: bad --assert-peak-rss-mb");
                            return usage();
                        }
                    },
                    _ => out_path = Some(value.clone()),
                }
            }
            "--classify" => classify = true,
            "--live-stats" => live_stats = true,
            s if s.starts_with("--live-stats=") => {
                let value = &s["--live-stats=".len()..];
                if value.is_empty() {
                    eprintln!("tgsim: --live-stats= needs a file");
                    return usage();
                }
                live_stats_file = Some(value.to_string());
            }
            other => {
                eprintln!("tgsim: unknown flag {other}");
                return usage();
            }
        }
        i += 1;
    }

    if let Some(msg) = run_flag_conflict(&RunFlags {
        stream_out: stream_out.is_some(),
        classify,
        reps,
        live_stats_file: live_stats_file.is_some(),
    }) {
        eprintln!("tgsim: {msg}");
        return ExitCode::from(2);
    }

    // Fail fast on unwritable output paths instead of discovering them only
    // after the replications have run (the trace sink would otherwise panic
    // mid-setup). Append mode probes writability without truncating.
    for p in [
        &out_path,
        &metrics_out,
        &trace_out,
        &stream_out,
        &live_stats_file,
    ]
    .into_iter()
    .flatten()
    {
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
        {
            eprintln!("tgsim: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let Some(mut cfg) = load_scenario(Some(path), faults_path.as_deref()) else {
        return ExitCode::FAILURE;
    };
    cfg.sample_interval = sample_interval.or(cfg.sample_interval);
    let threads_requested = threads;
    let threads = resolve_threads(
        threads,
        std::thread::available_parallelism().ok().map(|n| n.get()),
    )
    .min(reps);
    let scenario = cfg.build();
    eprintln!(
        "running `{}` × {reps} replication(s) from seed {seed} on {threads} thread(s){} ...",
        scenario.config().name,
        if threads_requested == 0 {
            " (auto)"
        } else {
            ""
        },
    );
    let opts = RunOptions {
        metrics: metrics_out.is_some(),
        trace_path: trace_out.as_ref().map(std::path::PathBuf::from),
        stream_gen: stream_out.is_some(),
        record_streaming: match &stream_out {
            Some(p) => RecordStreaming::Jsonl(std::path::PathBuf::from(p)),
            None => RecordStreaming::Retain,
        },
        live_stats,
        live_stats_path: live_stats_file.as_ref().map(std::path::PathBuf::from),
        ..RunOptions::default()
    };
    let replications = replicate_with(&scenario, seed, reps, threads, &opts);
    let first = &replications[0].output;

    let report: Option<UsageReport> = if let Some(tally) = &first.ingest_tally {
        // Streamed run: the records left the process as they were emitted;
        // report the compact tally in place of the full usage report.
        println!(
            "streamed {} records ({} jobs, {} transfers, {} sessions, \
             {} gateway attrs, {} rc placements) to {}",
            tally.len(),
            tally.jobs,
            tally.transfers,
            tally.sessions,
            tally.gateway_attrs,
            tally.rc_placements,
            stream_out.as_deref().unwrap_or("?"),
        );
        println!(
            "usage: {:.0} core-hours charged, {:.0} MB transferred",
            tally.core_hours, tally.transfer_mb
        );
        if tally.write_errors > 0 {
            eprintln!(
                "tgsim: warning: {} record writes failed; the stream file is incomplete",
                tally.write_errors
            );
        }
        None
    } else {
        let report = UsageReport::compute(&first.db, &first.truth, &first.charge_policy);
        println!("{report}");
        Some(report)
    };

    let utils: Vec<f64> = replications
        .iter()
        .map(|r| r.output.average_utilization())
        .collect();
    let (u_mean, u_ci) = ci_student_t(&utils);
    let jobs_recorded = first
        .ingest_tally
        .map_or(first.db.jobs.len() as u64, |t| t.jobs);
    println!(
        "federation utilization {u_mean:.3} ± {u_ci:.3} over {} replication(s); \
         {} jobs, {} events (first replication)",
        reps, jobs_recorded, first.events_delivered
    );
    let agg = aggregate_profiles(&replications);
    println!(
        "engine: {} events in {:.3}s wall ({:.0} events/s), peak queue {}",
        agg.events_delivered, agg.wall_seconds, agg.events_per_sec, agg.peak_queue_len
    );
    if let Some(stats) = &first.stats {
        let d = stats.series.digest();
        println!(
            "live stats: {} spans across {} groups; {} series buckets of {:.0}s \
             (peak active {}, peak queue {:.0}, mean utilization {:.3})",
            stats.spans.spans,
            stats.spans.groups,
            d.buckets,
            d.bucket_secs,
            d.peak_active,
            d.peak_queue_depth,
            d.mean_utilization,
        );
        if let Some(q) = stats.spans.by_kind.get("queued") {
            println!(
                "  queued: n {} mean {:.1}s p50 {:.1}s p95 {:.1}s p99 {:.1}s",
                q.count, q.mean, q.p50, q.p95, q.p99
            );
        }
        if stats.live_sink_errors > 0 {
            eprintln!(
                "tgsim: warning: {} live-stats writes failed; {} is missing rows",
                stats.live_sink_errors,
                live_stats_file.as_deref().unwrap_or("?"),
            );
        } else if let Some(f) = &live_stats_file {
            eprintln!("wrote {f}");
        }
    }
    if let Some(dr) = &first.data_report {
        println!(
            "data grid: {} datasets, {} accesses ({} hits / {} misses, hit rate {:.3}), \
             {:.0} MB fetched over WAN, {} evictions",
            dr.datasets, dr.accesses, dr.hits, dr.misses, dr.hit_rate, dr.wan_mb, dr.evictions
        );
    }
    if let Some(fr) = &first.fault_report {
        println!(
            "faults: {} crashes, {} outages ({:.1} h downtime), \
             {} killed / {} requeued / {} abandoned / {} checkpointed, \
             ingest -{} / +{} records",
            fr.node_crashes,
            fr.site_outages,
            fr.total_downtime_s() / 3600.0,
            fr.jobs_killed,
            fr.jobs_requeued,
            fr.jobs_abandoned,
            fr.checkpoint_restarts,
            fr.records_lost,
            fr.records_duplicated
        );
    }

    if let Some(out) = &metrics_out {
        let snap = first.metrics.as_ref().expect("metrics were requested");
        println!("{}", MetricsReport(snap));
        match serde_json::to_string_pretty(snap) {
            Ok(json) => match std::fs::write(out, json) {
                Ok(()) => eprintln!("wrote {out}"),
                Err(e) => {
                    eprintln!("tgsim: cannot write {out}: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(e) => {
                eprintln!("tgsim: cannot serialize metrics: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let trace_health: Option<TraceHealth> = first.trace_health;
    if let Some(out) = &trace_out {
        let health = trace_health.expect("trace was requested");
        if health.sink_errors > 0 {
            eprintln!(
                "tgsim: warning: {} trace writes failed; {out} is missing lines",
                health.sink_errors
            );
        }
        if !health.flush_ok {
            eprintln!("tgsim: warning: final flush of {out} failed; its tail may be truncated");
        }
        if health.sink_clean() {
            eprintln!("wrote {out}");
        }
    }

    let mut accuracy_summary = Vec::new();
    if classify {
        for mode in [ClassifierMode::WithAttributes, ClassifierMode::RecordsOnly] {
            let inferred = classify_all(&first.db, mode);
            let acc = Accuracy::score(&first.truth, &inferred);
            println!(
                "classifier [{}]: accuracy {:.3}, macro-F1 {:.3}",
                mode.name(),
                acc.accuracy,
                acc.macro_f1
            );
            accuracy_summary.push((mode.name().to_string(), acc.accuracy, acc.macro_f1));
        }
    }

    if let Some(out) = out_path {
        // `trace` notes the trace file's write errors and final flush, so a
        // summary shipped with a truncated trace file is self-describing
        // (null when --trace-out was not set).
        let trace_json = match trace_health {
            Some(h) => serde_json::json!({
                "sink_errors": h.sink_errors,
                "flush_ok": h.flush_ok,
                "complete": h.sink_clean(),
            }),
            None => serde_json::Value::Null,
        };
        let summary = serde_json::json!({
            "scenario": first.scenario,
            "seed": seed,
            "replications": reps,
            // Resolved replication workers (`--threads 0` auto-detect
            // lands here).
            "threads": threads,
            "jobs": jobs_recorded,
            "events": first.events_delivered,
            "utilization": { "mean": u_mean, "ci95": u_ci },
            "shares": report.as_ref().map(|r| serde_json::to_value(&r.shares))
                .unwrap_or(serde_json::Value::Null),
            "ingest_tally": first.ingest_tally.as_ref().map(serde_json::to_value)
                .unwrap_or(serde_json::Value::Null),
            "classifier": accuracy_summary
                .iter()
                .map(|(m, a, f)| serde_json::json!({"mode": m, "accuracy": a, "macro_f1": f}))
                .collect::<Vec<_>>(),
            "samples": first.samples,
            "stats": first.stats.as_ref().map(serde_json::to_value)
                .unwrap_or(serde_json::Value::Null),
            "trace": trace_json,
            "data": first.data_report.as_ref().map(serde_json::to_value)
                .unwrap_or(serde_json::Value::Null),
            "faults": first
                .fault_report
                .as_ref()
                .map(serde_json::to_value)
                .unwrap_or(serde_json::Value::Null),
        });
        match std::fs::write(
            &out,
            serde_json::to_string_pretty(&summary).expect("serializable"),
        ) {
            Ok(()) => eprintln!("wrote {out}"),
            Err(e) => {
                eprintln!("tgsim: cannot write {out}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(budget_mb) = rss_budget_mb {
        let budget = budget_mb * (1 << 20);
        let heap_peak = tg_des::memory::peak_in_use_bytes().max(0) as u64;
        let rss_peak = replications
            .iter()
            .filter_map(|r| r.output.profile.peak_rss_bytes)
            .max();
        let mib = |b: u64| b as f64 / (1 << 20) as f64;
        match rss_peak {
            Some(rss) => {
                println!(
                    "memory: peak RSS {:.1} MiB, peak live heap {:.1} MiB (budget {budget_mb} MiB)",
                    mib(rss),
                    mib(heap_peak)
                );
                if rss > budget || heap_peak > budget {
                    eprintln!(
                        "tgsim: peak memory (RSS {:.1} MiB / heap {:.1} MiB) exceeds the \
                         --assert-peak-rss-mb budget of {budget_mb} MiB",
                        mib(rss),
                        mib(heap_peak)
                    );
                    return ExitCode::FAILURE;
                }
            }
            None => {
                // No /proc on this platform: enforce on the heap signal only.
                println!(
                    "memory: peak live heap {:.1} MiB (budget {budget_mb} MiB; RSS unavailable)",
                    mib(heap_peak)
                );
                if heap_peak > budget {
                    eprintln!(
                        "tgsim: peak live heap {:.1} MiB exceeds the --assert-peak-rss-mb \
                         budget of {budget_mb} MiB",
                        mib(heap_peak)
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    // An incomplete trace is a failed run: downstream `tgsim analyze` would
    // silently compute statistics over a truncated event stream.
    if matches!(trace_health, Some(h) if !h.sink_clean()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn analyze(rest: &[String]) -> ExitCode {
    let Some(path) = rest.first() else {
        return usage();
    };
    let mut as_json = false;
    let mut data_summary = false;
    for flag in &rest[1..] {
        match flag.as_str() {
            "--json" => as_json = true,
            "--data" => data_summary = true,
            other => {
                eprintln!("tgsim: unknown flag {other}");
                return usage();
            }
        }
    }
    let file = match std::fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("tgsim: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut analyzer = TraceAnalyzer::new();
    use std::io::BufRead;
    for line in std::io::BufReader::new(file).lines() {
        match line {
            Ok(l) => analyzer.add_line(&l),
            Err(e) => {
                eprintln!("tgsim: read error in {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let analysis = analyzer.finish();
    if analysis.span_lines == 0 {
        eprintln!(
            "tgsim: {path} contains no span entries ({} lines, {} skipped); \
             was it written by `tgsim run --trace-out`?",
            analysis.lines, analysis.skipped
        );
        return ExitCode::FAILURE;
    }
    if as_json {
        match serde_json::to_string_pretty(&analysis) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("tgsim: cannot serialize analysis: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    println!(
        "{}: {} lines, {} spans, {} skipped; {} completed jobs, mean wait {:.1}s",
        path,
        analysis.lines,
        analysis.span_lines,
        analysis.skipped,
        analysis.jobs,
        analysis.mean_wait_s
    );
    let table = |title: &str, rows: &[(String, SketchSummary)]| {
        if rows.is_empty() {
            return;
        }
        println!("\n{title}");
        println!(
            "  {:<24} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "group", "count", "mean_s", "p50_s", "p95_s", "p99_s", "min_s", "max_s"
        );
        for (name, g) in rows {
            println!(
                "  {:<24} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                name, g.count, g.mean, g.p50, g.p95, g.p99, g.min, g.max
            );
        }
    };
    let rows = |m: &std::collections::BTreeMap<String, SketchSummary>| {
        m.iter().map(|(k, v)| (k.clone(), *v)).collect::<Vec<_>>()
    };
    let spans = &analysis.spans;
    table("span durations by kind", &rows(&spans.by_kind));
    table(
        "stage-in time by cache outcome",
        &rows(&spans.stage_in_by_cause),
    );
    if data_summary {
        let count = |cause: &str| spans.stage_in_by_cause.get(cause).map_or(0, |g| g.count);
        let (hits, misses) = (count("cache-hit"), count("cache-miss"));
        let total = hits + misses;
        if total == 0 {
            println!("\ndata: no dataset stage-ins in this trace (no data grid configured?)");
        } else {
            println!(
                "\ndata: {total} dataset stage-ins, {hits} cache hits / {misses} misses \
                 (hit rate {:.3}), mean miss fetch {:.1}s",
                hits as f64 / total as f64,
                spans
                    .stage_in_by_cause
                    .get("cache-miss")
                    .map_or(0.0, |g| g.mean),
            );
        }
    }
    table("queued time by wait cause", &rows(&spans.queued_by_cause));
    table(
        "queued time by site",
        &spans
            .queued_by_site
            .iter()
            .map(|(k, v)| (format!("site{k}"), *v))
            .collect::<Vec<_>>(),
    );
    table(
        "wait spans by modality",
        &rows(&spans.wait_spans_by_modality),
    );
    table(
        "total wait by modality (completed jobs)",
        &rows(&analysis.wait_by_modality),
    );
    ExitCode::SUCCESS
}

fn replay(rest: &[String]) -> ExitCode {
    use tg_workload::swf;

    let Some(path) = rest.first() else {
        return usage();
    };
    let mut seed = 42u64;
    let mut scenario_path: Option<String> = None;
    let mut faults_path: Option<String> = None;
    let mut classify = false;
    let mut i = 1;
    while i < rest.len() {
        match rest[i].as_str() {
            "--seed" | "--scenario" | "--faults" => {
                let flag = rest[i].clone();
                i += 1;
                let Some(value) = rest.get(i) else {
                    eprintln!("tgsim: {flag} needs a value");
                    return usage();
                };
                match flag.as_str() {
                    "--seed" => match value.parse() {
                        Ok(v) => seed = v,
                        Err(e) => {
                            eprintln!("tgsim: bad --seed: {e}");
                            return usage();
                        }
                    },
                    "--scenario" => scenario_path = Some(value.clone()),
                    _ => faults_path = Some(value.clone()),
                }
            }
            "--classify" => classify = true,
            other => {
                eprintln!("tgsim: unknown flag {other}");
                return usage();
            }
        }
        i += 1;
    }

    let swf_text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tgsim: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let imported = match swf::from_swf(&swf_text) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("tgsim: invalid SWF trace {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if imported.is_empty() {
        eprintln!("tgsim: {path} contains no jobs");
        return ExitCode::FAILURE;
    }

    // The federation, policies, and fault schedule come from a scenario
    // config; only the workload section is ignored (the trace replaces it).
    let Some(cfg) = load_scenario(scenario_path.as_deref(), faults_path.as_deref()) else {
        return ExitCode::FAILURE;
    };

    // Archive traces come from bigger iron than this federation may model:
    // drop site hints pointing past this federation; the run then clamps
    // every job to the machine like generated ones.
    let site_count = cfg.sites.len();
    let jobs: Vec<Job> = imported
        .into_iter()
        .map(|mut j| {
            if j.site_hint.is_some_and(|s| s.index() >= site_count) {
                j.site_hint = None;
            }
            j
        })
        .collect();
    let n_jobs = jobs.len();
    eprintln!(
        "replaying {n_jobs} jobs from {path} through `{}` at seed {seed} ...",
        cfg.name
    );
    let out = cfg.build().run_jobs(seed, jobs, &RunOptions::default());
    println!(
        "replay complete: {} of {n_jobs} jobs finished by {}, mean wait {:.0} s, {} events",
        out.db.jobs.len(),
        out.end,
        out.mean_wait_secs(),
        out.events_delivered
    );
    if let Some(fr) = &out.fault_report {
        println!(
            "faults: {} crashes, {} outages ({:.1} h downtime), \
             {} killed / {} requeued / {} abandoned / {} checkpointed",
            fr.node_crashes,
            fr.site_outages,
            fr.total_downtime_s() / 3600.0,
            fr.jobs_killed,
            fr.jobs_requeued,
            fr.jobs_abandoned,
            fr.checkpoint_restarts
        );
    }
    if classify {
        // Only shape/timing survive the SWF round trip, so this quantifies
        // what the archive format cannot carry.
        let inferred = classify_all(&out.db, ClassifierMode::WithAttributes);
        let acc = Accuracy::score(&out.truth, &inferred);
        println!(
            "classifier on replayed trace: accuracy {:.3}, macro-F1 {:.3}",
            acc.accuracy, acc.macro_f1
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{resolve_threads, run_flag_conflict, RunFlags};

    fn flags() -> RunFlags {
        RunFlags {
            stream_out: false,
            classify: false,
            reps: 1,
            live_stats_file: false,
        }
    }

    #[test]
    fn default_flags_do_not_conflict() {
        assert_eq!(run_flag_conflict(&flags()), None);
    }

    #[test]
    fn stream_out_alone_is_fine() {
        let f = RunFlags {
            stream_out: true,
            ..flags()
        };
        assert_eq!(run_flag_conflict(&f), None);
    }

    #[test]
    fn stream_out_rejects_classify() {
        let f = RunFlags {
            stream_out: true,
            classify: true,
            ..flags()
        };
        let msg = run_flag_conflict(&f).expect("rejected");
        assert!(msg.contains("--classify"), "{msg}");
    }

    #[test]
    fn stream_out_rejects_multiple_reps() {
        let f = RunFlags {
            stream_out: true,
            reps: 3,
            ..flags()
        };
        let msg = run_flag_conflict(&f).expect("rejected");
        assert!(msg.contains("--stream-out"), "{msg}");
        assert!(msg.contains("--reps 1"), "{msg}");
    }

    #[test]
    fn live_stats_file_rejects_multiple_reps() {
        let f = RunFlags {
            live_stats_file: true,
            reps: 2,
            ..flags()
        };
        let msg = run_flag_conflict(&f).expect("rejected");
        assert!(msg.contains("--live-stats=FILE"), "{msg}");
    }

    #[test]
    fn live_stats_file_single_rep_is_fine() {
        let f = RunFlags {
            live_stats_file: true,
            ..flags()
        };
        assert_eq!(run_flag_conflict(&f), None);
    }

    #[test]
    fn classify_with_reps_is_fine_without_stream_out() {
        let f = RunFlags {
            classify: true,
            reps: 5,
            live_stats_file: true,
            stream_out: false,
        };
        // live_stats_file + reps still conflicts; classify itself is fine.
        assert!(run_flag_conflict(&f).is_some());
        let f2 = RunFlags {
            classify: true,
            reps: 5,
            ..flags()
        };
        assert_eq!(run_flag_conflict(&f2), None);
    }

    #[test]
    fn threads_zero_resolves_to_detected_cores() {
        assert_eq!(resolve_threads(0, Some(8)), 8);
        assert_eq!(resolve_threads(0, Some(1)), 1);
    }

    #[test]
    fn threads_zero_without_detection_degrades_to_serial() {
        assert_eq!(resolve_threads(0, None), 1);
    }

    #[test]
    fn explicit_threads_ignore_detection() {
        assert_eq!(resolve_threads(3, Some(16)), 3);
        assert_eq!(resolve_threads(1, None), 1);
    }
}
