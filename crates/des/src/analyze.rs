//! Offline trace analysis: reconstruct per-job lifecycle spans from an
//! archived JSONL trace and aggregate them into latency breakdowns.
//!
//! The input is the file written by a tracer JSONL sink (one JSON object per
//! line; see [`crate::trace`]). Only `cat == "span"` lines are interpreted —
//! everything else is counted and skipped — so the analyzer works on any
//! trace regardless of which other categories the producing simulation
//! emitted. Parsing is streaming: feed lines with
//! [`TraceAnalyzer::add_line`], then call [`TraceAnalyzer::finish`] for the
//! aggregated [`TraceAnalysis`].
//!
//! Aggregates use the same machinery the live simulation uses for its own
//! statistics ([`Histogram`] with log-spaced duration bins and [`P2Quantile`]
//! estimators), so numbers derived offline from a trace are directly
//! comparable to numbers computed in-run.

use std::collections::BTreeMap;

use crate::span::{Span, SpanKind, WaitCause, SPAN_CATEGORY};
use crate::stats::{Histogram, OnlineStats, P2Quantile};

/// Summary statistics for one group of span durations (seconds).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct GroupStats {
    /// Number of spans in the group.
    pub count: u64,
    /// Exact mean duration.
    pub mean: f64,
    /// Median (P² estimate; log-binned histogram fallback below 5 samples).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// Online accumulator behind each [`GroupStats`].
struct GroupAcc {
    stats: OnlineStats,
    hist: Histogram,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl GroupAcc {
    fn new() -> Self {
        GroupAcc {
            stats: OnlineStats::new(),
            hist: Histogram::for_durations(),
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    fn record(&mut self, x: f64) {
        self.stats.record(x);
        self.hist.record(x);
        self.p50.record(x);
        self.p95.record(x);
        self.p99.record(x);
    }

    fn finish(&self) -> GroupStats {
        let q = |p2: &P2Quantile, q: f64| {
            p2.estimate()
                .or_else(|| self.hist.quantile(q))
                .unwrap_or_else(|| self.stats.mean())
        };
        GroupStats {
            count: self.stats.count(),
            mean: self.stats.mean(),
            p50: q(&self.p50, 0.50),
            p95: q(&self.p95, 0.95),
            p99: q(&self.p99, 0.99),
        }
    }
}

/// Per-job state folded up while streaming span lines.
#[derive(Default)]
struct JobAcc {
    /// Sum of wait-kind span durations (stage-in + queued + reconfig).
    wait_s: f64,
    /// Modality label from the job's spans, if any carried one.
    modality: Option<String>,
    /// Whether a `run` span was seen (the job completed).
    ran: bool,
}

/// Aggregated results of analyzing one trace file.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TraceAnalysis {
    /// Total input lines fed in (including blank and non-span lines).
    pub lines: u64,
    /// Lines that parsed as well-formed span entries.
    pub span_lines: u64,
    /// Non-blank lines that were not well-formed span entries (other trace
    /// categories, or malformed/unknown-schema span lines).
    pub skipped: u64,
    /// Jobs that completed (emitted a `run` span).
    pub jobs: u64,
    /// Mean total wait (stage-in + queued + reconfig) over completed jobs.
    pub mean_wait_s: f64,
    /// Span duration stats grouped by span kind.
    pub by_kind: BTreeMap<String, GroupStats>,
    /// Queued-span duration stats grouped by attributed wait cause.
    pub queued_by_cause: BTreeMap<String, GroupStats>,
    /// Stage-in span duration stats grouped by cause (`cache-hit` /
    /// `cache-miss` for dataset-carrying jobs; stage-in spans without a
    /// cause — plain bulk staging — do not appear here).
    pub stage_in_by_cause: BTreeMap<String, GroupStats>,
    /// Queued-span duration stats grouped by site index.
    pub queued_by_site: BTreeMap<u64, GroupStats>,
    /// Per-job total wait stats grouped by modality (completed jobs only).
    pub wait_by_modality: BTreeMap<String, GroupStats>,
}

/// Streaming analyzer over JSONL trace lines.
pub struct TraceAnalyzer {
    lines: u64,
    span_lines: u64,
    skipped: u64,
    by_kind: BTreeMap<String, GroupAcc>,
    queued_by_cause: BTreeMap<String, GroupAcc>,
    stage_in_by_cause: BTreeMap<String, GroupAcc>,
    queued_by_site: BTreeMap<u64, GroupAcc>,
    // BTreeMap, not HashMap: `finish()` folds per-job f64 wait totals in
    // iteration order, and float addition is not associative — a hashed
    // order would make `mean_wait_s` (and the per-modality stats) differ in
    // the last bits between two identically-fed analyzers.
    jobs: BTreeMap<u64, JobAcc>,
}

impl TraceAnalyzer {
    /// A fresh analyzer with no lines seen.
    pub fn new() -> Self {
        TraceAnalyzer {
            lines: 0,
            span_lines: 0,
            skipped: 0,
            by_kind: BTreeMap::new(),
            queued_by_cause: BTreeMap::new(),
            stage_in_by_cause: BTreeMap::new(),
            queued_by_site: BTreeMap::new(),
            jobs: BTreeMap::new(),
        }
    }

    /// Feed one line of the trace file. Blank lines are ignored; non-span
    /// and malformed lines are counted as skipped.
    pub fn add_line(&mut self, line: &str) {
        self.lines += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        match parse_span_line(trimmed) {
            Some(span) => {
                self.span_lines += 1;
                self.add_span(&span);
            }
            None => self.skipped += 1,
        }
    }

    /// Fold one reconstructed span into the aggregates.
    pub fn add_span(&mut self, span: &Span) {
        let d = span.duration();
        self.by_kind
            .entry(span.kind.name().to_string())
            .or_insert_with(GroupAcc::new)
            .record(d);
        if span.kind == SpanKind::StageIn {
            if let Some(cause) = span.cause {
                self.stage_in_by_cause
                    .entry(cause.name().to_string())
                    .or_insert_with(GroupAcc::new)
                    .record(d);
            }
        }
        if span.kind == SpanKind::Queued {
            let cause = span.cause.unwrap_or(WaitCause::Immediate);
            self.queued_by_cause
                .entry(cause.name().to_string())
                .or_insert_with(GroupAcc::new)
                .record(d);
            if let Some(site) = span.site {
                self.queued_by_site
                    .entry(site)
                    .or_insert_with(GroupAcc::new)
                    .record(d);
            }
        }
        let job = self.jobs.entry(span.job).or_default();
        if span.kind.is_wait() {
            job.wait_s += d;
        }
        if span.kind == SpanKind::Run {
            job.ran = true;
        }
        if job.modality.is_none() {
            job.modality = span.modality.clone();
        }
    }

    /// Close out the aggregation and produce the analysis.
    pub fn finish(&self) -> TraceAnalysis {
        let mut wait_by_modality: BTreeMap<String, GroupAcc> = BTreeMap::new();
        let mut total_wait = 0.0;
        let mut completed = 0u64;
        for job in self.jobs.values() {
            if !job.ran {
                continue;
            }
            completed += 1;
            total_wait += job.wait_s;
            let modality = job.modality.clone().unwrap_or_else(|| "?".to_string());
            wait_by_modality
                .entry(modality)
                .or_insert_with(GroupAcc::new)
                .record(job.wait_s);
        }
        TraceAnalysis {
            lines: self.lines,
            span_lines: self.span_lines,
            skipped: self.skipped,
            jobs: completed,
            mean_wait_s: if completed > 0 {
                total_wait / completed as f64
            } else {
                0.0
            },
            by_kind: self
                .by_kind
                .iter()
                .map(|(k, a)| (k.clone(), a.finish()))
                .collect(),
            queued_by_cause: self
                .queued_by_cause
                .iter()
                .map(|(k, a)| (k.clone(), a.finish()))
                .collect(),
            stage_in_by_cause: self
                .stage_in_by_cause
                .iter()
                .map(|(k, a)| (k.clone(), a.finish()))
                .collect(),
            queued_by_site: self
                .queued_by_site
                .iter()
                .map(|(&k, a)| (k, a.finish()))
                .collect(),
            wait_by_modality: wait_by_modality
                .iter()
                .map(|(k, a)| (k.clone(), a.finish()))
                .collect(),
        }
    }
}

impl Default for TraceAnalyzer {
    fn default() -> Self {
        TraceAnalyzer::new()
    }
}

/// Parse one JSONL trace line into a [`Span`], or `None` when the line is
/// not a well-formed span entry (different category, missing fields, or an
/// unknown kind).
pub fn parse_span_line(line: &str) -> Option<Span> {
    let value: serde_json::Value = serde_json::from_str(line).ok()?;
    if value.get("cat").and_then(|c| c.as_str()) != Some(SPAN_CATEGORY) {
        return None;
    }
    let fields = value.get("fields")?;
    let job = fields.get("job")?.as_u64()?;
    let kind = SpanKind::from_name(fields.get("kind")?.as_str()?)?;
    let t0 = fields.get("t0")?.as_f64()?;
    let t1 = fields.get("t1")?.as_f64()?;
    let site = fields.get("site").and_then(|v| v.as_u64());
    let cause = fields
        .get("cause")
        .and_then(|v| v.as_str())
        .and_then(WaitCause::from_name);
    let modality = fields
        .get("modality")
        .and_then(|v| v.as_str())
        .map(str::to_string);
    Some(Span {
        job,
        kind,
        t0,
        t1,
        site,
        cause,
        modality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(job: u64, kind: &str, t0: f64, t1: f64, extra: &str) -> String {
        format!(
            "{{\"t\":{t1},\"cat\":\"span\",\"fields\":{{\"v\":1,\"job\":{job},\
             \"kind\":\"{kind}\",\"t0\":{t0},\"t1\":{t1}{extra}}}}}"
        )
    }

    #[test]
    fn parses_a_full_span_line() {
        let l = line(
            7,
            "queued",
            10.0,
            25.5,
            ",\"site\":2,\"cause\":\"ahead-in-queue\",\"modality\":\"batch\"",
        );
        let s = parse_span_line(&l).expect("parses");
        assert_eq!(s.job, 7);
        assert_eq!(s.kind, SpanKind::Queued);
        assert_eq!(s.t0, 10.0);
        assert_eq!(s.t1, 25.5);
        assert_eq!(s.site, Some(2));
        assert_eq!(s.cause, Some(WaitCause::AheadInQueue));
        assert_eq!(s.modality.as_deref(), Some("batch"));
    }

    #[test]
    fn non_span_lines_are_skipped_not_fatal() {
        let mut a = TraceAnalyzer::new();
        a.add_line("{\"t\":1.0,\"cat\":\"submit\",\"fields\":{\"job\":1}}");
        a.add_line("not json at all");
        a.add_line("");
        a.add_line(&line(1, "run", 5.0, 9.0, ",\"modality\":\"batch\""));
        let out = a.finish();
        assert_eq!(out.lines, 4);
        assert_eq!(out.span_lines, 1);
        assert_eq!(out.skipped, 2);
        assert_eq!(out.jobs, 1);
    }

    #[test]
    fn wait_sums_and_groups_come_out_right() {
        let mut a = TraceAnalyzer::new();
        // Job 1: staged 5s, queued 10s, ran 20s.
        a.add_line(&line(1, "stage_in", 0.0, 5.0, ",\"modality\":\"workflow\""));
        a.add_line(&line(
            1,
            "queued",
            5.0,
            15.0,
            ",\"site\":0,\"cause\":\"backfill-hole-too-small\",\"modality\":\"workflow\"",
        ));
        a.add_line(&line(
            1,
            "run",
            15.0,
            35.0,
            ",\"site\":0,\"modality\":\"workflow\"",
        ));
        // Job 2: queued 0s, ran 10s.
        a.add_line(&line(
            2,
            "queued",
            3.0,
            3.0,
            ",\"site\":1,\"cause\":\"immediate\",\"modality\":\"batch\"",
        ));
        a.add_line(&line(
            2,
            "run",
            3.0,
            13.0,
            ",\"site\":1,\"modality\":\"batch\"",
        ));
        // Job 3: queued but never ran — excluded from job wait aggregates.
        a.add_line(&line(
            3,
            "queued",
            0.0,
            50.0,
            ",\"site\":0,\"cause\":\"ahead-in-queue\",\"modality\":\"batch\"",
        ));
        let out = a.finish();
        assert_eq!(out.jobs, 2);
        assert!((out.mean_wait_s - 7.5).abs() < 1e-12, "{}", out.mean_wait_s);
        assert_eq!(out.by_kind["queued"].count, 3);
        assert_eq!(out.by_kind["run"].count, 2);
        assert_eq!(out.queued_by_cause["backfill-hole-too-small"].count, 1);
        assert_eq!(out.queued_by_cause["immediate"].count, 1);
        assert_eq!(out.queued_by_site[&0].count, 2);
        assert_eq!(out.queued_by_site[&1].count, 1);
        let wf = &out.wait_by_modality["workflow"];
        assert_eq!(wf.count, 1);
        assert!((wf.mean - 15.0).abs() < 1e-12);
        let batch = &out.wait_by_modality["batch"];
        assert_eq!(batch.count, 1);
        assert!((batch.mean - 0.0).abs() < 1e-12);
    }

    /// Regression: job aggregation must not depend on map iteration order.
    /// Two identically-fed analyzers must agree *bit for bit* — with a
    /// hashed job registry each instance gets its own random iteration
    /// order, and the non-associative f64 wait fold diverges in the last
    /// bits (the determinism suites compare these outputs byte-for-byte,
    /// so "last bits" means failures).
    #[test]
    fn job_aggregation_is_iteration_order_independent() {
        let build = || {
            let mut a = TraceAnalyzer::new();
            // Waits like 1/3 and 1/7 don't round-trip through f64 addition
            // associatively — any order change shows up in the sums.
            for job in 0..200u64 {
                let wait = (job as f64 + 1.0) / 3.0 + 1.0 / ((job as f64) + 7.0);
                let modality = ["batch", "workflow", "gateway"][(job % 3) as usize];
                a.add_line(&line(
                    job,
                    "queued",
                    0.0,
                    wait,
                    &format!(",\"site\":0,\"modality\":\"{modality}\""),
                ));
                a.add_line(&line(job, "run", wait, wait + 1.0, ""));
            }
            a.finish()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.mean_wait_s.to_bits(), b.mean_wait_s.to_bits());
        for (k, s) in &a.wait_by_modality {
            let t = &b.wait_by_modality[k];
            assert_eq!(s.mean.to_bits(), t.mean.to_bits(), "modality {k}");
            assert_eq!(s.count, t.count, "modality {k}");
        }
        assert_eq!(a, b);
    }

    #[test]
    fn group_stats_mean_is_exact_even_with_few_samples() {
        let mut a = TraceAnalyzer::new();
        a.add_line(&line(1, "run", 0.0, 4.0, ""));
        a.add_line(&line(2, "run", 0.0, 8.0, ""));
        let out = a.finish();
        let run = &out.by_kind["run"];
        assert_eq!(run.count, 2);
        assert!((run.mean - 6.0).abs() < 1e-12);
        // Below 5 samples P² has no estimate; the fallback must still give
        // a finite, in-range number.
        assert!(run.p50.is_finite() && run.p50 >= 0.0);
    }
}
