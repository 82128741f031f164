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
//! The span tables are not computed here. Each span is folded into a
//! [`QuantileSketch`] keyed by `(kind, cause, site, modality)`; `finish`
//! merges those sketches into a [`SpanSketchbook`] and takes its snapshot —
//! the same book and snapshot `--live-stats` fills during the run. Sketch
//! merges are exact and [`Span::duration`] recovers the simulator's
//! microsecond durations, so a trace's tables equal the online tables of the
//! run that wrote it, bit for bit.

use std::collections::BTreeMap;

use crate::sketch::{QuantileSketch, SketchSummary, SpanSketchbook, SpanStatsSnapshot};
use crate::span::{Span, SpanKind, WaitCause, SPAN_CATEGORY};

/// Spans naming a site index at or above this are skipped as malformed:
/// the sketchbook is a dense table over sites × modalities, and no
/// federation comes near this size, but a hostile trace could.
const MAX_SITES: u64 = 256;
/// Spans naming a modality beyond this many distinct labels are skipped,
/// for the same reason.
const MAX_MODALITIES: usize = 32;

/// Per-job state folded up while streaming span lines.
#[derive(Default)]
struct JobAcc {
    /// Sum of wait-kind span durations (stage-in + queued + reconfig), in
    /// microseconds (wide enough that no trace can overflow it).
    wait_us: u128,
    /// Modality label from the job's spans, if any carried one.
    modality: Option<String>,
    /// Whether a `run` span was seen (the job completed).
    ran: bool,
}

/// Sketchbook key of one span: site index and modality (an index into the
/// analyzer's modality labels, in first-seen order).
type SpanKey = (SpanKind, Option<WaitCause>, Option<u64>, Option<usize>);

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
    /// Exact mean total wait (stage-in + queued + reconfig) over completed
    /// jobs.
    pub mean_wait_s: f64,
    /// Span-duration tables, the `--live-stats` `stats.spans` object.
    /// Flattened, so `spans`, `groups`, `by_kind`, `queued_by_cause`,
    /// `stage_in_by_cause`, `queued_by_site` and `wait_spans_by_modality`
    /// are top-level keys of the JSON form.
    #[serde(flatten)]
    pub spans: SpanStatsSnapshot,
    /// Per-job total wait grouped by modality (completed jobs only).
    pub wait_by_modality: BTreeMap<String, SketchSummary>,
}

/// Streaming analyzer over JSONL trace lines.
#[derive(Default)]
pub struct TraceAnalyzer {
    lines: u64,
    span_lines: u64,
    skipped: u64,
    sketches: BTreeMap<SpanKey, QuantileSketch>,
    /// Modality labels seen, in first-seen order (see [`SpanKey`]).
    modalities: Vec<String>,
    jobs: BTreeMap<u64, JobAcc>,
}

impl TraceAnalyzer {
    /// A fresh analyzer with no lines seen.
    pub fn new() -> Self {
        TraceAnalyzer::default()
    }

    /// Feed one line of the trace file. Blank lines are ignored; non-span
    /// and malformed lines are counted as skipped.
    pub fn add_line(&mut self, line: &str) {
        self.lines += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        if parse_span_line(trimmed).is_some_and(|span| self.add_span(&span)) {
            self.span_lines += 1;
        } else {
            self.skipped += 1;
        }
    }

    /// Fold one reconstructed span into the aggregates. Returns `false`
    /// (and folds nothing) when the span names a site index of 256 or more,
    /// or a 33rd distinct modality: the tables are dense over sites ×
    /// modalities, so a hostile trace must not size them.
    pub fn add_span(&mut self, span: &Span) -> bool {
        if span.site.is_some_and(|s| s >= MAX_SITES) {
            return false;
        }
        let modality = match &span.modality {
            None => None,
            Some(name) => match self.modalities.iter().position(|m| m == name) {
                Some(i) => Some(i),
                None if self.modalities.len() < MAX_MODALITIES => {
                    self.modalities.push(name.clone());
                    Some(self.modalities.len() - 1)
                }
                None => return false,
            },
        };
        let elapsed = span.elapsed();
        self.sketches
            .entry((span.kind, span.cause, span.site, modality))
            .or_default()
            .record(elapsed.as_secs_f64());
        let job = self.jobs.entry(span.job).or_default();
        if span.kind.is_wait() {
            job.wait_us += u128::from(elapsed.as_micros());
        }
        if span.kind == SpanKind::Run {
            job.ran = true;
        }
        if job.modality.is_none() {
            job.modality = span.modality.clone();
        }
        true
    }

    /// Close out the aggregation and produce the analysis.
    pub fn finish(&self) -> TraceAnalysis {
        let nsites = self
            .sketches
            .keys()
            .filter_map(|&(_, _, site, _)| site)
            .max()
            .map_or(0, |s| s as usize + 1);
        let mut book = SpanSketchbook::enabled(nsites, self.modalities.clone());
        for (&(kind, cause, site, modality), sketch) in &self.sketches {
            book.merge(kind, cause, site.map(|s| s as usize), modality, sketch);
        }

        let mut wait_by_modality: BTreeMap<String, QuantileSketch> = BTreeMap::new();
        // Integer micros: the total is exact, so the mean does not depend
        // on the order jobs are folded in.
        let mut total_wait_us = 0u128;
        let mut completed = 0u64;
        for job in self.jobs.values().filter(|j| j.ran) {
            completed += 1;
            total_wait_us += job.wait_us;
            let modality = job.modality.clone().unwrap_or_else(|| "?".to_string());
            wait_by_modality
                .entry(modality)
                .or_default()
                .record(job.wait_us as f64 / 1e6);
        }
        TraceAnalysis {
            lines: self.lines,
            span_lines: self.span_lines,
            skipped: self.skipped,
            jobs: completed,
            mean_wait_s: if completed > 0 {
                total_wait_us as f64 / 1e6 / completed as f64
            } else {
                0.0
            },
            spans: book.snapshot(),
            wait_by_modality: wait_by_modality
                .iter()
                .map(|(k, s)| (k.clone(), s.summary()))
                .collect(),
        }
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
    use crate::time::SimTime;

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
        assert_eq!(out.spans.by_kind["queued"].count, 3);
        assert_eq!(out.spans.by_kind["run"].count, 2);
        assert_eq!(
            out.spans.queued_by_cause["backfill-hole-too-small"].count,
            1
        );
        assert_eq!(out.spans.queued_by_cause["immediate"].count, 1);
        assert_eq!(out.spans.queued_by_site[&0].count, 2);
        assert_eq!(out.spans.queued_by_site[&1].count, 1);
        let wf = &out.wait_by_modality["workflow"];
        assert_eq!(wf.count, 1);
        assert!((wf.mean - 15.0).abs() < 1e-12);
        let batch = &out.wait_by_modality["batch"];
        assert_eq!(batch.count, 1);
        assert!((batch.mean - 0.0).abs() < 1e-12);
    }

    /// Regression: job aggregation must not depend on map iteration order.
    /// Two identically-fed analyzers must agree *bit for bit* (the
    /// determinism suites compare these outputs byte-for-byte).
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
    fn tables_equal_a_sketchbook_fed_the_same_spans() {
        let spans = [
            (
                1,
                "stage_in",
                0.0,
                2.5,
                ",\"site\":1,\"cause\":\"cache-miss\",\"modality\":\"workflow\"",
            ),
            (
                1,
                "queued",
                2.5,
                9.25,
                ",\"site\":1,\"cause\":\"ahead-in-queue\",\"modality\":\"workflow\"",
            ),
            (
                1,
                "run",
                9.25,
                99.0,
                ",\"site\":1,\"modality\":\"workflow\"",
            ),
            (2, "held", 0.0, 4.0, ",\"modality\":\"batch\""),
            (
                2,
                "queued",
                4.0,
                4.000001,
                ",\"site\":0,\"cause\":\"immediate\",\"modality\":\"batch\"",
            ),
            (
                2,
                "run",
                4.000001,
                8.0,
                ",\"site\":0,\"modality\":\"batch\"",
            ),
        ];
        let mut a = TraceAnalyzer::new();
        // The online book is laid out by the simulator's site count and
        // modality order, not by what one trace happens to contain.
        let modalities = ["batch", "gateway", "workflow"].map(String::from).to_vec();
        let mut book = SpanSketchbook::enabled(3, modalities.clone());
        for &(job, kind, t0, t1, extra) in &spans {
            let l = line(job, kind, t0, t1, extra);
            a.add_line(&l);
            let s = parse_span_line(&l).expect("parses");
            let m = modalities
                .iter()
                .position(|m| Some(m) == s.modality.as_ref());
            let secs = SimTime::from_secs_f64(t1)
                .saturating_since(SimTime::from_secs_f64(t0))
                .as_secs_f64();
            book.record(s.kind, s.cause, s.site.map(|x| x as usize), m, secs);
        }
        let out = a.finish();
        assert_eq!(out.spans, book.snapshot());
        assert_eq!(out.spans.spans, out.span_lines);
    }

    #[test]
    fn out_of_range_sites_and_modalities_are_skipped() {
        let mut a = TraceAnalyzer::new();
        a.add_line(&line(1, "run", 0.0, 1.0, &format!(",\"site\":{MAX_SITES}")));
        for m in 0..=MAX_MODALITIES {
            a.add_line(&line(
                2,
                "run",
                0.0,
                1.0,
                &format!(",\"modality\":\"m{m}\""),
            ));
        }
        let out = a.finish();
        assert_eq!(out.skipped, 2);
        assert_eq!(out.span_lines, MAX_MODALITIES as u64);
        assert_eq!(out.spans.wait_spans_by_modality.len(), 0);
        assert_eq!(out.spans.by_kind["run"].count, MAX_MODALITIES as u64);
    }
}
