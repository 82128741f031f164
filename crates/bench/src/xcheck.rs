//! Trace-analyzer cross-checks.
//!
//! An experiment that also wrote a JSONL trace can verify that the offline
//! span analyzer ([`tg_des::TraceAnalyzer`]) reconstructs its headline
//! aggregate — mean queue wait — from the trace alone. The two paths share
//! no code (experiments read the accounting DB, the analyzer replays span
//! records), so agreement is a real end-to-end check of the span schema.

use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use tg_core::{replicate_with, Replication, RunOptions, Scenario};
use tg_des::TraceAnalyzer;

/// Outcome of comparing analyzer-derived mean wait against the accounting
/// database of the replication that wrote the trace.
#[derive(Debug, Clone, Serialize)]
pub struct WaitCrossCheck {
    /// Mean wait (s) the analyzer reconstructed from spans alone.
    pub analyzer_mean_wait_s: f64,
    /// Mean wait (s) from the run's accounting records.
    pub db_mean_wait_s: f64,
    /// Relative disagreement, `|analyzer − db| / max(db, 1e-9)`.
    pub rel_err: f64,
    /// Completed jobs the analyzer saw.
    pub analyzer_jobs: u64,
    /// Jobs in the accounting database.
    pub db_jobs: u64,
}

impl WaitCrossCheck {
    /// True when the analyzer agrees with accounting within `tol`
    /// (relative) and saw every job.
    pub fn agrees_within(&self, tol: f64) -> bool {
        self.rel_err <= tol && self.analyzer_jobs == self.db_jobs
    }
}

/// Run `count` replications of `scenario` at seeds `base_seed..`, with
/// replication 0 writing its trace to a file of its own under the system
/// temp directory, and compare the analyzer's reading of that trace against
/// replication 0's accounting. The trace file is removed afterwards, so
/// concurrent callers never share one.
///
/// Panics if the trace cannot be read back: an experiment that asked for a
/// trace and lost it should fail loudly, not skip the check.
pub fn replicate_crosschecked(
    scenario: &Scenario,
    base_seed: u64,
    count: usize,
) -> (Vec<Replication>, WaitCrossCheck) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "tg-bench-{}-{}.trace.jsonl",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let opts = RunOptions {
        trace_path: Some(path.clone()),
        ..RunOptions::default()
    };
    let reps = replicate_with(scenario, base_seed, count, 0, &opts);
    let trace = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read trace {}: {e}", path.display()));
    let _ = std::fs::remove_file(&path);
    let mut analyzer = TraceAnalyzer::new();
    trace.lines().for_each(|line| analyzer.add_line(line));
    let analysis = analyzer.finish();
    let rep0 = &reps[0].output;
    let db_mean = rep0.mean_wait_secs();
    let xcheck = WaitCrossCheck {
        analyzer_mean_wait_s: analysis.mean_wait_s,
        db_mean_wait_s: db_mean,
        rel_err: (analysis.mean_wait_s - db_mean).abs() / db_mean.max(1e-9),
        analyzer_jobs: analysis.jobs,
        db_jobs: rep0.db.jobs.len() as u64,
    };
    (reps, xcheck)
}
