//! Peak live heap of a streamed run.
//!
//! Its own test binary, because it installs the counting allocator as the
//! global allocator and reads the process-wide high-water mark of live
//! bytes: one `#[test]`, so nothing else allocates in the process. A small
//! million-style population is generated on the fly and its records are
//! discarded, so what stays live grows with users and jobs in flight —
//! plus the ground-truth label of every admitted job, which the run keeps
//! for scoring at one byte per job. The peak is a pure function of the
//! scenario and seed up to the helper threads of the streaming prepass
//! (one helper moves it by under a KiB), so a per-job table that costs
//! more than a byte a job (a hashed label map takes ~17 B a bucket and
//! briefly holds two tables while it grows) lifts it past the budget.

use tg_core::{RecordStreaming, RunOptions, ScenarioConfig};
use tg_des::memory::{peak_in_use_bytes, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live heap of the run, in bytes. This scenario measures 1,536,910
/// bytes in debug (1,536,912 in release) with one prepass helper thread
/// and 1,536,154 with none; the budget leaves ~10% headroom over that. The
/// same run with a hashed label map beside the table peaks at 2,354,741.
const BUDGET: i64 = 1_690_000;

#[test]
fn streamed_run_peak_heap_stays_within_budget() {
    let scenario = ScenarioConfig::million(4_000, 365).build();
    let options = RunOptions {
        stream_gen: true,
        record_streaming: RecordStreaming::Discard,
        ..RunOptions::default()
    };
    let out = scenario.run_with(9000, &options);
    let peak = peak_in_use_bytes();
    let jobs = out.truth.len();
    println!(
        "{jobs} jobs, {} label pages, peak live heap {peak} bytes",
        out.truth.page_count()
    );
    assert!(jobs > 10_000, "a run worth measuring ({jobs} jobs)");
    assert!(
        peak <= BUDGET,
        "a streamed run of {jobs} jobs peaked at {peak} live heap bytes, over the budget of {BUDGET}"
    );
}
