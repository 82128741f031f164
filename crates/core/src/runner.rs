//! Deterministic parallel replication.
//!
//! Experiments need confidence intervals, so every point is run at several
//! seeds. Replications are embarrassingly parallel *between* runs, and each
//! run's event loop is strictly sequential — so results are bit-identical
//! whatever the thread count. (The one fan-out inside a run is the
//! streaming generator's per-user prepass, which assembles its result in
//! population order; see `tg_workload::stream`.) Threads are scoped (no
//! detached state) and fan results back through a crossbeam channel;
//! outputs are re-ordered by replication index before returning.

use crate::scenario::{RunOptions, Scenario, SimOutput};
use crossbeam::channel;
use std::thread;
use tg_des::metrics::EngineProfile;

/// One replication's result.
#[derive(Debug)]
pub struct Replication {
    /// Replication index (0-based).
    pub index: usize,
    /// The seed used (`base_seed + index`).
    pub seed: u64,
    /// The run's output.
    pub output: SimOutput,
}

/// Run `count` replications of `scenario` at seeds `base_seed..base_seed+count`,
/// using up to `threads` worker threads (clamped to `count`; 0 means one
/// thread per replication up to the machine's parallelism).
pub fn replicate(
    scenario: &Scenario,
    base_seed: u64,
    count: usize,
    threads: usize,
) -> Vec<Replication> {
    replicate_with(scenario, base_seed, count, threads, &RunOptions::default())
}

/// [`replicate`] with observability options. Metrics are collected on every
/// replication; the JSONL trace (if requested) is written by replication 0
/// only — one representative trace rather than `count` interleaved files.
pub fn replicate_with(
    scenario: &Scenario,
    base_seed: u64,
    count: usize,
    threads: usize,
    opts: &RunOptions,
) -> Vec<Replication> {
    assert!(count > 0, "need at least one replication");
    let workers = if threads == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(count)
    } else {
        threads.min(count)
    };
    let (task_tx, task_rx) = channel::unbounded::<usize>();
    let (result_tx, result_rx) = channel::unbounded::<Replication>();
    for i in 0..count {
        task_tx.send(i).expect("channel open");
    }
    drop(task_tx);

    thread::scope(|scope| {
        for _ in 0..workers {
            let task_rx = task_rx.clone();
            let result_tx = result_tx.clone();
            scope.spawn(move || {
                while let Ok(index) = task_rx.recv() {
                    let seed = base_seed + index as u64;
                    let rep_opts = RunOptions {
                        trace_path: if index == 0 {
                            opts.trace_path.clone()
                        } else {
                            None
                        },
                        ..opts.clone()
                    };
                    let output = scenario.run_with(seed, &rep_opts);
                    result_tx
                        .send(Replication {
                            index,
                            seed,
                            output,
                        })
                        .expect("main thread alive");
                }
            });
        }
        drop(result_tx);
        let mut results: Vec<Replication> = result_rx.iter().collect();
        results.sort_by_key(|r| r.index);
        results
    })
}

/// Run one closure per sweep point in parallel, returning results in point
/// order whatever the thread count or completion order.
///
/// This is the sweep-level complement to [`replicate`]: experiment binaries
/// iterate a config grid where each cell is itself a (sequential or
/// parallel) replication batch. Running the *cells* in parallel keeps each
/// cell's seed stream untouched — bit-identical to the serial loop — while
/// filling all cores. `threads == 0` uses the machine's parallelism.
///
/// The closure gets `(index, &point)` so it can seed or label per-cell.
pub fn run_sweep<P, R, F>(points: &[P], threads: usize, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    if points.is_empty() {
        return Vec::new();
    }
    let workers = if threads == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(points.len())
    } else {
        threads.min(points.len())
    };
    if workers <= 1 {
        return points.iter().enumerate().map(|(i, p)| f(i, p)).collect();
    }
    let (task_tx, task_rx) = channel::unbounded::<usize>();
    let (result_tx, result_rx) = channel::unbounded::<(usize, R)>();
    for i in 0..points.len() {
        task_tx.send(i).expect("channel open");
    }
    drop(task_tx);
    thread::scope(|scope| {
        for _ in 0..workers {
            let task_rx = task_rx.clone();
            let result_tx = result_tx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Ok(index) = task_rx.recv() {
                    let out = f(index, &points[index]);
                    if result_tx.send((index, out)).is_err() {
                        return; // main thread gone; nothing left to report to
                    }
                }
            });
        }
        drop(result_tx);
        let mut results: Vec<(usize, R)> = result_rx.iter().collect();
        results.sort_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, r)| r).collect()
    })
}

/// Collect a per-replication scalar metric and summarize it as
/// `(mean, 95% CI half-width)`.
pub fn summarize(replications: &[Replication], metric: impl Fn(&SimOutput) -> f64) -> (f64, f64) {
    let values: Vec<f64> = replications.iter().map(|r| metric(&r.output)).collect();
    tg_des::stats::ci_student_t(&values)
}

/// Aggregate the wall-clock engine profiles of a replication batch: total
/// events and wall time, overall delivery rate, the worst peak queue, and
/// (where measured) the worst peak RSS plus summed allocation traffic.
pub fn aggregate_profiles(replications: &[Replication]) -> EngineProfile {
    let events: u64 = replications
        .iter()
        .map(|r| r.output.profile.events_delivered)
        .sum();
    let wall: f64 = replications
        .iter()
        .map(|r| r.output.profile.wall_seconds)
        .sum();
    let peak = replications
        .iter()
        .map(|r| r.output.profile.peak_queue_len)
        .max()
        .unwrap_or(0);
    let mut agg = EngineProfile::new(events, wall, peak as usize);
    agg.peak_rss_bytes = replications
        .iter()
        .filter_map(|r| r.output.profile.peak_rss_bytes)
        .max();
    let sum_opt = |f: fn(&EngineProfile) -> Option<u64>| {
        replications
            .iter()
            .filter_map(|r| f(&r.output.profile))
            .fold(None, |acc: Option<u64>, v| Some(acc.unwrap_or(0) + v))
    };
    agg.allocations = sum_opt(|p| p.allocations);
    agg.allocated_bytes = sum_opt(|p| p.allocated_bytes);
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn tiny() -> Scenario {
        let mut cfg = ScenarioConfig::baseline(30, 2);
        cfg.sites[0].batch_nodes = 32;
        cfg.sites[1].batch_nodes = 32;
        cfg.sites[2].batch_nodes = 16;
        cfg.build()
    }

    #[test]
    fn parallel_equals_sequential() {
        let s = tiny();
        let par = replicate(&s, 100, 4, 4);
        let seq = replicate(&s, 100, 4, 1);
        assert_eq!(par.len(), 4);
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.output.db.jobs, b.output.db.jobs);
            assert_eq!(a.output.end, b.output.end);
        }
    }

    #[test]
    fn seeds_are_consecutive_and_outputs_ordered() {
        let s = tiny();
        let reps = replicate(&s, 7, 3, 0);
        let seeds: Vec<u64> = reps.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![7, 8, 9]);
        let idx: Vec<usize> = reps.iter().map(|r| r.index).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn replicate_with_metrics_collects_everywhere() {
        let s = tiny();
        let reps = replicate_with(&s, 5, 2, 2, &RunOptions::with_metrics());
        assert_eq!(reps.len(), 2);
        for r in &reps {
            let snap = r.output.metrics.as_ref().expect("metrics on");
            assert_eq!(
                snap.counter_sum("completed.site."),
                r.output.db.jobs.len() as u64
            );
        }
        // Identical to an unobserved batch.
        let plain = replicate(&s, 5, 2, 2);
        for (a, b) in reps.iter().zip(&plain) {
            assert_eq!(a.output.db.jobs, b.output.db.jobs);
            assert!(b.output.metrics.is_none());
        }
        let agg = aggregate_profiles(&reps);
        assert_eq!(
            agg.events_delivered,
            reps.iter().map(|r| r.output.events_delivered).sum::<u64>()
        );
        assert!(agg.peak_queue_len > 0);
    }

    #[test]
    fn summarize_produces_ci() {
        let s = tiny();
        let reps = replicate(&s, 1, 3, 0);
        let (mean, hw) = summarize(&reps, |o| o.db.jobs.len() as f64);
        assert!(mean > 0.0);
        assert!(hw >= 0.0);
    }
}
