//! Property tests of the scheduler's indexed structures against naive
//! models: the blocked [`RunningSet`]'s [`shadow`] and its removal by
//! `(estimated_end, id)` key against a sorted `Vec`, and the lane-resident
//! [`BackfillQueue`] against a seq-keyed `BTreeMap`.

use crate::backfill_queue::{BackfillQueue, Place};
use crate::queue::{shadow, QueuedJob, RunningJob, RunningSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use tg_des::{SimDuration, SimTime};
use tg_workload::{JobId, ProjectId};

/// The reference shadow: walk `(end, id, cores)` sorted ascending.
fn naive_shadow(
    now: SimTime,
    free_cores: usize,
    need: usize,
    running: &[RunningJob],
) -> (SimTime, usize) {
    let mut sorted = running.to_vec();
    sorted.sort_by_key(|r| (r.estimated_end, r.id));
    let mut free = free_cores;
    let mut shadow = (need <= free).then_some(now);
    for r in sorted {
        let end = r.estimated_end.max(now);
        match shadow {
            Some(at) if end > at => break,
            Some(_) => free += r.cores,
            None => {
                free += r.cores;
                if free >= need {
                    shadow = Some(end);
                }
            }
        }
    }
    (shadow.unwrap_or(SimTime::MAX), free)
}

#[derive(Debug, Clone)]
enum SetOp {
    /// Start a job with this many cores, ending at this second modulo the
    /// case's spread of ends.
    Insert(u64, usize),
    /// Complete the running job at this index (mod the count).
    Remove(usize),
    /// Complete a run of jobs from this index, emptying blocks.
    RemoveRun(usize, usize),
    /// A shadow query: `now` (s, modulo the spread plus a little, so some
    /// queries come after every end), free cores, cores needed.
    Shadow(u64, usize, usize),
}

fn set_op() -> impl Strategy<Value = SetOp> {
    // One draw picks the kind (weights 20:3:1:8, so the set grows to a
    // few hundred jobs over a case) and carries every field.
    (0u32..32, any::<usize>(), 0u64..45, 1usize..16, 1usize..2400).prop_map(
        |(kind, i, t, c, need)| match kind {
            0..=19 => SetOp::Insert(t, c),
            20..=22 => SetOp::Remove(i),
            23 => SetOp::RemoveRun(i, 1 + need % 16),
            // `need` up to far past every core: unsatisfiable heads too.
            _ => SetOp::Shadow(t, c % 8, need),
        },
    )
}

#[derive(Debug, Clone)]
enum QueueOp {
    /// Submit a job of width `WIDTHS[i % k]`, `k` the widths open so far,
    /// with this estimate (s).
    Push(usize, u64),
    /// Open one more width (new lanes arrive between passes).
    NewWidth,
    /// A pass: fold staged jobs in.
    Integrate,
    PopFront,
    /// Take the job at this queue position (mod the length).
    Take(usize),
    /// Take every `n`-th job (from `from`) through places found before
    /// the first take, as a pass does.
    TakeEvery(usize, usize),
    /// Take everything out and stage it back in order (a re-rank).
    Restage,
}

const WIDTHS: [usize; 8] = [4, 1, 64, 16, 2, 128, 8, 32];

fn queue_op() -> impl Strategy<Value = QueueOp> {
    // One draw picks the kind (weights 8:1:3:2:2:1:1) and carries every
    // field.
    (0u32..18, any::<usize>(), 1u64..500).prop_map(|(kind, i, est)| match kind {
        0..=7 => QueueOp::Push(i, est),
        8 => QueueOp::NewWidth,
        9..=11 => QueueOp::Integrate,
        12..=13 => QueueOp::PopFront,
        14..=15 => QueueOp::Take(i),
        16 => QueueOp::TakeEvery(i % 4, 1 + (est as usize) % 3),
        _ => QueueOp::Restage,
    })
}

fn queued(id: usize, cores: usize, est_s: u64) -> QueuedJob {
    QueuedJob {
        id: JobId(id),
        project: ProjectId(0),
        submit_time: SimTime::ZERO,
        cores,
        estimate: SimDuration::from_secs(est_s),
    }
}

/// The queue's integrated jobs in order, as `(seq, id)`.
fn order(q: &BackfillQueue) -> Vec<(u64, JobId)> {
    q.iter()
        .map(|(p, j)| (q.lane(p.lane).seq_at(p.slot), j.id))
        .collect()
}

/// The seq-keyed model of the same queue.
#[derive(Default)]
struct Model {
    jobs: BTreeMap<u64, QueuedJob>,
    staged: VecDeque<QueuedJob>,
    next_seq: u64,
}

impl Model {
    fn integrate(&mut self) {
        while let Some(j) = self.staged.pop_front() {
            self.jobs.insert(self.next_seq, j);
            self.next_seq += 1;
        }
    }

    fn order(&self) -> Vec<(u64, JobId)> {
        self.jobs.iter().map(|(&s, j)| (s, j.id)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        ..ProptestConfig::default()
    })]

    #[test]
    fn blocked_shadow_matches_a_sorted_walk(
        spread in 1u64..40,
        ops in prop::collection::vec(set_op(), 1..800),
    ) {
        // Ends from a narrow range: many ends before `now`, and ties —
        // at a narrow spread, runs of one end across many blocks.
        let mut set = RunningSet::new();
        let mut model: Vec<RunningJob> = Vec::new();
        let mut next_id = 0;
        for op in ops {
            match op {
                SetOp::Insert(end, cores) => {
                    let r = RunningJob {
                        id: JobId(next_id),
                        cores,
                        estimated_end: SimTime::from_secs(end % spread),
                    };
                    next_id += 1;
                    set.insert(r);
                    model.push(r);
                }
                SetOp::Remove(i) if !model.is_empty() => {
                    let r = model.swap_remove(i % model.len());
                    let key = (r.estimated_end, r.id);
                    // The id alone does not name the entry: another end
                    // misses it.
                    let later = r.estimated_end + SimDuration::from_secs(1);
                    prop_assert_eq!(set.remove((later, r.id)), None);
                    prop_assert_eq!(set.remove(key), Some(r));
                    prop_assert_eq!(set.remove(key), None);
                }
                SetOp::RemoveRun(i, n) if !model.is_empty() => {
                    model.sort_by_key(|r| (r.estimated_end, r.id));
                    let at = i % model.len();
                    for r in model.drain(at..(at + n).min(model.len())) {
                        prop_assert_eq!(set.remove((r.estimated_end, r.id)), Some(r));
                    }
                }
                SetOp::Remove(_) | SetOp::RemoveRun(..) => {}
                SetOp::Shadow(t, free, need) => {
                    let now = SimTime::from_secs(t % (spread + 3));
                    prop_assert_eq!(
                        shadow(now, free, need, &set),
                        naive_shadow(now, free, need, &model)
                    );
                }
            }
            let mut sorted = model.clone();
            sorted.sort_by_key(|r| (r.estimated_end, r.id));
            prop_assert_eq!(set.iter_by_end().collect::<Vec<_>>(), sorted);
        }
    }

    #[test]
    fn lane_resident_queue_matches_a_seq_keyed_map(
        ops in prop::collection::vec(queue_op(), 1..400)
    ) {
        let mut q = BackfillQueue::new();
        let mut model = Model::default();
        let mut widths = 2;
        let mut next_id = 0;
        for op in ops {
            match op {
                QueueOp::Push(w, est) => {
                    let job = queued(next_id, WIDTHS[w % widths], est);
                    next_id += 1;
                    q.push_back(job);
                    model.staged.push_back(job);
                }
                QueueOp::NewWidth => widths = (widths + 1).min(WIDTHS.len()),
                QueueOp::Integrate => {
                    q.integrate(1.0);
                    model.integrate();
                }
                QueueOp::PopFront => {
                    q.integrate(1.0);
                    model.integrate();
                    let want = model.jobs.pop_first().map(|(_, j)| j);
                    prop_assert_eq!(q.pop_front(), want);
                }
                QueueOp::Take(i) => {
                    q.integrate(1.0);
                    model.integrate();
                    let places: Vec<Place> = q.iter().map(|(p, _)| p).collect();
                    if !places.is_empty() {
                        let k = i % places.len();
                        let seq = *model.jobs.keys().nth(k).expect("same length");
                        let want = model.jobs.remove(&seq);
                        prop_assert_eq!(Some(q.take(places[k])), want);
                    }
                }
                QueueOp::TakeEvery(from, n) => {
                    q.integrate(1.0);
                    model.integrate();
                    let places: Vec<Place> =
                        q.iter().map(|(p, _)| p).skip(from).step_by(n).collect();
                    let seqs: Vec<u64> =
                        model.jobs.keys().copied().skip(from).step_by(n).collect();
                    for (p, s) in places.into_iter().zip(seqs) {
                        let want = model.jobs.remove(&s);
                        prop_assert_eq!(Some(q.take(p)), want);
                    }
                }
                QueueOp::Restage => {
                    let all: Vec<QueuedJob> = q.take_all().collect();
                    let mut want: Vec<QueuedJob> =
                        std::mem::take(&mut model.jobs).into_values().collect();
                    want.extend(model.staged.drain(..));
                    prop_assert_eq!(&all, &want);
                    prop_assert_eq!(q.len(), 0);
                    for j in all {
                        q.push_back(j);
                        model.staged.push_back(j);
                    }
                }
            }
            prop_assert_eq!(q.len(), model.jobs.len() + model.staged.len());
            prop_assert_eq!(q.is_indexed_empty(), model.jobs.is_empty());
            prop_assert_eq!(q.front(), model.jobs.first_key_value().map(|(_, j)| j));
            prop_assert_eq!(order(&q), model.order());
        }
    }
}

/// One end shared by 100 jobs fills several blocks, so the tie run
/// straddles block boundaries. Each job is removed by its `(end, id)` key
/// in an order that hops between blocks; its key then names nothing.
#[test]
fn running_set_removes_tied_ends_across_block_boundaries() {
    let tie = SimTime::from_secs(7);
    let job = |id: usize, end: SimTime| RunningJob {
        id: JobId(id),
        cores: 1 + id % 5,
        estimated_end: end,
    };
    let mut set = RunningSet::new();
    let mut model: Vec<RunningJob> = (0..100).map(|id| job(id, tie)).collect();
    // Neighbours on both sides of the tie run.
    model.push(job(100, SimTime::from_secs(3)));
    model.push(job(101, SimTime::from_secs(9)));
    for &r in model.iter().rev() {
        set.insert(r);
    }
    for k in 0..100 {
        let id = k * 37 % 100;
        let at = model
            .iter()
            .position(|r| r.id == JobId(id))
            .expect("running");
        let r = model.remove(at);
        assert_eq!(set.remove((tie, r.id)), Some(r));
        assert_eq!(set.remove((tie, r.id)), None, "removed twice");
        let mut sorted = model.clone();
        sorted.sort_by_key(|r| (r.estimated_end, r.id));
        assert_eq!(set.iter_by_end().collect::<Vec<_>>(), sorted);
    }
    assert_eq!(set.remove((tie, JobId(0))), None);
}
