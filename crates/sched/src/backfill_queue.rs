//! The one indexed queue every batch scheduler kind runs over.
//!
//! [`crate::batch::QueueScheduler`] keeps its queue here whatever its
//! reservation depth or queue order. FCFS never indexes it and starts
//! staged jobs off the front ([`BackfillQueue::pop_staged_if`]); the
//! conservative and drain passes read it in order
//! ([`BackfillQueue::iter`]); a fair-share queue is re-ranked by taking
//! every job out and staging it back ([`BackfillQueue::take_all`]). The
//! width-lane index itself serves the EASY backfill scan.
//!
//! The naive Phase-3 backfill scan walks the whole queue on every decision
//! pass. On saturated sites that is O(queue) per completion — the dominant
//! cost of large-scenario runs (measured: ~25 000-job average scan depth,
//! billions of visited entries, almost all of which fail the same two
//! tests). This module replaces the walk with an index exploiting the two
//! monotonicities of the scan:
//!
//! * free cores only *decrease* while picking, so a job wider than the
//!   current free pool can be skipped for the rest of the pass, and
//! * the reservation's spare ("extra") cores only decrease, so once a
//!   width exceeds `extra`, *long* jobs of that width are unstartable for
//!   the rest of the pass.
//!
//! Job widths come from small discrete sets (the workload profiles draw
//! from ~a dozen power-of-two core counts), so the queue is kept as one
//! **lane per distinct width**. Each lane stores its jobs in queue order
//! under a segment tree of minimum *estimated runtime*, answering
//!
//! > "first job of this width, at or after position `i`, estimated to run
//! >  at most `limit`"
//!
//! in O(log lane). A backfill pass heap-merges the per-lane candidates in
//! global queue order and touches only jobs that are actually startable
//! under the current free/extra budgets (plus one boundary probe per lane)
//! — O((picks + distinct widths) · log) per pass instead of O(queue).
//!
//! A lane holds no per-job map: its sequence numbers are appended in
//! increasing order, so a leaving job's slot is a binary search away, and
//! dead slots are dropped by an in-place compaction (amortized O(1) per
//! push) that keeps the lane's buffers whenever its capacity stays the
//! same. The pass's merge heap and pick list live on the queue and are
//! reused from pass to pass.
//!
//! Decisions are **bit-identical** to the naive walk; the differential
//! suites (`crates/core/tests/differential.rs`, plus the property tests in
//! this crate) drive both against identical traffic to prove it.

use crate::queue::{estimated_runtime, QueuedJob};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Dead-slot sentinel in the lane segment trees. Real estimates are u64
/// microseconds, so `u64::MAX as u128` (`ALIVE_LIMIT`) admits every live
/// entry while the sentinel admits none.
const DEAD: u128 = u128::MAX;

/// Query limit that matches any live entry regardless of estimate.
pub(crate) const ALIVE_LIMIT: u128 = u64::MAX as u128;

/// Jobs of one width, in arrival order, under a min-estimate segment tree.
#[derive(Debug, Default)]
pub(crate) struct WidthLane {
    /// Arrival-ordered sequence numbers; dead entries keep their slot until
    /// the next compaction. Seqs are appended in increasing order, so the
    /// vector is sorted and a seq's slot is a binary search away.
    seqs: Vec<u64>,
    /// Segment tree over `seqs` of estimated runtime in microseconds
    /// (`DEAD` for killed slots). `seg[cap + i]` is the leaf for `seqs[i]`.
    seg: Vec<u128>,
    /// Leaf capacity (power of two ≥ `seqs.len()`).
    cap: usize,
    /// Slots whose leaf is not `DEAD`.
    live: usize,
}

impl WidthLane {
    /// Drop dead slots (keeping arrival order) and size the tree for
    /// `live + room` entries, at least 8 leaves. The buffers are reused
    /// whenever the capacity stays the same, so a lane that keeps filling
    /// and emptying at one size stops allocating.
    fn compact(&mut self, room: usize) {
        let mut n = 0;
        for i in 0..self.seqs.len() {
            let est = self.seg[self.cap + i];
            if est != DEAD {
                self.seqs[n] = self.seqs[i];
                self.seg[self.cap + n] = est;
                n += 1;
            }
        }
        debug_assert_eq!(n, self.live, "live count matches the leaves");
        self.seqs.truncate(n);
        let cap = (n + room).next_power_of_two().max(8);
        if cap == self.cap {
            self.seg[cap + n..].fill(DEAD);
        } else {
            let mut seg = vec![DEAD; 2 * cap];
            if self.cap > 0 {
                seg[cap..cap + n].copy_from_slice(&self.seg[self.cap..self.cap + n]);
            }
            self.seg = seg;
            self.cap = cap;
        }
        for node in (1..cap).rev() {
            self.seg[node] = self.seg[2 * node].min(self.seg[2 * node + 1]);
        }
    }

    fn update_path(&mut self, i: usize, v: u128) {
        let mut n = self.cap + i;
        self.seg[n] = v;
        while n > 1 {
            n /= 2;
            self.seg[n] = self.seg[2 * n].min(self.seg[2 * n + 1]);
        }
    }

    /// Append a job (seqs are globally increasing, so arrival order holds).
    fn push(&mut self, seq: u64, est_micros: u64) {
        debug_assert!(self.seqs.last() < Some(&seq), "seqs arrive in order");
        if self.seqs.len() == self.cap {
            // No free slot: drop dead slots, with room for the new job.
            // Amortized O(1) per push.
            self.compact(1);
        }
        let i = self.seqs.len();
        self.seqs.push(seq);
        self.live += 1;
        self.update_path(i, est_micros as u128);
    }

    /// Empty the lane, keeping its buffers.
    fn clear(&mut self) {
        self.seqs.clear();
        self.seg.fill(DEAD);
        self.live = 0;
    }

    /// Kill `seq` (it left the queue). Compacts when mostly dead.
    fn kill(&mut self, seq: u64) {
        let Ok(i) = self.seqs.binary_search(&seq) else {
            return;
        };
        if self.est_at(i) == DEAD {
            return;
        }
        self.update_path(i, DEAD);
        self.live -= 1;
        if self.seqs.len() >= 32 && self.live * 2 < self.seqs.len() {
            self.compact(0);
        }
    }

    /// Estimated runtime (µs) of the live entry at slot `i`.
    pub(crate) fn est_at(&self, i: usize) -> u128 {
        self.seg[self.cap + i]
    }

    /// Seq of the entry at slot `i`.
    pub(crate) fn seq_at(&self, i: usize) -> u64 {
        self.seqs[i]
    }

    /// First slot ≥ `from` whose estimate is ≤ `limit`, if any.
    pub(crate) fn first_le(&self, from: usize, limit: u128) -> Option<usize> {
        if from >= self.seqs.len() {
            return None;
        }
        self.descend(1, 0, self.cap, from, limit)
    }

    fn descend(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        from: usize,
        limit: u128,
    ) -> Option<usize> {
        if hi <= from || self.seg[node] > limit {
            return None;
        }
        if hi - lo == 1 {
            return (lo < self.seqs.len()).then_some(lo);
        }
        let mid = (lo + hi) / 2;
        self.descend(2 * node, lo, mid, from, limit)
            .or_else(|| self.descend(2 * node + 1, mid, hi, from, limit))
    }
}

/// Job queue indexed for backfill: a seq-ordered job map plus one
/// [`WidthLane`] per distinct core width. Seqs follow staging order, which
/// is arrival order unless a re-rank restaged the queue.
///
/// Estimates are indexed at the site's `core_speed`, which `submit` doesn't
/// receive — newly submitted jobs are *staged* and folded into the index at
/// the start of the next decision pass ([`BackfillQueue::integrate`]).
#[derive(Debug, Default)]
pub(crate) struct BackfillQueue {
    jobs: BTreeMap<u64, QueuedJob>,
    lanes: BTreeMap<usize, WidthLane>,
    staged: VecDeque<QueuedJob>,
    next_seq: u64,
    /// Captured at first integration; the per-site speed never changes.
    core_speed: Option<f64>,
    /// A pass's lane-merge heap of `(seq, width, slot)` candidates, kept
    /// between passes so its allocation is reused (empty outside a pass).
    pub(crate) merge: BinaryHeap<Reverse<(u64, usize, usize)>>,
    /// A pass's picked seqs, reused like `merge`.
    pub(crate) picked: Vec<u64>,
}

impl BackfillQueue {
    pub(crate) fn new() -> Self {
        BackfillQueue::default()
    }

    /// Stage a newly submitted job (indexed at the next decision pass).
    pub(crate) fn push_back(&mut self, job: QueuedJob) {
        self.staged.push_back(job);
    }

    /// Queued jobs (staged included).
    pub(crate) fn len(&self) -> usize {
        self.jobs.len() + self.staged.len()
    }

    /// Whether no job is indexed, so the staged jobs are the queue's heads.
    pub(crate) fn is_indexed_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Take the first staged job without indexing it, if it passes `take`.
    /// Only sound while [`BackfillQueue::is_indexed_empty`]: the staged
    /// front is then the queue head.
    pub(crate) fn pop_staged_if(
        &mut self,
        take: impl FnOnce(&QueuedJob) -> bool,
    ) -> Option<QueuedJob> {
        debug_assert!(
            self.jobs.is_empty(),
            "staged jobs queue behind indexed ones"
        );
        if take(self.staged.front()?) {
            self.staged.pop_front()
        } else {
            None
        }
    }

    /// Fold staged submissions into the index. Must run before any other
    /// query in a decision pass.
    pub(crate) fn integrate(&mut self, core_speed: f64) {
        debug_assert!(
            self.core_speed.replace(core_speed).unwrap_or(core_speed) == core_speed,
            "a site's core speed is constant"
        );
        while let Some(job) = self.staged.pop_front() {
            let seq = self.next_seq;
            self.next_seq += 1;
            let est = estimated_runtime(&job, core_speed).as_micros();
            self.lanes.entry(job.cores).or_default().push(seq, est);
            self.jobs.insert(seq, job);
        }
    }

    /// The queue head (after [`BackfillQueue::integrate`]).
    pub(crate) fn front(&self) -> Option<&QueuedJob> {
        self.jobs.first_key_value().map(|(_, j)| j)
    }

    /// Seq of the queue head.
    pub(crate) fn head_seq(&self) -> Option<u64> {
        self.jobs.first_key_value().map(|(&s, _)| s)
    }

    /// Pop the queue head.
    pub(crate) fn pop_front(&mut self) -> Option<QueuedJob> {
        let (seq, job) = self.jobs.pop_first()?;
        self.lane_kill(job.cores, seq);
        Some(job)
    }

    /// Remove an arbitrary queued job by seq (a backfill pick).
    pub(crate) fn remove(&mut self, seq: u64) -> QueuedJob {
        let job = self.jobs.remove(&seq).expect("picked seq is queued");
        self.lane_kill(job.cores, seq);
        job
    }

    fn lane_kill(&mut self, cores: usize, seq: u64) {
        self.lanes
            .get_mut(&cores)
            .expect("lane exists for queued width")
            .kill(seq);
    }

    /// Take every queued job out, in queue order (indexed, then staged),
    /// leaving the queue empty. The lanes keep their buffers.
    pub(crate) fn take_all(&mut self) -> impl Iterator<Item = QueuedJob> + '_ {
        for lane in self.lanes.values_mut() {
            lane.clear();
        }
        std::mem::take(&mut self.jobs)
            .into_values()
            .chain(self.staged.drain(..))
    }

    /// Integrated jobs in queue order (drain and conservative passes).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &QueuedJob)> {
        self.jobs.iter().map(|(&s, j)| (s, j))
    }

    /// Width lanes at or below `max_width`, for candidate seeding.
    pub(crate) fn lanes_up_to(
        &self,
        max_width: usize,
    ) -> impl Iterator<Item = (usize, &WidthLane)> {
        self.lanes.range(..=max_width).map(|(&w, l)| (w, l))
    }

    /// The lane for `width` (must exist).
    pub(crate) fn lane(&self, width: usize) -> &WidthLane {
        &self.lanes[&width]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_des::{SimDuration, SimTime};
    use tg_workload::{Job, JobId, ProjectId, UserId};

    fn job(id: usize, cores: usize, secs: u64) -> QueuedJob {
        QueuedJob::from(&Job::batch(
            JobId(id),
            UserId(0),
            ProjectId(0),
            SimTime::ZERO,
            cores,
            SimDuration::from_secs(secs),
        ))
    }

    #[test]
    fn fifo_order_is_preserved_across_widths() {
        let mut q = BackfillQueue::new();
        q.push_back(job(0, 4, 10));
        q.push_back(job(1, 8, 10));
        q.push_back(job(2, 4, 10));
        q.integrate(1.0);
        let ids: Vec<_> = q.iter().map(|(_, j)| j.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(q.pop_front().unwrap().id, JobId(0));
        assert_eq!(q.front().unwrap().id, JobId(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn staged_jobs_count_but_integrate_lazily() {
        let mut q = BackfillQueue::new();
        q.push_back(job(0, 2, 5));
        assert_eq!(q.len(), 1);
        assert!(q.front().is_none(), "not integrated yet");
        q.integrate(1.0);
        assert_eq!(q.front().unwrap().id, JobId(0));
    }

    #[test]
    fn first_le_finds_the_earliest_short_job_per_width() {
        let mut q = BackfillQueue::new();
        q.push_back(job(0, 4, 1000)); // long
        q.push_back(job(1, 4, 10)); // short
        q.push_back(job(2, 4, 20)); // short
        q.integrate(1.0);
        let lane = q.lane(4);
        let limit = SimDuration::from_secs(100).as_micros() as u128;
        let i = lane.first_le(0, limit).expect("short job exists");
        assert_eq!(lane.seq_at(i), 1);
        assert_eq!(lane.first_le(i + 1, limit).map(|j| lane.seq_at(j)), Some(2));
        assert_eq!(
            lane.first_le(0, SimDuration::from_secs(1).as_micros() as u128),
            None
        );
    }

    #[test]
    fn removal_kills_lane_entries() {
        let mut q = BackfillQueue::new();
        for i in 0..100 {
            q.push_back(job(i, 2, 10 + i as u64));
        }
        q.integrate(1.0);
        // Remove every other job; survivors stay reachable in order.
        let seqs: Vec<u64> = q.iter().map(|(s, _)| s).collect();
        for &s in seqs.iter().step_by(2) {
            q.remove(s);
        }
        assert_eq!(q.len(), 50);
        let lane = q.lane(2);
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = lane.first_le(from, ALIVE_LIMIT) {
            seen.push(lane.seq_at(i));
            from = i + 1;
        }
        let expect: Vec<u64> = seqs.iter().skip(1).step_by(2).copied().collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn growth_and_compaction_keep_the_index_consistent() {
        let mut q = BackfillQueue::new();
        let mut next = 0usize;
        for round in 0..8 {
            for _ in 0..64 {
                q.push_back(job(next, 4, 60 + (next as u64 % 7) * 60));
                next += 1;
            }
            q.integrate(1.0);
            // Drain three quarters from the front.
            for _ in 0..48 {
                q.pop_front();
            }
            let want = (round + 1) * 16;
            assert_eq!(q.len(), want);
            // Lane view matches the job map exactly.
            let lane = q.lane(4);
            let mut lane_seqs = Vec::new();
            let mut from = 0;
            while let Some(i) = lane.first_le(from, ALIVE_LIMIT) {
                lane_seqs.push(lane.seq_at(i));
                from = i + 1;
            }
            let map_seqs: Vec<u64> = q.iter().map(|(s, _)| s).collect();
            assert_eq!(lane_seqs, map_seqs);
        }
    }

    #[test]
    fn estimates_are_indexed_at_site_speed() {
        let mut q = BackfillQueue::new();
        q.push_back(job(0, 4, 100));
        q.integrate(2.0); // twice the reference speed → 50 s estimate
        let lane = q.lane(4);
        let i = lane
            .first_le(0, SimDuration::from_secs(50).as_micros() as u128)
            .expect("50 s at speed 2");
        assert_eq!(lane.seq_at(i), 0);
        assert_eq!(
            lane.first_le(0, SimDuration::from_secs(49).as_micros() as u128),
            None
        );
    }
}
