//! The one indexed queue every batch scheduler kind runs over.
//!
//! [`crate::batch::QueueScheduler`] keeps its queue here whatever its
//! reservation depth or queue order. FCFS never indexes it and starts
//! staged jobs off the front ([`BackfillQueue::pop_staged_if`]); the
//! conservative pass reads it in order ([`BackfillQueue::iter`]); a
//! fair-share queue is re-ranked by taking every job out and staging it
//! back ([`BackfillQueue::take_all`]). The width-lane index itself serves
//! the EASY backfill scan and the drain pass.
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
//! **lane per distinct width**, and each job lives in its lane: its
//! [`QueuedJob`], its sequence number and its leaf in a segment tree of
//! minimum *estimated runtime* sit at one slot. A lane answers
//!
//! > "first job of this width, at or after slot `i`, estimated to run at
//! >  most `limit`"
//!
//! in O(log lane), climbing from slot `i`'s leaf. A pass heap-merges the
//! per-lane candidates in global queue order (sequence numbers follow
//! staging order) and touches only jobs that are actually startable under
//! the current budgets (plus one boundary probe per lane) — O((picks +
//! distinct widths) · log) per pass instead of O(queue). The drain pass
//! runs the same merge with one budget: every lane's limit is the time
//! left to the drain horizon.
//!
//! The lanes sit in a width-sorted `Vec`, and a job is named by its
//! [`Place`], `(lane, slot)`. A leaving job's leaf is marked dead; a lane
//! drops its dead slots only when a push finds it full (an in-place
//! compaction, amortized O(1) per push, that keeps the lane's buffers
//! whenever its capacity stays the same), or all at once when its last
//! live job leaves. New lanes, too, appear only while staged jobs are
//! folded in at the start of a pass, so a place found during a pass stays
//! valid until the pass has taken its picks. The queue head is the lane
//! whose first live job has the least sequence number; it is cached, and
//! recomputed over the lanes only when the head itself leaves.
//!
//! The pass's merge heap and pick list live on the queue and are reused
//! from pass to pass, so a pass allocates nothing once the lanes have
//! reached their working size.
//!
//! Decisions are **bit-identical** to the naive walk; the differential
//! suites (`crates/core/tests/differential.rs`, plus the property tests in
//! this crate) drive both against identical traffic to prove it.

use crate::queue::{estimated_runtime, QueuedJob};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Dead-slot sentinel in the lane segment trees. Real estimates are u64
/// microseconds, so `u64::MAX as u128` (`ALIVE_LIMIT`) admits every live
/// entry while the sentinel admits none.
const DEAD: u128 = u128::MAX;

/// Query limit that matches any live entry regardless of estimate.
pub(crate) const ALIVE_LIMIT: u128 = u64::MAX as u128;

/// Where a queued job lives: its width lane and its slot in the lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Place {
    pub(crate) lane: usize,
    pub(crate) slot: usize,
}

/// Jobs of one width, in staging order, under a min-estimate segment tree.
#[derive(Debug)]
pub(crate) struct WidthLane {
    width: usize,
    /// Staging-ordered sequence numbers; dead entries keep their slot until
    /// the next compaction. Seqs are appended in increasing order.
    seqs: Vec<u64>,
    /// The jobs, slot for slot beside `seqs` (dead ones stale).
    jobs: Vec<QueuedJob>,
    /// Segment tree over the slots of estimated runtime in microseconds
    /// (`DEAD` for dead and unused slots). `seg[cap + i]` is slot `i`'s leaf.
    seg: Vec<u128>,
    /// Leaf capacity (power of two ≥ `seqs.len()`; 0 before the first push).
    cap: usize,
    /// Slots whose leaf is not `DEAD`.
    live: usize,
    /// The first live slot (`seqs.len()` when none is live).
    first: usize,
}

impl WidthLane {
    fn new(width: usize) -> Self {
        WidthLane {
            width,
            seqs: Vec::new(),
            jobs: Vec::new(),
            seg: Vec::new(),
            cap: 0,
            live: 0,
            first: 0,
        }
    }

    /// Core width of every job in the lane.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Drop dead slots (keeping staging order) and size the tree for
    /// `live + room` entries, at least 8 leaves. The buffers are reused
    /// whenever the capacity stays the same, so a lane that keeps filling
    /// and emptying at one size stops allocating.
    fn compact(&mut self, room: usize) {
        let mut n = 0;
        for i in 0..self.seqs.len() {
            let est = self.seg[self.cap + i];
            if est != DEAD {
                self.seqs[n] = self.seqs[i];
                self.jobs[n] = self.jobs[i];
                self.seg[self.cap + n] = est;
                n += 1;
            }
        }
        debug_assert_eq!(n, self.live, "live count matches the leaves");
        self.seqs.truncate(n);
        self.jobs.truncate(n);
        self.first = 0;
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

    /// Append a job (seqs are globally increasing, so staging order holds).
    fn push(&mut self, seq: u64, est_micros: u64, job: QueuedJob) {
        debug_assert!(self.seqs.last() < Some(&seq), "seqs arrive in order");
        if self.seqs.len() == self.cap {
            // No free slot: drop dead slots, with room for the new job.
            // Amortized O(1) per push.
            self.compact(1);
        }
        let i = self.seqs.len();
        if self.live == 0 {
            self.first = i;
        }
        self.seqs.push(seq);
        self.jobs.push(job);
        self.live += 1;
        self.update_path(i, est_micros as u128);
    }

    /// Empty the lane, keeping its buffers.
    fn clear(&mut self) {
        self.seqs.clear();
        self.jobs.clear();
        self.seg.fill(DEAD);
        self.live = 0;
        self.first = 0;
    }

    /// Take the live job at slot `i` out (its leaf dies). The lane's other
    /// slots do not move; a lane left with no live job forgets its dead
    /// slots, whose leaves are all `DEAD` already.
    fn kill(&mut self, i: usize) -> QueuedJob {
        debug_assert!(self.est_at(i) != DEAD, "slot {i} is live");
        self.update_path(i, DEAD);
        self.live -= 1;
        if self.live == 0 {
            self.seqs.clear();
            self.first = 0;
            let job = self.jobs[i];
            self.jobs.clear();
            return job;
        }
        if i == self.first {
            self.first = self
                .first_le(i + 1, ALIVE_LIMIT)
                .expect("a live slot follows");
        }
        self.jobs[i]
    }

    /// Estimated runtime (µs) of the live entry at slot `i`.
    pub(crate) fn est_at(&self, i: usize) -> u128 {
        self.seg[self.cap + i]
    }

    /// Seq of the entry at slot `i`.
    pub(crate) fn seq_at(&self, i: usize) -> u64 {
        self.seqs[i]
    }

    /// The first live slot, if any.
    pub(crate) fn first_live(&self) -> Option<usize> {
        (self.live > 0).then_some(self.first)
    }

    /// First slot ≥ `from` whose estimate is ≤ `limit`, if any: climb from
    /// `from`'s leaf to the first subtree on its right whose minimum
    /// qualifies, then descend to that subtree's leftmost qualifying leaf.
    /// Dead and unused leaves are `DEAD`, above every limit.
    pub(crate) fn first_le(&self, from: usize, limit: u128) -> Option<usize> {
        if from >= self.seqs.len() {
            return None;
        }
        let mut n = self.cap + from;
        while self.seg[n] > limit {
            // Past the right edge of a right child: move up until `n` is a
            // left child (the root's parent, 0, means none is left), then
            // step to its right sibling.
            while n & 1 == 1 {
                n >>= 1;
            }
            if n == 0 {
                return None;
            }
            n += 1;
        }
        while n < self.cap {
            n = if self.seg[2 * n] <= limit {
                2 * n
            } else {
                2 * n + 1
            };
        }
        Some(n - self.cap)
    }
}

/// Job queue indexed for backfill: one [`WidthLane`] per distinct core
/// width, holding the jobs. Seqs follow staging order, which is arrival
/// order unless a re-rank restaged the queue.
///
/// Estimates are indexed at the site's `core_speed`, which `submit` doesn't
/// receive — newly submitted jobs are *staged* and folded into the index at
/// the start of the next decision pass ([`BackfillQueue::integrate`]).
#[derive(Debug, Default)]
pub(crate) struct BackfillQueue {
    /// Width-sorted lanes. Lanes are never removed; a new width's lane is
    /// inserted only by [`BackfillQueue::integrate`].
    lanes: Vec<WidthLane>,
    /// Live jobs over all lanes.
    indexed: usize,
    /// The lane holding the queue head (its first live slot), if any job is
    /// indexed.
    head: Option<usize>,
    staged: VecDeque<QueuedJob>,
    next_seq: u64,
    /// Captured at first integration; the per-site speed never changes.
    core_speed: Option<f64>,
    /// A pass's lane-merge heap of `(seq, place)` candidates, kept between
    /// passes so its allocation is reused (empty outside a pass).
    pub(crate) merge: BinaryHeap<Reverse<(u64, Place)>>,
    /// A pass's picks in queue order, reused like `merge`.
    pub(crate) picked: Vec<Place>,
    /// [`BackfillQueue::take_all`]'s seq-ordered buffer, reused like `merge`.
    drained: Vec<(u64, QueuedJob)>,
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
        self.indexed + self.staged.len()
    }

    /// Whether no job is indexed, so the staged jobs are the queue's heads.
    pub(crate) fn is_indexed_empty(&self) -> bool {
        self.indexed == 0
    }

    /// Take the first staged job without indexing it, if it passes `take`.
    /// Only sound while [`BackfillQueue::is_indexed_empty`]: the staged
    /// front is then the queue head.
    pub(crate) fn pop_staged_if(
        &mut self,
        take: impl FnOnce(&QueuedJob) -> bool,
    ) -> Option<QueuedJob> {
        debug_assert!(self.indexed == 0, "staged jobs queue behind indexed ones");
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
            let l = match self.lanes.binary_search_by_key(&job.cores, |l| l.width) {
                Ok(l) => l,
                Err(l) => {
                    self.lanes.insert(l, WidthLane::new(job.cores));
                    if let Some(h) = self.head.as_mut().filter(|h| **h >= l) {
                        *h += 1;
                    }
                    l
                }
            };
            self.lanes[l].push(seq, est, job);
            self.indexed += 1;
            // Later seqs never precede the head; the first job into an
            // empty index is it.
            self.head.get_or_insert(l);
        }
    }

    /// Where the queue head lives (after [`BackfillQueue::integrate`]).
    pub(crate) fn head(&self) -> Option<Place> {
        let lane = self.head?;
        Some(Place {
            lane,
            slot: self.lanes[lane].first,
        })
    }

    /// The queue head (after [`BackfillQueue::integrate`]).
    pub(crate) fn front(&self) -> Option<&QueuedJob> {
        self.head().map(|p| self.get(p))
    }

    /// The job at a live place.
    pub(crate) fn get(&self, p: Place) -> &QueuedJob {
        &self.lanes[p.lane].jobs[p.slot]
    }

    /// Pop the queue head.
    pub(crate) fn pop_front(&mut self) -> Option<QueuedJob> {
        let head = self.head()?;
        Some(self.take(head))
    }

    /// Take the job at a live place out of the queue (a pick). Other
    /// places stay valid.
    pub(crate) fn take(&mut self, p: Place) -> QueuedJob {
        let was_head = self.head() == Some(p);
        let job = self.lanes[p.lane].kill(p.slot);
        self.indexed -= 1;
        if was_head {
            self.head = self
                .lanes
                .iter()
                .enumerate()
                .filter_map(|(l, lane)| Some((lane.seq_at(lane.first_live()?), l)))
                .min()
                .map(|(_, l)| l);
        }
        job
    }

    /// Take every queued job out, in queue order (indexed, then staged),
    /// leaving the queue empty. The lanes keep their buffers.
    pub(crate) fn take_all(&mut self) -> impl Iterator<Item = QueuedJob> + '_ {
        let drained = &mut self.drained;
        for lane in &mut self.lanes {
            if lane.live > 0 {
                for i in lane.first..lane.seqs.len() {
                    if lane.est_at(i) != DEAD {
                        drained.push((lane.seqs[i], lane.jobs[i]));
                    }
                }
                lane.clear();
            }
        }
        // Concatenated ascending runs, one per lane.
        drained.sort_unstable_by_key(|&(seq, _)| seq);
        self.indexed = 0;
        self.head = None;
        drained
            .drain(..)
            .map(|(_, job)| job)
            .chain(self.staged.drain(..))
    }

    /// Integrated jobs in queue order (the conservative pass): a merge of
    /// the lanes' live slots by seq.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Place, &QueuedJob)> + '_ {
        let mut heap: BinaryHeap<Reverse<(u64, Place)>> = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(lane, l)| {
                let slot = l.first_live()?;
                Some(Reverse((l.seq_at(slot), Place { lane, slot })))
            })
            .collect();
        std::iter::from_fn(move || {
            let Reverse((_, p)) = heap.pop()?;
            let lane = &self.lanes[p.lane];
            if let Some(slot) = lane.first_le(p.slot + 1, ALIVE_LIMIT) {
                heap.push(Reverse((lane.seq_at(slot), Place { slot, ..p })));
            }
            Some((p, &lane.jobs[p.slot]))
        })
    }

    /// Width lanes at or below `max_width` (with their indices), for
    /// candidate seeding.
    pub(crate) fn lanes_up_to(
        &self,
        max_width: usize,
    ) -> impl Iterator<Item = (usize, &WidthLane)> {
        let n = self.lanes.partition_point(|l| l.width <= max_width);
        self.lanes[..n].iter().enumerate()
    }

    /// Lane `l` (must exist).
    pub(crate) fn lane(&self, l: usize) -> &WidthLane {
        &self.lanes[l]
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

    /// The lane of `width` (must exist).
    fn lane_of(q: &BackfillQueue, width: usize) -> &WidthLane {
        let l = q
            .lanes
            .iter()
            .position(|l| l.width() == width)
            .expect("lane exists");
        q.lane(l)
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
        let lane = lane_of(&q, 4);
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
        let places: Vec<Place> = q.iter().map(|(p, _)| p).collect();
        let seqs: Vec<u64> = places
            .iter()
            .map(|p| q.lane(p.lane).seq_at(p.slot))
            .collect();
        for &p in places.iter().step_by(2) {
            q.take(p);
        }
        assert_eq!(q.len(), 50);
        let lane = lane_of(&q, 2);
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
            let lane = lane_of(&q, 4);
            let mut lane_seqs = Vec::new();
            let mut from = 0;
            while let Some(i) = lane.first_le(from, ALIVE_LIMIT) {
                lane_seqs.push(lane.seq_at(i));
                from = i + 1;
            }
            let map_seqs: Vec<u64> = q
                .iter()
                .map(|(p, _)| q.lane(p.lane).seq_at(p.slot))
                .collect();
            assert_eq!(lane_seqs, map_seqs);
        }
    }

    #[test]
    fn estimates_are_indexed_at_site_speed() {
        let mut q = BackfillQueue::new();
        q.push_back(job(0, 4, 100));
        q.integrate(2.0); // twice the reference speed → 50 s estimate
        let lane = lane_of(&q, 4);
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
