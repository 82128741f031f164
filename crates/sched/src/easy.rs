//! EASY backfill (Lifka 1995): the decision passes of a
//! [`QueueScheduler`] at reservation depth one.
//!
//! The queue head gets a *reservation* at the earliest instant enough cores
//! will be free (by running-job estimates). Any other queued job may start
//! immediately if it fits in the currently free cores **and** doesn't delay
//! that reservation — either because it will finish (by estimate) before the
//! reservation time, or because it only uses cores the reservation doesn't
//! need ("extra" cores).
//!
//! EASY is what most TeraGrid-era sites actually ran, and is the scheduler
//! the F3 wait-time experiment centers on.

use crate::backfill_queue::{Place, ALIVE_LIMIT};
use crate::batch::QueueScheduler;
use crate::queue::{shadow, Started};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tg_des::span::WaitCause;
use tg_des::SimTime;
use tg_model::Cluster;

impl QueueScheduler {
    /// Decision pass under a drain horizon (an armed outage notice, or the
    /// weekly-drain wall): start queued jobs in order whenever they fit
    /// *and* are estimated to finish by `horizon`. No head reservation —
    /// the head may be exactly the job that cannot finish in time, and
    /// reserving cores for it would idle the machine for work the drain
    /// will stop anyway.
    ///
    /// The pass is the backfill lane merge with every lane's limit set to
    /// the time left, `horizon − now`, and no job exempt: it visits only
    /// jobs that start, plus one boundary probe per lane, instead of the
    /// whole queue on every pass of a notice window. `now + est ≤ horizon`
    /// (saturating) holds exactly when `est ≤ horizon − now`, or always
    /// for a horizon at [`SimTime::MAX`]; past the horizon nothing starts.
    pub(crate) fn drain_pass(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        horizon: SimTime,
        started: &mut Vec<Started>,
    ) {
        self.queue.integrate(core_speed);
        // Jobs need ≥1 core, so a saturated cluster can start nothing.
        let Some(left) = horizon.checked_since(now) else {
            return;
        };
        if cluster.free_cores() == 0 {
            return;
        }
        let limit = if horizon == SimTime::MAX {
            ALIVE_LIMIT
        } else {
            left.as_micros() as u128
        };
        self.pick_in_queue_order(now, cluster, limit, 0, None);
        let mut picked = std::mem::take(&mut self.queue.picked);
        for place in picked.drain(..) {
            let job = self.queue.take(place);
            self.record_start(now, core_speed, job, WaitCause::DrainWindow, started);
        }
        self.queue.picked = picked;
    }

    /// One EASY decision pass: FCFS starts, head reservation, then
    /// reservation-respecting backfill. Every Phase-3 start (a job
    /// overtaking the blocked head) counts as a backfill.
    ///
    /// Phase 3 visits candidates through the queue's per-width lanes
    /// instead of walking the whole queue ([`QueueScheduler::pick_in_queue_order`]),
    /// so the decisions — picks, start order, core/extra accounting — are
    /// bit-identical to the naive walk that [`crate::reference::NaiveEasy`]
    /// retains (the differential suite proves it). Cost per pass:
    /// O((picks + distinct widths) · log queue).
    pub(crate) fn easy_pass(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        core_speed: f64,
        started: &mut Vec<Started>,
    ) {
        // Phase 1: start queue heads FCFS-style while they fit.
        self.head_pass(now, cluster, core_speed, None, started);
        let Some(head) = self.queue.head() else {
            return;
        };
        // Saturated cluster: every queued job needs ≥1 core, so neither the
        // reservation (pure computation) nor the backfill scan can start
        // anything — skip both. Decisions are untouched; only the walk that
        // would have picked nothing is avoided.
        if cluster.free_cores() == 0 {
            return;
        }
        // Phase 2: reservation for the (blocked) head. Cores free at the
        // shadow time beyond what the head needs: a backfilled job running
        // past the shadow may use only these.
        let head_cores = self.queue.get(head).cores;
        let (shadow, free_at_shadow) = shadow(now, cluster.free_cores(), head_cores, &self.running);
        let extra = free_at_shadow.saturating_sub(head_cores);
        // Phase 3: backfill. `shadow ≥ now` always (the shadow walk
        // clamps), so `est ≤ shadow − now` in integer microseconds is
        // exactly the naive `now + est ≤ shadow` test.
        let short_limit = shadow.saturating_since(now).as_micros() as u128;
        self.pick_in_queue_order(now, cluster, short_limit, extra, Some(head));
        // Overtaking jobs waited only until a hole opened up. Removal is
        // deferred so places stay valid during the scan; the picks are in
        // queue order, preserving the naive start order.
        let mut picked = std::mem::take(&mut self.queue.picked);
        self.backfilled += picked.len() as u64;
        for place in picked.drain(..) {
            let job = self.queue.take(place);
            self.record_start(now, core_speed, job, WaitCause::BackfillHole, started);
        }
        self.queue.picked = picked;
    }

    /// The lane merge behind both backfill and drain passes: walk the
    /// queue in order, as the naive scan does, acquiring cores for every
    /// job that fits the free pool and either runs at most `short_limit`
    /// (µs) or fits in the `extra` cores that remain (which it then uses
    /// up). `exempt` (the head holding the reservation) never starts. The
    /// picks land in `queue.picked`, in queue order.
    ///
    /// Lanes wider than the free pool are never consulted (free cores only
    /// shrink while picking), and a lane wider than the remaining `extra`
    /// yields only jobs within `short_limit`. A min-heap over one candidate
    /// per lane merges the lanes back into queue order.
    fn pick_in_queue_order(
        &mut self,
        now: SimTime,
        cluster: &mut Cluster,
        short_limit: u128,
        mut extra: usize,
        exempt: Option<Place>,
    ) {
        let queue = &mut self.queue;
        // A lane no wider than `extra` may yield any live job; a wider lane
        // only jobs within the short limit.
        let lane_limit = |w: usize, extra: usize| {
            if w <= extra {
                ALIVE_LIMIT
            } else {
                short_limit
            }
        };
        // Both buffers are the queue's, borrowed for the pass.
        let mut heap = std::mem::take(&mut queue.merge);
        let mut picked = std::mem::take(&mut queue.picked);
        for (l, lane) in queue.lanes_up_to(cluster.free_cores()) {
            let Some(first) = lane.first_live() else {
                continue;
            };
            if let Some(slot) = lane.first_le(first, lane_limit(lane.width(), extra)) {
                heap.push(Reverse((lane.seq_at(slot), Place { lane: l, slot })));
            }
        }
        while let Some(Reverse((_, p))) = heap.pop() {
            let lane = queue.lane(p.lane);
            let w = lane.width();
            if !cluster.can_fit(w) {
                // Free cores only shrink during the pass: this lane is done.
                continue;
            }
            let next = |limit: u128, heap: &mut BinaryHeap<_>| {
                if let Some(slot) = lane.first_le(p.slot + 1, limit) {
                    heap.push(Reverse((lane.seq_at(slot), Place { slot, ..p })));
                }
            };
            if exempt == Some(p) {
                // The head holds the reservation; it never backfills.
                next(lane_limit(w, extra), &mut heap);
                continue;
            }
            if lane.est_at(p.slot) > short_limit {
                // Runs past the reservation: only `extra` cores may serve it.
                if w > extra {
                    // Candidate staled by a shrunk `extra`: from here this
                    // lane can only start reservation-safe (short) jobs.
                    next(short_limit, &mut heap);
                    continue;
                }
                extra -= w;
            }
            assert!(cluster.acquire(now, w), "can_fit said yes");
            picked.push(p);
            next(lane_limit(w, extra), &mut heap);
        }
        queue.merge = heap;
        queue.picked = picked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Depth;
    use crate::queue::{decide, BatchScheduler, QueuedJob};
    use tg_des::SimDuration;
    use tg_workload::{Job, JobId, ProjectId, UserId};

    fn easy() -> QueueScheduler {
        QueueScheduler::new(Depth::One)
    }

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

    /// The canonical EASY scenario: a blocked wide head plus a short narrow
    /// job that finishes before the reservation → backfills.
    #[test]
    fn short_job_backfills_ahead_of_blocked_head() {
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 1000)); // starts
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 8, 100)); // blocked head → reservation at t=1000
        s.submit(SimTime::ZERO, job(2, 4, 500)); // fits free 4, ends 500 ≤ 1000 → backfill
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));
        assert_eq!(s.queue_len(), 1, "head still waits");
    }

    #[test]
    fn backfill_may_not_delay_the_reservation() {
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 1000));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 8, 100)); // reservation at t=1000 needs 8 cores
                                                 // Runs past the shadow and would eat cores the reservation needs
                                                 // (free at shadow = 10, extra = 2 < 4):
        s.submit(SimTime::ZERO, job(2, 4, 5000));
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert!(started.is_empty(), "long wide job must not backfill");
    }

    #[test]
    fn long_narrow_job_backfills_into_extra_cores() {
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 1000));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 8, 100)); // extra = 10 - 8 = 2
        s.submit(SimTime::ZERO, job(2, 2, 9999)); // narrow enough for extra
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));
    }

    #[test]
    fn extra_cores_are_consumed_by_backfills() {
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 1000));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 8, 100));
        s.submit(SimTime::ZERO, job(2, 2, 9999)); // takes both extra cores
        s.submit(SimTime::ZERO, job(3, 2, 9999)); // no extra left → waits
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2));
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn reservation_honored_on_completion() {
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 1000));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 8, 100));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        // Head's reservation comes due.
        let t = SimTime::from_secs(1000);
        c.release(t, 6);
        s.on_complete(t, &st[0]);
        let started = decide(&mut s, t, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(1));
        assert_eq!(
            started[0].cause,
            tg_des::span::WaitCause::AheadInQueue,
            "delayed head start is attributed to queue order"
        );
    }

    #[test]
    fn fifo_among_backfill_candidates() {
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 1000));
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        s.submit(SimTime::ZERO, job(1, 8, 100));
        s.submit(SimTime::ZERO, job(2, 3, 500));
        s.submit(SimTime::ZERO, job(3, 3, 500)); // only one of 2,3 fits (free=4)
        let started = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(2), "earlier candidate wins");
    }

    #[test]
    fn wait_causes_distinguish_immediate_from_backfill() {
        use tg_des::span::WaitCause;
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 1000));
        let st = decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(st[0].cause, WaitCause::Immediate, "started at submission");
        s.submit(SimTime::ZERO, job(1, 8, 100)); // blocked head
        s.submit(SimTime::ZERO, job(2, 4, 500));
        // Decision round later than submission: the overtake is a backfill
        // and the wait is attributed to the hole that finally opened.
        let st = decide(&mut s, SimTime::from_secs(5), &mut c, 1.0);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].job.id, JobId(2));
        assert_eq!(st[0].cause, WaitCause::BackfillHole);
    }

    #[test]
    fn drain_notice_blocks_jobs_that_would_outlive_the_outage() {
        use tg_des::span::WaitCause;
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.drain_notice(Some(SimTime::from_secs(300)));
        s.submit(SimTime::ZERO, job(0, 4, 1000)); // would outlive the outage
        s.submit(SimTime::ZERO, job(1, 4, 100)); // finishes in time
        let started = decide(&mut s, SimTime::from_secs(5), &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(1), "only the short job starts");
        assert_eq!(started[0].cause, WaitCause::DrainWindow);
        assert_eq!(s.queue_len(), 1);
        // Lifting the notice restores normal EASY behavior.
        s.drain_notice(None);
        let started = decide(&mut s, SimTime::from_secs(10), &mut c, 1.0);
        assert_eq!(started.len(), 1);
        assert_eq!(started[0].job.id, JobId(0));
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 4);
        assert!(decide(&mut s, SimTime::ZERO, &mut c, 1.0).is_empty());
    }

    #[test]
    fn backfill_counter_counts_only_overtakes() {
        let mut s = easy();
        let mut c = Cluster::new(SimTime::ZERO, 10);
        s.submit(SimTime::ZERO, job(0, 6, 1000)); // FCFS start — not a backfill
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(s.backfills(), 0);
        s.submit(SimTime::ZERO, job(1, 8, 100)); // blocked head
        s.submit(SimTime::ZERO, job(2, 4, 500)); // overtakes → backfill
        decide(&mut s, SimTime::ZERO, &mut c, 1.0);
        assert_eq!(s.backfills(), 1);
        assert_eq!(s.drains(), 0, "EASY has no drain mechanism");
    }
}
