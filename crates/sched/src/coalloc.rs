//! Cross-site co-allocation planning.
//!
//! The federation's metascheduling promise beyond site *selection* is
//! *co-allocation*: a single computation holding cores at several sites
//! **simultaneously** (coupled multi-physics runs, grid-MPI jobs). The
//! planner finds the earliest instant at which every participating site can
//! provide its share for the full duration, using the same availability
//! profiles conservative backfill maintains. It plans only; holding the
//! agreed window would take advance reservations, which no site scheduler
//! here grants.
//!
//! The algorithm is the classic fixed-point iteration: start from the
//! earliest bound, ask every site for its earliest feasible slot at or
//! after the candidate, advance the candidate to the latest answer, and
//! repeat until all sites agree. Each round either terminates or advances
//! the candidate past at least one profile breakpoint, so the iteration is
//! finite.
//!
//! What co-allocation *costs* is exactly the gap this module exposes: the
//! agreed start is never earlier than any single site's own earliest slot,
//! and the T6 experiment measures that slack as load and site count grow.

use crate::conservative::Profile;
use tg_des::{SimDuration, SimTime};
use tg_model::SiteId;

/// One co-allocation request: simultaneous core shares at several sites.
#[derive(Debug, Clone, PartialEq)]
pub struct CoallocRequest {
    /// `(site, cores)` shares; sites must be distinct.
    pub parts: Vec<(SiteId, usize)>,
    /// How long all parts are held together.
    pub duration: SimDuration,
}

impl CoallocRequest {
    /// A request over distinct sites. Panics on duplicates, empty parts,
    /// zero cores, or zero duration — all caller bugs.
    pub fn new(parts: Vec<(SiteId, usize)>, duration: SimDuration) -> Self {
        assert!(!parts.is_empty(), "co-allocation needs parts");
        assert!(!duration.is_zero(), "duration must be positive");
        assert!(parts.iter().all(|&(_, c)| c > 0), "zero-core part");
        let mut sites: Vec<SiteId> = parts.iter().map(|&(s, _)| s).collect();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), parts.len(), "duplicate site in request");
        CoallocRequest { parts, duration }
    }
}

/// The planner's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoallocPlan {
    /// The agreed simultaneous start.
    pub start: SimTime,
    /// The latest instant any single site could have started its part alone
    /// — `start - max_single_site_start` is the coordination slack.
    pub max_single_site_start: SimTime,
}

impl CoallocPlan {
    /// Extra waiting imposed by the simultaneity requirement, beyond the
    /// slowest site's own earliest start.
    pub fn coordination_slack(&self) -> SimDuration {
        self.start.saturating_since(self.max_single_site_start)
    }
}

/// Find the earliest common start for `request` at or after `earliest`,
/// against per-site `profiles` (indexed by `SiteId`). Returns `None` if any
/// part can never fit.
pub fn plan_coallocation(
    profiles: &[Profile],
    request: &CoallocRequest,
    earliest: SimTime,
) -> Option<CoallocPlan> {
    // Individual earliest starts (for the slack metric) — also an early-out
    // for infeasibility.
    let mut max_single = earliest;
    for &(site, cores) in &request.parts {
        let t = profiles[site.index()].find_slot(earliest, cores, request.duration);
        if t == SimTime::MAX {
            return None;
        }
        max_single = max_single.max(t);
    }
    // Fixed-point iteration for the common start.
    let mut candidate = max_single;
    loop {
        let mut next = candidate;
        for &(site, cores) in &request.parts {
            let t = profiles[site.index()].find_slot(next, cores, request.duration);
            if t == SimTime::MAX {
                return None;
            }
            next = next.max(t);
        }
        if next == candidate {
            return Some(CoallocPlan {
                start: candidate,
                max_single_site_start: max_single,
            });
        }
        candidate = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(total: usize, occupied: &[(u64, usize)]) -> Profile {
        let mut p = Profile::new(SimTime::ZERO, total);
        for &(until_s, cores) in occupied {
            p.occupy_until(SimTime::from_secs(until_s), cores);
        }
        p
    }

    fn req(parts: &[(usize, usize)], dur_s: u64) -> CoallocRequest {
        CoallocRequest::new(
            parts.iter().map(|&(s, c)| (SiteId(s), c)).collect(),
            SimDuration::from_secs(dur_s),
        )
    }

    #[test]
    fn empty_sites_coallocate_immediately() {
        let profiles = vec![profile(64, &[]), profile(32, &[])];
        let plan = plan_coallocation(&profiles, &req(&[(0, 16), (1, 16)], 600), SimTime::ZERO)
            .expect("feasible");
        assert_eq!(plan.start, SimTime::ZERO);
        assert_eq!(plan.coordination_slack(), SimDuration::ZERO);
    }

    #[test]
    fn common_start_waits_for_the_slowest_site() {
        // Site 0 free now; site 1 fully busy until t=1000.
        let profiles = vec![profile(64, &[]), profile(32, &[(1000, 32)])];
        let plan = plan_coallocation(&profiles, &req(&[(0, 16), (1, 16)], 600), SimTime::ZERO)
            .expect("feasible");
        assert_eq!(plan.start, SimTime::from_secs(1000));
        assert_eq!(plan.max_single_site_start, SimTime::from_secs(1000));
        assert_eq!(plan.coordination_slack(), SimDuration::ZERO);
    }

    #[test]
    fn slack_appears_when_windows_fail_to_overlap() {
        // Site 0 has a hole [0, 500) then is busy [500, 2000).
        // Site 1 is busy [0, 600) then free.
        // Individually: site 0 could start at 0 (600 s job doesn't fit the
        // 500 s hole → actually at 2000); site 1 at 600.
        let mut p0 = Profile::new(SimTime::ZERO, 32);
        p0.reserve(SimTime::from_secs(500), SimDuration::from_secs(1500), 32);
        let p1 = profile(32, &[(600, 32)]);
        let profiles = vec![p0, p1];
        let plan = plan_coallocation(&profiles, &req(&[(0, 16), (1, 16)], 600), SimTime::ZERO)
            .expect("feasible");
        // Site 0's earliest for 600 s is t=2000 (hole too short); common
        // start is 2000. Slack vs the slowest individual (2000) is zero here;
        // craft a case with real slack below.
        assert_eq!(plan.start, SimTime::from_secs(2000));

        // Real slack: site 0 free only [0, 500) and [3000, ∞); site 1 free
        // only [500, 1100) and [2000, ∞). Individual earliest: site0 = 0
        // (fits [0,500)? 600 s doesn't fit → 3000)… make durations line up:
        let mut a = Profile::new(SimTime::ZERO, 16);
        a.reserve(SimTime::from_secs(500), SimDuration::from_secs(2500), 16); // busy [500,3000)
        let mut b = Profile::new(SimTime::ZERO, 16);
        b.reserve(SimTime::ZERO, SimDuration::from_secs(500), 16); // busy [0,500)
        b.reserve(SimTime::from_secs(1100), SimDuration::from_secs(900), 16); // busy [1100,2000)
        let profiles = vec![a, b];
        let plan = plan_coallocation(&profiles, &req(&[(0, 8), (1, 8)], 400), SimTime::ZERO)
            .expect("feasible");
        // Individually: a starts at 0 ([0,500) fits 400 s); b at 500
        // ([500,1100) fits). Together: a's window [0,500) and b's [500,1100)
        // don't overlap → first common window starts at 3000.
        assert_eq!(plan.start, SimTime::from_secs(3000));
        assert_eq!(plan.max_single_site_start, SimTime::from_secs(500));
        assert_eq!(plan.coordination_slack(), SimDuration::from_secs(2500));
    }

    #[test]
    fn infeasible_part_yields_none() {
        let profiles = vec![profile(8, &[]), profile(8, &[])];
        assert_eq!(
            plan_coallocation(&profiles, &req(&[(0, 4), (1, 16)], 60), SimTime::ZERO),
            None
        );
    }

    #[test]
    #[should_panic(expected = "duplicate site")]
    fn duplicate_sites_rejected() {
        req(&[(0, 4), (0, 4)], 60);
    }
}
