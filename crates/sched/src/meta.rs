//! Cross-site metascheduling: choosing where an unpinned job goes.
//!
//! Policies mirror the resource-selection tools TeraGrid offered its users:
//!
//! * [`MetaPolicy::Random`] — the null policy (what an uninformed user does).
//! * [`MetaPolicy::LeastLoaded`] — most free cores right now.
//! * [`MetaPolicy::ShortestEta`] — minimize an estimated time-to-start
//!   derived from queued work ahead of the job.
//! * [`MetaPolicy::DataAware`] — [`MetaPolicy::ShortestEta`] plus the input-
//!   staging transfer time from the data's home site.
//! * [`MetaPolicy::DataLocality`] — replica-catalog aware: route to a site
//!   already holding the job's dataset when one is feasible, otherwise fall
//!   back to a transfer-cost-weighted choice from the nearest replica.
//!
//! The metascheduler works on [`SiteView`] snapshots so it can be tested
//! without a simulation, and never sees scheduler internals. Replica
//! locations reach it through a [`DataContext`] snapshot for the same
//! reason.

use serde::{Deserialize, Serialize};
use tg_des::{SimDuration, SimRng};
use tg_model::{Network, SiteId};
use tg_workload::Job;

/// A snapshot of one site as the metascheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteView {
    /// The site.
    pub site: SiteId,
    /// Total batch cores.
    pub total_cores: usize,
    /// Cores free right now.
    pub free_cores: usize,
    /// Core-seconds of *estimated* work queued ahead (sum over queued jobs of
    /// `cores × estimate`).
    pub queued_core_seconds: f64,
    /// Relative core speed.
    pub core_speed: f64,
}

impl SiteView {
    /// Crude expected time-to-start for a job needing `cores`: zero if they
    /// are free now, else the queued work divided by machine throughput.
    ///
    /// This is the deliberately simple ETA heuristic of the selection tools
    /// the paper's era shipped — not a queue simulation.
    pub fn eta(&self, cores: usize) -> SimDuration {
        if cores <= self.free_cores {
            return SimDuration::ZERO;
        }
        let throughput = self.total_cores as f64 * self.core_speed.max(1e-9);
        SimDuration::from_secs_f64(self.queued_core_seconds / throughput)
    }
}

/// What the metascheduler knows about a job's dataset at selection time:
/// which sites currently hold a copy (permanent replica or warm cache) and
/// how large it is. Snapshot semantics, like [`SiteView`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataContext<'a> {
    /// Sites holding the dataset right now, sorted by site index.
    pub resident: &'a [SiteId],
    /// Dataset size in MB (what a miss would move over the WAN).
    pub size_mb: f64,
}

/// Site-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum MetaPolicy {
    /// Uniformly random among sites that can ever fit the job.
    Random,
    /// The site with the most free cores.
    LeastLoaded,
    /// The site with the smallest [`SiteView::eta`].
    ShortestEta,
    /// ETA plus input-staging time from `data_home`.
    DataAware,
    /// Replica-catalog aware: prefer the minimum-ETA feasible site already
    /// holding the job's dataset; when none is feasible, weight every site
    /// by ETA plus the WAN fetch time from its nearest replica. Jobs
    /// without a dataset fall back to [`MetaPolicy::DataAware`] behaviour.
    DataLocality,
}

impl MetaPolicy {
    /// All policies, for sweeps.
    pub const ALL: [MetaPolicy; 5] = [
        MetaPolicy::Random,
        MetaPolicy::LeastLoaded,
        MetaPolicy::ShortestEta,
        MetaPolicy::DataAware,
        MetaPolicy::DataLocality,
    ];

    /// Stable short name.
    pub fn name(self) -> &'static str {
        match self {
            MetaPolicy::Random => "random",
            MetaPolicy::LeastLoaded => "least-loaded",
            MetaPolicy::ShortestEta => "eta",
            MetaPolicy::DataAware => "data-aware",
            MetaPolicy::DataLocality => "data-locality",
        }
    }

    /// Choose a site for `job`. `data_home` is where the job's input lives
    /// (used by [`MetaPolicy::DataAware`]); `network` prices the staging;
    /// `data` carries the job's replica locations when the scenario runs a
    /// data grid (used by [`MetaPolicy::DataLocality`], ignored by the
    /// rest). `rng` derives the random stream; only [`MetaPolicy::Random`]
    /// calls it, so the others pay nothing for a stream they never draw
    /// from. Returns `None` if no site can ever fit the job.
    pub fn select(
        self,
        job: &Job,
        views: &[SiteView],
        data_home: SiteId,
        network: &Network,
        data: Option<&DataContext>,
        rng: impl FnOnce() -> SimRng,
    ) -> Option<SiteId> {
        // Walked lazily: only `Random` needs the feasible sites as a slice.
        let mut feasible = views
            .iter()
            .filter(|v| job.cores <= v.total_cores)
            .peekable();
        feasible.peek()?;
        let chosen = match self {
            MetaPolicy::Random => *rng().pick(&feasible.collect::<Vec<_>>()),
            MetaPolicy::LeastLoaded => feasible
                .max_by_key(|v| (v.free_cores, std::cmp::Reverse(v.site)))
                .expect("non-empty"),
            MetaPolicy::ShortestEta => feasible
                .min_by(|a, b| {
                    // Equal ETAs (usually both zero) break toward the freer
                    // machine so idle capacity spreads instead of piling
                    // onto the lowest site id.
                    a.eta(job.cores)
                        .cmp(&b.eta(job.cores))
                        .then(b.free_cores.cmp(&a.free_cores))
                        .then(a.site.cmp(&b.site))
                })
                .expect("non-empty"),
            MetaPolicy::DataAware => feasible
                .min_by(|a, b| {
                    let cost = |v: &SiteView| {
                        v.eta(job.cores) + network.transfer_time(data_home, v.site, job.input_mb)
                    };
                    cost(a).cmp(&cost(b)).then(a.site.cmp(&b.site))
                })
                .expect("non-empty"),
            MetaPolicy::DataLocality => {
                let resident = data.map(|d| d.resident).unwrap_or(&[]);
                if resident.is_empty() {
                    // No dataset (or nothing resident yet): behave like
                    // DataAware so mixed workloads still route sensibly.
                    return MetaPolicy::DataAware.select(job, views, data_home, network, data, rng);
                }
                let holder = feasible
                    .clone()
                    .filter(|v| resident.binary_search(&v.site).is_ok())
                    .min_by(|a, b| {
                        a.eta(job.cores)
                            .cmp(&b.eta(job.cores))
                            .then(a.site.cmp(&b.site))
                    });
                if let Some(v) = holder {
                    v
                } else {
                    // No feasible holder: weigh every site by ETA plus the
                    // cheapest replica fetch it would trigger.
                    let size = data.map(|d| d.size_mb).unwrap_or(job.input_mb);
                    feasible
                        .min_by(|a, b| {
                            let cost = |v: &SiteView| {
                                let fetch = resident
                                    .iter()
                                    .map(|&r| network.transfer_time(r, v.site, size))
                                    .min()
                                    .unwrap_or(SimDuration::ZERO);
                                v.eta(job.cores) + fetch
                            };
                            cost(a).cmp(&cost(b)).then(a.site.cmp(&b.site))
                        })
                        .expect("non-empty")
                }
            }
        };
        Some(chosen.site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_des::{SimRng, SimTime};
    use tg_model::network::Uplink;
    use tg_workload::{JobId, ProjectId, UserId};

    fn job(cores: usize, input_mb: f64) -> Job {
        Job::batch(
            JobId(0),
            UserId(0),
            ProjectId(0),
            SimTime::ZERO,
            cores,
            tg_des::SimDuration::from_secs(3600),
        )
        .with_data(input_mb, 0.0)
    }

    fn views() -> Vec<SiteView> {
        vec![
            SiteView {
                site: SiteId(0),
                total_cores: 1000,
                free_cores: 10,
                queued_core_seconds: 8.0e6,
                core_speed: 1.0,
            },
            SiteView {
                site: SiteId(1),
                total_cores: 500,
                free_cores: 200,
                queued_core_seconds: 1.0e6,
                core_speed: 1.0,
            },
            SiteView {
                site: SiteId(2),
                total_cores: 100,
                free_cores: 0,
                queued_core_seconds: 0.5e6,
                core_speed: 2.0,
            },
        ]
    }

    fn net() -> Network {
        let mut n = Network::new();
        n.add_uplink(Uplink::new(1000.0, 10.0));
        n.add_uplink(Uplink::new(1000.0, 10.0));
        n.add_uplink(Uplink::new(10.0, 10.0)); // site2 has a thin pipe
        n
    }

    #[test]
    fn eta_zero_when_cores_free() {
        let v = views()[1];
        assert_eq!(v.eta(100), SimDuration::ZERO);
        assert!(v.eta(400) > SimDuration::ZERO);
    }

    #[test]
    fn least_loaded_picks_most_free() {
        let rng = || SimRng::seeded(1);
        let s = MetaPolicy::LeastLoaded
            .select(&job(50, 0.0), &views(), SiteId(0), &net(), None, rng)
            .unwrap();
        assert_eq!(s, SiteId(1));
    }

    #[test]
    fn shortest_eta_prefers_free_cores_then_light_queue() {
        let rng = || SimRng::seeded(2);
        // 50 cores: free at site1 (eta 0) → site1.
        let s = MetaPolicy::ShortestEta
            .select(&job(50, 0.0), &views(), SiteId(0), &net(), None, rng)
            .unwrap();
        assert_eq!(s, SiteId(1));
        // 90 cores: site0 eta 8e6/1000=8000 s; site1 free → 0; site2 eta
        // 0.5e6/200=2500 s. Site1 wins again.
        let s = MetaPolicy::ShortestEta
            .select(&job(90, 0.0), &views(), SiteId(0), &net(), None, rng)
            .unwrap();
        assert_eq!(s, SiteId(1));
        // 300 cores: only sites 0,1 feasible; site0 eta 8000, site1 eta 2000.
        let s = MetaPolicy::ShortestEta
            .select(&job(300, 0.0), &views(), SiteId(0), &net(), None, rng)
            .unwrap();
        assert_eq!(s, SiteId(1));
    }

    #[test]
    fn random_respects_feasibility() {
        for seed in 0..100 {
            let s = MetaPolicy::Random
                .select(&job(600, 0.0), &views(), SiteId(0), &net(), None, || {
                    SimRng::seeded(seed)
                })
                .unwrap();
            assert_eq!(s, SiteId(0), "only site0 fits 600 cores");
        }
        let mut seen = std::collections::HashSet::new();
        for seed in 0..200 {
            seen.insert(
                MetaPolicy::Random
                    .select(&job(10, 0.0), &views(), SiteId(0), &net(), None, || {
                        SimRng::seeded(seed)
                    })
                    .unwrap(),
            );
        }
        assert_eq!(seen.len(), 3, "all feasible sites eventually chosen");
    }

    #[test]
    fn infeasible_everywhere_is_none() {
        let rng = || SimRng::seeded(4);
        assert_eq!(
            MetaPolicy::ShortestEta.select(
                &job(10_000, 0.0),
                &views(),
                SiteId(0),
                &net(),
                None,
                rng
            ),
            None
        );
    }

    #[test]
    fn data_aware_avoids_thin_pipes_for_big_inputs() {
        let rng = || SimRng::seeded(5);
        // Big input at site0; site2 would be fastest by ETA for small jobs
        // queued there... craft: job of 50 cores: ETA site1=0 so site1 wins
        // under both; instead compare against eta policy on 90-core job with
        // data at site2 and huge input: data-aware should stay at site2's
        // neighbours... Use explicit check: cost(site1) includes transfer
        // from site0 (fat pipes, cheap); cost(site2) would include thin pipe.
        let big = job(90, 100_000.0);
        let s = MetaPolicy::DataAware
            .select(&big, &views(), SiteId(0), &net(), None, rng)
            .unwrap();
        assert_eq!(s, SiteId(1), "fat-pipe site with zero ETA wins");
        // Data already at site2 and job fits there: transfer to site2 is
        // free; to site1 it crosses the thin pipe (10 MB/s → 10,000 s).
        let local = job(90, 100_000.0);
        let s = MetaPolicy::DataAware
            .select(&local, &views(), SiteId(2), &net(), None, rng)
            .unwrap();
        assert_eq!(s, SiteId(2), "keeping compute near data wins");
    }

    #[test]
    fn data_locality_routes_to_replica_holders() {
        let rng = || SimRng::seeded(6);
        // The dataset sits at sites 0 and 2; a 90-core job fits all three
        // sites. Holder ETAs: site0 8000 s, site2 2500 s → site2 wins even
        // though site1 has zero ETA, because site1 would pay a WAN fetch.
        let ctx = DataContext {
            resident: &[SiteId(0), SiteId(2)],
            size_mb: 5_000.0,
        };
        let s = MetaPolicy::DataLocality
            .select(&job(90, 0.0), &views(), SiteId(0), &net(), Some(&ctx), rng)
            .unwrap();
        assert_eq!(s, SiteId(2), "min-ETA replica holder wins");
        // 300 cores: site2 infeasible, so holders = {site0}. Site0 wins over
        // the empty site1 because holding the data beats fetching it.
        let s = MetaPolicy::DataLocality
            .select(&job(300, 0.0), &views(), SiteId(0), &net(), Some(&ctx), rng)
            .unwrap();
        assert_eq!(s, SiteId(0), "feasible holder preferred over non-holder");
        // Only a thin-piped holder: 600 cores fits only site0; site0 holds
        // nothing, the fallback weighs fetch cost and still must pick it.
        let ctx2 = DataContext {
            resident: &[SiteId(2)],
            size_mb: 5_000.0,
        };
        let s = MetaPolicy::DataLocality
            .select(
                &job(600, 0.0),
                &views(),
                SiteId(0),
                &net(),
                Some(&ctx2),
                rng,
            )
            .unwrap();
        assert_eq!(s, SiteId(0), "fallback picks the only feasible site");
    }

    #[test]
    fn data_locality_without_a_dataset_matches_data_aware() {
        for (cores, mb, home) in [(90usize, 100_000.0, 2usize), (50, 0.0, 0), (300, 10.0, 1)] {
            let a = MetaPolicy::DataAware.select(
                &job(cores, mb),
                &views(),
                SiteId(home),
                &net(),
                None,
                || SimRng::seeded(9),
            );
            let b = MetaPolicy::DataLocality.select(
                &job(cores, mb),
                &views(),
                SiteId(home),
                &net(),
                None,
                || SimRng::seeded(9),
            );
            assert_eq!(a, b, "cores={cores} mb={mb} home={home}");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MetaPolicy::Random.name(), "random");
        assert_eq!(MetaPolicy::DataAware.name(), "data-aware");
        assert_eq!(MetaPolicy::DataLocality.name(), "data-locality");
        assert_eq!(MetaPolicy::ALL.len(), 5);
    }
}
