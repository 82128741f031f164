//! Reconfigurable-task scheduling.
//!
//! A task with an [`RcRequirement`] has two implementations: a software
//! version that runs on ordinary cores, and a hardware kernel that runs
//! `speedup`× faster once a fabric region is configured. The scheduler's
//! job is to decide, per task: *which node*, *reuse or reconfigure*, and
//! *hardware or software at all* — trading the reconfiguration pipeline
//! (bitstream transfer + fabric programming) against the kernel speedup.
//!
//! Two poles, as in the reconfigurable-grid simulation literature:
//!
//! * **RC-blind** ([`RcPolicy::BLIND`]): treats RC nodes like ordinary
//!   processors — first node with room wins, hardware is always used,
//!   setup costs are not considered. This is what a traditional grid
//!   scheduler does when pointed at reconfigurable resources.
//! * **RC-aware** ([`RcPolicy::AWARE`]): seeks configuration *reuse* first,
//!   prices bitstream caching and eviction, packs best-fit to limit
//!   fragmentation, and falls back to the software version when hardware
//!   setup doesn't pay (or a deadline demands it).
//!
//! The policy is a pure function of the partition snapshot, so experiments
//! can sweep its knobs ([`Packing`], `seek_reuse`, `cost_aware`)
//! independently — these are exactly the F5–F7/T4 axes.
//!
//! [`RcRequirement`]: tg_workload::RcRequirement

use serde::{Deserialize, Serialize};
use tg_des::{SimDuration, SimTime};
use tg_model::reconf::{HostPlan, RcPartition, ReconfCost};
use tg_model::{ConfigId, ConfigLibrary, NodeId};
use tg_workload::Job;

/// How to choose among nodes that would need a fresh configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Packing {
    /// Lowest node index with room.
    FirstFit,
    /// Fewest evictions, then smallest leftover free area (tightest fit).
    BestFit,
}

/// A reconfigurable-task scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RcPolicy {
    /// Prefer idle regions already configured with the task's kernel.
    pub seek_reuse: bool,
    /// Node-selection rule for fresh configurations.
    pub packing: Packing,
    /// Compare hardware total time against the software version and honor
    /// deadlines; when off, hardware is always chosen if feasible.
    pub cost_aware: bool,
}

impl RcPolicy {
    /// The RC-blind baseline.
    pub const BLIND: RcPolicy = RcPolicy {
        seek_reuse: false,
        packing: Packing::FirstFit,
        cost_aware: false,
    };

    /// The full RC-aware policy.
    pub const AWARE: RcPolicy = RcPolicy {
        seek_reuse: true,
        packing: Packing::BestFit,
        cost_aware: true,
    };

    /// Stable short name for reports.
    pub fn name(&self) -> &'static str {
        match (self.seek_reuse, self.cost_aware, self.packing) {
            (false, false, Packing::FirstFit) => "rc-blind",
            (true, true, Packing::BestFit) => "rc-aware",
            (true, true, Packing::FirstFit) => "rc-aware-ff",
            (true, false, _) => "rc-reuse-only",
            _ => "rc-custom",
        }
    }
}

/// A fresh-configuration candidate's rank, lowest first: evictions,
/// leftover free area, setup latency, node id.
type Rank = (usize, u32, SimDuration, NodeId);

/// The scheduler's verdict for one task.
#[derive(Debug, Clone, PartialEq)]
pub enum RcDecision {
    /// Commit `plan` on `node` and run the hardware kernel; total setup
    /// latency is `setup` (zero on reuse).
    PlaceHw {
        /// Target node within the partition.
        node: NodeId,
        /// The placement plan to commit.
        plan: HostPlan,
        /// Setup latency before execution starts.
        setup: ReconfCost,
    },
    /// Run the software version on ordinary cores.
    RunSw,
    /// Nothing feasible right now; retry when a region frees up.
    Defer,
}

impl RcPolicy {
    /// Decide placement for `job` (which must carry an RC requirement)
    /// against a partition snapshot. `fetch_time` prices a bitstream fetch
    /// to this partition's site; `core_speed` converts reference runtimes.
    pub fn decide(
        &self,
        job: &Job,
        partition: &RcPartition,
        lib: &ConfigLibrary,
        fetch_time: impl Fn(ConfigId) -> SimDuration,
        now: SimTime,
        core_speed: f64,
    ) -> RcDecision {
        let rc = job.rc.expect("decide() called on a non-RC job");
        let config = rc.config;
        let need_area = lib.get(config).area;
        let sw_runtime = job.runtime_on(core_speed, false);
        let hw_runtime = job.runtime_on(core_speed, true);
        let deadline_abs = rc.deadline.map(|d| job.submit_time + d);

        // One pass over the nodes, allocation-free: the first node that
        // can reuse an idle region, and the best fresh configuration under
        // the packing rule. First-fit ranks by node id alone; best-fit by
        // fewest evictions, tightest leftover, cheapest setup, then node id.
        // Node ids are unique, so either order has exactly one minimum.
        let fetch = fetch_time(config);
        let mut reuse: Option<(NodeId, HostPlan)> = None;
        let mut configure: Option<(Rank, HostPlan, ReconfCost)> = None;
        for node in partition.iter() {
            let plan = node.plan(config, lib);
            let (cost, evictions, leftover) = match plan {
                HostPlan::Infeasible => continue,
                HostPlan::Reuse(_) => {
                    if reuse.is_none() {
                        reuse = Some((node.id(), plan));
                    }
                    // Aware policies take reuse outright (below); blind
                    // ones treat it as just another placement.
                    if self.seek_reuse {
                        continue;
                    }
                    (ReconfCost::default(), 0, node.free_area())
                }
                HostPlan::Configure { evictions, .. } => {
                    let cost = node.cost_of(&plan, config, lib, fetch);
                    let leftover = node
                        .free_area()
                        .saturating_add(evicted_area(&plan, node))
                        .saturating_sub(need_area);
                    (cost, evictions, leftover)
                }
            };
            let rank = match self.packing {
                Packing::FirstFit => (0, 0, SimDuration::ZERO, node.id()),
                Packing::BestFit => (evictions, leftover, cost.total(), node.id()),
            };
            match &configure {
                Some((best, ..)) if *best <= rank => {}
                _ => configure = Some((rank, plan, cost)),
            }
        }
        let configure = configure.map(|((.., node), plan, cost)| (node, plan, cost));

        // Aware: reuse wins outright (zero setup beats everything).
        let best = match reuse {
            Some((node, plan)) if self.seek_reuse => Some((node, plan, ReconfCost::default())),
            _ => configure,
        };

        match best {
            Some((node, plan, setup)) => {
                if !self.cost_aware {
                    return RcDecision::PlaceHw { node, plan, setup };
                }
                let hw_done = now + setup.total() + hw_runtime;
                let sw_done = now + sw_runtime;
                if let Some(deadline) = deadline_abs {
                    match (hw_done <= deadline, sw_done <= deadline) {
                        (true, _) => RcDecision::PlaceHw { node, plan, setup },
                        (false, true) => RcDecision::RunSw,
                        (false, false) => {
                            // Both miss: take the lesser evil.
                            if hw_done <= sw_done {
                                RcDecision::PlaceHw { node, plan, setup }
                            } else {
                                RcDecision::RunSw
                            }
                        }
                    }
                } else if hw_done <= sw_done {
                    RcDecision::PlaceHw { node, plan, setup }
                } else {
                    RcDecision::RunSw
                }
            }
            None => {
                // No node can host right now.
                let fits_somewhere = partition.iter().any(|n| n.area_total() >= need_area);
                if !fits_somewhere {
                    return RcDecision::RunSw; // never feasible on this fabric
                }
                if self.cost_aware {
                    if let Some(deadline) = deadline_abs {
                        if now + sw_runtime <= deadline {
                            return RcDecision::RunSw; // don't gamble on the queue
                        }
                    }
                }
                RcDecision::Defer
            }
        }
    }
}

/// Total area of the regions a plan would evict.
fn evicted_area(plan: &HostPlan, node: &tg_model::RcNode) -> u32 {
    match plan {
        HostPlan::Configure { evictions, .. } if *evictions > 0 => {
            // Eviction targets are idle regions; their area is part of the
            // node's configured-but-idle area. We can't read individual
            // region areas through the public API, so bound it by idle area —
            // exact enough for the leftover tie-break.
            node.idle_area_now()
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_model::config::ProcessorConfig;
    use tg_workload::{JobId, ProjectId, RcRequirement, UserId};

    fn lib() -> (ConfigLibrary, ConfigId, ConfigId) {
        let mut lib = ConfigLibrary::new();
        let mut a = ProcessorConfig::new("a", 4, 10.0);
        a.reconfig_time = SimDuration::from_secs(10);
        let mut b = ProcessorConfig::new("b", 6, 5.0);
        b.reconfig_time = SimDuration::from_secs(10);
        let a = lib.add(a);
        let b = lib.add(b);
        (lib, a, b)
    }

    fn rc_job(id: usize, config: ConfigId, speedup: f64, runtime_s: u64) -> Job {
        Job::batch(
            JobId(id),
            UserId(0),
            ProjectId(0),
            SimTime::ZERO,
            1,
            SimDuration::from_secs(runtime_s),
        )
        .with_rc(RcRequirement {
            config,
            speedup,
            deadline: None,
        })
    }

    fn no_fetch(_c: ConfigId) -> SimDuration {
        SimDuration::ZERO
    }

    #[test]
    fn aware_prefers_reuse_over_fresh_fabric() {
        let (lib, a, _) = lib();
        let mut p = RcPartition::new(SimTime::ZERO, 2, 8, 4);
        // Node 0 hosted `a` and finished → idle region with `a`.
        let plan = p.node(NodeId(0)).plan(a, &lib);
        let r = p.node_mut(NodeId(0)).commit(plan, a, &lib, SimTime::ZERO);
        p.node_mut(NodeId(0)).finish(r, SimTime::from_secs(5));
        let job = rc_job(1, a, 10.0, 3600);
        let d = RcPolicy::AWARE.decide(&job, &p, &lib, no_fetch, SimTime::from_secs(5), 1.0);
        match d {
            RcDecision::PlaceHw { node, setup, plan } => {
                assert_eq!(node, NodeId(0));
                assert_eq!(setup.total(), SimDuration::ZERO);
                assert!(matches!(plan, HostPlan::Reuse(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn blind_takes_first_node_regardless_of_reuse() {
        let (lib, a, _) = lib();
        let mut p = RcPartition::new(SimTime::ZERO, 3, 8, 4);
        // Node 2 has an idle region with `a`; blind still lands on node 0.
        let plan = p.node(NodeId(2)).plan(a, &lib);
        let r = p.node_mut(NodeId(2)).commit(plan, a, &lib, SimTime::ZERO);
        p.node_mut(NodeId(2)).finish(r, SimTime::from_secs(5));
        let job = rc_job(1, a, 10.0, 3600);
        let d = RcPolicy::BLIND.decide(&job, &p, &lib, no_fetch, SimTime::from_secs(5), 1.0);
        match d {
            RcDecision::PlaceHw { node, .. } => assert_eq!(node, NodeId(0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aware_falls_back_to_software_when_setup_dominates() {
        let (mut libr, a, _) = {
            let (l, a, b) = lib();
            (l, a, b)
        };
        // Make reconfiguration brutally slow.
        let huge = ProcessorConfig {
            reconfig_time: SimDuration::from_hours(10),
            ..libr.get(a).clone()
        };
        let mut l2 = ConfigLibrary::new();
        let a2 = l2.add(huge);
        libr = l2;
        let p = RcPartition::new(SimTime::ZERO, 2, 8, 4);
        // Short task: SW 60 s vs HW 6 s + 10 h setup.
        let job = rc_job(1, a2, 10.0, 60);
        let d = RcPolicy::AWARE.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0);
        assert_eq!(d, RcDecision::RunSw);
        // Blind ignores the cost and pays the 10 hours.
        let d = RcPolicy::BLIND.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0);
        assert!(matches!(d, RcDecision::PlaceHw { .. }));
    }

    #[test]
    fn fetch_time_counts_toward_the_crossover() {
        let (libr, a, _) = lib();
        let p = RcPartition::new(SimTime::ZERO, 1, 8, 4);
        // SW 100 s. HW runtime 10 s + reconfig 10 s = 20 s → HW wins with
        // free fetch; with a 200 s fetch, SW wins.
        let job = rc_job(1, a, 10.0, 100);
        let d = RcPolicy::AWARE.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0);
        assert!(matches!(d, RcDecision::PlaceHw { .. }));
        let slow_fetch = |_c: ConfigId| SimDuration::from_secs(200);
        let d = RcPolicy::AWARE.decide(&job, &p, &libr, slow_fetch, SimTime::ZERO, 1.0);
        assert_eq!(d, RcDecision::RunSw);
    }

    #[test]
    fn deadline_forces_software_when_hw_cannot_meet_it() {
        let (libr, a, _) = lib();
        let p = RcPartition::new(SimTime::ZERO, 1, 8, 4);
        let mut job = rc_job(1, a, 2.0, 100); // SW 100 s, HW 50+10 = 60 s
        job.rc = Some(RcRequirement {
            config: a,
            speedup: 2.0,
            deadline: Some(SimDuration::from_secs(55)),
        });
        // HW misses (60 > 55), SW also misses (100 > 55) → lesser evil = HW.
        let d = RcPolicy::AWARE.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0);
        assert!(matches!(d, RcDecision::PlaceHw { .. }));
        // Loosen to 120 s: HW meets (60 ≤ 120) → HW.
        job.rc.as_mut().unwrap().deadline = Some(SimDuration::from_secs(120));
        let d = RcPolicy::AWARE.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0);
        assert!(matches!(d, RcDecision::PlaceHw { .. }));
        // Deadline 70 with slow fetch: HW now 260 s (misses), SW 100 s
        // (misses 70 too)... use deadline 150: HW 260 misses, SW 100 meets.
        job.rc.as_mut().unwrap().deadline = Some(SimDuration::from_secs(150));
        let slow_fetch = |_c: ConfigId| SimDuration::from_secs(200);
        let d = RcPolicy::AWARE.decide(&job, &p, &libr, slow_fetch, SimTime::ZERO, 1.0);
        assert_eq!(d, RcDecision::RunSw);
    }

    #[test]
    fn defer_when_fabric_busy_and_no_deadline() {
        let (libr, a, b) = lib();
        let mut p = RcPartition::new(SimTime::ZERO, 1, 8, 4);
        // Fill the single node with two busy `a` regions (4+4 = 8).
        for _ in 0..2 {
            let plan = p.node(NodeId(0)).plan(a, &libr);
            p.node_mut(NodeId(0)).commit(plan, a, &libr, SimTime::ZERO);
        }
        let job = rc_job(9, b, 5.0, 3600);
        let d = RcPolicy::AWARE.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0);
        assert_eq!(d, RcDecision::Defer);
    }

    #[test]
    fn busy_fabric_with_deadline_prefers_sw_over_gambling() {
        let (libr, a, b) = lib();
        let mut p = RcPartition::new(SimTime::ZERO, 1, 8, 4);
        for _ in 0..2 {
            let plan = p.node(NodeId(0)).plan(a, &libr);
            p.node_mut(NodeId(0)).commit(plan, a, &libr, SimTime::ZERO);
        }
        let mut job = rc_job(9, b, 5.0, 3600);
        job.rc.as_mut().unwrap().deadline = Some(SimDuration::from_hours(2));
        let d = RcPolicy::AWARE.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0);
        assert_eq!(d, RcDecision::RunSw);
    }

    #[test]
    fn oversized_kernel_runs_in_software_forever() {
        let mut libr = ConfigLibrary::new();
        let giant = libr.add(ProcessorConfig::new("giant", 64, 100.0));
        let p = RcPartition::new(SimTime::ZERO, 4, 8, 4);
        let job = rc_job(1, giant, 100.0, 3600);
        for policy in [RcPolicy::AWARE, RcPolicy::BLIND] {
            assert_eq!(
                policy.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0),
                RcDecision::RunSw,
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn best_fit_prefers_tighter_node() {
        let (libr, a, b) = lib();
        let mut p = RcPartition::new(SimTime::ZERO, 2, 8, 4);
        // Node 0: one busy `b` region (6 area) → free 2 < 4, infeasible for a
        // without eviction... make it cleaner: node 0 busy a (4) → free 4
        // (tight); node 1 empty → free 8 (loose). Best-fit picks node 0.
        let plan = p.node(NodeId(0)).plan(a, &libr);
        p.node_mut(NodeId(0)).commit(plan, a, &libr, SimTime::ZERO);
        let job = rc_job(1, a, 10.0, 3600);
        // seek_reuse off so the busy region on node 0 doesn't matter; cost
        // equal on both nodes (same fetch/reconfig) → leftover decides.
        let policy = RcPolicy {
            seek_reuse: false,
            packing: Packing::BestFit,
            cost_aware: false,
        };
        match policy.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0) {
            RcDecision::PlaceHw { node, .. } => assert_eq!(node, NodeId(0), "tight fit wins"),
            other => panic!("{other:?}"),
        }
        // First-fit picks node 0 here too; flip the layout to separate them.
        let mut p2 = RcPartition::new(SimTime::ZERO, 2, 8, 4);
        let plan = p2.node(NodeId(1)).plan(a, &libr);
        p2.node_mut(NodeId(1)).commit(plan, a, &libr, SimTime::ZERO);
        match policy.decide(&job, &p2, &libr, no_fetch, SimTime::ZERO, 1.0) {
            RcDecision::PlaceHw { node, .. } => assert_eq!(node, NodeId(1), "tight fit wins"),
            other => panic!("{other:?}"),
        }
        let ff = RcPolicy {
            packing: Packing::FirstFit,
            ..policy
        };
        match ff.decide(&job, &p2, &libr, no_fetch, SimTime::ZERO, 1.0) {
            RcDecision::PlaceHw { node, .. } => {
                assert_eq!(node, NodeId(0), "first fit is index order")
            }
            other => panic!("{other:?}"),
        }
        let _ = b;
    }

    #[test]
    fn bitstream_cache_biases_best_fit_cost() {
        let (libr, a, _) = lib();
        let mut p = RcPartition::new(SimTime::ZERO, 2, 8, 4);
        // Node 1 has fetched `a` before (cache hit on reconfigure).
        let plan = p.node(NodeId(1)).plan(a, &libr);
        let r = p.node_mut(NodeId(1)).commit(plan, a, &libr, SimTime::ZERO);
        p.node_mut(NodeId(1)).finish(r, SimTime::from_secs(1));
        // Evict a's region from node 1 by hosting something else... instead,
        // turn off seek_reuse so the policy prices both nodes as Configure…
        // node 1's plan would be Reuse; with seek_reuse=false that's a free
        // candidate and wins on cost anyway — which is the point: cached
        // state makes node 1 cheaper.
        let policy = RcPolicy {
            seek_reuse: false,
            packing: Packing::BestFit,
            cost_aware: true,
        };
        let fetch = |_c: ConfigId| SimDuration::from_secs(300);
        let job = rc_job(3, a, 10.0, 7200);
        match policy.decide(&job, &p, &libr, fetch, SimTime::from_secs(2), 1.0) {
            RcDecision::PlaceHw { node, setup, .. } => {
                assert_eq!(node, NodeId(1));
                assert_eq!(setup.total(), SimDuration::ZERO);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn policy_names() {
        assert_eq!(RcPolicy::BLIND.name(), "rc-blind");
        assert_eq!(RcPolicy::AWARE.name(), "rc-aware");
    }

    #[test]
    #[should_panic(expected = "non-RC job")]
    fn non_rc_job_panics() {
        let (libr, _, _) = lib();
        let p = RcPartition::new(SimTime::ZERO, 1, 8, 4);
        let job = Job::batch(
            JobId(0),
            UserId(0),
            ProjectId(0),
            SimTime::ZERO,
            1,
            SimDuration::from_secs(10),
        );
        RcPolicy::AWARE.decide(&job, &p, &libr, no_fetch, SimTime::ZERO, 1.0);
    }
}
