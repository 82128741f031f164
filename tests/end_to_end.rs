//! Cross-crate integration: a full scenario run obeys conservation and
//! record-consistency invariants, end to end.

use std::collections::HashSet;
use teragrid_repro::prelude::*;
use tg_core::sim::COMMUNITY_ACCOUNT_BASE;

fn small_baseline() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::baseline(120, 7);
    cfg.sites[0].batch_nodes = 64;
    cfg.sites[1].batch_nodes = 128;
    cfg.sites[2].batch_nodes = 48;
    cfg
}

/// Events name jobs by id; the jobs stay in the simulation's in-flight
/// store. The engine's heap sifts each pending event next to its time and
/// sequence number, so a job-carrying event would make every push and pop
/// move several times the bytes.
#[test]
fn events_stay_within_24_bytes() {
    assert!(std::mem::size_of::<tg_core::sim::Event>() <= 24);
}

#[test]
fn every_generated_job_completes_exactly_once() {
    let cfg = small_baseline();
    let workload = WorkloadGenerator::new(cfg.workload.clone()).generate(&RngFactory::new(77));
    let generated: HashSet<JobId> = workload.jobs.iter().map(|j| j.id).collect();
    let out = cfg.build().run(77);
    let mut seen = HashSet::new();
    for r in &out.db.jobs {
        assert!(generated.contains(&r.job), "{} not generated", r.job);
        assert!(seen.insert(r.job), "{} completed twice", r.job);
    }
    assert_eq!(seen.len(), generated.len(), "jobs lost in the pipeline");
}

#[test]
fn records_are_internally_consistent() {
    let out = small_baseline().build().run(78);
    for r in &out.db.jobs {
        assert!(r.start >= r.submit, "{}: started before submission", r.job);
        assert!(r.end > r.start, "{}: zero/negative wall time", r.job);
        assert!(r.cores > 0);
        assert!(r.site.index() < 3);
        assert!(r.end <= out.end);
    }
    for t in &out.db.transfers {
        assert!(t.end >= t.start);
        assert!(t.mb > 0.0);
        assert_ne!(t.src, t.dst, "same-site staging is free and unrecorded");
    }
    for s in &out.db.sessions {
        assert!(s.logout > s.login);
    }
}

#[test]
fn gateway_attributes_pair_with_community_accounts() {
    let out = small_baseline().build().run(79);
    let attr_jobs: HashSet<JobId> = out.db.gateway_attrs.iter().map(|a| a.job).collect();
    let mut gateway_records = 0;
    for r in &out.db.jobs {
        let is_community = r.user.index() >= COMMUNITY_ACCOUNT_BASE;
        assert_eq!(
            is_community,
            attr_jobs.contains(&r.job),
            "{}: community account iff gateway attribute",
            r.job
        );
        if is_community {
            gateway_records += 1;
            assert_eq!(out.truth_of(r.job), Some(Modality::ScienceGateway));
        }
    }
    assert!(gateway_records > 0, "baseline must exercise gateways");
}

#[test]
fn rc_placements_pair_with_hw_records() {
    let out = small_baseline().build().run(80);
    let placement_jobs: HashSet<JobId> = out.db.rc_placements.iter().map(|p| p.job).collect();
    assert!(!placement_jobs.is_empty(), "baseline exercises the fabric");
    for r in &out.db.jobs {
        assert_eq!(
            r.used_hw,
            placement_jobs.contains(&r.job),
            "{}: used_hw iff placement record",
            r.job
        );
    }
    for p in &out.db.rc_placements {
        assert_eq!(p.site, SiteId(2), "only site 2 has fabric");
    }
}

#[test]
fn workflow_tasks_never_start_before_their_parents_end() {
    let out = small_baseline().build().run(81);
    // Reconstruct dependencies from the generated workload (same seed).
    let cfg = small_baseline();
    let workload = WorkloadGenerator::new(cfg.workload.clone()).generate(&RngFactory::new(81));
    let rec_of = |id: JobId| out.db.jobs.iter().find(|r| r.job == id);
    let mut checked = 0;
    for job in workload.jobs_of(Modality::Workflow) {
        let Some(child) = rec_of(job.id) else {
            continue;
        };
        for &dep in &job.deps {
            let parent = rec_of(dep).expect("parents complete");
            assert!(
                child.start >= parent.end,
                "{} started {} before parent {} ended {}",
                job.id,
                child.start,
                dep,
                parent.end
            );
            checked += 1;
        }
    }
    assert!(
        checked > 100,
        "expected many dependency edges, got {checked}"
    );
}

#[test]
fn charge_policy_matches_site_factors() {
    let out = small_baseline().build().run(82);
    let cfg = small_baseline();
    for r in out.db.jobs.iter().take(500) {
        let su = out.charge_policy.su(r);
        let expect = r.core_hours() * cfg.sites[r.site.index()].charge_factor;
        assert!((su - expect).abs() < 1e-9);
    }
}

#[test]
fn replications_differ_across_seeds_but_not_within() {
    let scenario = small_baseline().build();
    let reps = replicate(&scenario, 900, 2, 2);
    let again = scenario.run(900);
    assert_eq!(reps[0].output.db.jobs, again.db.jobs);
    assert!(
        !(reps[0].output.db.jobs.len() == reps[1].output.db.jobs.len()
            && reps[0].output.end == reps[1].output.end),
        "different seeds should differ somewhere"
    );
}
