//! Allocation budget of the simulator's event loop.
//!
//! Its own test binary, because it installs the counting allocator as the
//! global allocator and reads process-wide counters: one `#[test]`, so no
//! other test allocates while it measures. A fixed small scenario — the
//! baseline federation, whose third site carries a reconfigurable
//! partition, so RC placements run alongside batch scheduling and
//! metascheduler routing — is driven through `GridSim` and the allocations
//! made while the engine delivers its events are divided by the events
//! delivered. The count is a pure function of the scenario and seed, so a
//! change that puts a per-job or per-event allocation back on the hot path
//! moves it by a visible amount.

use tg_core::sim::{Event, GridSim};
use tg_core::ScenarioConfig;
use tg_des::memory::{alloc_snapshot, CountingAlloc};
use tg_des::{Engine, RngFactory, StopCondition};
use tg_model::{ConfigLibrary, Federation, SiteId};
use tg_workload::WorkloadGenerator;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per delivered event in the loop. This scenario measures
/// 0.495 (6,120 allocations over 12,365 events), in debug and release
/// alike; the budget leaves ~21% headroom over that.
const BUDGET: f64 = 0.6;

#[test]
fn event_loop_allocations_per_event_stay_within_budget() {
    let cfg = ScenarioConfig::baseline(60, 10);
    let seed = 11;
    let mut builder = Federation::builder()
        .library(ConfigLibrary::synthetic(cfg.workload.rc_config_count))
        .repository_at(cfg.data_home);
    for site in &cfg.sites {
        builder = builder.site(site.clone());
    }
    let federation = builder.build();
    let caps: Vec<usize> = federation
        .sites()
        .map(|s| s.cluster.total_cores())
        .collect();
    let schedulers = caps.iter().map(|&c| cfg.scheduler.build(c)).collect();
    let workload = WorkloadGenerator::new(cfg.workload.clone()).generate(&RngFactory::new(seed));
    // The machine-size clamp a scenario run applies to every job.
    let widest = *caps.iter().max().expect("sites");
    let jobs: Vec<_> = workload
        .jobs
        .into_iter()
        .map(|mut j| {
            j.cores = j.cores.min(j.site_hint.map_or(widest, |s| caps[s.index()]));
            j
        })
        .collect();
    let rc_jobs = jobs.iter().filter(|j| j.rc.is_some()).count();
    let mut sim = GridSim::new(
        federation,
        schedulers,
        cfg.meta,
        cfg.rc_policy,
        SiteId(cfg.data_home),
        jobs,
        RngFactory::new(seed),
    );
    let mut engine: Engine<Event> = Engine::with_capacity(1024);
    sim.prime(&mut engine);

    let before = alloc_snapshot();
    engine.run_until(&mut sim, StopCondition::Exhausted);
    let allocations = alloc_snapshot().allocations - before.allocations;

    let events = engine.delivered();
    assert!(rc_jobs > 100, "the scenario exercises RC placement");
    assert!(events > 10_000, "a loop worth measuring ({events} events)");
    let per_event = allocations as f64 / events as f64;
    println!("{allocations} allocations over {events} events ({rc_jobs} RC jobs): {per_event:.3}");
    assert!(
        per_event <= BUDGET,
        "event loop made {per_event:.3} allocations per event, over the budget of {BUDGET}"
    );
}
