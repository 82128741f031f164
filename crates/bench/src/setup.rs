//! Scenario construction and load calibration shared by the experiments.

use tg_core::ScenarioConfig;
use tg_model::SiteConfig;
use tg_sched::SchedulerKind;
use tg_workload::{GeneratorConfig, Modality, ModalityProfile, PopulationMix};

/// Expected core-seconds of demand one user of `profile` generates per day
/// (closed form from the profile's distributions; used to calibrate offered
/// load without trial runs).
pub fn expected_core_seconds_per_user_day(profile: &ModalityProfile) -> f64 {
    let mean_runtime = profile
        .runtime
        .build()
        .mean()
        .expect("runtime distributions have finite means");
    let wsum: f64 = profile.cores_weights.iter().map(|&(_, w)| w).sum();
    let mean_cores: f64 = profile
        .cores_weights
        .iter()
        .map(|&(c, w)| c as f64 * w)
        .sum::<f64>()
        / wsum;
    let expansion = match profile.modality {
        Modality::Ensemble => profile
            .ensemble_width
            .as_ref()
            .and_then(|d| d.build().mean())
            .unwrap_or(1.0),
        Modality::Workflow => {
            let wsum: f64 = profile.dag_shapes.iter().map(|&(_, w)| w).sum();
            profile
                .dag_shapes
                .iter()
                .map(|&(shape, w)| shape.task_count() as f64 * w)
                .sum::<f64>()
                / wsum.max(1e-9)
        }
        _ => 1.0,
    };
    profile.per_user_per_day * expansion * mean_cores * mean_runtime
}

/// Number of users of `profile` needed to offer `target_load` (fraction of
/// capacity) on `total_cores` cores.
pub fn calibrated_users(profile: &ModalityProfile, total_cores: usize, target_load: f64) -> usize {
    assert!(target_load > 0.0, "load must be positive");
    let per_user = expected_core_seconds_per_user_day(profile);
    let capacity_per_day = total_cores as f64 * 86_400.0;
    ((target_load * capacity_per_day / per_user).round() as usize).max(1)
}

/// A single-site scenario carrying only the given modality populations,
/// with the baseline's metascheduling and RC policies.
///
/// `populations` maps modality → user count; all other modalities get zero
/// users. The site has `nodes × 8` cores and no RC fabric, so the
/// populations must not include RC users.
pub fn single_site_config(
    name: &str,
    nodes: usize,
    days: u64,
    populations: &[(Modality, usize)],
    scheduler: SchedulerKind,
) -> ScenarioConfig {
    let site = SiteConfig {
        batch_nodes: nodes,
        cores_per_node: 8,
        rc_nodes: 0,
        rc_area_per_node: 0,
        ..SiteConfig::medium(name)
    };
    let mut mix = PopulationMix {
        users_per_modality: [0; Modality::ALL.len()],
        projects: 16,
        activity_zipf_s: 0.8,
        gateways: 4,
    };
    for &(m, n) in populations {
        mix.users_per_modality[m.index()] = n;
    }
    let workload = GeneratorConfig {
        horizon: tg_des::SimDuration::from_days(days),
        mix,
        profiles: ModalityProfile::all_defaults(),
        sites: 1,
        rc_sites: Vec::new(),
        rc_config_count: 0,
        data: None,
    };
    ScenarioConfig {
        name: format!("{name}-{days}d"),
        sites: vec![site],
        scheduler,
        workload,
        ..ScenarioConfig::baseline(0, days)
    }
}

/// An RC-partition-focused scenario.
///
/// Two sites: site 0 is a small repository/archive site hosting the
/// bitstream repository (so every cache miss pays a real WAN fetch — its
/// uplink is deliberately thin); site 1 carries the RC partition
/// (`rc_nodes × rc_area`) plus a software-fallback batch pool. The workload
/// is purely RC users offering `tasks_per_day` hardware-accelerable tasks in
/// total, scheduled as in the baseline (EASY, shortest ETA, RC-aware).
pub fn rc_only_config(
    rc_nodes: usize,
    rc_area: u32,
    tasks_per_day: f64,
    days: u64,
    config_count: usize,
) -> ScenarioConfig {
    assert!(tasks_per_day > 0.0);
    let repo_site = SiteConfig {
        batch_nodes: 8,
        wan_bandwidth_mbps: 200.0, // thin pipe: bitstream fetches cost real time
        wan_latency_ms: 30.0,
        ..SiteConfig::medium("rc-repo")
    };
    let rc_site = SiteConfig {
        batch_nodes: 128,
        cores_per_node: 8,
        rc_nodes,
        rc_area_per_node: rc_area,
        ..SiteConfig::medium("rc-fabric")
    };
    let users = 40usize;
    let mut mix = PopulationMix {
        users_per_modality: [0; Modality::ALL.len()],
        projects: 8,
        activity_zipf_s: 0.0, // equal users: total rate is what matters here
        gateways: 1,
    };
    mix.users_per_modality[Modality::RcAccelerated.index()] = users;
    let mut profiles = ModalityProfile::all_defaults();
    profiles[Modality::RcAccelerated.index()].per_user_per_day = tasks_per_day / users as f64;
    let workload = GeneratorConfig {
        horizon: tg_des::SimDuration::from_days(days),
        mix,
        profiles,
        sites: 2,
        rc_sites: vec![tg_model::SiteId(1)],
        rc_config_count: config_count,
        data: None,
    };
    ScenarioConfig {
        name: format!("rc-{rc_nodes}n-{tasks_per_day}tpd-{days}d"),
        sites: vec![repo_site, rc_site],
        workload,
        ..ScenarioConfig::baseline(0, days)
    }
}

/// The synthetic configuration library with overridden reconfiguration time
/// and bitstream sizes scaled by `bitstream_scale` (1.0 keeps the 8–24 MB
/// defaults). RC experiments inject this so the sweep axes are explicit.
pub fn synthetic_library(
    count: usize,
    reconfig: tg_des::SimDuration,
    bitstream_scale: f64,
) -> tg_model::ConfigLibrary {
    use tg_model::config::{ConfigLibrary, ProcessorConfig};
    let mut lib = ConfigLibrary::new();
    for (_, cfg) in ConfigLibrary::synthetic(count).iter() {
        lib.add(ProcessorConfig {
            reconfig_time: reconfig,
            bitstream_mb: cfg.bitstream_mb * bitstream_scale,
            ..cfg.clone()
        });
    }
    lib
}

/// Rough concurrent-task capacity of an RC partition: regions per node ×
/// nodes, with the synthetic library's mean kernel area of 3.
pub fn rc_slots(rc_nodes: usize, rc_area: u32) -> f64 {
    rc_nodes as f64 * (rc_area as f64 / 3.0)
}

/// Tasks/day that load an RC partition to `target` utilization, given the
/// default RC profile's mean hardware service time (~77 s: 1200 s software
/// runtime × E[1/speedup] over Uniform(4, 40)).
pub fn rc_tasks_per_day_for_load(rc_nodes: usize, rc_area: u32, target: f64) -> f64 {
    let mean_hw_service_s = 1200.0 * ((40.0f64 / 4.0).ln() / 36.0);
    target * rc_slots(rc_nodes, rc_area) * 86_400.0 / mean_hw_service_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_demand_is_positive_for_all_profiles() {
        for m in Modality::ALL {
            let p = ModalityProfile::default_for(m);
            let cs = expected_core_seconds_per_user_day(&p);
            assert!(cs > 0.0, "{m}: {cs}");
        }
    }

    #[test]
    fn ensemble_and_workflow_expand_demand() {
        let batch = expected_core_seconds_per_user_day(&ModalityProfile::default_for(
            Modality::BatchComputing,
        ));
        // A batch user submits 1.5 large jobs/day of ~4 h — big demand; an
        // ensemble instance expands ~60× over its per-instance rate.
        let ens_profile = ModalityProfile::default_for(Modality::Ensemble);
        let per_instance =
            ens_profile.per_user_per_day * ens_profile.runtime.build().mean().unwrap() * 2.0; // mean cores ≈ 2
        let ens = expected_core_seconds_per_user_day(&ens_profile);
        assert!(ens > 10.0 * per_instance, "width multiplies demand");
        assert!(batch > 0.0);
    }

    #[test]
    fn calibration_hits_target_load_approximately() {
        use tg_des::RngFactory;
        use tg_workload::WorkloadGenerator;
        let profile = ModalityProfile::default_for(Modality::BatchComputing);
        let cores = 2048;
        let users = calibrated_users(&profile, cores, 0.7);
        let population = [(Modality::BatchComputing, users)];
        let cfg = single_site_config("cal", cores / 8, 14, &population, SchedulerKind::Easy);
        let w = WorkloadGenerator::new(cfg.workload.clone()).generate(&RngFactory::new(1));
        let load = w.offered_load(cores, cfg.workload.horizon);
        assert!(
            (load - 0.7).abs() < 0.25,
            "calibrated load {load} should be near 0.7"
        );
    }

    #[test]
    fn single_site_config_is_buildable_and_runnable() {
        let population = [(Modality::Interactive, 10)];
        let cfg = single_site_config("t", 16, 2, &population, SchedulerKind::Fcfs);
        let out = cfg.build().run(1);
        assert!(!out.db.jobs.is_empty());
        assert!(out.truth.values().all(|&m| m == Modality::Interactive));
    }

    #[test]
    fn rc_only_config_runs_on_fabric() {
        let cfg = rc_only_config(4, 8, 200.0, 2, 6);
        let out = cfg.build().run(2);
        assert!(!out.db.jobs.is_empty());
        assert!(
            out.site_stats[1].rc_stats.completed > 0,
            "fabric lives at site 1"
        );
        // Bitstream fetches cross the WAN from site 0 and cost real time.
        assert!(out
            .db
            .rc_placements
            .iter()
            .any(|p| p.transfer > tg_des::SimDuration::ZERO));
    }

    #[test]
    fn rc_load_calibration_is_consistent() {
        let slots = rc_slots(16, 8);
        assert!((slots - 42.6).abs() < 0.1);
        let tpd = rc_tasks_per_day_for_load(16, 8, 0.7);
        // ~33k tasks/day region.
        assert!(tpd > 20_000.0 && tpd < 50_000.0, "{tpd}");
    }
}
