//! A1 (ablation) — node-local bitstream caching on/off under configuration
//! churn.
//!
//! The library holds 48 configurations — more than the 16-node fabric can
//! keep resident — so regions are continually evicted and reconfigured.
//! Bitstreams are large (80–240 MB) and cross a thin WAN pipe on a miss.
//!
//! Expected shape: caching converts most fetches into hits (cutting mean
//! setup latency by the transfer term) while reconfiguration *counts*
//! barely move — caching saves bytes, reuse saves reconfigurations.

use super::{mean, mean_by, Check, Outcome, Scale};
use crate::emit::Table;
use crate::setup::{rc_only_config, rc_tasks_per_day_for_load, synthetic_library};
use serde::Serialize;
use tg_core::replicate;
use tg_des::SimDuration;

#[derive(Serialize)]
struct A1Result {
    cache_capacity: usize,
    bitstream_fetches: f64,
    bitstream_hits: f64,
    reconfigs: f64,
    mean_setup_s: f64,
    mean_wait_s: f64,
}

/// Run A1.
pub fn run(_scale: Scale) -> Outcome {
    let nodes = 16;
    let configs = 48;
    let tasks_per_day = rc_tasks_per_day_for_load(nodes, 8, 0.6);
    let mut results = Vec::new();
    for cache in [0usize, 4, 16] {
        let mut cfg = rc_only_config(nodes, 8, tasks_per_day, 2, configs);
        cfg.sites[1].rc_bitstream_cache = cache;
        // 80–240 MB bitstreams.
        cfg.library = Some(synthetic_library(configs, SimDuration::from_secs(5), 10.0));
        cfg.name = format!("a1-cache{cache}");
        let reps = replicate(&cfg.build(), 14_000, 3, 0);
        let mut fetches = Vec::new();
        let mut hits = Vec::new();
        let mut reconfigs = Vec::new();
        let mut setup = Vec::new();
        let mut waits = Vec::new();
        for r in &reps {
            let s = r.output.site_stats[1].rc_stats;
            fetches.push(s.bitstream_fetches as f64);
            hits.push(s.bitstream_hits as f64);
            reconfigs.push(s.reconfigs as f64);
            setup.push(mean_by(&r.output.db.rc_placements, |p| {
                (p.transfer + p.reconfig).as_secs_f64()
            }));
            waits.push(mean_by(&r.output.db.jobs, |j| j.wait().as_secs_f64()));
        }
        results.push(A1Result {
            cache_capacity: cache,
            bitstream_fetches: mean(&fetches),
            bitstream_hits: mean(&hits),
            reconfigs: mean(&reconfigs),
            mean_setup_s: mean(&setup),
            mean_wait_s: mean(&waits),
        });
    }

    let mut table = Table::new(
        format!("A1: bitstream cache ablation ({nodes} RC nodes, {configs} configurations)"),
        &[
            "cache",
            "fetches",
            "hits",
            "reconfigs",
            "mean setup",
            "mean wait",
        ],
    );
    for r in &results {
        table.row(vec![
            r.cache_capacity.to_string(),
            format!("{:.0}", r.bitstream_fetches),
            format!("{:.0}", r.bitstream_hits),
            format!("{:.0}", r.reconfigs),
            format!("{:.2}s", r.mean_setup_s),
            format!("{:.1}s", r.mean_wait_s),
        ]);
    }
    // Today: a 16-entry cache cuts fetches 26,036 → 9,124
    // (−65%) while reconfigurations move 26,036 → 26,114 (+0.3%); the check
    // asks for fetches down by a third and reconfigurations within 5%.
    let (off, on) = (&results[0], &results[results.len() - 1]);
    let checks = vec![
        Check::new(
            "a1.cache_cuts_fetches",
            on.bitstream_fetches * 1.5 < off.bitstream_fetches,
            format!(
                "fetches {:.0} → {:.0}",
                off.bitstream_fetches, on.bitstream_fetches
            ),
        ),
        Check::new(
            "a1.reconfigs_barely_move",
            (on.reconfigs - off.reconfigs).abs() < 0.05 * off.reconfigs,
            format!("reconfigs {:.0} → {:.0}", off.reconfigs, on.reconfigs),
        ),
    ];
    Outcome::new("exp_a1_bitstream_cache", &results, vec![table], checks)
}
