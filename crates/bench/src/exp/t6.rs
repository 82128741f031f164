//! T6 — the price of simultaneity: co-allocation slack vs background load
//! and site count.
//!
//! Co-allocated (grid-MPI / coupled multi-physics) runs need their core
//! shares at every site **at the same instant**. The planner finds the
//! earliest common start against per-site availability profiles; the
//! *coordination slack* — common start minus the slowest site's own
//! earliest start — is the price the simultaneity requirement adds on top
//! of ordinary queueing.
//!
//! Expected shape: slack is zero for single-site requests by definition,
//! grows with the number of participating sites, and grows sharply with
//! background load (free windows become short and misaligned). Beyond ~0.8
//! sustained load, hour-long multi-site holes effectively stop existing —
//! co-allocation there needs advance reservations, not opportunistic
//! planning.

use super::{mean, Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_des::{DistKind, RngFactory, SimDuration, SimRng, SimTime, StreamId};
use tg_model::SiteId;
use tg_sched::{plan_coallocation, CoallocRequest, Profile};

const SITES: usize = 4;
const CORES: usize = 256;
const LOADS: [f64; 4] = [0.3, 0.5, 0.65, 0.8];

/// A site profile fragmented far into the future: the machine is modeled
/// as 32-core blocks, each alternating busy/free with exponential periods
/// whose duty cycle equals `load`, out to a one-week horizon. Unlike a
/// decaying running-set, this keeps *future* busy windows everywhere, so
/// free windows across sites genuinely fail to line up — the situation
/// co-allocation has to negotiate.
fn synthetic_profile(load: f64, rng: &mut SimRng) -> Profile {
    let mut p = Profile::new(SimTime::ZERO, CORES);
    let busy_dist = DistKind::Exponential { mean: 7200.0 }; // 2 h busy stretches
    let gap_mean = 7200.0 * (1.0 - load) / load.max(0.05);
    let gap_dist = DistKind::Exponential {
        mean: gap_mean.max(60.0),
    };
    let horizon = 168.0 * 3600.0; // one week of fragmentation
    let block = 32usize;
    for _ in 0..(CORES / block) {
        // Random phase: start busy or free.
        let mut t = if rng.chance(load) {
            0.0
        } else {
            gap_dist.sample(rng)
        };
        while t < horizon {
            let busy = busy_dist.sample(rng).max(60.0);
            p.reserve(
                SimTime::from_secs_f64(t),
                SimDuration::from_secs_f64(busy),
                block,
            );
            t += busy + gap_dist.sample(rng).max(60.0);
        }
    }
    p
}

#[derive(Serialize)]
struct T6Point {
    load: f64,
    sites: usize,
    mean_slack_s: f64,
    mean_start_s: f64,
    p95_slack_s: f64,
}

/// Run T6.
pub fn run(scale: Scale) -> Outcome {
    let factory = RngFactory::new(scale.seed(19_000));
    let requests_per_point = scale.pick(300, 20);
    let mut points = Vec::new();
    for load in LOADS {
        for k in 1..=SITES {
            let mut slacks = Vec::with_capacity(requests_per_point);
            let mut starts = Vec::with_capacity(requests_per_point);
            for r in 0..requests_per_point {
                let mut rng = factory.stream(StreamId::new(
                    "t6",
                    (load * 100.0) as u64 * 10_000 + k as u64 * 1_000 + r as u64,
                ));
                let profiles: Vec<Profile> = (0..SITES)
                    .map(|_| synthetic_profile(load, &mut rng))
                    .collect();
                let parts: Vec<(SiteId, usize)> = (0..k).map(|s| (SiteId(s), 64)).collect();
                let request = CoallocRequest::new(parts, SimDuration::from_hours(1));
                let plan = plan_coallocation(&profiles, &request, SimTime::ZERO)
                    .expect("64 cores always eventually free");
                slacks.push(plan.coordination_slack().as_secs_f64());
                starts.push(plan.start.as_secs_f64());
            }
            slacks.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            points.push(T6Point {
                load,
                sites: k,
                mean_slack_s: mean(&slacks),
                mean_start_s: mean(&starts),
                p95_slack_s: tg_des::stats::exact_quantile(&slacks, 0.95).expect("non-empty"),
            });
        }
    }

    let mut table = Table::new(
        format!("T6: co-allocation coordination slack ({SITES} sites × {CORES} cores, 64-core parts, 1 h)"),
        &["load", "sites", "mean slack", "p95 slack", "mean start"],
    );
    for p in &points {
        table.row(vec![
            format!("{:.2}", p.load),
            p.sites.to_string(),
            format!("{:.0}s", p.mean_slack_s),
            format!("{:.0}s", p.p95_slack_s),
            format!("{:.0}s", p.mean_start_s),
        ]);
    }
    // Single-site slack is zero by construction. Today (full scale), at 4
    // sites slack grows with load 0 s (0.3) → 353 s (0.5) → 14,258 s
    // (0.65) → 553,335 s (0.8), and at load 0.65 with sites 0 → 2,208 →
    // 6,135 → 14,258 s.
    let slack = |li: usize, k: usize| points[li * SITES + k - 1].mean_slack_s;
    let by_load: Vec<f64> = (0..LOADS.len()).map(|li| slack(li, SITES)).collect();
    let by_sites: Vec<f64> = (1..=SITES).map(|k| slack(2, k)).collect();
    let grows = |v: &[f64]| v.windows(2).all(|w| w[0] <= w[1]) && v[0] < v[v.len() - 1];
    let checks = vec![
        Check::new(
            "t6.single_site_slack_is_zero",
            (0..LOADS.len()).all(|li| slack(li, 1) == 0.0),
            "mean slack at one site, every load",
        ),
        Check::new(
            "t6.slack_grows_with_load",
            grows(&by_load),
            format!("{SITES} sites, loads {LOADS:?}: {by_load:.0?} s"),
        ),
        Check::new(
            "t6.slack_grows_with_sites",
            grows(&by_sites),
            format!("load {}, 1..={SITES} sites: {by_sites:.0?} s", LOADS[2]),
        ),
    ];
    Outcome::new("exp_t6_coalloc", &points, vec![table], checks)
}
