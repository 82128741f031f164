//! F4 — Science-gateway adoption sweep: as the share of users arriving
//! through gateways grows, how do user counts, job counts, NU consumption,
//! and gateway job waits move?
//!
//! Expected shape: gateway *user* share grows much faster than gateway *NU*
//! share (gateways multiply small users, not big compute); visible community
//! accounts stay constant (the gateways), which is exactly why per-account
//! accounting under-counted gateway reach before end-user attributes.

use super::{Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::report::ModalityShares;
use tg_core::{run_sweep, Modality, ScenarioConfig};

#[derive(Serialize)]
struct F4Point {
    adoption_pct: usize,
    gateway_users: usize,
    total_users: usize,
    job_share: f64,
    nu_share: f64,
    visible_accounts: u64,
    gateway_mean_wait_s: f64,
}

/// Run F4.
pub fn run(_scale: Scale) -> Outcome {
    let (total, days) = (400usize, 28);
    // Sweep cells are independent runs; `run_sweep` fills the machine's
    // cores while keeping each cell's seed stream untouched.
    let grid = [5usize, 10, 20, 40, 60, 80];
    let points: Vec<F4Point> = run_sweep(&grid, 0, |_, &adoption_pct| {
        let gw_users = total * adoption_pct / 100;
        let mut cfg = ScenarioConfig::baseline(total, days);
        // Rebalance: gateway takes `adoption`, the remainder splits between
        // batch and interactive proportionally to the baseline.
        let rest = total - gw_users;
        let mix = &mut cfg.workload.mix;
        mix.users_per_modality = [0; Modality::ALL.len()];
        mix.users_per_modality[Modality::ScienceGateway.index()] = gw_users;
        mix.users_per_modality[Modality::BatchComputing.index()] = rest * 55 / 100;
        mix.users_per_modality[Modality::Interactive.index()] = rest * 45 / 100;
        cfg.workload.rc_sites.clear();
        cfg.workload.rc_config_count = 0;
        cfg.name = format!("f4-{adoption_pct}pct");
        let out = cfg.build().run(6000 + adoption_pct as u64);
        let shares = ModalityShares::compute(&out.db, &out.truth, &out.charge_policy);
        let gw = Modality::ScienceGateway;
        F4Point {
            adoption_pct,
            gateway_users: gw_users,
            total_users: total,
            job_share: shares.job_share(gw),
            nu_share: shares.nu_share(gw),
            visible_accounts: shares.accounts[gw.index()],
            gateway_mean_wait_s: shares.mean_wait_s[gw.index()],
        }
    });

    let mut table = Table::new(
        format!("F4: gateway adoption sweep ({total} users total, {days} days)"),
        &[
            "adoption",
            "gw users",
            "job share",
            "NU share",
            "visible accts",
            "mean wait",
        ],
    );
    for p in &points {
        table.row(vec![
            format!("{}%", p.adoption_pct),
            p.gateway_users.to_string(),
            format!("{:.1}%", 100.0 * p.job_share),
            format!("{:.1}%", 100.0 * p.nu_share),
            p.visible_accounts.to_string(),
            format!("{:.0}s", p.gateway_mean_wait_s),
        ]);
    }
    // Today: at 80% adoption gateways submit 82.7% of jobs but
    // use 6.0% of NUs; every point shows 6 visible accounts (the gateways).
    let last = &points[points.len() - 1];
    let checks = vec![
        Check::new(
            "f4.nu_share_lags_job_share",
            points.iter().all(|p| p.nu_share * 5.0 < p.job_share),
            format!(
                "at {}%: job share {:.1}%, NU share {:.1}%",
                last.adoption_pct,
                100.0 * last.job_share,
                100.0 * last.nu_share
            ),
        ),
        Check::new(
            "f4.visible_accounts_constant",
            points
                .iter()
                .all(|p| p.visible_accounts == points[0].visible_accounts),
            format!(
                "{} accounts for {} → {} gateway users",
                last.visible_accounts, points[0].gateway_users, last.gateway_users
            ),
        ),
    ];
    Outcome::new("exp_f4_gateway_sweep", &points, vec![table], checks)
}
