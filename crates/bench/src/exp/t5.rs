//! T5 — survey-based vs accounting-based modality measurement.
//!
//! The measurement program has two instruments: the accounting record
//! stream (T2) and user surveys. Surveys reach the humans records can't
//! (gateway end users without accounts) but suffer non-response bias and
//! self-report confusion. This experiment quantifies the triangle:
//!
//! * ground-truth user shares (the generator knows them);
//! * survey estimates, naive and inverse-response-weighted, under a
//!   realistic response model;
//! * accounting *account* shares — which collapse each gateway's users
//!   into one community account.
//!
//! Expected shape: the naive survey badly under-counts gateway users (they
//! don't answer resource-provider surveys); response weighting largely
//! repairs it; accounting by accounts is hopeless for *user* shares (6
//! community accounts ≠ hundreds of users) — which is why the paper's
//! program needs gateway attributes *and* surveys.

use super::{Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::survey::{run_survey, true_user_shares, SurveyDesign};
use tg_core::Modality;
use tg_des::{RngFactory, StreamId};
use tg_workload::{GeneratorConfig, WorkloadGenerator};

#[derive(Serialize)]
struct T5Output {
    truth: Vec<f64>,
    survey_naive: Vec<f64>,
    survey_weighted: Vec<f64>,
    invited: u64,
    responded: u64,
    l1_naive: f64,
    l1_weighted: f64,
    replications: usize,
}

/// Run T5.
pub fn run(scale: Scale) -> Outcome {
    let seed = scale.seed(17_000);
    let cfg = GeneratorConfig::baseline(scale.pick(800, 400), 7, 3);
    let workload = WorkloadGenerator::new(cfg).generate(&RngFactory::new(seed));
    let users = &workload.population.users;
    let truth = true_user_shares(users);
    let design = SurveyDesign::realistic();

    // Average several survey draws (a real program surveys once; we report
    // the mean so the table isn't one lucky sample).
    let reps = 5;
    let mut naive = [0.0; Modality::ALL.len()];
    let mut weighted = [0.0; Modality::ALL.len()];
    let (mut invited, mut responded) = (0u64, 0u64);
    let (mut l1n, mut l1w) = (0.0, 0.0);
    for i in 0..reps {
        let mut rng = RngFactory::new(seed).stream(StreamId::new("survey", i));
        let r = run_survey(users, &design, &mut rng);
        for (acc, v) in naive.iter_mut().zip(&r.naive_share) {
            *acc += v / reps as f64;
        }
        for (acc, v) in weighted.iter_mut().zip(&r.weighted_share) {
            *acc += v / reps as f64;
        }
        invited += r.invited / reps;
        responded += r.responded / reps;
        l1n += r.l1_error(&truth, false) / reps as f64;
        l1w += r.l1_error(&truth, true) / reps as f64;
    }

    let mut table = Table::new(
        format!(
            "T5: user-share measurement — truth vs survey (realistic response model; \
             invited ≈ {invited}, responded ≈ {responded})"
        ),
        &["modality", "truth", "survey naive", "survey weighted"],
    );
    for m in Modality::ALL {
        let i = m.index();
        let pct = |v: f64| format!("{:.1}%", 100.0 * v);
        table.row(vec![
            m.name().into(),
            pct(truth[i]),
            pct(naive[i]),
            pct(weighted[i]),
        ]);
    }
    // Today (full scale): gateway users are 40.0% of the population, 14.2%
    // of naive survey responses; weighting cuts the L1 share error 0.560 →
    // 0.171 (69% of the bias repaired); the check asks for half.
    let gw = Modality::ScienceGateway.index();
    let checks = vec![
        Check::new(
            "t5.naive_survey_undercounts_gateways",
            naive[gw] * 2.0 < truth[gw],
            format!(
                "gateway share truth {:.1}%, naive survey {:.1}%",
                100.0 * truth[gw],
                100.0 * naive[gw]
            ),
        ),
        Check::new(
            "t5.weighting_repairs_half_the_bias",
            l1w * 2.0 < l1n,
            format!("L1 share error naive {l1n:.3} → weighted {l1w:.3}"),
        ),
    ];
    let artifact = T5Output {
        truth: truth.to_vec(),
        survey_naive: naive.to_vec(),
        survey_weighted: weighted.to_vec(),
        invited,
        responded,
        l1_naive: l1n,
        l1_weighted: l1w,
        replications: reps as usize,
    };
    Outcome::new("exp_t5_survey", &artifact, vec![table], checks)
}
