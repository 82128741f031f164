//! R1 — Classifier robustness under lossy accounting ingest.
//!
//! The measurement program infers usage modalities from the records the
//! federation's accounting pipeline delivers. This experiment corrupts that
//! pipeline — each record independently dropped with probability `loss` —
//! while ground truth (what users actually ran) stays intact, then sweeps
//! `loss` and reads off (a) T2-style classifier accuracy and (b) T1-style
//! usage shares computed from the surviving records.
//!
//! The ingest channel draws a fate for *every* record regardless of the
//! loss rate, so the same records die in the same order as `loss` grows:
//! each sweep point's database is a superset of the next, and *coverage*
//! accuracy (correct inferences over all of ground truth) is monotonically
//! non-increasing by construction, which a check confirms. Per-covered-job
//! accuracy and the share tables show the subtler story: the classifier
//! stays sharp on the records it still sees, while the measured share table
//! drifts from the healthy baseline as losses mount.

use super::{Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::report::ModalityShares;
use tg_core::{
    classify_all, Accuracy, ClassifierMode, ConfusionMatrix, FaultSpec, IngestFaults, Modality,
    ScenarioConfig, SimOutput,
};

const LOSS_RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.15, 0.20];

#[derive(Serialize)]
struct ModeResult {
    mode: String,
    /// Correct inferences / jobs the classifier could see.
    accuracy_on_covered: f64,
    /// Correct inferences / all ground-truth jobs (missing records count
    /// as misses) — the headline robustness number.
    coverage_accuracy: f64,
}

#[derive(Serialize)]
struct SweepPoint {
    loss: f64,
    records_lost: u64,
    records_kept: usize,
    truth_jobs: usize,
    modes: Vec<ModeResult>,
    /// Measured job share per modality (inferred with attributes, over the
    /// surviving records).
    job_share: Vec<f64>,
    /// Measured NU (charge) share per modality from the surviving records.
    nu_share: Vec<f64>,
    /// L1 distance of the measured job-share vector from the loss-free one.
    job_share_l1_drift: f64,
}

#[derive(Serialize)]
struct R1Output {
    scenario: String,
    seed: u64,
    loss_rates: Vec<f64>,
    points: Vec<SweepPoint>,
}

/// Measured job and NU shares per modality, from the records alone as the
/// classifier labels them.
fn measured_shares(out: &SimOutput) -> (Vec<f64>, Vec<f64>) {
    let inferred = classify_all(&out.db, ClassifierMode::WithAttributes);
    let s = ModalityShares::compute(&out.db, &inferred, &out.charge_policy);
    let share = |f: fn(&ModalityShares, Modality) -> f64| Modality::ALL.map(|m| f(&s, m)).to_vec();
    (
        share(ModalityShares::job_share),
        share(ModalityShares::nu_share),
    )
}

/// Run R1.
pub fn run(scale: Scale) -> Outcome {
    let seed = scale.seed(1000);
    let (users, days) = scale.pick((300, 14), (120, 7));
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut scenario = String::new();
    for loss in LOSS_RATES {
        let mut cfg = ScenarioConfig::baseline(users, days);
        if loss > 0.0 {
            let ingest = Some(IngestFaults {
                loss,
                duplication: 0.0,
            });
            cfg.faults = Some(FaultSpec {
                ingest,
                ..FaultSpec::default()
            });
        }
        let out = cfg.build().run(seed);
        scenario = out.scenario.clone();
        let truth_jobs = out.truth.len();
        let modes = [ClassifierMode::WithAttributes, ClassifierMode::RecordsOnly]
            .iter()
            .map(|&mode| {
                let matrix = ConfusionMatrix::from_maps(&out.truth, &classify_all(&out.db, mode));
                let covered = Accuracy::from_matrix(matrix.clone());
                ModeResult {
                    mode: mode.name().to_string(),
                    accuracy_on_covered: covered.accuracy,
                    coverage_accuracy: matrix.correct() as f64 / truth_jobs.max(1) as f64,
                }
            })
            .collect();
        let (job_share, nu_share) = measured_shares(&out);
        let healthy = points.first().map_or(&job_share, |p| &p.job_share);
        let drift: f64 = job_share
            .iter()
            .zip(healthy)
            .map(|(a, b)| (a - b).abs())
            .sum();
        points.push(SweepPoint {
            loss,
            records_lost: out.fault_report.as_ref().map_or(0, |r| r.records_lost),
            records_kept: out.db.jobs.len(),
            truth_jobs,
            modes,
            job_share,
            nu_share,
            job_share_l1_drift: drift,
        });
    }

    let mut table = Table::new(
        "R1: classifier accuracy and share drift vs accounting-ingest loss",
        &[
            "loss",
            "lost",
            "kept",
            "cov-acc(attr)",
            "acc(attr)",
            "cov-acc(rec)",
            "share-L1",
        ],
    );
    for p in &points {
        table.row(vec![
            format!("{:.0}%", 100.0 * p.loss),
            p.records_lost.to_string(),
            p.records_kept.to_string(),
            format!("{:.4}", p.modes[0].coverage_accuracy),
            format!("{:.4}", p.modes[0].accuracy_on_covered),
            format!("{:.4}", p.modes[1].coverage_accuracy),
            format!("{:.4}", p.job_share_l1_drift),
        ]);
    }

    // Monotone coupling: coverage accuracy never improves as the loss rate
    // grows, in either classifier mode.
    let checks = (0..2)
        .map(|mode| {
            let cov: Vec<f64> = points
                .iter()
                .map(|p| p.modes[mode].coverage_accuracy)
                .collect();
            Check::new(
                format!(
                    "r1.coverage_degrades_monotonically.{}",
                    points[0].modes[mode].mode
                ),
                cov.windows(2).all(|w| w[1] <= w[0] + 1e-9),
                format!("coverage accuracy {cov:.4?} at loss {LOSS_RATES:?}"),
            )
        })
        .collect();
    let artifact = R1Output {
        scenario,
        seed,
        loss_rates: LOSS_RATES.to_vec(),
        points,
    };
    Outcome::new(
        "exp_r1_classifier_under_loss",
        &artifact,
        vec![table],
        checks,
    )
}
