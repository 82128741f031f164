//! A4 (ablation) — classifier rule-threshold sensitivity.
//!
//! The records-only classifier leans on two thresholds: the sustained
//! jobs/day rate above which an account reads as a gateway community
//! account, and the same-instant batch size above which submissions read
//! as machine-generated. This sweep maps macro-F1 and the gateway/ensemble
//! F1s across both, in both instrumentation modes.
//!
//! Expected shape: the attribute-equipped classifier is flat across the
//! sweep (attributes, not thresholds, carry the signal); the records-only
//! classifier has a ridge — too-low rate thresholds swallow busy humans
//! into "gateway", too-high ones miss real gateways; batch-size thresholds
//! below ~4 misread workflow stage-ins as ensembles.

use super::{Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::classify::{classify_with, RuleThresholds};
use tg_core::{Accuracy, ClassifierMode, Modality, ScenarioConfig};

const RATES: [f64; 5] = [5.0, 10.0, 20.0, 40.0, 80.0];
const BATCH_SIZES: [u64; 5] = [2, 3, 5, 10, 20];

#[derive(Serialize)]
struct A4Point {
    mode: String,
    gateway_rate: f64,
    batch_size: u64,
    macro_f1: f64,
    gateway_f1: Option<f64>,
    ensemble_f1: Option<f64>,
    workflow_f1: Option<f64>,
}

/// Run A4.
pub fn run(_scale: Scale) -> Outcome {
    let out = ScenarioConfig::baseline(400, 30).build().run(18_000);
    let mut points = Vec::new();
    let mut tables = Vec::new();
    let mut spreads = Vec::new();
    for mode in [ClassifierMode::WithAttributes, ClassifierMode::RecordsOnly] {
        let mut table = Table::new(
            format!("A4: macro-F1 vs thresholds, mode = {}", mode.name()),
            &["gw rate \\ batch", "2", "3", "5", "10", "20"],
        );
        let (mut lo, mut hi) = (f64::MAX, f64::MIN);
        for gateway_rate in RATES {
            let mut row = vec![format!("{gateway_rate}")];
            for batch_size in BATCH_SIZES {
                let thresholds = RuleThresholds {
                    gateway_rate,
                    batch_size,
                    ..RuleThresholds::default()
                };
                let inferred = classify_with(&out.db, mode, &thresholds);
                let acc = Accuracy::score(&out.truth, &inferred);
                row.push(format!("{:.3}", acc.macro_f1));
                (lo, hi) = (lo.min(acc.macro_f1), hi.max(acc.macro_f1));
                points.push(A4Point {
                    mode: mode.name().to_string(),
                    gateway_rate,
                    batch_size,
                    macro_f1: acc.macro_f1,
                    gateway_f1: acc.f1_of(Modality::ScienceGateway),
                    ensemble_f1: acc.f1_of(Modality::Ensemble),
                    workflow_f1: acc.f1_of(Modality::Workflow),
                });
            }
            table.row(row);
        }
        tables.push(table);
        spreads.push((lo, hi));
    }

    // Today: with attributes macro-F1 spans 0.981–0.991 over
    // the grid; records-only spans 0.253–0.583, its best far below the
    // attribute mode's worst.
    let ((alo, ahi), (rlo, rhi)) = (spreads[0], spreads[1]);
    let checks = vec![
        Check::new(
            "a4.attributes_flat_across_thresholds",
            ahi - alo < 0.05,
            format!("with-attributes macro-F1 {alo:.3}–{ahi:.3}"),
        ),
        Check::new(
            "a4.records_only_below_attributes_everywhere",
            rhi + 0.2 < alo,
            format!("records-only {rlo:.3}–{rhi:.3} vs with-attributes ≥ {alo:.3}"),
        ),
    ];
    Outcome::new("exp_a4_classifier_thresholds", &points, tables, checks)
}
