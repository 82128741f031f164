//! T2 — Modality-classifier accuracy against ground truth, in both
//! instrumentation modes.
//!
//! Expected shape: with gateway attributes and interface tags, macro-F1 ≥
//! ~0.85 with gateway/RC near-perfect; records-only loses most of the
//! gateway and workflow recall — the measured gap is the quantitative case
//! for the attributes the TeraGrid added.

use super::{Check, Outcome, Scale};
use crate::emit::Table;
use serde::Serialize;
use tg_core::{classify_all, Accuracy, ClassifierMode, Modality, ScenarioConfig};

#[derive(Serialize)]
struct ModeResult {
    mode: String,
    accuracy: f64,
    macro_f1: f64,
    per_class_f1: Vec<Option<f64>>,
}

#[derive(Serialize)]
struct T2Output {
    scenario: String,
    jobs_scored: u64,
    modes: Vec<ModeResult>,
}

/// Run T2.
pub fn run(scale: Scale) -> Outcome {
    let (users, days) = scale.pick((500, 45), (150, 10));
    let out = ScenarioConfig::baseline(users, days)
        .build()
        .run(scale.seed(2000));
    let fmt = |v: Option<f64>| v.map_or("–".to_string(), |x| format!("{x:.3}"));
    let mut tables = Vec::new();
    let mut results = Vec::new();
    for mode in [ClassifierMode::WithAttributes, ClassifierMode::RecordsOnly] {
        let acc = Accuracy::score(&out.truth, &classify_all(&out.db, mode));
        let mut table = Table::new(
            format!(
                "T2: classifier accuracy, mode = {} (accuracy {:.3}, macro-F1 {:.3})",
                mode.name(),
                acc.accuracy,
                acc.macro_f1
            ),
            &["modality", "precision", "recall", "F1"],
        );
        for m in Modality::ALL {
            let i = m.index();
            let row = [acc.precision[i], acc.recall[i], acc.f1[i]].map(fmt);
            table.row([vec![m.name().to_string()], row.to_vec()].concat());
        }
        tables.push(table);
        if mode == ClassifierMode::WithAttributes {
            let names: Vec<&str> = Modality::ALL.iter().map(|m| m.name()).collect();
            let mut matrix = Table::new(
                "T2: confusion matrix, with-attributes (rows = truth, cols = inferred)",
                &[&["truth\\inf"][..], &names[..]].concat(),
            );
            for t in Modality::ALL {
                let counts = Modality::ALL.map(|i| acc.matrix.get(t, i).to_string());
                matrix.row([vec![t.name().to_string()], counts.to_vec()].concat());
            }
            tables.push(matrix);
        }
        results.push(ModeResult {
            mode: mode.name().to_string(),
            accuracy: acc.accuracy,
            macro_f1: acc.macro_f1,
            per_class_f1: acc.f1.clone(),
        });
    }
    // Today (full scale): macro-F1 0.991 with attributes, 0.450 records-only.
    let (with, without) = (results[0].macro_f1, results[1].macro_f1);
    let checks = vec![
        Check::new(
            "t2.attributes_macro_f1_at_least_0.85",
            with >= 0.85,
            format!("macro-F1 {with:.3}"),
        ),
        Check::new(
            "t2.records_only_clearly_lower",
            without + 0.2 <= with,
            format!("records-only {without:.3} vs with attributes {with:.3} (needs a 0.2 gap)"),
        ),
    ];
    let artifact = T2Output {
        scenario: out.scenario,
        jobs_scored: out.db.jobs.len() as u64,
        modes: results,
    };
    Outcome::new("exp_t2_classifier_accuracy", &artifact, tables, checks)
}
