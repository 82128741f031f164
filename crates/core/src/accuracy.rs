//! Scoring inferred modalities against ground truth.

use serde::{Deserialize, Serialize};
use std::fmt;
use tg_workload::{Labels, Modality};

const N: usize = Modality::ALL.len();

/// A 7×7 confusion matrix: `counts[truth][inferred]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<u64>>,
}

impl Default for ConfusionMatrix {
    fn default() -> Self {
        ConfusionMatrix {
            counts: vec![vec![0; N]; N],
        }
    }
}

impl ConfusionMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one `(truth, inferred)` pair.
    pub fn record(&mut self, truth: Modality, inferred: Modality) {
        self.counts[truth.index()][inferred.index()] += 1;
    }

    /// The count at `(truth, inferred)`.
    pub fn get(&self, truth: Modality, inferred: Modality) -> u64 {
        self.counts[truth.index()][inferred.index()]
    }

    /// Total pairs recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Correctly labeled pairs (the diagonal).
    pub fn correct(&self) -> u64 {
        (0..N).map(|i| self.counts[i][i]).sum()
    }

    /// Build from a truth map and an inferred map (jobs missing from
    /// `inferred` are skipped — they never completed).
    pub fn from_maps(truth: &Labels, inferred: &Labels) -> Self {
        let mut m = ConfusionMatrix::new();
        for (job, t) in truth.iter() {
            if let Some(i) = inferred.get(job) {
                m.record(t, i);
            }
        }
        m
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>12}", "truth\\inf")?;
        for m in Modality::ALL {
            write!(f, "{:>12}", m.name())?;
        }
        writeln!(f)?;
        for t in Modality::ALL {
            write!(f, "{:>12}", t.name())?;
            for i in Modality::ALL {
                write!(f, "{:>12}", self.get(t, i))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Per-class and aggregate accuracy metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Accuracy {
    /// The underlying confusion matrix.
    pub matrix: ConfusionMatrix,
    /// Per-class precision, in [`Modality::ALL`] order (`None` if the class
    /// was never predicted).
    pub precision: Vec<Option<f64>>,
    /// Per-class recall (`None` if the class never occurred).
    pub recall: Vec<Option<f64>>,
    /// Per-class F1 (`None` if either component is undefined).
    pub f1: Vec<Option<f64>>,
    /// Overall fraction correct.
    pub accuracy: f64,
    /// Macro-averaged F1 over classes that occurred.
    pub macro_f1: f64,
}

impl Accuracy {
    /// Compute all metrics from a confusion matrix.
    pub fn from_matrix(matrix: ConfusionMatrix) -> Self {
        let mut precision = Vec::with_capacity(N);
        let mut recall = Vec::with_capacity(N);
        let mut f1 = Vec::with_capacity(N);
        for c in 0..N {
            let tp = matrix.counts[c][c];
            let predicted: u64 = (0..N).map(|t| matrix.counts[t][c]).sum();
            let actual: u64 = matrix.counts[c].iter().sum();
            let p = (predicted > 0).then(|| tp as f64 / predicted as f64);
            let r = (actual > 0).then(|| tp as f64 / actual as f64);
            let f = match (p, r) {
                (Some(p), Some(r)) if p + r > 0.0 => Some(2.0 * p * r / (p + r)),
                (Some(_), Some(_)) => Some(0.0),
                _ => None,
            };
            precision.push(p);
            recall.push(r);
            f1.push(f);
        }
        let total = matrix.total();
        let accuracy = if total > 0 {
            matrix.correct() as f64 / total as f64
        } else {
            0.0
        };
        // Macro-F1 over classes that actually occur in the truth.
        let occurring: Vec<f64> = (0..N)
            .filter(|&c| matrix.counts[c].iter().sum::<u64>() > 0)
            .map(|c| f1[c].unwrap_or(0.0))
            .collect();
        let macro_f1 = if occurring.is_empty() {
            0.0
        } else {
            occurring.iter().sum::<f64>() / occurring.len() as f64
        };
        Accuracy {
            matrix,
            precision,
            recall,
            f1,
            accuracy,
            macro_f1,
        }
    }

    /// Convenience: score inferred labels against truth.
    pub fn score(truth: &Labels, inferred: &Labels) -> Self {
        Accuracy::from_matrix(ConfusionMatrix::from_maps(truth, inferred))
    }

    /// Per-class F1 for one modality.
    pub fn f1_of(&self, m: Modality) -> Option<f64> {
        self.f1[m.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_workload::JobId;

    fn maps(pairs: &[(usize, Modality, Modality)]) -> (Labels, Labels) {
        let truth = pairs.iter().map(|&(i, t, _)| (JobId(i), t)).collect();
        let inferred = pairs.iter().map(|&(i, _, p)| (JobId(i), p)).collect();
        (truth, inferred)
    }

    #[test]
    fn perfect_classification() {
        let (t, i) = maps(&[
            (0, Modality::BatchComputing, Modality::BatchComputing),
            (1, Modality::ScienceGateway, Modality::ScienceGateway),
            (2, Modality::Workflow, Modality::Workflow),
        ]);
        let a = Accuracy::score(&t, &i);
        assert_eq!(a.accuracy, 1.0);
        assert_eq!(a.macro_f1, 1.0);
        assert_eq!(a.f1_of(Modality::Workflow), Some(1.0));
        assert_eq!(a.f1_of(Modality::RcAccelerated), None, "class absent");
    }

    #[test]
    fn mixed_classification_metrics() {
        use Modality::*;
        // 3 batch (2 right, 1 called workflow), 1 workflow called batch.
        let (t, i) = maps(&[
            (0, BatchComputing, BatchComputing),
            (1, BatchComputing, BatchComputing),
            (2, BatchComputing, Workflow),
            (3, Workflow, BatchComputing),
        ]);
        let a = Accuracy::score(&t, &i);
        assert!((a.accuracy - 0.5).abs() < 1e-12);
        // Batch: precision 2/3, recall 2/3 → F1 2/3.
        assert!((a.f1_of(BatchComputing).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        // Workflow: precision 0/1, recall 0/1 → F1 0.
        assert_eq!(a.f1_of(Workflow), Some(0.0));
        assert!((a.macro_f1 - (2.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn missing_inferred_jobs_are_skipped() {
        let truth: Labels = [
            (JobId(0), Modality::BatchComputing),
            (JobId(1), Modality::Ensemble),
        ]
        .into_iter()
        .collect();
        let inferred: Labels = [(JobId(0), Modality::BatchComputing)].into_iter().collect();
        let m = ConfusionMatrix::from_maps(&truth, &inferred);
        assert_eq!(m.total(), 1);
        assert_eq!(m.correct(), 1);
    }

    #[test]
    fn empty_is_zero_not_nan() {
        let a = Accuracy::from_matrix(ConfusionMatrix::new());
        assert_eq!(a.accuracy, 0.0);
        assert_eq!(a.macro_f1, 0.0);
    }

    #[test]
    fn display_renders_all_classes() {
        let mut m = ConfusionMatrix::new();
        m.record(Modality::Ensemble, Modality::Workflow);
        let s = m.to_string();
        assert!(s.contains("ensemble"));
        assert!(s.contains("workflow"));
        assert!(s.contains("gateway"));
    }
}
