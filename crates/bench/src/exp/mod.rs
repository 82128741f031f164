//! The experiments, one module per reconstructed table or figure, and the
//! types they share.
//!
//! Each module's `run(scale)` returns an [`Outcome`]: the tables the
//! experiment prints, its JSON artifact and the checks on the shape its
//! claim predicts. A failing check is reported, not raised, so one run
//! lists every broken claim. [`EXPERIMENTS`] maps ids to these functions.

use crate::emit::Table;
use serde::Serialize;

pub mod a1;
pub mod a2;
pub mod a3;
pub mod a4;
pub mod f1;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod f7;
pub mod f8;
pub mod r1;
pub mod r2;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t4;
pub mod t5;
pub mod t6;

/// How large an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The published size: the base seed, replication count and grid the
    /// artifacts in `results/` come from.
    Full,
    /// A small scenario for tests, with every base seed shifted by the
    /// given offset. Only the experiments `tests/claims.rs` runs (t1, t2,
    /// f1, f2, t5, t6, r1) have one; the others run full scale regardless.
    Quick(u64),
}

impl Scale {
    /// `full` at full scale, `quick` otherwise.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick(_) => quick,
        }
    }

    /// `base`, shifted by the quick scale's seed offset.
    pub fn seed(self, base: u64) -> u64 {
        match self {
            Scale::Full => base,
            Scale::Quick(offset) => base + offset,
        }
    }
}

/// One named claim check.
#[derive(Debug, Clone)]
pub struct Check {
    /// `<id>.<claim>`, for example `t1.gateway_users_exceed_batch`.
    pub name: String,
    /// Whether the claim held.
    pub ok: bool,
    /// The numbers the claim was decided on.
    pub detail: String,
}

/// What one experiment run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The tables it prints.
    pub tables: Vec<Table>,
    /// Artifact file stem (`results/<artifact>.json`).
    pub artifact: &'static str,
    /// The artifact's content.
    pub json: serde_json::Value,
    /// Its claim checks, in the order they were made.
    pub checks: Vec<Check>,
}

impl Check {
    /// A check called `name` that held if `ok`, decided on `detail`.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Self {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

impl Outcome {
    /// An outcome: its `tables`, the artifact `value` and its `checks`.
    pub fn new(
        artifact: &'static str,
        value: &impl Serialize,
        tables: Vec<Table>,
        checks: Vec<Check>,
    ) -> Self {
        Outcome {
            tables,
            artifact,
            json: serde_json::to_value(value),
            checks,
        }
    }

    /// The check called `name`. Panics if there is none, so a test naming
    /// a check that was renamed away fails instead of passing vacuously.
    pub fn get(&self, name: &str) -> &Check {
        self.checks
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no check named {name}"))
    }

    /// The checks that failed.
    pub fn failures(&self) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(|c| !c.ok)
    }
}

/// An experiment: its short id (`t1` … `r2`, the `exp` binary's argument)
/// and the function that runs it.
pub type Experiment = (&'static str, fn(Scale) -> Outcome);

/// Every experiment, in `DESIGN.md` §4 order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("t1", t1::run),
    ("t2", t2::run),
    ("f1", f1::run),
    ("f2", f2::run),
    ("f3", f3::run),
    ("f4", f4::run),
    ("t3", t3::run),
    ("f5", f5::run),
    ("f6", f6::run),
    ("f7", f7::run),
    ("t4", t4::run),
    ("f8", f8::run),
    ("a1", a1::run),
    ("a2", a2::run),
    ("t5", t5::run),
    ("t6", t6::run),
    ("a3", a3::run),
    ("a4", a4::run),
    ("r1", r1::run),
    ("r2", r2::run),
];

/// Arithmetic mean, `0.0` for an empty slice.
pub(crate) fn mean(v: &[f64]) -> f64 {
    mean_by(v, |&x| x)
}

/// Mean of `f` over `items` (summed in order), `0.0` when there are none.
pub(crate) fn mean_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    items.iter().map(f).sum::<f64>() / items.len().max(1) as f64
}
