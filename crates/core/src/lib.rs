//! # tg-core — usage-modality measurement on a simulated federation
//!
//! The reproduction's headline pipeline. The paper proposes *measuring usage
//! modalities* from the records a federated cyberinfrastructure collects;
//! this crate closes the loop on a simulated TeraGrid-like federation:
//!
//! 1. [`sim`] — the event-driven driver: routes generated jobs through the
//!    metascheduler, per-site batch schedulers, the reconfigurable
//!    partitions, data staging, and emits *production-faithful* accounting
//!    records (no ground truth leaks into the record stream).
//! 2. [`classify`] — the measurement pipeline: infers each job's modality
//!    from the accounting database alone, in two modes — with the gateway
//!    attributes / interface tags TeraGrid added, and a records-only
//!    baseline showing why those attributes were needed.
//! 3. [`accuracy`] — confusion matrix and precision/recall/F1 against the
//!    generator's hidden ground truth.
//! 4. [`report`] — the usage-share tables and trend series the paper's
//!    program would publish.
//! 5. [`scenario`] — end-to-end assembly: config → federation + workload →
//!    simulation → outputs.
//! 6. [`runner`] — deterministic parallel replication (one thread per seed,
//!    bit-identical results regardless of thread count).
//!
//! ```
//! use tg_core::{classify_all, Accuracy, ClassifierMode, ScenarioConfig};
//!
//! // Small federation, two days of load, one seed.
//! let mut cfg = ScenarioConfig::baseline(60, 2);
//! cfg.sites[0].batch_nodes = 32;
//! cfg.sites[1].batch_nodes = 32;
//! cfg.sites[2].batch_nodes = 16;
//! let out = cfg.build().run(7);
//! assert!(!out.db.jobs.is_empty());
//!
//! // Measure modalities from records alone, score against hidden truth.
//! let inferred = classify_all(&out.db, ClassifierMode::WithAttributes);
//! let accuracy = Accuracy::score(&out.truth, &inferred);
//! assert!(accuracy.accuracy > 0.8);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod accuracy;
pub mod classify;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod sim;
pub mod survey;

pub use accuracy::{Accuracy, ConfusionMatrix};
pub use classify::{classify_all, ClassifierMode};
pub use report::{FieldShares, GatewayReach, MetricsReport, ModalityShares, UsageReport};
pub use runner::{aggregate_profiles, replicate, replicate_with, run_sweep, Replication};
pub use scenario::{RecordStreaming, RunOptions, Scenario, ScenarioConfig, SimOutput};
pub use sim::{GridSim, StatsReport};

// Observability types surfaced from the DES substrate.
pub use survey::{run_survey, SurveyDesign, SurveyResult};
pub use tg_des::metrics::{EngineProfile, MetricsSnapshot};

// Fault injection rides the scenario config; re-export the spec/report
// types so experiment binaries need only tg-core.
pub use tg_fault::{
    DegradeWindow, FaultReport, FaultSpec, IngestFaults, NodeCrashSpec, OutagePolicy, OutageWindow,
};

// The taxonomy lives with the workload generator (ground truth labels);
// re-export it as part of this crate's public face.
pub use tg_workload::{Labels, Modality};
