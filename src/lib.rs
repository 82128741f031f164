//! # teragrid-repro — umbrella crate
//!
//! Re-exports the public faces of the workspace crates so the runnable
//! examples (`examples/`) and cross-crate integration tests (`tests/`) can
//! use one import, and so downstream users get a single dependency:
//!
//! ```
//! use teragrid_repro::prelude::*;
//!
//! let out = ScenarioConfig::baseline(50, 2).build().run(1);
//! assert!(!out.db.jobs.is_empty());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

/// One-stop imports for driving the simulator end to end.
pub mod prelude {
    pub use tg_accounting::{AccountingDb, ChargePolicy, JobRecord};
    pub use tg_core::report::{
        FieldShares, MetricsReport, ModalityShares, ModalityTrend, UsageReport,
    };
    pub use tg_core::{
        aggregate_profiles, classify_all, replicate, replicate_with, run_sweep, Accuracy,
        ClassifierMode, DegradeWindow, EngineProfile, FaultReport, FaultSpec, IngestFaults, Labels,
        MetricsSnapshot, Modality, NodeCrashSpec, OutagePolicy, OutageWindow, RecordStreaming,
        RunOptions, Scenario, ScenarioConfig, SimOutput,
    };
    pub use tg_des::{RngFactory, SimDuration, SimTime};
    pub use tg_model::{ConfigLibrary, Federation, SiteConfig, SiteId};
    pub use tg_sched::{MetaPolicy, RcPolicy, RetryPolicy, SchedulerKind};
    pub use tg_workload::{
        GeneratorConfig, Job, JobId, Modality as WorkloadModality, ModalityProfile, PopulationMix,
        WorkloadGenerator,
    };
}

pub use prelude::*;
