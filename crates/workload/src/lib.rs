//! # tg-workload — synthetic workload generation with modality ground truth
//!
//! The paper we reproduce measures *usage modalities*: what users are trying
//! to do and how they go about it. A production grid observes those users;
//! a simulation must synthesize them. This crate generates the load:
//!
//! * [`modality`] — the modality taxonomy itself (ground-truth labels).
//! * [`ids`] — identifiers for users, projects, jobs, gateways, workflows.
//! * [`user`] — the user population: projects with SU allocations, users with
//!   Zipf-skewed activity and a modality profile each.
//! * [`arrival`] — arrival processes: Poisson, diurnal/weekly-modulated
//!   non-homogeneous Poisson (via thinning), and a two-state MMPP for bursts.
//! * [`job`] — the job record every layer above consumes, including the
//!   optional reconfigurable-hardware requirement.
//! * [`dag`] — workflow DAG shapes (chains, fork-join, layered random).
//! * [`profiles`] — per-modality behaviour parameters with literature-shaped
//!   defaults (log-normal runtimes, power-of-two core counts, ...).
//! * [`generator`] — ties it together: produces a deterministic, time-ordered
//!   job stream with ground-truth modality labels attached.
//! * [`swf`] — Standard Workload Format import/export (with extension fields
//!   carrying modality and RC metadata).
//!
//! Generation is **open-loop** (arrival processes don't react to simulated
//! queue state). That matches how the evaluation uses the generator — load
//! levels are set by rate parameters — and keeps generation separable from
//! simulation; DESIGN.md records the simplification.
//!
//! ```
//! use tg_des::RngFactory;
//! use tg_workload::{GeneratorConfig, Modality, WorkloadGenerator};
//!
//! let cfg = GeneratorConfig::baseline(100, 7, 3); // users, days, sites
//! let workload = WorkloadGenerator::new(cfg).generate(&RngFactory::new(42));
//! assert!(!workload.jobs.is_empty());
//! // Every job carries a hidden ground-truth modality label:
//! assert!(workload.jobs_of(Modality::ScienceGateway).count() > 0);
//! // The stream is time-ordered and deterministic in the seed.
//! assert!(workload.jobs.windows(2).all(|w| w[0].submit_time <= w[1].submit_time));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod arrival;
pub mod dag;
mod fanout;
pub mod generator;
pub mod ids;
pub mod job;
pub mod modality;
pub mod profiles;
pub mod stream;
pub mod swf;
pub mod user;

pub use arrival::{ArrivalProcess, DiurnalPoisson, Mmpp2, Poisson};
pub use generator::{GeneratorConfig, WorkloadGenerator};
pub use ids::{EnsembleId, GatewayId, IdMap, JobId, PagedArray, ProjectId, UserId, WorkflowId};
pub use job::{Job, RcRequirement, SubmitInterface};
pub use modality::{Labels, Modality};
pub use profiles::{ModalityProfile, PopulationMix};
pub use stream::{StreamedWorkload, WorkloadStream};
pub use user::{Project, User};
