//! # tg-model — the federated-grid resource model
//!
//! A passive (state + queries, no event logic) model of a TeraGrid-like
//! cyberinfrastructure federation:
//!
//! * [`ids`] — strongly-typed identifiers shared by the upper layers.
//! * [`site`] / [`cluster`] — compute sites, each with a space-shared batch
//!   partition tracked at core granularity.
//! * [`reconf`] — the reconfigurable-node extension the calibration bands
//!   call out: per-node FPGA area, loaded-configuration tracking, bitstream
//!   caching, reconfiguration cost accounting, and wasted-area statistics.
//! * [`network`] — inter-site links with latency + bandwidth, used for data
//!   staging and configuration-bitstream transfer times.
//! * [`config`] — `serde`-serializable scenario descriptions for all of the
//!   above, plus a [`config::ConfigLibrary`] of processor configurations
//!   (area, bitstream size, speedup) that reconfigurable tasks reference.
//! * [`federation`] — the assembled model and its builder.
//!
//! Dynamics — who runs when, queueing, reconfiguration decisions — live in
//! `tg-sched` and `tg-core`; this crate only answers "what exists, what is
//! free, what would that cost".
//!
//! ```
//! use tg_des::SimTime;
//! use tg_model::config::ProcessorConfig;
//! use tg_model::{ConfigLibrary, Federation, SiteConfig};
//!
//! let mut library = ConfigLibrary::new();
//! let kernel = library.add(ProcessorConfig::new("smith-waterman", 4, 20.0));
//!
//! let mut fed = Federation::builder()
//!     .site(SiteConfig::medium("alpha"))
//!     .site(SiteConfig::rc_site("gamma", 8, 8))
//!     .library(library)
//!     .repository_at(0)
//!     .build();
//!
//! // Host the kernel on the RC partition: plan, price, commit, finish.
//! use tg_model::{NodeId, SiteId};
//! let site = SiteId(1);
//! let lib = fed.library.clone();
//! let node = fed.site_mut(site).rc.node_mut(NodeId(0));
//! let plan = node.plan(kernel, &lib);
//! let region = node.commit(plan, kernel, &lib, SimTime::ZERO);
//! node.finish(region, SimTime::from_secs(120));
//! assert_eq!(node.stats().completed, 1);
//! assert!(node.has_idle_config(kernel), "region stays reusable");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod federation;
pub mod ids;
pub mod network;
pub mod reconf;
pub mod site;

pub use cluster::Cluster;
pub use config::{ConfigLibrary, ProcessorConfig, SiteConfig};
pub use federation::{Federation, FederationBuilder};
pub use ids::{ConfigId, NodeId, SiteId};
pub use network::{LinkDegradation, Network};
pub use reconf::{RcNode, RcPartition, ReconfCost};
pub use site::Site;
