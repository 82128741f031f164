//! # tg-bench — the experiment harness
//!
//! One library function per reconstructed table/figure (see `DESIGN.md` §4
//! for the index), each returning its tables, its JSON artifact and the
//! checks on the shape its claim predicts ([`exp`]). The `exp <id>|all`
//! binary runs them at full scale, prints the tables and one line per
//! check, and writes each artifact to `results/` (override with
//! `TG_RESULTS_DIR`). Every experiment fixes its base seed, replication
//! count and grid, so each artifact is a pure function of the code.
//!
//! The rest is what the experiments share: result emission ([`emit`]),
//! scenario construction and calibration ([`setup`]) and the trace
//! analyzer cross-check ([`xcheck`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod emit;
pub mod exp;
pub mod setup;
pub mod xcheck;

pub use setup::{rc_only_config, rc_tasks_per_day_for_load, single_site_config, synthetic_library};
