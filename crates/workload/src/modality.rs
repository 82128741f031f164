//! The usage-modality taxonomy.
//!
//! The paper's abstract defines a usage modality as *what objective a user is
//! pursuing and how they go about achieving it*. The taxonomy below follows
//! the access patterns TeraGrid distinguished operationally — how work
//! reached the machines and what shape it had — extended with the
//! reconfigurable-acceleration modality the calibration bands scope in.
//!
//! Each variant's documentation records (a) the objective, (b) the
//! observable footprint it leaves in accounting records — which is exactly
//! what the measurement pipeline in `tg-core` keys on.

use crate::ids::{IdMap, JobId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Modality labels by job id: the generator's ground truth, or what a
/// classifier inferred from the records. Hashed by id, not SipHash; only
/// integer tallies iterate one, so its order reaches no output.
pub type Labels = IdMap<JobId, Modality>;

/// How a user (or their agent) uses the cyberinfrastructure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Modality {
    /// Classic remote batch computing: log in, submit independent jobs to
    /// the queue, wait. Footprint: command-line submissions, moderate-to-
    /// large core counts, runtimes of hours, low per-user job rates.
    BatchComputing,
    /// Interactive use: login sessions, development, debugging, small
    /// short jobs expected to start immediately. Footprint: session records
    /// plus many tiny short jobs during business hours.
    Interactive,
    /// Access through a science gateway: a web portal submitting on behalf
    /// of many *community* end users under one community account.
    /// Footprint: one account with very high job rates, small jobs, and
    /// gateway end-user attributes attached.
    ScienceGateway,
    /// Workflow / metascheduled computing: an engine submits DAGs of
    /// dependent tasks, often across sites. Footprint: bursts of related
    /// jobs with dependency structure and workflow-engine submit interface.
    Workflow,
    /// Ensemble / high-throughput computing: large batches of similar
    /// independent jobs (parameter sweeps). Footprint: many same-shape jobs
    /// submitted together by one user.
    Ensemble,
    /// Data-centric use: staging, archiving and moving large datasets;
    /// compute is incidental. Footprint: transfer records dominating SUs.
    DataMovement,
    /// Reconfigurable-accelerated computing: tasks carrying an FPGA kernel
    /// requirement, scheduled onto the RC partitions. Footprint: RC
    /// placement records (configuration ids, reconfiguration events).
    RcAccelerated,
}

impl Modality {
    /// Every modality, in canonical (report) order.
    pub const ALL: [Modality; 7] = [
        Modality::BatchComputing,
        Modality::Interactive,
        Modality::ScienceGateway,
        Modality::Workflow,
        Modality::Ensemble,
        Modality::DataMovement,
        Modality::RcAccelerated,
    ];

    /// Stable short name used in reports and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Modality::BatchComputing => "batch",
            Modality::Interactive => "interactive",
            Modality::ScienceGateway => "gateway",
            Modality::Workflow => "workflow",
            Modality::Ensemble => "ensemble",
            Modality::DataMovement => "data",
            Modality::RcAccelerated => "rc",
        }
    }

    /// Parse a short name produced by [`Modality::name`].
    pub fn from_name(s: &str) -> Option<Modality> {
        Modality::ALL.iter().copied().find(|m| m.name() == s)
    }

    /// Canonical index in `[0, 7)`, matching [`Modality::ALL`] order.
    pub fn index(self) -> usize {
        Modality::ALL
            .iter()
            .position(|&m| m == self)
            .expect("modality present in ALL")
    }

    /// The measurement mechanisms TeraGrid-style accounting offers for this
    /// modality (for the T1 taxonomy table).
    pub fn measured_by(self) -> &'static str {
        match self {
            Modality::BatchComputing => "central accounting job records",
            Modality::Interactive => "login session records + job records",
            Modality::ScienceGateway => "community-account records + gateway user attributes",
            Modality::Workflow => "job records + submit-interface tags + dependency metadata",
            Modality::Ensemble => "job records (batch shape analysis)",
            Modality::DataMovement => "transfer / archive records",
            Modality::RcAccelerated => "RC placement records (configurations, reconfigurations)",
        }
    }
}

impl fmt::Display for Modality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_unique_entries_and_indexes_agree() {
        for (i, m) in Modality::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
        let mut names: Vec<_> = Modality::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Modality::ALL.len());
    }

    #[test]
    fn name_roundtrip() {
        for m in Modality::ALL {
            assert_eq!(Modality::from_name(m.name()), Some(m));
        }
        assert_eq!(Modality::from_name("nope"), None);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Modality::ScienceGateway.to_string(), "gateway");
    }

    #[test]
    fn every_modality_names_a_measurement_mechanism() {
        for m in Modality::ALL {
            assert!(!m.measured_by().is_empty());
        }
    }
}
