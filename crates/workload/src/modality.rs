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

use crate::ids::{JobId, PagedArray};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Ids per page of a [`Labels`] table.
const LABEL_PAGE: usize = 4096;

/// Modality labels by job id: the generator's ground truth, or what a
/// classifier inferred from the records.
///
/// One byte per id (0 for no label, `m.index() + 1` for modality `m`), in
/// pages of 4,096 ids found through an id-hashed directory. Dense ids cost
/// ~1 byte per job; each page a sparse id set touches costs 4 KiB whatever
/// it holds. Iteration is in id order.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Labels {
    bytes: PagedArray<u8, LABEL_PAGE>,
    len: usize,
}

impl Labels {
    /// The label of `id`, if it has one.
    #[inline]
    pub fn get(&self, id: JobId) -> Option<Modality> {
        decode(self.bytes.get(id.index()))
    }

    /// Label `id` as `m`, returning its previous label.
    #[inline]
    pub fn insert(&mut self, id: JobId, m: Modality) -> Option<Modality> {
        let slot = self.bytes.slot_mut(id.index());
        let old = decode(std::mem::replace(slot, m.index() as u8 + 1));
        self.len += usize::from(old.is_none());
        old
    }

    /// Drop the label of `id`, returning it.
    pub fn remove(&mut self, id: JobId) -> Option<Modality> {
        let old = decode(self.bytes.take(id.index()));
        self.len -= usize::from(old.is_some());
        old
    }

    /// Jobs labelled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No job is labelled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pages allocated: each covers 4,096 consecutive ids, at least one of
    /// them labelled.
    pub fn page_count(&self) -> usize {
        self.bytes.page_count()
    }

    /// Every `(id, label)` pair, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, Modality)> + '_ {
        self.bytes.pages().into_iter().flat_map(|(base, page)| {
            page.iter()
                .enumerate()
                .filter_map(move |(k, &b)| decode(b).map(|m| (JobId(base + k), m)))
        })
    }

    /// Every label, in id order.
    pub fn values(&self) -> impl Iterator<Item = Modality> + '_ {
        self.iter().map(|(_, m)| m)
    }
}

/// The modality a label byte encodes (0 is no label).
#[inline]
fn decode(b: u8) -> Option<Modality> {
    (b != 0).then(|| Modality::ALL[usize::from(b) - 1])
}

impl FromIterator<(JobId, Modality)> for Labels {
    fn from_iter<I: IntoIterator<Item = (JobId, Modality)>>(iter: I) -> Self {
        let mut labels = Labels::default();
        labels.extend(iter);
        labels
    }
}

impl Extend<(JobId, Modality)> for Labels {
    fn extend<I: IntoIterator<Item = (JobId, Modality)>>(&mut self, iter: I) {
        for (id, m) in iter {
            self.insert(id, m);
        }
    }
}

impl fmt::Debug for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

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
        // `ALL` lists the variants in declaration order.
        self as usize
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
