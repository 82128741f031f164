//! The central accounting database (in-memory).
//!
//! Sites stream records upstream; the database stores them append-only, one
//! plain `Vec` per record stream, and serves the aggregation queries in
//! [`crate::query`]. It keeps no index: ingestion stays a push, and
//! [`AccountingDb::merge`] and (de)serialization never have an index to
//! invalidate. A query that looks records up by job or user builds the index
//! it needs once per call ([`AccountingDb::gateway_job_ids`],
//! [`AccountingDb::rc_placed_job_ids`], the per-user pass in
//! [`crate::query::user_summaries`]) so that it stays linear in the record
//! count; a scan per job would make it quadratic.

use crate::record::{
    GatewayAttribute, JobRecord, RcPlacementRecord, SessionRecord, TransferRecord,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use tg_workload::JobId;

/// The federation's accounting store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AccountingDb {
    /// Completed jobs.
    pub jobs: Vec<JobRecord>,
    /// Data transfers.
    pub transfers: Vec<TransferRecord>,
    /// Login sessions.
    pub sessions: Vec<SessionRecord>,
    /// Gateway end-user attributes.
    pub gateway_attrs: Vec<GatewayAttribute>,
    /// RC placement records.
    pub rc_placements: Vec<RcPlacementRecord>,
}

impl AccountingDb {
    /// An empty database.
    pub fn new() -> Self {
        AccountingDb::default()
    }

    /// Ingest a job record.
    pub fn add_job(&mut self, r: JobRecord) {
        self.jobs.push(r);
    }

    /// Ingest a transfer record.
    pub fn add_transfer(&mut self, r: TransferRecord) {
        self.transfers.push(r);
    }

    /// Ingest a session record.
    pub fn add_session(&mut self, r: SessionRecord) {
        self.sessions.push(r);
    }

    /// Ingest a gateway attribute.
    pub fn add_gateway_attr(&mut self, r: GatewayAttribute) {
        self.gateway_attrs.push(r);
    }

    /// Ingest an RC placement record.
    pub fn add_rc_placement(&mut self, r: RcPlacementRecord) {
        self.rc_placements.push(r);
    }

    /// Total records across streams.
    pub fn len(&self) -> usize {
        self.jobs.len()
            + self.transfers.len()
            + self.sessions.len()
            + self.gateway_attrs.len()
            + self.rc_placements.len()
    }

    /// True if nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does `job` carry a gateway attribute? Each call scans every
    /// attribute, so this is for a single lookup; a per-job loop should
    /// build [`AccountingDb::gateway_job_ids`] once instead.
    pub fn has_gateway_attr(&self, job: JobId) -> bool {
        self.gateway_attrs.iter().any(|a| a.job == job)
    }

    /// Ids of the jobs carrying a gateway attribute, in one pass.
    pub fn gateway_job_ids(&self) -> HashSet<JobId> {
        self.gateway_attrs.iter().map(|a| a.job).collect()
    }

    /// Ids of the jobs with an RC placement record, in one pass.
    pub fn rc_placed_job_ids(&self) -> HashSet<JobId> {
        self.rc_placements.iter().map(|p| p.job).collect()
    }

    /// Merge another database into this one (parallel replication fan-in).
    pub fn merge(&mut self, other: AccountingDb) {
        self.jobs.extend(other.jobs);
        self.transfers.extend(other.transfers);
        self.sessions.extend(other.sessions);
        self.gateway_attrs.extend(other.gateway_attrs);
        self.rc_placements.extend(other.rc_placements);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_des::{SimDuration, SimTime};
    use tg_model::{ConfigId, NodeId, SiteId};
    use tg_workload::{GatewayId, ProjectId, SubmitInterface, UserId};

    fn job(id: usize) -> JobRecord {
        JobRecord {
            job: JobId(id),
            user: UserId(0),
            project: ProjectId(0),
            site: SiteId(0),
            submit: SimTime::ZERO,
            start: SimTime::ZERO,
            end: SimTime::from_secs(60),
            cores: 1,
            interface: SubmitInterface::CommandLine,
            used_hw: false,
            input_mb: 0.0,
            output_mb: 0.0,
        }
    }

    #[test]
    fn ingest_and_lookup() {
        let mut db = AccountingDb::new();
        assert!(db.is_empty());
        db.add_job(job(1));
        db.add_gateway_attr(GatewayAttribute {
            gateway: GatewayId(0),
            job: JobId(1),
            end_user: 42,
        });
        db.add_rc_placement(RcPlacementRecord {
            job: JobId(1),
            site: SiteId(0),
            node: NodeId(0),
            config: ConfigId(0),
            reused: true,
            transfer: SimDuration::ZERO,
            reconfig: SimDuration::ZERO,
            deadline_met: None,
        });
        assert_eq!(db.len(), 3);
        assert!(db.has_gateway_attr(JobId(1)));
        assert!(!db.has_gateway_attr(JobId(2)));
        assert_eq!(db.gateway_job_ids(), HashSet::from([JobId(1)]));
        assert_eq!(db.rc_placed_job_ids(), HashSet::from([JobId(1)]));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = AccountingDb::new();
        a.add_job(job(1));
        let mut b = AccountingDb::new();
        b.add_job(job(2));
        b.add_session(SessionRecord {
            user: UserId(0),
            site: SiteId(0),
            login: SimTime::ZERO,
            logout: SimTime::from_secs(100),
        });
        a.merge(b);
        assert_eq!(a.jobs.len(), 2);
        assert_eq!(a.sessions.len(), 1);
    }
}
