//! Usage record types — what central accounting actually observes.
//!
//! Deliberately *excluded* from [`JobRecord`]: ground-truth modality,
//! workflow membership, ensemble membership. Production accounting doesn't
//! record those; the measurement pipeline must recover them from what is
//! here (interfaces, gateway attributes, timing, shape). Keeping the record
//! honest is what makes the classifier-accuracy experiment (T2) meaningful.

use serde::{Deserialize, Serialize};
use tg_des::{SimDuration, SimTime};
use tg_model::{ConfigId, NodeId, SiteId};
use tg_workload::{GatewayId, JobId, ProjectId, SubmitInterface, UserId};

/// A completed (or killed) job, as the site reports it upstream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub job: JobId,
    /// Submitting account.
    pub user: UserId,
    /// Charged project.
    pub project: ProjectId,
    /// Executing site.
    pub site: SiteId,
    /// Submission instant.
    pub submit: SimTime,
    /// Start instant.
    pub start: SimTime,
    /// Completion instant.
    pub end: SimTime,
    /// Cores held.
    pub cores: usize,
    /// Submission interface (observable: gateways and engines tag traffic).
    pub interface: SubmitInterface,
    /// Whether the job executed on reconfigurable hardware.
    pub used_hw: bool,
    /// Input staged in, MB.
    pub input_mb: f64,
    /// Output staged out, MB.
    pub output_mb: f64,
}

impl JobRecord {
    /// Queue wait time.
    pub fn wait(&self) -> SimDuration {
        self.start.saturating_since(self.submit)
    }

    /// Wall-clock runtime.
    pub fn wall(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Core-hours consumed.
    pub fn core_hours(&self) -> f64 {
        self.cores as f64 * self.wall().as_hours_f64()
    }

    /// Bounded slowdown with a 10-second floor (the standard metric).
    pub fn bounded_slowdown(&self) -> f64 {
        let wall = self.wall().as_secs_f64().max(10.0);
        (self.wait().as_secs_f64() + wall) / wall
    }
}

/// A wide-area data transfer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// Initiating account.
    pub user: UserId,
    /// Charged project.
    pub project: ProjectId,
    /// Source site.
    pub src: SiteId,
    /// Destination site.
    pub dst: SiteId,
    /// Megabytes moved.
    pub mb: f64,
    /// Transfer start.
    pub start: SimTime,
    /// Transfer end.
    pub end: SimTime,
}

/// An interactive login session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Account.
    pub user: UserId,
    /// Site logged into.
    pub site: SiteId,
    /// Login instant.
    pub login: SimTime,
    /// Logout instant.
    pub logout: SimTime,
}

/// A science-gateway end-user attribute: the gateway's declaration of which
/// of *its* (community) users a job served. TeraGrid added exactly this to
/// make gateway usage measurable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewayAttribute {
    /// The gateway.
    pub gateway: GatewayId,
    /// The job the attribute annotates.
    pub job: JobId,
    /// Opaque per-end-user tag (the gateway's own user id space).
    pub end_user: u64,
}

/// A reconfigurable placement record: emitted by the RC partition's local
/// resource manager alongside the job record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RcPlacementRecord {
    /// The job placed.
    pub job: JobId,
    /// Executing site.
    pub site: SiteId,
    /// Node within the RC partition.
    pub node: NodeId,
    /// Configuration used.
    pub config: ConfigId,
    /// Whether an existing idle region was reused (zero setup).
    pub reused: bool,
    /// Bitstream transfer latency paid.
    pub transfer: SimDuration,
    /// Fabric reconfiguration latency paid.
    pub reconfig: SimDuration,
    /// Whether the task's deadline (if any) was met.
    pub deadline_met: Option<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(submit: u64, start: u64, end: u64, cores: usize) -> JobRecord {
        JobRecord {
            job: JobId(0),
            user: UserId(0),
            project: ProjectId(0),
            site: SiteId(0),
            submit: SimTime::from_secs(submit),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(end),
            cores,
            interface: SubmitInterface::CommandLine,
            used_hw: false,
            input_mb: 0.0,
            output_mb: 0.0,
        }
    }

    #[test]
    fn job_record_derived_metrics() {
        let r = rec(0, 600, 4200, 8);
        assert_eq!(r.wait(), SimDuration::from_mins(10));
        assert_eq!(r.wall(), SimDuration::from_mins(60));
        assert!((r.core_hours() - 8.0).abs() < 1e-9);
        // slowdown = (600 + 3600)/3600
        assert!((r.bounded_slowdown() - 4200.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn bounded_slowdown_floors_short_jobs() {
        let r = rec(0, 100, 101, 1); // 1-second job, 100 s wait
                                     // floor at 10 s: (100 + 10)/10 = 11
        assert!((r.bounded_slowdown() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn records_serialize() {
        let r = rec(0, 1, 2, 4);
        let json = serde_json::to_string(&r).unwrap();
        let back: JobRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
