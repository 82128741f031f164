//! Per-job lifecycle spans.
//!
//! A **span** is one contiguous phase of a job's life — held on workflow
//! dependencies, staging input, waiting in a batch queue, reconfiguring a
//! fabric region, running, staging output. Simulators emit spans through the
//! ordinary [`crate::trace::Tracer`] as structured entries with category
//! `"span"`, so any archived JSONL trace can be sliced offline into
//! wait/stage/run breakdowns (see [`crate::analyze`]) without re-running the
//! simulation.
//!
//! ## Trace schema (version [`SPAN_SCHEMA_VERSION`])
//!
//! One JSON object per line, `cat == "span"`, fields:
//!
//! ```text
//! {"t":<emit secs>,"cat":"span","fields":{
//!     "v":1,              span schema version
//!     "job":<id>,         job id
//!     "kind":"queued",    held|stage_in|queued|reconfig|run|stage_out|fault|requeue
//!     "t0":<secs>,        span start (virtual seconds)
//!     "t1":<secs>,        span end
//!     "modality":"batch", ground-truth modality label (observability only)
//!     "site":<idx>,       site index (omitted while unrouted)
//!     "cause":"ahead-in-queue"  wait attribution (queued/reconfig only)
//! }}
//! ```
//!
//! `t` is the *emission* instant: equal to `t1` for every kind except
//! `stage_out`, whose end is known (deterministically) at emission time but
//! lies in the future. Consumers should read `t0`/`t1`, never `t`.
//!
//! Spans partition a completed job's `submit → finish` interval: sorted by
//! `t0` they are contiguous (each starts where the previous ended), the
//! first starts at the job's submit instant, and the `run` span ends at the
//! job's recorded end. `stage_out` begins exactly at the run end and extends
//! past it (the archive write outlives the job). Under fault injection a
//! killed attempt contributes a `fault` span (the lost execution) followed
//! by a `requeue` span (retry backoff); the accounting record then covers
//! only the final, successful attempt.
//!
//! Everything here is observer-only: emitting spans never draws randomness
//! or schedules events, so traced and untraced runs are bit-identical.

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Version of the span trace schema documented in this module. Bump when a
/// field is added, removed, or reinterpreted.
pub const SPAN_SCHEMA_VERSION: u64 = 1;

/// The trace category span entries are emitted under.
pub const SPAN_CATEGORY: &str = "span";

/// What phase of the job's life a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Held before routing: workflow dependencies not yet complete.
    Held,
    /// Input data staging over the WAN before queueing.
    StageIn,
    /// Waiting in a batch queue (or an RC backlog) for resources.
    Queued,
    /// Fabric setup: bitstream transfer plus region reconfiguration.
    Reconfig,
    /// Executing.
    Run,
    /// Output data staging to the archive after completion.
    StageOut,
    /// Executing, but killed by a fault (node crash / site outage) before
    /// finishing; `t0..t1` is the lost execution interval. The `cause`
    /// field carries the fault kind.
    Fault,
    /// Backoff between a fault kill and the job's resubmission.
    Requeue,
}

impl SpanKind {
    /// All kinds, in lifecycle order (fault kinds last — they interleave).
    pub const ALL: [SpanKind; 8] = [
        SpanKind::Held,
        SpanKind::StageIn,
        SpanKind::Queued,
        SpanKind::Reconfig,
        SpanKind::Run,
        SpanKind::StageOut,
        SpanKind::Fault,
        SpanKind::Requeue,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Held => "held",
            SpanKind::StageIn => "stage_in",
            SpanKind::Queued => "queued",
            SpanKind::Reconfig => "reconfig",
            SpanKind::Run => "run",
            SpanKind::StageOut => "stage_out",
            SpanKind::Fault => "fault",
            SpanKind::Requeue => "requeue",
        }
    }

    /// Parse a wire name back into a kind.
    pub fn from_name(name: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Does this kind count toward a job's pre-execution wait? These are the
    /// spans whose durations sum to `start − submit` in the job's accounting
    /// record (held time is *before* the recorded submit, and stage-out is
    /// after the end).
    pub fn is_wait(self) -> bool {
        matches!(
            self,
            SpanKind::StageIn | SpanKind::Queued | SpanKind::Reconfig
        )
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a job waited: the dominant cause the scheduler attributes to the
/// wait interval it just ended by starting the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitCause {
    /// No wait: the job started at its first scheduling opportunity.
    Immediate,
    /// Blocked behind earlier-arrived work (FCFS order, reservations of
    /// jobs ahead).
    AheadInQueue,
    /// Eligible to overtake but no backfill hole large enough opened until
    /// now.
    BackfillHole,
    /// An armed drain window (capability clear-out) withheld resources.
    DrainWindow,
    /// Fabric setup latency: bitstream transfer + reconfiguration.
    ReconfigLatency,
    /// The reconfigurable fabric had no free region; the task was deferred.
    FabricBusy,
    /// Killed by a fault-injected node crash (attributes `fault` spans).
    NodeFailure,
    /// Killed or frozen by a fault-injected whole-site outage.
    SiteOutage,
    /// The job's dataset was already resident at the chosen site (cache or
    /// permanent replica); stage-in cost was avoided (attributes `stage_in`
    /// spans).
    CacheHit,
    /// The job's dataset missed locally and was fetched over the WAN from
    /// the nearest replica holder (attributes `stage_in` spans).
    CacheMiss,
}

impl WaitCause {
    /// All causes.
    pub const ALL: [WaitCause; 10] = [
        WaitCause::Immediate,
        WaitCause::AheadInQueue,
        WaitCause::BackfillHole,
        WaitCause::DrainWindow,
        WaitCause::ReconfigLatency,
        WaitCause::FabricBusy,
        WaitCause::NodeFailure,
        WaitCause::SiteOutage,
        WaitCause::CacheHit,
        WaitCause::CacheMiss,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            WaitCause::Immediate => "immediate",
            WaitCause::AheadInQueue => "ahead-in-queue",
            WaitCause::BackfillHole => "backfill-hole-too-small",
            WaitCause::DrainWindow => "drain-window",
            WaitCause::ReconfigLatency => "reconfig-latency",
            WaitCause::FabricBusy => "fabric-busy",
            WaitCause::NodeFailure => "node-failure",
            WaitCause::SiteOutage => "site-outage",
            WaitCause::CacheHit => "cache-hit",
            WaitCause::CacheMiss => "cache-miss",
        }
    }

    /// Parse a wire name back into a cause.
    pub fn from_name(name: &str) -> Option<WaitCause> {
        WaitCause::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reconstructed span (the in-memory form of a `cat == "span"` trace
/// line; see the module docs for the wire schema).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Job id.
    pub job: u64,
    /// Phase covered.
    pub kind: SpanKind,
    /// Start, virtual seconds.
    pub t0: f64,
    /// End, virtual seconds.
    pub t1: f64,
    /// Site index, when routed.
    pub site: Option<u64>,
    /// Wait attribution (queued / reconfig spans).
    pub cause: Option<WaitCause>,
    /// Ground-truth modality label carried for offline slicing.
    pub modality: Option<String>,
}

impl Span {
    /// Span length on the simulator's microsecond clock (never negative).
    /// The wire bounds are microsecond instants printed as shortest
    /// round-trip seconds, so rounding them back recovers the emitting
    /// run's exact `t1 - t0`.
    pub fn elapsed(&self) -> SimDuration {
        SimTime::from_secs_f64(self.t1).saturating_since(SimTime::from_secs_f64(self.t0))
    }

    /// Span length in seconds (never negative): bit-for-bit the duration
    /// the emitting simulation recorded online.
    pub fn duration(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for k in SpanKind::ALL {
            assert_eq!(SpanKind::from_name(k.name()), Some(k));
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(SpanKind::from_name("nope"), None);
    }

    #[test]
    fn cause_names_roundtrip() {
        for c in WaitCause::ALL {
            assert_eq!(WaitCause::from_name(c.name()), Some(c));
            assert_eq!(format!("{c}"), c.name());
        }
        assert_eq!(WaitCause::from_name(""), None);
    }

    #[test]
    fn wait_kinds_are_the_pre_execution_phases() {
        assert!(SpanKind::StageIn.is_wait());
        assert!(SpanKind::Queued.is_wait());
        assert!(SpanKind::Reconfig.is_wait());
        assert!(!SpanKind::Held.is_wait());
        assert!(!SpanKind::Run.is_wait());
        assert!(!SpanKind::StageOut.is_wait());
        // Fault kinds belong to aborted attempts, not the final record's
        // submit→start wait, so the wait-sum invariant excludes them.
        assert!(!SpanKind::Fault.is_wait());
        assert!(!SpanKind::Requeue.is_wait());
    }

    #[test]
    fn duration_clamps_negative() {
        let s = Span {
            job: 1,
            kind: SpanKind::Run,
            t0: 5.0,
            t1: 3.0,
            site: None,
            cause: None,
            modality: None,
        };
        assert_eq!(s.duration(), 0.0);
        let ok = Span { t1: 9.0, ..s };
        assert_eq!(ok.duration(), 4.0);
    }
}
