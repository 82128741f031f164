//! # tg-fault — deterministic fault injection for the federation simulator
//!
//! Production TeraGrid lived with node failures, scheduled site maintenance,
//! WAN brown-outs, and a lossy central-accounting ingest. This crate models
//! all four as a **deterministic, seed-derived fault schedule**:
//!
//! * a declarative [`FaultSpec`] (JSON-serializable, checked into configs),
//! * compiled by [`FaultSpec::compile`] into a time-sorted [`FaultSchedule`]
//!   of [`FaultEvent`]s the DES driver in `tg-core` injects as ordinary
//!   events,
//! * and a [`FaultReport`] the driver fills in (downtime per site, jobs
//!   killed/requeued/abandoned, accounting records lost/duplicated).
//!
//! ## Determinism contract
//!
//! Compilation draws stochastic crash/repair times from dedicated
//! [`tg_des::rng`] streams (`"fault.crash"`, one per site), so the same
//! `(spec, master seed)` always yields a byte-identical schedule — and
//! enabling faults never perturbs any *other* component's draws. The
//! record-ingest loss channel likewise owns the `"fault.ingest"` stream.
//!
//! The crate is pure data + compilation; all actuation (killing jobs,
//! freezing queues, degrading links, dropping records) lives in the driver.

#![warn(missing_docs)]
#![deny(unsafe_code)]

use serde::{Deserialize, Serialize};
use tg_des::param::Rule;
use tg_des::{RngFactory, SimTime, StreamId};
use tg_model::SiteId;
use tg_sched::RetryPolicy;

/// Stochastic node-crash process, applied independently at every site.
///
/// Crashes are generated sequentially per site: exponential time-to-failure
/// (`mtbf_hours`), then an exponential repair (`repair_hours`) before the
/// next failure can occur — at most one crash outstanding per site, a
/// deliberate simplification that keeps crash/repair pairing trivial.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct NodeCrashSpec {
    /// Mean time between failures per site, hours.
    pub mtbf_hours: f64,
    /// Mean repair time, hours.
    pub repair_hours: f64,
    /// Cores lost per crash (clamped to the site's size at compile time).
    pub cores_per_crash: usize,
    /// Generate crashes over `[0, horizon_days]`.
    pub horizon_days: f64,
}

/// One scheduled whole-site outage window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct OutageWindow {
    /// Site index.
    pub site: usize,
    /// Outage start, hours from simulation start.
    pub start_hours: f64,
    /// Outage length, hours.
    pub duration_hours: f64,
    /// Advance notice given to the site's scheduler (0 = unannounced).
    #[serde(default)]
    pub notice_hours: f64,
}

/// One WAN-degradation window on a site's uplink.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DegradeWindow {
    /// Site index.
    pub site: usize,
    /// Window start, hours from simulation start.
    pub start_hours: f64,
    /// Window length, hours.
    pub duration_hours: f64,
    /// Factor ≥ 1 dividing the uplink's bandwidth for the window.
    pub bandwidth_factor: f64,
    /// Factor ≥ 1 multiplying the uplink's latency for the window.
    pub latency_factor: f64,
}

/// Accounting-ingest corruption: each record independently dropped or
/// duplicated before it reaches the central database. Ground truth is never
/// touched — this models measurement loss, not workload loss.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct IngestFaults {
    /// Probability a record is silently dropped.
    #[serde(default)]
    pub loss: f64,
    /// Probability a record is ingested twice.
    #[serde(default)]
    pub duplication: f64,
}

/// What happens to work running at a site when the whole site goes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum OutagePolicy {
    /// Running work is lost and requeued from scratch (bounded retries).
    #[default]
    Requeue,
    /// Running work checkpoints at the outage instant and restarts with only
    /// its remaining runtime (retries not charged).
    Checkpoint,
}

/// Declarative fault-injection specification.
///
/// Every section is optional; an empty spec compiles to an empty schedule
/// and the driver behaves exactly as if faults were disabled.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultSpec {
    /// Stochastic per-site node crashes.
    #[serde(default)]
    pub node_crashes: Option<NodeCrashSpec>,
    /// Scheduled whole-site outages.
    #[serde(default)]
    pub site_outages: Vec<OutageWindow>,
    /// WAN-degradation windows.
    #[serde(default)]
    pub wan_degradations: Vec<DegradeWindow>,
    /// Accounting-ingest loss/duplication.
    #[serde(default)]
    pub ingest: Option<IngestFaults>,
    /// Requeue-on-failure policy for killed jobs.
    #[serde(default)]
    pub retry: Option<RetryPolicy>,
    /// Fate of work running when a site outage begins.
    #[serde(default)]
    pub outage_policy: OutagePolicy,
}

/// What a single fault event does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultEventKind {
    /// `cores` cores at `site` fail; running work on them is killed.
    NodeCrash {
        /// Affected site.
        site: SiteId,
        /// Cores lost.
        cores: usize,
    },
    /// Crashed cores at `site` return to service.
    NodeRepair {
        /// Affected site.
        site: SiteId,
        /// Cores repaired.
        cores: usize,
    },
    /// Advance warning: `site` will go down at `outage_at`. The site's
    /// scheduler receives a drain notice and stops starting work that would
    /// outlive the deadline.
    OutageNotice {
        /// Affected site.
        site: SiteId,
        /// When the outage begins.
        outage_at: SimTime,
    },
    /// The whole site goes down: queue frozen, running work killed (or
    /// checkpointed, per [`OutagePolicy`]).
    SiteOutage {
        /// Affected site.
        site: SiteId,
    },
    /// The site comes back up and its queue thaws.
    SiteRecovery {
        /// Affected site.
        site: SiteId,
    },
    /// The site's uplink degrades for a window.
    LinkDegrade {
        /// Affected site.
        site: SiteId,
        /// Bandwidth divisor ≥ 1.
        bandwidth_factor: f64,
        /// Latency multiplier ≥ 1.
        latency_factor: f64,
    },
    /// The site's uplink returns to configured parameters.
    LinkRestore {
        /// Affected site.
        site: SiteId,
    },
}

impl FaultEventKind {
    /// The site this event acts on.
    pub fn site(&self) -> SiteId {
        match *self {
            FaultEventKind::NodeCrash { site, .. }
            | FaultEventKind::NodeRepair { site, .. }
            | FaultEventKind::OutageNotice { site, .. }
            | FaultEventKind::SiteOutage { site }
            | FaultEventKind::SiteRecovery { site }
            | FaultEventKind::LinkDegrade { site, .. }
            | FaultEventKind::LinkRestore { site } => site,
        }
    }
}

/// One compiled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultEvent {
    /// When the event fires.
    pub at: SimTime,
    /// What it does.
    pub kind: FaultEventKind,
}

/// The compiled, time-sorted fault schedule for one run.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FaultSchedule {
    /// Events in firing order (stable-sorted by time; ties keep the
    /// generation order: crashes per site, then outages, then WAN windows).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Number of compiled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was compiled (faults effectively disabled).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

fn hours(h: f64) -> SimTime {
    SimTime::ZERO + tg_des::SimDuration::from_secs_f64(h.max(0.0) * 3600.0)
}

impl FaultSpec {
    /// True when the spec would inject nothing at all.
    pub fn is_trivial(&self) -> bool {
        self.node_crashes.is_none()
            && self.site_outages.is_empty()
            && self.wan_degradations.is_empty()
            && self.ingest.is_none()
    }

    /// Validate against a federation of `nsites` sites: every window names
    /// a site in range, every time is finite, rates and durations are
    /// positive, degradation factors are ≥ 1 and probabilities lie in
    /// `[0, 1]`. Returns a human-readable error for the first problem
    /// found, led by the path of the offending field within the spec. A
    /// spec that passes compiles without panicking.
    pub fn validate(&self, nsites: usize) -> Result<(), String> {
        let site = |path: String, site: usize| {
            if site < nsites {
                Ok(())
            } else {
                Err(format!(
                    "{path}: site {site} is out of range (federation has {nsites} sites)"
                ))
            }
        };
        if let Some(nc) = &self.node_crashes {
            Rule::Positive.check("node_crashes.mtbf_hours", nc.mtbf_hours)?;
            Rule::Positive.check("node_crashes.repair_hours", nc.repair_hours)?;
            Rule::Finite.check("node_crashes.horizon_days", nc.horizon_days)?;
        }
        for (i, w) in self.site_outages.iter().enumerate() {
            let at = |field: &str| format!("site_outages[{i}].{field}");
            site(at("site"), w.site)?;
            Rule::Finite.check(&at("start_hours"), w.start_hours)?;
            Rule::Positive.check(&at("duration_hours"), w.duration_hours)?;
            Rule::Finite.check(&at("notice_hours"), w.notice_hours)?;
        }
        for (i, w) in self.wan_degradations.iter().enumerate() {
            let at = |field: &str| format!("wan_degradations[{i}].{field}");
            site(at("site"), w.site)?;
            Rule::Finite.check(&at("start_hours"), w.start_hours)?;
            Rule::Finite.check(&at("duration_hours"), w.duration_hours)?;
            Rule::AtLeast(1.0).check(&at("bandwidth_factor"), w.bandwidth_factor)?;
            Rule::AtLeast(1.0).check(&at("latency_factor"), w.latency_factor)?;
        }
        if let Some(ingest) = &self.ingest {
            Rule::Probability.check("ingest.loss", ingest.loss)?;
            Rule::Probability.check("ingest.duplication", ingest.duplication)?;
        }
        Ok(())
    }

    /// The effective retry policy (spec override or default).
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry.unwrap_or_default()
    }

    /// Compile the spec into a time-sorted event schedule for a federation
    /// whose site `i` has `site_cores[i]` batch cores.
    ///
    /// Stochastic crash times come from per-site `"fault.crash"` streams of
    /// `factory`, so the schedule is a pure function of `(spec, site count,
    /// master seed)` and never perturbs other components' draws.
    ///
    /// Panics if a window names a site outside the federation, or a rate,
    /// duration or factor is out of range; [`FaultSpec::validate`] reports
    /// all of these as errors instead.
    pub fn compile(&self, site_cores: &[usize], factory: &RngFactory) -> FaultSchedule {
        let mut events = Vec::new();

        if let Some(nc) = &self.node_crashes {
            assert!(nc.mtbf_hours > 0.0, "mtbf must be positive");
            assert!(nc.repair_hours > 0.0, "repair time must be positive");
            for (i, &cores) in site_cores.iter().enumerate() {
                if cores == 0 {
                    continue;
                }
                let site = SiteId(i);
                let per_crash = nc.cores_per_crash.clamp(1, cores);
                let mut rng = factory.stream(StreamId::new("fault.crash", i as u64));
                let mut t = 0.0;
                loop {
                    t += nc.mtbf_hours * rng.standard_exponential();
                    if t >= nc.horizon_days * 24.0 {
                        break;
                    }
                    let repair = (nc.repair_hours * rng.standard_exponential()).max(1.0 / 3600.0);
                    events.push(FaultEvent {
                        at: hours(t),
                        kind: FaultEventKind::NodeCrash {
                            site,
                            cores: per_crash,
                        },
                    });
                    events.push(FaultEvent {
                        at: hours(t + repair),
                        kind: FaultEventKind::NodeRepair {
                            site,
                            cores: per_crash,
                        },
                    });
                    t += repair;
                }
            }
        }

        for w in &self.site_outages {
            assert!(w.site < site_cores.len(), "outage names unknown site");
            assert!(w.duration_hours > 0.0, "outage must have duration");
            let site = SiteId(w.site);
            let start = hours(w.start_hours);
            if w.notice_hours > 0.0 {
                events.push(FaultEvent {
                    at: hours(w.start_hours - w.notice_hours),
                    kind: FaultEventKind::OutageNotice {
                        site,
                        outage_at: start,
                    },
                });
            }
            events.push(FaultEvent {
                at: start,
                kind: FaultEventKind::SiteOutage { site },
            });
            events.push(FaultEvent {
                at: hours(w.start_hours + w.duration_hours),
                kind: FaultEventKind::SiteRecovery { site },
            });
        }

        for w in &self.wan_degradations {
            assert!(w.site < site_cores.len(), "degradation names unknown site");
            assert!(w.bandwidth_factor >= 1.0, "bandwidth factor must be >= 1");
            assert!(w.latency_factor >= 1.0, "latency factor must be >= 1");
            let site = SiteId(w.site);
            events.push(FaultEvent {
                at: hours(w.start_hours),
                kind: FaultEventKind::LinkDegrade {
                    site,
                    bandwidth_factor: w.bandwidth_factor,
                    latency_factor: w.latency_factor,
                },
            });
            events.push(FaultEvent {
                at: hours(w.start_hours + w.duration_hours),
                kind: FaultEventKind::LinkRestore { site },
            });
        }

        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }
}

/// What fault injection did to one run — filled in by the driver, surfaced
/// in `SimOutput` and the `tgsim` summary.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FaultReport {
    /// Node-crash events that actually fired (crashes during an outage are
    /// absorbed by it and not counted).
    pub node_crashes: u64,
    /// Whole-site outages that fired.
    pub site_outages: u64,
    /// Whole-site downtime per site, seconds.
    pub downtime_by_site: Vec<f64>,
    /// Uplink-degraded time per site, seconds.
    pub degraded_by_site: Vec<f64>,
    /// Running jobs killed by crashes/outages (checkpoint restarts included).
    pub jobs_killed: u64,
    /// Kills that led to a resubmission.
    pub jobs_requeued: u64,
    /// Kills that exhausted the retry budget; the job never completes.
    pub jobs_abandoned: u64,
    /// Outage kills resumed from checkpoint (only under
    /// [`OutagePolicy::Checkpoint`]).
    pub checkpoint_restarts: u64,
    /// Accounting records dropped by the lossy ingest.
    pub records_lost: u64,
    /// Accounting records ingested twice.
    pub records_duplicated: u64,
}

impl FaultReport {
    /// An empty report sized for `sites` sites.
    pub fn new(sites: usize) -> Self {
        FaultReport {
            downtime_by_site: vec![0.0; sites],
            degraded_by_site: vec![0.0; sites],
            ..FaultReport::default()
        }
    }

    /// Total whole-site downtime across the federation, seconds.
    pub fn total_downtime_s(&self) -> f64 {
        self.downtime_by_site.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_spec() -> FaultSpec {
        FaultSpec {
            node_crashes: Some(NodeCrashSpec {
                mtbf_hours: 48.0,
                repair_hours: 2.0,
                cores_per_crash: 8,
                horizon_days: 14.0,
            }),
            site_outages: vec![OutageWindow {
                site: 1,
                start_hours: 96.0,
                duration_hours: 12.0,
                notice_hours: 2.0,
            }],
            wan_degradations: vec![DegradeWindow {
                site: 0,
                start_hours: 24.0,
                duration_hours: 6.0,
                bandwidth_factor: 10.0,
                latency_factor: 5.0,
            }],
            ingest: Some(IngestFaults {
                loss: 0.05,
                duplication: 0.01,
            }),
            retry: None,
            outage_policy: OutagePolicy::Requeue,
        }
    }

    #[test]
    fn empty_spec_is_trivial_and_compiles_to_nothing() {
        let spec = FaultSpec::default();
        assert!(spec.is_trivial());
        let sched = spec.compile(&[64, 64], &RngFactory::new(1));
        assert!(sched.is_empty());
        assert_eq!(spec.retry_policy(), RetryPolicy::default());
    }

    #[test]
    fn spec_json_roundtrip_with_defaults() {
        let spec = demo_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // A minimal JSON object deserializes via field defaults.
        let minimal: FaultSpec = serde_json::from_str("{}").unwrap();
        assert!(minimal.is_trivial());
        assert_eq!(minimal.outage_policy, OutagePolicy::Requeue);
    }

    #[test]
    fn same_seed_compiles_byte_identical_schedules() {
        let spec = demo_spec();
        let cores = [512, 2048, 512];
        let a = spec.compile(&cores, &RngFactory::new(77));
        let b = spec.compile(&cores, &RngFactory::new(77));
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let c = spec.compile(&cores, &RngFactory::new(78));
        assert_ne!(a, c, "different seed, different crash times");
    }

    #[test]
    fn schedule_is_time_sorted_with_paired_events() {
        let spec = demo_spec();
        let sched = spec.compile(&[512, 2048], &RngFactory::new(5));
        assert!(!sched.is_empty());
        for pair in sched.events.windows(2) {
            assert!(pair[0].at <= pair[1].at, "events out of order");
        }
        let count =
            |f: fn(&FaultEventKind) -> bool| sched.events.iter().filter(|e| f(&e.kind)).count();
        assert_eq!(
            count(|k| matches!(k, FaultEventKind::NodeCrash { .. })),
            count(|k| matches!(k, FaultEventKind::NodeRepair { .. })),
            "every crash has a repair"
        );
        assert_eq!(count(|k| matches!(k, FaultEventKind::SiteOutage { .. })), 1);
        assert_eq!(
            count(|k| matches!(k, FaultEventKind::SiteRecovery { .. })),
            1
        );
        assert_eq!(
            count(|k| matches!(k, FaultEventKind::OutageNotice { .. })),
            1
        );
        // Notice precedes its outage by the configured 2 h.
        let notice = sched
            .events
            .iter()
            .find(|e| matches!(e.kind, FaultEventKind::OutageNotice { .. }))
            .unwrap();
        assert_eq!(notice.at, hours(94.0));
        match notice.kind {
            FaultEventKind::OutageNotice { outage_at, .. } => {
                assert_eq!(outage_at, hours(96.0));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn crashes_stay_inside_the_horizon_and_respect_site_size() {
        let spec = FaultSpec {
            node_crashes: Some(NodeCrashSpec {
                mtbf_hours: 6.0,
                repair_hours: 1.0,
                cores_per_crash: 1000,
                horizon_days: 7.0,
            }),
            ..FaultSpec::default()
        };
        let sched = spec.compile(&[16], &RngFactory::new(3));
        let horizon = hours(7.0 * 24.0);
        let mut crashes = 0;
        for e in &sched.events {
            if let FaultEventKind::NodeCrash { cores, .. } = e.kind {
                crashes += 1;
                assert!(e.at < horizon, "crash past the horizon");
                assert_eq!(cores, 16, "clamped to the site size");
            }
        }
        assert!(crashes > 0, "a week at 6 h MTBF should crash");
    }

    #[test]
    #[should_panic(expected = "unknown site")]
    fn outage_on_unknown_site_panics() {
        let spec = FaultSpec {
            site_outages: vec![OutageWindow {
                site: 9,
                start_hours: 1.0,
                duration_hours: 1.0,
                notice_hours: 0.0,
            }],
            ..FaultSpec::default()
        };
        spec.compile(&[64], &RngFactory::new(1));
    }

    #[test]
    fn report_accumulates() {
        let mut r = FaultReport::new(2);
        r.downtime_by_site[1] += 3600.0;
        r.jobs_killed += 2;
        assert_eq!(r.total_downtime_s(), 3600.0);
        assert_eq!(r.downtime_by_site.len(), 2);
    }
}
