//! The event-driven federation simulator.
//!
//! `GridSim` wires the passive resource model (`tg-model`), the generated
//! workload (`tg-workload`), and the schedulers (`tg-sched`) into one event
//! loop, and emits accounting records (`tg-accounting`) as a production
//! federation would.
//!
//! ## Job lifecycle
//!
//! ```text
//! Submit ──deps?──▶ held until parents complete (workflow engine release)
//!        └────────▶ route: RC task → RC partition flow
//!                          else    → metascheduler picks site
//!                   staging: big inputs transfer before queueing
//!                   site queue → batch scheduler → start → complete
//!                   completion → records, dependent release, backfill pass
//! ```
//!
//! ## Instrumentation fidelity
//!
//! Records carry only what production accounting sees. Two deliberate
//! touches of realism:
//!
//! * Gateway jobs are recorded under their gateway's **community account**
//!   (one account per gateway), with a `GatewayAttribute` naming the end
//!   user — exactly the mechanism TeraGrid introduced. The submitting
//!   person's identity is *not* in the job record.
//! * A workflow task's recorded submit time is its *release* time (when its
//!   dependencies finished and the engine handed it to the queue), because
//!   that is when the queue first saw it.

use std::collections::{HashMap, HashSet, VecDeque};
use tg_accounting::{
    AccountingDb, GatewayAttribute, IngestTally, JobRecord, RcPlacementRecord, RecordRef,
    RecordSink, SessionRecord, TransferRecord,
};
use tg_data::{DataLayer, DataReport, Locate};
use tg_des::metrics::{CounterId, GaugeId, MetricsRegistry, MetricsSnapshot};
use tg_des::series::{SeriesSnapshot, WindowedSeries};
use tg_des::sketch::{SpanSketchbook, SpanStatsSnapshot};
use tg_des::span::{SpanKind, WaitCause, SPAN_CATEGORY, SPAN_SCHEMA_VERSION};
use tg_des::trace::{TraceHealth, TraceValue, Tracer};
use tg_des::{
    Ctx, Engine, EventKey, RngFactory, SimDuration, SimRng, SimTime, Simulation, StopCondition,
    StreamId,
};
use tg_fault::{FaultEventKind, FaultReport, FaultSchedule, FaultSpec, OutagePolicy};
use tg_model::reconf::HostPlan;
use tg_model::{Federation, SiteId};
use tg_sched::{
    BatchScheduler, DataContext, MetaPolicy, RcDecision, RcPolicy, RetryBook, RetryPolicy, SiteView,
};
use tg_workload::{Job, JobId, Modality, UserId};

/// Base offset for synthetic gateway community accounts in job records.
pub const COMMUNITY_ACCOUNT_BASE: usize = 10_000_000;

/// Inputs/outputs at or above this size (MB) are staged over the WAN and
/// produce transfer records; smaller ones ride along invisibly.
pub const STAGING_THRESHOLD_MB: f64 = 500.0;

/// Simulation events.
#[derive(Debug)]
pub enum Event {
    /// A job arrives from the workload trace (index into the job list).
    Submit(usize),
    /// A job arrives from a *streamed* workload (the job rides in the event
    /// itself — there is no materialized job list to index into).
    SubmitJob(Box<Job>),
    /// A job (input staged, deps met) reaches a site's batch queue.
    Enqueue {
        /// Target site.
        site: SiteId,
        /// The job.
        job: Box<Job>,
        /// How the job's dataset was satisfied (`CacheHit`/`CacheMiss`),
        /// carried from the routing decision so the stage-in span emitted
        /// at enqueue time names the cause. `None` for jobs without a
        /// dataset (the pre-data-grid event, byte-identical behaviour).
        cause: Option<WaitCause>,
    },
    /// A batch job completes. The job itself (plus its site and start time)
    /// lives in the simulation's running registry — the event carries only
    /// the id, so dispatching never clones the job.
    Complete {
        /// The finished job.
        id: JobId,
    },
    /// An RC (hardware) task completes on a fabric region.
    RcComplete {
        /// Site of the RC partition.
        site: SiteId,
        /// Node within the partition.
        node: tg_model::NodeId,
        /// Region to release.
        region: tg_model::reconf::RegionId,
        /// The finished job.
        job: Box<Job>,
        /// When its *execution* began (after setup).
        started: SimTime,
        /// The placement record to emit.
        placement: RcPlacementRecord,
    },
    /// Timer for time-triggered scheduler policies (weekly drain).
    SchedWakeup {
        /// Site whose scheduler asked for the wakeup.
        site: SiteId,
    },
    /// Periodic metric sample (enabled via [`GridSim::with_sampling`]).
    Sample,
    /// A compiled fault-schedule event fires (index into the schedule
    /// attached by [`GridSim::with_faults`]).
    Fault(usize),
    /// A fault-killed job returns from its retry backoff and resubmits.
    Requeue {
        /// The job being resubmitted.
        job: Box<Job>,
        /// When the fault killed it (the requeue span's start).
        killed_at: SimTime,
    },
}

/// One accounting record on its way through the (possibly lossy) ingest
/// channel to the database or the record sink.
#[derive(Debug, Clone)]
enum Record {
    Job(JobRecord),
    Transfer(TransferRecord),
    Session(SessionRecord),
    Gateway(GatewayAttribute),
    Rc(RcPlacementRecord),
}

impl Record {
    fn apply(self, db: &mut AccountingDb) {
        match self {
            Record::Job(r) => db.add_job(r),
            Record::Transfer(r) => db.add_transfer(r),
            Record::Session(r) => db.add_session(r),
            Record::Gateway(r) => db.add_gateway_attr(r),
            Record::Rc(r) => db.add_rc_placement(r),
        }
    }

    /// Borrowed view for streaming sinks.
    fn as_record_ref(&self) -> RecordRef<'_> {
        match self {
            Record::Job(r) => RecordRef::Job(r),
            Record::Transfer(r) => RecordRef::Transfer(r),
            Record::Session(r) => RecordRef::Session(r),
            Record::Gateway(r) => RecordRef::Gateway(r),
            Record::Rc(r) => RecordRef::Rc(r),
        }
    }
}

/// Where a job currently is in its lifecycle, for span emission. Tracked
/// only while the tracer is enabled; spans are pure observers and never
/// influence simulation behavior.
#[derive(Debug, Clone, Copy)]
struct SpanTrack {
    /// When the current lifecycle phase began.
    phase_start: SimTime,
    /// Whether the job sat in an RC backlog (fabric full) this phase.
    deferred: bool,
}

/// The online observability layer (`--live-stats`): span-duration sketches
/// plus the windowed operational series, with an optional JSONL sink that
/// receives one row per closed series bucket. Disabled by default; see
/// [`GridSim::with_live_stats`]. Like the tracer and metrics, everything
/// here is a pure observer — it never draws randomness, schedules events,
/// or feeds back into a decision, so observed and unobserved runs stay
/// byte-identical.
struct Obs {
    sketches: SpanSketchbook,
    series: WindowedSeries,
    /// Live JSONL sink for closed buckets.
    sink: Option<Box<dyn std::io::Write + Send>>,
    sink_errors: u64,
}

impl Obs {
    fn disabled() -> Self {
        Obs {
            sketches: SpanSketchbook::disabled(),
            series: WindowedSeries::disabled(),
            sink: None,
            sink_errors: 0,
        }
    }

    fn is_enabled(&self) -> bool {
        self.sketches.is_enabled()
    }

    /// Emit any series buckets that closed before `now` to the live sink.
    /// One compare when no sink is attached or no boundary has passed.
    fn tick(&mut self, now: SimTime) {
        if self.sink.is_none() {
            return;
        }
        let rows = self.series.drain_closed(now);
        if rows.is_empty() {
            return;
        }
        let sink = self.sink.as_mut().expect("checked above");
        for row in rows {
            let line = serde_json::to_string(&row).expect("series row serializes");
            if writeln!(sink, "{line}").is_err() {
                self.sink_errors += 1;
            }
        }
    }

    /// Close out the layer at run end: flush remaining buckets to the sink
    /// and snapshot the final report. `None` when the layer was disabled.
    fn finish(&mut self, end: SimTime) -> Option<StatsReport> {
        if !self.is_enabled() {
            return None;
        }
        let spans = self.sketches.snapshot();
        let already = self.series.drained_buckets();
        let series = self.series.snapshot(end);
        if let Some(sink) = self.sink.as_mut() {
            // The final snapshot covers every bucket; emit the tail the
            // periodic drain had not reached (the last row is the partial
            // end-of-run bucket, so live files always end on the final
            // window).
            for row in series.rows.iter().skip(already) {
                let line = serde_json::to_string(row).expect("series row serializes");
                if writeln!(sink, "{line}").is_err() {
                    self.sink_errors += 1;
                }
            }
            if sink.flush().is_err() {
                self.sink_errors += 1;
            }
        }
        Some(StatsReport {
            spans,
            series,
            live_sink_errors: self.sink_errors,
        })
    }
}

/// Final online-statistics report: the analyzer-aligned sketch tables plus
/// the windowed series. Rides in [`FinishedSim::stats`] /
/// `SimOutput::stats` when `--live-stats` is on.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsReport {
    /// Span-duration sketch tables (kind / cause / site / modality).
    pub spans: SpanStatsSnapshot,
    /// Windowed operational series, one row per virtual-time bucket.
    pub series: SeriesSnapshot,
    /// Write failures on the live JSONL sink (0 when none was attached).
    pub live_sink_errors: u64,
}

/// One periodic metric snapshot.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SampleRow {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Instantaneous busy-core fraction per site.
    pub busy_fraction: Vec<f64>,
    /// Queue length per site.
    pub queue_len: Vec<usize>,
}

/// Pre-registered instrument handles for [`GridSim`]'s metrics registry.
/// Registration happens unconditionally in [`GridSim::new`] (it is cheap and
/// keeps the layout independent of configuration); the registry only records
/// once [`GridSim::with_metrics`] enables it.
struct Instruments {
    submits: CounterId,
    enqueues: CounterId,
    staging_bytes: CounterId,
    staging_transfers: CounterId,
    rc_deferrals: CounterId,
    /// `completed.site.<name>`, site order.
    site_completions: Vec<CounterId>,
    /// `completed.modality.<name>`, [`Modality::ALL`] order.
    modality_completions: Vec<CounterId>,
    /// `sched.backfills.<name>` / `sched.drains.<name>`, harvested from the
    /// schedulers at end of run.
    site_backfills: Vec<CounterId>,
    site_drains: Vec<CounterId>,
    /// Time-weighted busy-core and queue-length gauges per site.
    busy_cores: Vec<GaugeId>,
    queue_len: Vec<GaugeId>,
}

impl Instruments {
    fn register(m: &mut MetricsRegistry, federation: &Federation) -> Self {
        let site_names: Vec<String> = federation.sites().map(|s| s.name().to_string()).collect();
        Instruments {
            submits: m.counter("jobs.submitted"),
            enqueues: m.counter("jobs.enqueued"),
            staging_bytes: m.counter("staging.bytes"),
            staging_transfers: m.counter("staging.transfers"),
            rc_deferrals: m.counter("rc.deferrals"),
            site_completions: site_names
                .iter()
                .map(|n| m.counter(format!("completed.site.{n}")))
                .collect(),
            modality_completions: Modality::ALL
                .iter()
                .map(|md| m.counter(format!("completed.modality.{}", md.name())))
                .collect(),
            site_backfills: site_names
                .iter()
                .map(|n| m.counter(format!("sched.backfills.{n}")))
                .collect(),
            site_drains: site_names
                .iter()
                .map(|n| m.counter(format!("sched.drains.{n}")))
                .collect(),
            busy_cores: site_names
                .iter()
                .map(|n| m.gauge(format!("busy_cores.{n}"), SimTime::ZERO, 0.0))
                .collect(),
            queue_len: site_names
                .iter()
                .map(|n| m.gauge(format!("queue_len.{n}"), SimTime::ZERO, 0.0))
                .collect(),
        }
    }
}

/// A batch job currently executing. The registry owns each dispatched job
/// exactly once — completion moves it back out, and fault injection can kill
/// it by cancelling its completion event (which carries only the id) and
/// requeueing or abandoning the job taken from here. No clone on either
/// path.
struct RunningRec {
    site: SiteId,
    cores: usize,
    key: EventKey,
    started: SimTime,
    job: Job,
}

/// The lossy accounting-ingest channel. Both uniforms are drawn for *every*
/// record regardless of the configured probabilities, so the per-record fate
/// sequence is identical across loss rates (monotone coupling — the R1
/// experiment's accuracy curve degrades monotonically instead of jittering
/// with resampled randomness).
struct IngestChannel {
    loss: f64,
    dup: f64,
    rng: SimRng,
}

/// What the lossy ingest does with one record.
enum IngestFate {
    Keep,
    Drop,
    Duplicate,
}

/// Everything fault injection needs at run time, attached by
/// [`GridSim::with_faults`]. `None` (the default) means the fault path is
/// completely inert: no events, no RNG draws, no job clones.
struct FaultLayer {
    schedule: FaultSchedule,
    outage_policy: OutagePolicy,
    retry: RetryPolicy,
    book: RetryBook,
    ingest: Option<IngestChannel>,
    /// Cores per site currently out of service from node crashes.
    crashed_cores: Vec<usize>,
    /// Free cores per site parked for the duration of a whole-site outage.
    outage_offline: Vec<usize>,
    /// Outage start per site (`Some` while the site is dark).
    down_since: Vec<Option<SimTime>>,
    /// Degradation-window start per site (`Some` while the uplink is slow).
    degraded_since: Vec<Option<SimTime>>,
    report: FaultReport,
}

/// The assembled simulation.
pub struct GridSim {
    /// The resource model (mutated as jobs run).
    pub federation: Federation,
    schedulers: Vec<Box<dyn BatchScheduler>>,
    meta_policy: MetaPolicy,
    rc_policy: RcPolicy,
    data_home: SiteId,
    /// The data grid: replica catalog plus per-site caches (`None` — the
    /// default — is the pre-data-grid simulator, byte-identical behaviour).
    data: Option<DataLayer>,
    jobs: Vec<Option<Job>>,
    /// Ground-truth labels by job id (kept OUT of the record stream).
    truth: HashMap<JobId, Modality>,
    /// Jobs waiting on workflow dependencies. Each held job is registered
    /// under exactly *one* of its unmet deps; when that dep completes the
    /// job is re-examined and either routed or re-registered under another
    /// still-unmet dep. (A per-job unmet counter would go stale: deps the
    /// job is not registered under can complete in the meantime.)
    dep_waiters: HashMap<JobId, Vec<Job>>,
    completed: HashSet<JobId>,
    /// Deferred RC tasks per site (fabric was full).
    rc_backlog: HashMap<SiteId, VecDeque<Job>>,
    /// Running batch jobs by id — the single owner of every dispatched job
    /// until its completion event delivers (RC fabric tasks are tracked by
    /// their own events). Also the fault layer's kill index.
    running: HashMap<JobId, RunningRec>,
    /// Armed scheduler wakeups (dedupe).
    armed_wakeups: HashMap<SiteId, SimTime>,
    rng: RngFactory,
    /// The accounting database being populated.
    pub db: AccountingDb,
    jobs_done: usize,
    jobs_total: usize,
    sample_interval: Option<tg_des::SimDuration>,
    samples: Vec<SampleRow>,
    /// Run-level metrics (disabled by default; see [`GridSim::with_metrics`]).
    metrics: MetricsRegistry,
    ins: Instruments,
    /// Structured JSONL event trace (off by default; see
    /// [`GridSim::with_tracer`]).
    tracer: Tracer,
    /// Per-job lifecycle phase state for span emission (populated only while
    /// the tracer or the online-stats layer is enabled).
    span_track: HashMap<JobId, SpanTrack>,
    /// Online observability (disabled by default; see
    /// [`GridSim::with_live_stats`]).
    obs: Obs,
    /// Fault injection (disabled by default; see [`GridSim::with_faults`]).
    faults: Option<FaultLayer>,
    /// Streaming mode: jobs arrive via [`Event::SubmitJob`] and ground
    /// truth is recorded at admission instead of up front.
    streaming: bool,
    /// Record sink (None = retain in `db`, the default). See
    /// [`GridSim::with_record_sink`].
    record_sink: Option<Box<dyn RecordSink>>,
}

impl GridSim {
    /// Assemble a simulation.
    ///
    /// `schedulers` must have one entry per federation site. `jobs` is the
    /// generated workload (its ground-truth labels are extracted and
    /// quarantined here).
    pub fn new(
        federation: Federation,
        schedulers: Vec<Box<dyn BatchScheduler>>,
        meta_policy: MetaPolicy,
        rc_policy: RcPolicy,
        data_home: SiteId,
        jobs: Vec<Job>,
        rng: RngFactory,
    ) -> Self {
        assert_eq!(schedulers.len(), federation.len(), "one scheduler per site");
        assert!(data_home.index() < federation.len(), "data home must exist");
        let truth: HashMap<JobId, Modality> =
            jobs.iter().map(|j| (j.id, j.true_modality)).collect();
        let jobs_total = jobs.len();
        let rc_backlog = federation
            .site_ids()
            .map(|s| (s, VecDeque::new()))
            .collect();
        let mut metrics = MetricsRegistry::disabled();
        let ins = Instruments::register(&mut metrics, &federation);
        GridSim {
            federation,
            schedulers,
            meta_policy,
            rc_policy,
            data_home,
            data: None,
            jobs: jobs.into_iter().map(Some).collect(),
            truth,
            dep_waiters: HashMap::new(),
            completed: HashSet::new(),
            rc_backlog,
            running: HashMap::new(),
            armed_wakeups: HashMap::new(),
            rng,
            db: AccountingDb::new(),
            jobs_done: 0,
            jobs_total,
            sample_interval: None,
            samples: Vec::new(),
            metrics,
            ins,
            tracer: Tracer::default(),
            span_track: HashMap::new(),
            obs: Obs::disabled(),
            faults: None,
            streaming: false,
            record_sink: None,
        }
    }

    /// Assemble a streaming-mode simulation: no materialized job list.
    /// Exactly `jobs_total` jobs must later arrive through the stream
    /// handed to [`GridSim::run_streaming`]; ground-truth labels are
    /// collected at admission (complete by the end of the run, identical
    /// final contents to the materialized constructor's up-front map).
    pub fn new_streaming(
        federation: Federation,
        schedulers: Vec<Box<dyn BatchScheduler>>,
        meta_policy: MetaPolicy,
        rc_policy: RcPolicy,
        data_home: SiteId,
        jobs_total: usize,
        rng: RngFactory,
    ) -> Self {
        let mut sim = Self::new(
            federation,
            schedulers,
            meta_policy,
            rc_policy,
            data_home,
            Vec::new(),
            rng,
        );
        sim.jobs_total = jobs_total;
        sim.streaming = true;
        sim
    }

    /// Divert accounting records to `sink` instead of retaining them in the
    /// in-memory database. The sink sees the exact post-ingest-fate record
    /// stream the database would have stored (order included); records
    /// never feed back into simulation behaviour, so the diversion cannot
    /// change any event, draw, or decision.
    pub fn with_record_sink(mut self, sink: Box<dyn RecordSink>) -> Self {
        self.record_sink = Some(sink);
        self
    }

    /// Attach a data grid (replica catalog + per-site caches). Dataset-
    /// carrying jobs then resolve their input through the catalog — routed
    /// toward replica holders by the locality-aware metascheduler policy,
    /// hitting or missing the destination cache — instead of paying the
    /// flat `data_home` staging charge. Jobs without a dataset are
    /// untouched, so a workload that attaches no datasets runs
    /// byte-identically with or without the layer.
    pub fn with_data_grid(mut self, layer: DataLayer) -> Self {
        self.data = Some(layer);
        self
    }

    /// Emit one lifecycle span (`cat == "span"`) covering `[t0, t1]` for
    /// `job`. See `tg_des::span` for the schema; `t1` may lie in the future
    /// relative to `now` (stage-out), which is why both bounds are explicit
    /// fields rather than derived from the entry timestamp.
    #[allow(clippy::too_many_arguments)] // a span's fields arrive together
    fn emit_span(
        &mut self,
        now: SimTime,
        job: &Job,
        kind: SpanKind,
        t0: SimTime,
        t1: SimTime,
        site: Option<SiteId>,
        cause: Option<WaitCause>,
    ) {
        // Online stats see every span close the tracer would, without
        // requiring a retained trace.
        self.obs.sketches.record(
            kind,
            cause,
            site.map(|s| s.index()),
            Some(job.true_modality.index()),
            t1.saturating_since(t0).as_secs_f64(),
        );
        self.tracer.emit_event(now, SPAN_CATEGORY, || {
            let mut fields: Vec<(&'static str, TraceValue)> = vec![
                ("v", SPAN_SCHEMA_VERSION.into()),
                ("job", job.id.index().into()),
                ("kind", kind.name().into()),
                ("t0", t0.as_secs_f64().into()),
                ("t1", t1.as_secs_f64().into()),
                ("modality", job.true_modality.name().into()),
            ];
            if let Some(s) = site {
                fields.push(("site", s.index().into()));
            }
            if let Some(c) = cause {
                fields.push(("cause", c.name().into()));
            }
            fields
        });
    }

    /// Enable run-level metrics collection. Metrics are pure observers —
    /// they never draw randomness or schedule events — so enabling them
    /// cannot change any simulation result.
    pub fn with_metrics(mut self) -> Self {
        self.metrics.set_enabled(true);
        self
    }

    /// Attach a JSONL tracer (see [`Tracer::new`]). The tracer observes the
    /// same event stream the records come from; like metrics it never
    /// perturbs the simulation.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Enable periodic metric sampling at `interval`. Sampling stops on its
    /// own once no other events remain, so the run still drains.
    pub fn with_sampling(mut self, interval: tg_des::SimDuration) -> Self {
        assert!(!interval.is_zero(), "sample interval must be positive");
        self.sample_interval = Some(interval);
        self
    }

    /// Enable the online observability layer: span-duration sketches keyed
    /// by `(kind, cause, site, modality)` updated at every span close, plus
    /// the windowed operational series at `bucket` granularity. Pure
    /// observers — nothing here draws randomness, schedules events, or
    /// feeds a decision — so enabling it cannot change any simulation
    /// result.
    pub fn with_live_stats(mut self, bucket: tg_des::SimDuration) -> Self {
        let modalities = Modality::ALL.iter().map(|m| m.name().to_string()).collect();
        self.obs.sketches = SpanSketchbook::enabled(self.federation.len(), modalities);
        let cores: Vec<f64> = self
            .federation
            .sites()
            .map(|s| s.cluster.total_cores() as f64)
            .collect();
        self.obs.series = WindowedSeries::enabled(bucket, &cores);
        self
    }

    /// Attach a live JSONL sink receiving one [`tg_des::series::SeriesRow`]
    /// per closed series bucket (requires [`GridSim::with_live_stats`]).
    /// Write failures are tallied, never fatal, mirroring the trace sink.
    pub fn with_live_sink(mut self, sink: Box<dyn std::io::Write + Send>) -> Self {
        assert!(
            self.obs.is_enabled(),
            "attach a live sink after enabling live stats"
        );
        self.obs.sink = Some(sink);
        self
    }

    /// Attach fault injection. The spec compiles against this simulation's
    /// federation and master seed using dedicated `fault.*` RNG streams, so
    /// the schedule is deterministic per `(spec, seed)` and attaching a
    /// trivial spec — or none at all — leaves every other draw, event, and
    /// record byte-identical to a fault-free run.
    pub fn with_faults(mut self, spec: &FaultSpec) -> Self {
        let site_cores: Vec<usize> = self
            .federation
            .sites()
            .map(|s| s.cluster.total_cores())
            .collect();
        let schedule = spec.compile(&site_cores, &self.rng);
        let sites = site_cores.len();
        let ingest = spec.ingest.map(|i| IngestChannel {
            loss: i.loss,
            dup: i.duplication,
            rng: self.rng.stream(StreamId::new("fault.ingest", 0)),
        });
        self.faults = Some(FaultLayer {
            schedule,
            outage_policy: spec.outage_policy,
            retry: spec.retry_policy(),
            book: RetryBook::new(),
            ingest,
            crashed_cores: vec![0; sites],
            outage_offline: vec![0; sites],
            down_since: vec![None; sites],
            degraded_since: vec![None; sites],
            report: FaultReport::new(sites),
        });
        self
    }

    fn take_sample(&mut self, ctx: &mut Ctx<Event>) {
        let busy_fraction: Vec<f64> = self
            .federation
            .sites()
            .map(|s| s.cluster.busy_cores() as f64 / s.cluster.total_cores() as f64)
            .collect();
        let queue_len: Vec<usize> = self.schedulers.iter().map(|s| s.queue_len()).collect();
        self.samples.push(SampleRow {
            at: ctx.now(),
            busy_fraction,
            queue_len,
        });
        // Reschedule only while other work remains; otherwise the sampler
        // would keep the event queue alive forever.
        if ctx.pending() > 0 {
            let interval = self.sample_interval.expect("sampling enabled");
            ctx.schedule_after(interval, Event::Sample);
        }
    }

    /// Schedule the whole workload's submit events onto `engine`. The
    /// arrivals go in as one stream of job indices sorted by
    /// `(submit_time, index)`: delivery order is bit-identical to per-job
    /// `schedule_at` calls in index order, but the engine's heap stays
    /// sized to the *dynamic* event population instead of holding the
    /// entire workload up front.
    pub fn prime(&self, engine: &mut Engine<Event>) {
        let mut arrivals: Vec<(SimTime, usize)> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let job = job.as_ref().expect("unconsumed at prime time");
                (job.submit_time, i)
            })
            .collect();
        arrivals.sort_unstable();
        engine.schedule_stream(
            arrivals.len() as u64,
            arrivals.into_iter().map(|(at, i)| (at, Event::Submit(i))),
        );
        self.prime_aux(engine);
    }

    /// The non-workload half of priming: the sample tick, then the fault
    /// schedule — in that order, after the submit stream's sequence block,
    /// exactly as [`GridSim::prime`] produces.
    fn prime_aux(&self, engine: &mut Engine<Event>) {
        if let Some(interval) = self.sample_interval {
            engine.schedule_at(SimTime::ZERO + interval, Event::Sample);
        }
        if let Some(f) = &self.faults {
            for (i, ev) in f.schedule.events.iter().enumerate() {
                engine.schedule_at(ev.at, Event::Fault(i));
            }
        }
    }

    /// Run to completion (all jobs done) with a hard event-horizon guard.
    /// Returns the final virtual time.
    pub fn run(self, engine: &mut Engine<Event>) -> FinishedSim {
        self.prime(engine);
        self.drive(engine)
    }

    /// Run a streaming-mode simulation (see [`GridSim::new_streaming`]) to
    /// completion. `jobs` must yield exactly the declared `jobs_total`
    /// jobs sorted by `(submit_time, id)`; the engine pulls them on demand,
    /// so pending workload is O(in-flight), and the delivered event
    /// sequence is bit-identical to a materialized run of the same jobs
    /// (the stream's sequence block is reserved before the sample tick and
    /// fault schedule, mirroring [`GridSim::prime`]'s order).
    pub fn run_streaming(
        self,
        engine: &mut Engine<Event>,
        jobs: impl Iterator<Item = Job> + Send + 'static,
    ) -> FinishedSim {
        assert!(self.streaming, "built with new_streaming");
        engine.schedule_stream(
            self.jobs_total as u64,
            jobs.map(|j| (j.submit_time, Event::SubmitJob(Box::new(j)))),
        );
        self.prime_aux(engine);
        self.drive(engine)
    }

    fn drive(mut self, engine: &mut Engine<Event>) -> FinishedSim {
        engine.run_until(&mut self, StopCondition::Exhausted);
        assert_eq!(
            self.jobs_done,
            self.jobs_total,
            "simulation drained with {} of {} jobs unfinished",
            self.jobs_total - self.jobs_done,
            self.jobs_total
        );
        // Harvest scheduler-side observability counters, then freeze.
        for (i, s) in self.schedulers.iter().enumerate() {
            self.metrics.add(self.ins.site_backfills[i], s.backfills());
            self.metrics.add(self.ins.site_drains[i], s.drains());
        }
        let metrics = self.metrics.snapshot(engine.now());
        let trace_health = self.tracer.close();
        debug_assert!(self.running.is_empty(), "registry drained with the jobs");
        let fault_report = self.faults.take().map(|f| f.report);
        let ingest_tally = self.record_sink.as_mut().map(|s| s.close());
        let stats = self.obs.finish(engine.now());
        let data_report = self.data.as_ref().map(DataLayer::report);
        FinishedSim {
            federation: self.federation,
            db: self.db,
            truth: self.truth,
            end: engine.now(),
            samples: self.samples,
            metrics,
            trace_health,
            fault_report,
            ingest_tally,
            stats,
            data_report,
        }
    }

    /// Ground-truth modality of a job (for scoring only).
    pub fn truth_of(&self, id: JobId) -> Option<Modality> {
        self.truth.get(&id).copied()
    }

    /// Jobs completed so far.
    pub fn jobs_done(&self) -> usize {
        self.jobs_done
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    fn route(&mut self, ctx: &mut Ctx<Event>, mut job: Job) {
        // Workflow release semantics: the queue sees the task now.
        job.submit_time = job.submit_time.max(ctx.now());
        // Span: time between original submission and routing was spent held
        // on workflow dependencies.
        if let Some(track) = self.span_track.get(&job.id).copied() {
            if ctx.now() > track.phase_start {
                self.emit_span(
                    ctx.now(),
                    &job,
                    SpanKind::Held,
                    track.phase_start,
                    ctx.now(),
                    None,
                    None,
                );
            }
            self.span_track.insert(
                job.id,
                SpanTrack {
                    phase_start: ctx.now(),
                    deferred: false,
                },
            );
        }
        if job.rc.is_some() {
            let site = self.rc_site_for(&job);
            self.route_rc(ctx, site, job);
            return;
        }
        let site = match job.site_hint {
            Some(s) => s,
            None => self.select_site(&job),
        };
        // Data-grid path: a named dataset replaces the flat input-staging
        // charge with replica-catalog / cache mechanics. A hit at the
        // chosen site enqueues immediately; a miss pays the WAN from the
        // nearest replica holder and admits the dataset into the site's
        // cache. Either way the resolution cause rides the event so the
        // stage-in span names it.
        if let (Some(ds), true) = (job.dataset, self.data.is_some()) {
            match self.data.as_mut().expect("checked above").access(
                ds,
                site,
                &self.federation.network,
            ) {
                Locate::Hit => {
                    ctx.schedule_now(Event::Enqueue {
                        site,
                        job: Box::new(job),
                        cause: Some(WaitCause::CacheHit),
                    });
                }
                Locate::Miss { source } => {
                    let mb = self.data.as_ref().expect("checked above").size_mb(ds);
                    let dur = self.federation.network.transfer_time(source, site, mb);
                    self.metrics.add(self.ins.staging_bytes, (mb * 1e6) as u64);
                    self.metrics.inc(self.ins.staging_transfers);
                    self.tracer.emit_event(ctx.now(), "xfer", || {
                        vec![
                            ("job", job.id.index().into()),
                            ("dir", "in".into()),
                            ("src", source.index().into()),
                            ("dst", site.index().into()),
                            ("mb", mb.into()),
                        ]
                    });
                    let rec = TransferRecord {
                        user: self.account_of(&job),
                        project: job.project,
                        src: source,
                        dst: site,
                        mb,
                        start: ctx.now(),
                        end: ctx.now() + dur,
                    };
                    self.ingest(Record::Transfer(rec));
                    ctx.schedule_after(
                        dur,
                        Event::Enqueue {
                            site,
                            job: Box::new(job),
                            cause: Some(WaitCause::CacheMiss),
                        },
                    );
                }
            }
            return;
        }
        // Input staging for large inputs: pay the WAN before queueing.
        if job.input_mb >= STAGING_THRESHOLD_MB && site != self.data_home {
            let dur = self
                .federation
                .network
                .transfer_time(self.data_home, site, job.input_mb);
            self.metrics
                .add(self.ins.staging_bytes, (job.input_mb * 1e6) as u64);
            self.metrics.inc(self.ins.staging_transfers);
            self.tracer.emit_event(ctx.now(), "xfer", || {
                vec![
                    ("job", job.id.index().into()),
                    ("dir", "in".into()),
                    ("dst", site.index().into()),
                    ("mb", job.input_mb.into()),
                ]
            });
            let rec = TransferRecord {
                user: self.account_of(&job),
                project: job.project,
                src: self.data_home,
                dst: site,
                mb: job.input_mb,
                start: ctx.now(),
                end: ctx.now() + dur,
            };
            self.ingest(Record::Transfer(rec));
            ctx.schedule_after(
                dur,
                Event::Enqueue {
                    site,
                    job: Box::new(job),
                    cause: None,
                },
            );
        } else {
            ctx.schedule_now(Event::Enqueue {
                site,
                job: Box::new(job),
                cause: None,
            });
        }
    }

    fn select_site(&mut self, job: &Job) -> SiteId {
        // Queue depth by scheduler queue length × job-average shape is a
        // coarse stand-in; use queue length × estimate of this job.
        let views: Vec<SiteView> = self
            .federation
            .sites()
            .enumerate()
            .map(|(i, s)| SiteView {
                site: s.id(),
                total_cores: s.cluster.total_cores(),
                free_cores: s.cluster.free_cores(),
                queued_core_seconds: self.schedulers[i].queue_len() as f64
                    * job.cores as f64
                    * job.estimate.as_secs_f64(),
                core_speed: s.core_speed(),
            })
            .collect();
        // Under an active whole-site outage the metascheduler routes around
        // the dark site(s) — unless no surviving site could fit this job
        // (or everything is dark), in which case it routes to its normal
        // choice and waits out the outage there. The filter only engages
        // while a site is actually down, so fault-free runs build the
        // identical view vector.
        let views = match &self.faults {
            Some(f)
                if f.down_since.iter().any(Option::is_some)
                    && views.iter().any(|v| {
                        f.down_since[v.site.index()].is_none() && job.cores <= v.total_cores
                    }) =>
            {
                views
                    .into_iter()
                    .filter(|v| f.down_since[v.site.index()].is_none())
                    .collect()
            }
            _ => views,
        };
        // Data-locality context: where the job's dataset is resident right
        // now (permanent replicas plus warm caches) and how big it is. Only
        // dataset-carrying jobs build one; everything else passes `None`,
        // which every policy ignores.
        let holders = job
            .dataset
            .and_then(|d| self.data.as_ref().map(|l| (l.holders(d), l.size_mb(d))));
        let dctx = holders.as_ref().map(|(sites, mb)| DataContext {
            resident: sites,
            size_mb: *mb,
        });
        let mut rng = self
            .rng
            .stream(StreamId::new("meta", job.id.index() as u64));
        self.meta_policy
            .select(
                job,
                &views,
                self.data_home,
                &self.federation.network,
                dctx.as_ref(),
                &mut rng,
            )
            .expect("at least one site fits any generated job")
    }

    fn rc_site_for(&self, job: &Job) -> SiteId {
        if let Some(s) = job.site_hint {
            if self.federation.site(s).has_rc() {
                return s;
            }
        }
        self.federation
            .sites()
            .find(|s| s.has_rc())
            .map(|s| s.id())
            .unwrap_or_else(|| job.site_hint.unwrap_or(SiteId(0)))
    }

    // ------------------------------------------------------------------
    // Batch path
    // ------------------------------------------------------------------

    fn enqueue(&mut self, ctx: &mut Ctx<Event>, site: SiteId, job: Job, cause: Option<WaitCause>) {
        self.metrics.inc(self.ins.enqueues);
        // Span: any gap since routing was input staging over the WAN.
        // Dataset jobs always close a stage-in span — a cache hit closes a
        // zero-length one — so the hit/miss cause is observable; jobs
        // without a dataset keep the pre-data-grid emission rule.
        if let Some(track) = self.span_track.get(&job.id).copied() {
            if ctx.now() > track.phase_start || cause.is_some() {
                self.emit_span(
                    ctx.now(),
                    &job,
                    SpanKind::StageIn,
                    track.phase_start,
                    ctx.now(),
                    Some(site),
                    cause,
                );
                self.span_track.insert(
                    job.id,
                    SpanTrack {
                        phase_start: ctx.now(),
                        ..track
                    },
                );
            }
        }
        self.tracer.emit_event(ctx.now(), "queue", || {
            vec![
                ("job", job.id.index().into()),
                ("site", site.index().into()),
                ("cores", job.cores.into()),
            ]
        });
        self.schedulers[site.index()].submit(ctx.now(), job);
        self.dispatch(ctx, site);
    }

    fn dispatch(&mut self, ctx: &mut Ctx<Event>, site: SiteId) {
        // A site in a whole-site outage is frozen: its queue keeps accepting
        // work but nothing starts until recovery (which dispatches again).
        if self.site_is_down(site) {
            return;
        }
        let speed = self.federation.site(site).core_speed();
        let cluster = &mut self.federation.site_mut(site).cluster;
        let started = self.schedulers[site.index()].make_decisions(ctx.now(), cluster, speed);
        for s in started {
            let actual = s.job.runtime_on(speed, false);
            self.obs.series.on_start(ctx.now());
            // Span: queued phase closes at start. The scheduler attributes the
            // wait from the job's routed submit time; jobs whose queued phase
            // began this instant (e.g. after staging) started immediately.
            if let Some(track) = self.span_track.get(&s.job.id).copied() {
                let cause = if track.phase_start >= ctx.now() {
                    WaitCause::Immediate
                } else {
                    s.cause
                };
                self.emit_span(
                    ctx.now(),
                    &s.job,
                    SpanKind::Queued,
                    track.phase_start,
                    ctx.now(),
                    Some(site),
                    Some(cause),
                );
                self.span_track.insert(
                    s.job.id,
                    SpanTrack {
                        phase_start: ctx.now(),
                        ..track
                    },
                );
            }
            self.tracer.emit_event(ctx.now(), "sched", || {
                vec![
                    ("job", s.job.id.index().into()),
                    ("site", site.index().into()),
                    ("cores", s.job.cores.into()),
                ]
            });
            // The registry takes ownership of the job (no clone); the
            // completion event carries only the id, and the stored event key
            // lets a crash/outage cancel the attempt and requeue the job.
            let key = ctx.schedule_after(actual, Event::Complete { id: s.job.id });
            self.running.insert(
                s.job.id,
                RunningRec {
                    site,
                    cores: s.job.cores,
                    key,
                    started: ctx.now(),
                    job: s.job,
                },
            );
        }
        // Arm a wakeup if the policy wants one (weekly drain).
        if let Some(at) = self.schedulers[site.index()].next_wakeup(ctx.now()) {
            let armed = self.armed_wakeups.get(&site).copied();
            if armed != Some(at) {
                self.armed_wakeups.insert(site, at);
                ctx.schedule_at(at, Event::SchedWakeup { site });
            }
        }
        self.observe_site(ctx.now(), site);
    }

    /// Refresh a site's time-weighted gauges after its state changed.
    fn observe_site(&mut self, now: SimTime, site: SiteId) {
        let series_on = self.obs.series.is_enabled();
        if !self.metrics.is_enabled() && !series_on {
            return;
        }
        let busy = self.federation.site(site).cluster.busy_cores();
        let queued = self.schedulers[site.index()].queue_len();
        self.metrics
            .gauge_set(self.ins.busy_cores[site.index()], now, busy as f64);
        self.metrics
            .gauge_set(self.ins.queue_len[site.index()], now, queued as f64);
        if series_on {
            self.obs
                .series
                .set_site(site.index(), now, busy as f64, queued as f64);
        }
    }

    fn complete_batch(&mut self, ctx: &mut Ctx<Event>, id: JobId) {
        let rec = self
            .running
            .remove(&id)
            .expect("completion delivered for a registered running job");
        let RunningRec {
            site, started, job, ..
        } = rec;
        if let Some(f) = self.faults.as_mut() {
            f.book.forget(job.id);
        }
        self.federation
            .site_mut(site)
            .cluster
            .release(ctx.now(), job.cores);
        self.obs.series.on_stop(ctx.now());
        self.schedulers[site.index()].on_complete(ctx.now(), job.id);
        if self.span_track.contains_key(&job.id) {
            self.emit_span(
                ctx.now(),
                &job,
                SpanKind::Run,
                started,
                ctx.now(),
                Some(site),
                None,
            );
        }
        self.tracer.emit_event(ctx.now(), "done", || {
            vec![
                ("job", job.id.index().into()),
                ("site", site.index().into()),
                (
                    "wait_s",
                    started
                        .saturating_since(job.submit_time)
                        .as_secs_f64()
                        .into(),
                ),
            ]
        });
        self.emit_records(ctx, site, &job, started, false, None);
        self.finish_job(ctx, &job);
        self.dispatch(ctx, site);
    }

    // ------------------------------------------------------------------
    // RC path
    // ------------------------------------------------------------------

    fn route_rc(&mut self, ctx: &mut Ctx<Event>, site: SiteId, job: Job) {
        if !self.federation.site(site).has_rc() {
            // No fabric anywhere: run the software version.
            self.enqueue(ctx, site, job, None);
            return;
        }
        let decision = {
            let fed = &self.federation;
            let s = fed.site(site);
            self.rc_policy.decide(
                &job,
                &s.rc,
                &fed.library,
                |c| fed.bitstream_fetch_time(c, site),
                ctx.now(),
                s.core_speed(),
            )
        };
        match decision {
            RcDecision::PlaceHw { node, plan, setup } => {
                let reused = matches!(plan, HostPlan::Reuse(_));
                let library = self.federation.library.clone();
                let rc_cfg = job.rc.expect("rc job").config;
                let speed = self.federation.site(site).core_speed();
                let region = self.federation.site_mut(site).rc.node_mut(node).commit(
                    plan,
                    rc_cfg,
                    &library,
                    ctx.now(),
                );
                let exec_start = ctx.now() + setup.total();
                // Spans: queued-for-fabric (zero-length unless the job sat in
                // the deferral backlog), then bitstream transfer + reconfig.
                if let Some(track) = self.span_track.get(&job.id).copied() {
                    let cause = if track.deferred {
                        WaitCause::FabricBusy
                    } else {
                        WaitCause::Immediate
                    };
                    self.emit_span(
                        ctx.now(),
                        &job,
                        SpanKind::Queued,
                        track.phase_start,
                        ctx.now(),
                        Some(site),
                        Some(cause),
                    );
                    self.emit_span(
                        ctx.now(),
                        &job,
                        SpanKind::Reconfig,
                        ctx.now(),
                        exec_start,
                        Some(site),
                        Some(WaitCause::ReconfigLatency),
                    );
                    self.span_track.insert(
                        job.id,
                        SpanTrack {
                            phase_start: exec_start,
                            ..track
                        },
                    );
                }
                let hw_runtime = job.runtime_on(speed, true);
                let end = exec_start + hw_runtime;
                let deadline_met = job
                    .rc
                    .and_then(|rc| rc.deadline)
                    .map(|d| end <= job.submit_time + d);
                let placement = RcPlacementRecord {
                    job: job.id,
                    site,
                    node,
                    config: rc_cfg,
                    reused,
                    transfer: setup.transfer,
                    reconfig: setup.reconfig,
                    deadline_met,
                };
                self.obs.series.on_start(ctx.now());
                ctx.schedule_at(
                    end,
                    Event::RcComplete {
                        site,
                        node,
                        region,
                        job: Box::new(job),
                        started: exec_start,
                        placement,
                    },
                );
            }
            RcDecision::RunSw => {
                // A deferred job falling back to software spent its backlog
                // time waiting on the fabric, not staging input.
                if let Some(track) = self.span_track.get(&job.id).copied() {
                    if ctx.now() > track.phase_start {
                        self.emit_span(
                            ctx.now(),
                            &job,
                            SpanKind::Queued,
                            track.phase_start,
                            ctx.now(),
                            Some(site),
                            Some(WaitCause::FabricBusy),
                        );
                        self.span_track.insert(
                            job.id,
                            SpanTrack {
                                phase_start: ctx.now(),
                                ..track
                            },
                        );
                    }
                }
                self.enqueue(ctx, site, job, None);
            }
            RcDecision::Defer => {
                self.metrics.inc(self.ins.rc_deferrals);
                self.tracer.emit_event(ctx.now(), "rc", || {
                    vec![("job", job.id.index().into()), ("deferred", true.into())]
                });
                if let Some(track) = self.span_track.get_mut(&job.id) {
                    track.deferred = true;
                }
                self.rc_backlog
                    .get_mut(&site)
                    .expect("site backlog exists")
                    .push_back(job);
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // event fields arrive together
    fn complete_rc(
        &mut self,
        ctx: &mut Ctx<Event>,
        site: SiteId,
        node: tg_model::NodeId,
        region: tg_model::reconf::RegionId,
        job: Job,
        started: SimTime,
        placement: RcPlacementRecord,
    ) {
        self.federation
            .site_mut(site)
            .rc
            .node_mut(node)
            .finish(region, ctx.now());
        self.obs.series.on_stop(ctx.now());
        if self.span_track.contains_key(&job.id) {
            self.emit_span(
                ctx.now(),
                &job,
                SpanKind::Run,
                started,
                ctx.now(),
                Some(site),
                None,
            );
        }
        self.tracer.emit_event(ctx.now(), "rc", || {
            vec![
                ("job", job.id.index().into()),
                ("site", site.index().into()),
                ("reused", placement.reused.into()),
            ]
        });
        self.emit_records(ctx, site, &job, started, true, Some(placement));
        self.finish_job(ctx, &job);
        // Fabric freed: retry deferred tasks (FIFO, stop at first re-defer).
        loop {
            let next = self
                .rc_backlog
                .get_mut(&site)
                .expect("site backlog exists")
                .pop_front();
            let Some(next) = next else { break };
            let before = self.rc_backlog[&site].len();
            self.route_rc(ctx, site, next);
            // If route_rc deferred it again it went to the back; avoid
            // spinning over a full backlog in one pass.
            if self.rc_backlog[&site].len() > before {
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Is `site` inside a whole-site outage window right now?
    fn site_is_down(&self, site: SiteId) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|f| f.down_since[site.index()].is_some())
    }

    fn handle_fault(&mut self, ctx: &mut Ctx<Event>, index: usize) {
        let ev = self
            .faults
            .as_ref()
            .expect("fault event without a fault layer")
            .schedule
            .events[index];
        match ev.kind {
            FaultEventKind::NodeCrash { site, cores } => self.fault_node_crash(ctx, site, cores),
            FaultEventKind::NodeRepair { site, cores } => self.fault_node_repair(ctx, site, cores),
            FaultEventKind::OutageNotice { site, outage_at } => {
                // Graceful drain: the scheduler stops starting work that
                // would outlive the deadline; short jobs keep flowing until
                // the lights go out.
                self.schedulers[site.index()].drain_notice(Some(outage_at));
                self.dispatch(ctx, site);
            }
            FaultEventKind::SiteOutage { site } => self.fault_site_outage(ctx, site),
            FaultEventKind::SiteRecovery { site } => self.fault_site_recovery(ctx, site),
            FaultEventKind::LinkDegrade {
                site,
                bandwidth_factor,
                latency_factor,
            } => {
                let f = self.faults.as_mut().expect("fault layer");
                if f.degraded_since[site.index()].is_none() {
                    f.degraded_since[site.index()] = Some(ctx.now());
                }
                self.federation
                    .network
                    .set_degradation(site, bandwidth_factor, latency_factor);
            }
            FaultEventKind::LinkRestore { site } => {
                let f = self.faults.as_mut().expect("fault layer");
                if let Some(since) = f.degraded_since[site.index()].take() {
                    f.report.degraded_by_site[site.index()] +=
                        ctx.now().saturating_since(since).as_secs_f64();
                }
                self.federation.network.clear_degradation(site);
            }
        }
    }

    /// `cores` cores fail at `site`: enough running jobs are killed (newest
    /// start first) to vacate them, then the cores leave service until the
    /// paired repair. Crashes during a whole-site outage are absorbed by it.
    fn fault_node_crash(&mut self, ctx: &mut Ctx<Event>, site: SiteId, cores: usize) {
        if self.site_is_down(site) {
            return;
        }
        let cluster = &self.federation.site(site).cluster;
        let in_service = cluster.total_cores() - cluster.offline_cores();
        let target = cores.min(in_service);
        if target == 0 {
            return;
        }
        self.faults
            .as_mut()
            .expect("fault layer")
            .report
            .node_crashes += 1;
        while self.federation.site(site).cluster.free_cores() < target {
            let Some(victim) = self.pick_victim(site) else {
                break;
            };
            self.kill_running(ctx, victim, WaitCause::NodeFailure, false);
        }
        let take = target.min(self.federation.site(site).cluster.free_cores());
        if take > 0 {
            self.federation
                .site_mut(site)
                .cluster
                .take_offline(ctx.now(), take);
            self.faults.as_mut().expect("fault layer").crashed_cores[site.index()] += take;
        }
        // Kills freed cores beyond the crashed ones; let the queue use them.
        self.dispatch(ctx, site);
    }

    fn fault_node_repair(&mut self, ctx: &mut Ctx<Event>, site: SiteId, cores: usize) {
        let f = self.faults.as_mut().expect("fault layer");
        let fixed = cores.min(f.crashed_cores[site.index()]);
        if fixed == 0 {
            return;
        }
        f.crashed_cores[site.index()] -= fixed;
        if f.down_since[site.index()].is_some() {
            // The site is dark anyway: repaired cores wait out the outage
            // in the parked pool and return with it at recovery.
            f.outage_offline[site.index()] += fixed;
            return;
        }
        self.federation
            .site_mut(site)
            .cluster
            .bring_online(ctx.now(), fixed);
        self.dispatch(ctx, site);
    }

    /// The whole site goes dark: running work is killed (or checkpointed per
    /// [`OutagePolicy`]), the queue freezes, and every core leaves service
    /// until the paired recovery.
    fn fault_site_outage(&mut self, ctx: &mut Ctx<Event>, site: SiteId) {
        if self.site_is_down(site) {
            return; // overlapping windows merge into the first
        }
        let checkpoint = {
            let f = self.faults.as_mut().expect("fault layer");
            f.report.site_outages += 1;
            f.down_since[site.index()] = Some(ctx.now());
            f.outage_policy == OutagePolicy::Checkpoint
        };
        let cause = WaitCause::SiteOutage;
        while let Some(victim) = self.pick_victim(site) {
            self.kill_running(ctx, victim, cause, checkpoint);
        }
        // Park everything free (all in-service cores, now that the running
        // work is gone) until recovery; crashed cores stay in their pool.
        let free = self.federation.site(site).cluster.free_cores();
        if free > 0 {
            self.federation
                .site_mut(site)
                .cluster
                .take_offline(ctx.now(), free);
            self.faults.as_mut().expect("fault layer").outage_offline[site.index()] += free;
        }
    }

    fn fault_site_recovery(&mut self, ctx: &mut Ctx<Event>, site: SiteId) {
        let parked = {
            let f = self.faults.as_mut().expect("fault layer");
            let Some(since) = f.down_since[site.index()].take() else {
                return; // recovery of a merged/duplicate window
            };
            f.report.downtime_by_site[site.index()] +=
                ctx.now().saturating_since(since).as_secs_f64();
            std::mem::take(&mut f.outage_offline[site.index()])
        };
        if parked > 0 {
            self.federation
                .site_mut(site)
                .cluster
                .bring_online(ctx.now(), parked);
        }
        self.schedulers[site.index()].drain_notice(None);
        self.dispatch(ctx, site);
    }

    /// The running job at `site` that started last (ties: highest id) — the
    /// deterministic kill order for crashes and outages. Preferring the
    /// newest attempt loses the least completed work.
    fn pick_victim(&self, site: SiteId) -> Option<JobId> {
        self.running
            .values()
            .filter(|r| r.site == site)
            .max_by_key(|r| (r.started, r.job.id.index()))
            .map(|r| r.job.id)
    }

    /// Kill one running job: cancel its completion event, free its cores
    /// (without counting a completion), emit a `fault` span for the lost
    /// execution, and requeue it after backoff — or checkpoint-restart it,
    /// or abandon it once the retry budget is exhausted.
    fn kill_running(
        &mut self,
        ctx: &mut Ctx<Event>,
        id: JobId,
        cause: WaitCause,
        checkpoint: bool,
    ) {
        let rec = self
            .running
            .remove(&id)
            .expect("victim is in the running registry");
        assert!(
            ctx.cancel(rec.key),
            "completion already delivered for a registered running job"
        );
        self.federation
            .site_mut(rec.site)
            .cluster
            .preempt(ctx.now(), rec.cores);
        self.obs.series.on_stop(ctx.now());
        self.schedulers[rec.site.index()].on_complete(ctx.now(), id);
        self.faults
            .as_mut()
            .expect("fault layer")
            .report
            .jobs_killed += 1;
        if let Some(track) = self.span_track.get(&id).copied() {
            self.emit_span(
                ctx.now(),
                &rec.job,
                SpanKind::Fault,
                track.phase_start,
                ctx.now(),
                Some(rec.site),
                Some(cause),
            );
            self.span_track.insert(
                id,
                SpanTrack {
                    phase_start: ctx.now(),
                    ..track
                },
            );
        }
        self.tracer.emit_event(ctx.now(), "fault", || {
            vec![
                ("job", id.index().into()),
                ("site", rec.site.index().into()),
                ("cause", cause.name().into()),
            ]
        });
        let mut job = rec.job;
        if checkpoint {
            // Checkpoint at the kill instant: only the remaining work reruns
            // and the retry budget is not charged.
            let speed = self.federation.site(rec.site).core_speed();
            let done_ref = ctx.now().saturating_since(rec.started).as_secs_f64() * speed;
            let remaining = (job.runtime.as_secs_f64() - done_ref).max(1.0);
            job.runtime = SimDuration::from_secs_f64(remaining);
            job.estimate = job.estimate.max(job.runtime);
            let f = self.faults.as_mut().expect("fault layer");
            f.report.checkpoint_restarts += 1;
            f.report.jobs_requeued += 1;
            let backoff = f.retry.backoff(1);
            ctx.schedule_after(
                backoff,
                Event::Requeue {
                    job: Box::new(job),
                    killed_at: ctx.now(),
                },
            );
            return;
        }
        let f = self.faults.as_mut().expect("fault layer");
        let attempts = f.book.record(id);
        if f.retry.exhausted(attempts) {
            f.report.jobs_abandoned += 1;
            f.book.forget(id);
            self.tracer.emit_event(ctx.now(), "abandon", || {
                vec![
                    ("job", id.index().into()),
                    ("attempts", (attempts as usize).into()),
                ]
            });
            // The job never completes and leaves no accounting record, but
            // it still counts toward the drain and releases its dependents.
            self.finish_job(ctx, &job);
        } else {
            f.report.jobs_requeued += 1;
            let backoff = f.retry.backoff(attempts);
            ctx.schedule_after(
                backoff,
                Event::Requeue {
                    job: Box::new(job),
                    killed_at: ctx.now(),
                },
            );
        }
    }

    /// A killed job returns from backoff: emit the `requeue` span covering
    /// the backoff wait, then route it as a fresh submission (`route` bumps
    /// `submit_time`, so accounting sees the final attempt's resubmission).
    fn requeue(&mut self, ctx: &mut Ctx<Event>, job: Job, killed_at: SimTime) {
        if self.span_track.contains_key(&job.id) {
            if ctx.now() > killed_at {
                self.emit_span(
                    ctx.now(),
                    &job,
                    SpanKind::Requeue,
                    killed_at,
                    ctx.now(),
                    None,
                    None,
                );
            }
            self.span_track.insert(
                job.id,
                SpanTrack {
                    phase_start: ctx.now(),
                    deferred: false,
                },
            );
        }
        self.tracer.emit_event(ctx.now(), "requeue", || {
            vec![("job", job.id.index().into())]
        });
        self.route(ctx, job);
    }

    // ------------------------------------------------------------------
    // Records & dependency release
    // ------------------------------------------------------------------

    /// Lossy-ingest fate for the next accounting record. Draws both
    /// uniforms on every call whenever the channel exists (see
    /// [`IngestChannel`] for why), and none otherwise.
    fn ingest_fate(&mut self) -> IngestFate {
        let Some(ch) = self.faults.as_mut().and_then(|f| f.ingest.as_mut()) else {
            return IngestFate::Keep;
        };
        let u_loss = ch.rng.uniform();
        let u_dup = ch.rng.uniform();
        if u_loss < ch.loss {
            IngestFate::Drop
        } else if u_dup < ch.dup {
            IngestFate::Duplicate
        } else {
            IngestFate::Keep
        }
    }

    /// Route one accounting record through the (possibly lossy) ingest.
    /// Ground truth is never touched — this models measurement loss.
    fn ingest(&mut self, rec: Record) {
        match self.ingest_fate() {
            IngestFate::Keep => self.store_record(rec, 1),
            IngestFate::Drop => {
                self.faults
                    .as_mut()
                    .expect("lossy fate implies a channel")
                    .report
                    .records_lost += 1;
            }
            IngestFate::Duplicate => {
                self.store_record(rec, 2);
                self.faults
                    .as_mut()
                    .expect("lossy fate implies a channel")
                    .report
                    .records_duplicated += 1;
            }
        }
    }

    /// Final landing point of a surviving record: the sink when one is
    /// attached, the in-memory database otherwise. The sink sees the same
    /// copies in the same order the database would have stored.
    fn store_record(&mut self, rec: Record, copies: usize) {
        if let Some(sink) = self.record_sink.as_mut() {
            for _ in 0..copies {
                sink.write(rec.as_record_ref());
            }
        } else {
            for _ in 1..copies {
                rec.clone().apply(&mut self.db);
            }
            rec.apply(&mut self.db);
        }
    }

    /// The account a job is recorded under: the gateway community account
    /// for gateway traffic, the personal account otherwise.
    fn account_of(&self, job: &Job) -> UserId {
        match job.gateway {
            Some(gw) => UserId(COMMUNITY_ACCOUNT_BASE + gw.index()),
            None => job.user,
        }
    }

    fn emit_records(
        &mut self,
        ctx: &mut Ctx<Event>,
        site: SiteId,
        job: &Job,
        started: SimTime,
        used_hw: bool,
        placement: Option<RcPlacementRecord>,
    ) {
        let account = self.account_of(job);
        self.metrics.inc(self.ins.site_completions[site.index()]);
        self.metrics
            .inc(self.ins.modality_completions[job.true_modality.index()]);
        let rec = JobRecord {
            job: job.id,
            user: account,
            project: job.project,
            site,
            submit: job.submit_time,
            start: started,
            end: ctx.now(),
            cores: job.cores,
            interface: job.interface,
            used_hw,
            input_mb: job.input_mb,
            output_mb: job.output_mb,
        };
        self.ingest(Record::Job(rec));
        if let Some(gw) = job.gateway {
            // The gateway declares which of its community end users this job
            // served; the tag is the gateway's own id space (we use the
            // generating person's id, which accounting treats as opaque).
            let rec = GatewayAttribute {
                gateway: gw,
                job: job.id,
                end_user: job.user.index() as u64,
            };
            self.ingest(Record::Gateway(rec));
        }
        if let Some(p) = placement {
            self.ingest(Record::Rc(p));
        }
        // Interactive work implies a login session wrapping the job.
        if job.true_modality == Modality::Interactive {
            let rec = SessionRecord {
                user: account,
                site,
                login: job.submit_time,
                logout: ctx.now(),
            };
            self.ingest(Record::Session(rec));
        }
        // Output staging to the archive for big outputs.
        if job.output_mb >= STAGING_THRESHOLD_MB && site != self.data_home {
            let dur = self
                .federation
                .network
                .transfer_time(site, self.data_home, job.output_mb);
            self.metrics
                .add(self.ins.staging_bytes, (job.output_mb * 1e6) as u64);
            self.metrics.inc(self.ins.staging_transfers);
            if self.span_track.contains_key(&job.id) {
                self.emit_span(
                    ctx.now(),
                    job,
                    SpanKind::StageOut,
                    ctx.now(),
                    ctx.now() + dur,
                    Some(site),
                    None,
                );
            }
            self.tracer.emit_event(ctx.now(), "xfer", || {
                vec![
                    ("job", job.id.index().into()),
                    ("dir", "out".into()),
                    ("src", site.index().into()),
                    ("mb", job.output_mb.into()),
                ]
            });
            let rec = TransferRecord {
                user: account,
                project: job.project,
                src: site,
                dst: self.data_home,
                mb: job.output_mb,
                start: ctx.now(),
                end: ctx.now() + dur,
            };
            self.ingest(Record::Transfer(rec));
        }
    }

    fn finish_job(&mut self, ctx: &mut Ctx<Event>, job: &Job) {
        self.span_track.remove(&job.id);
        self.obs.series.on_complete(ctx.now());
        self.jobs_done += 1;
        self.completed.insert(job.id);
        // Route any jobs whose last unmet dependency this was.
        if let Some(waiters) = self.dep_waiters.remove(&job.id) {
            for waiter in waiters {
                match waiter
                    .deps
                    .iter()
                    .copied()
                    .find(|d| !self.completed.contains(d))
                {
                    None => self.route(ctx, waiter),
                    Some(next_dep) => {
                        self.dep_waiters.entry(next_dep).or_default().push(waiter);
                    }
                }
            }
        }
    }

    fn submit_from_trace(&mut self, ctx: &mut Ctx<Event>, index: usize) {
        let job = self.jobs[index].take().expect("submit delivered once");
        self.admit(ctx, job);
    }

    /// Admit a newly arrived job — the shared trunk of both submit paths.
    /// In streaming mode the ground-truth label is quarantined here (the
    /// materialized constructor did it up front; final map contents are
    /// identical because every job is admitted exactly once).
    fn admit(&mut self, ctx: &mut Ctx<Event>, job: Job) {
        if self.streaming {
            self.truth.insert(job.id, job.true_modality);
        }
        self.metrics.inc(self.ins.submits);
        self.tracer.emit_event(ctx.now(), "submit", || {
            vec![
                ("job", job.id.index().into()),
                ("cores", job.cores.into()),
                ("deps", job.deps.len().into()),
            ]
        });
        self.obs.series.on_submit(ctx.now());
        if self.tracer.is_enabled() || self.obs.is_enabled() {
            self.span_track.insert(
                job.id,
                SpanTrack {
                    phase_start: job.submit_time,
                    deferred: false,
                },
            );
        }
        let first_unmet = job
            .deps
            .iter()
            .copied()
            .find(|d| !self.completed.contains(d));
        match first_unmet {
            None => self.route(ctx, job),
            Some(dep) => {
                self.dep_waiters.entry(dep).or_default().push(job);
            }
        }
    }
}

impl Simulation for GridSim {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Ctx<Event>, event: Event) {
        // Live-stats sink: flush series buckets that closed before this
        // event (a no-op compare unless a sink is attached).
        self.obs.tick(ctx.now());
        match event {
            Event::Submit(index) => self.submit_from_trace(ctx, index),
            Event::SubmitJob(job) => self.admit(ctx, *job),
            Event::Enqueue { site, job, cause } => self.enqueue(ctx, site, *job, cause),
            Event::Complete { id } => self.complete_batch(ctx, id),
            Event::RcComplete {
                site,
                node,
                region,
                job,
                started,
                placement,
            } => self.complete_rc(ctx, site, node, region, *job, started, placement),
            Event::SchedWakeup { site } => {
                self.armed_wakeups.remove(&site);
                self.dispatch(ctx, site);
            }
            Event::Sample => self.take_sample(ctx),
            Event::Fault(index) => self.handle_fault(ctx, index),
            Event::Requeue { job, killed_at } => self.requeue(ctx, *job, killed_at),
        }
    }
}

/// Everything a finished simulation leaves behind.
pub struct FinishedSim {
    /// Final resource-model state (utilization integrals, RC stats).
    pub federation: Federation,
    /// The accounting database.
    pub db: AccountingDb,
    /// Ground truth, for scoring only.
    pub truth: HashMap<JobId, Modality>,
    /// Final virtual time.
    pub end: SimTime,
    /// Periodic metric snapshots (empty unless sampling was enabled).
    pub samples: Vec<SampleRow>,
    /// Run-level metrics snapshot (`None` unless [`GridSim::with_metrics`]
    /// was on). The engine profile slot is filled by the harness, which is
    /// where wall-clock time is measured.
    pub metrics: Option<MetricsSnapshot>,
    /// What the trace writer saw (write errors, final flush); clean when no
    /// tracer was attached. Tells a caller whether an archived trace file
    /// is complete.
    pub trace_health: TraceHealth,
    /// What fault injection did (`None` unless [`GridSim::with_faults`]).
    pub fault_report: Option<FaultReport>,
    /// Final tally from an attached record sink (`None` when records were
    /// retained in `db`, i.e. the default path).
    pub ingest_tally: Option<IngestTally>,
    /// Online observability report (`None` unless
    /// [`GridSim::with_live_stats`] was on): pooled span sketches plus the
    /// windowed operational series.
    pub stats: Option<StatsReport>,
    /// Data-grid outcome (`None` unless [`GridSim::with_data_grid`]):
    /// per-site cache hit rates, WAN bytes moved, eviction counts.
    pub data_report: Option<DataReport>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_model::config::ProcessorConfig;
    use tg_model::{ConfigLibrary, Federation, SiteConfig};
    use tg_sched::SchedulerKind;
    use tg_workload::{ProjectId, RcRequirement, SubmitInterface, WorkflowId};

    fn tiny_federation() -> Federation {
        let mut lib = ConfigLibrary::new();
        let mut cfg = ProcessorConfig::new("k", 4, 10.0);
        cfg.reconfig_time = SimDuration::from_secs(5);
        lib.add(cfg);
        Federation::builder()
            .site(SiteConfig {
                batch_nodes: 4,
                cores_per_node: 4,
                ..SiteConfig::medium("alpha")
            })
            .site(SiteConfig {
                batch_nodes: 2,
                cores_per_node: 4,
                rc_nodes: 2,
                rc_area_per_node: 8,
                ..SiteConfig::medium("gamma")
            })
            .library(lib)
            .repository_at(0)
            .build()
    }

    fn schedulers(fed: &Federation, kind: SchedulerKind) -> Vec<Box<dyn BatchScheduler>> {
        fed.sites()
            .map(|s| kind.build(s.cluster.total_cores()))
            .collect()
    }

    fn run_jobs(jobs: Vec<Job>) -> FinishedSim {
        let fed = tiny_federation();
        let scheds = schedulers(&fed, SchedulerKind::Easy);
        let sim = GridSim::new(
            fed,
            scheds,
            MetaPolicy::ShortestEta,
            RcPolicy::AWARE,
            SiteId(0),
            jobs,
            RngFactory::new(1),
        );
        let mut engine = Engine::new();
        sim.run(&mut engine)
    }

    fn job(id: usize, cores: usize, secs: u64, submit: u64) -> Job {
        Job::batch(
            JobId(id),
            UserId(id),
            ProjectId(0),
            SimTime::from_secs(submit),
            cores,
            SimDuration::from_secs(secs),
        )
    }

    #[test]
    fn single_job_runs_and_is_recorded() {
        let out = run_jobs(vec![job(0, 4, 100, 0).with_site(SiteId(0))]);
        assert_eq!(out.db.jobs.len(), 1);
        let r = &out.db.jobs[0];
        assert_eq!(r.site, SiteId(0));
        assert_eq!(r.wait(), SimDuration::ZERO);
        assert_eq!(r.wall(), SimDuration::from_secs(100));
        assert!(!r.used_hw);
        assert_eq!(out.end, SimTime::from_secs(100));
        // Cluster is idle again.
        assert_eq!(out.federation.site(SiteId(0)).cluster.busy_cores(), 0);
    }

    #[test]
    fn queueing_when_machine_full() {
        // Site 0 has 16 cores; two 16-core jobs serialize.
        let out = run_jobs(vec![
            job(0, 16, 100, 0).with_site(SiteId(0)),
            job(1, 16, 100, 0).with_site(SiteId(0)),
        ]);
        let r1 = out.db.jobs.iter().find(|r| r.job == JobId(1)).unwrap();
        assert_eq!(r1.wait(), SimDuration::from_secs(100));
        assert_eq!(out.end, SimTime::from_secs(200));
    }

    #[test]
    fn unpinned_jobs_go_through_the_metascheduler() {
        let out = run_jobs(vec![job(0, 4, 100, 0), job(1, 4, 100, 0)]);
        assert_eq!(out.db.jobs.len(), 2);
        for r in &out.db.jobs {
            assert!(r.site.index() < 2);
        }
    }

    #[test]
    fn workflow_dependencies_serialize_execution() {
        let wf = WorkflowId(0);
        let a = job(0, 2, 100, 0).in_workflow(wf, vec![]);
        let b = job(1, 2, 50, 0).in_workflow(wf, vec![JobId(0)]);
        let c = job(2, 2, 25, 0).in_workflow(wf, vec![JobId(0), JobId(1)]);
        let out = run_jobs(vec![a, b, c]);
        let rec = |id: usize| out.db.jobs.iter().find(|r| r.job == JobId(id)).unwrap();
        assert_eq!(
            rec(1).submit,
            SimTime::from_secs(100),
            "released at parent end"
        );
        assert!(rec(1).start >= rec(0).end);
        assert!(rec(2).start >= rec(1).end);
        assert_eq!(out.end, SimTime::from_secs(175));
        assert_eq!(rec(1).interface, SubmitInterface::WorkflowEngine);
    }

    #[test]
    fn gateway_jobs_use_community_account_and_attrs() {
        let g = job(0, 1, 60, 0).via_gateway(tg_workload::GatewayId(3));
        let out = run_jobs(vec![g]);
        let r = &out.db.jobs[0];
        assert_eq!(r.user, UserId(COMMUNITY_ACCOUNT_BASE + 3));
        assert_eq!(out.db.gateway_attrs.len(), 1);
        assert_eq!(out.db.gateway_attrs[0].end_user, 0, "person id as tag");
        assert!(out.db.has_gateway_attr(JobId(0)));
    }

    #[test]
    fn interactive_jobs_leave_session_records() {
        let j = job(0, 1, 300, 10)
            .labeled(Modality::Interactive)
            .with_site(SiteId(0));
        let out = run_jobs(vec![j]);
        assert_eq!(out.db.sessions.len(), 1);
        let s = &out.db.sessions[0];
        assert_eq!(s.login, SimTime::from_secs(10));
        assert_eq!(s.logout, SimTime::from_secs(310));
    }

    #[test]
    fn rc_job_runs_on_fabric_with_placement_record() {
        let r = job(0, 1, 1000, 0)
            .with_rc(RcRequirement {
                config: tg_model::ConfigId(0),
                speedup: 10.0,
                deadline: None,
            })
            .with_site(SiteId(1));
        let out = run_jobs(vec![r]);
        let rec = &out.db.jobs[0];
        assert!(rec.used_hw);
        assert_eq!(out.db.rc_placements.len(), 1);
        let p = &out.db.rc_placements[0];
        assert!(!p.reused, "first placement reconfigures");
        assert!(p.reconfig > SimDuration::ZERO);
        // HW runtime 100 s + setup (fetch from site0 + 5 s reconfig).
        assert!(out.end >= SimTime::from_secs(105));
        let stats = out.federation.site(SiteId(1)).rc.total_stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.reconfigs, 1);
    }

    #[test]
    fn second_rc_task_with_same_config_reuses() {
        let mk = |id: usize, submit: u64| {
            job(id, 1, 1000, submit)
                .with_rc(RcRequirement {
                    config: tg_model::ConfigId(0),
                    speedup: 10.0,
                    deadline: None,
                })
                .with_site(SiteId(1))
        };
        let out = run_jobs(vec![mk(0, 0), mk(1, 2000)]);
        assert_eq!(out.db.rc_placements.len(), 2);
        let second = out
            .db
            .rc_placements
            .iter()
            .find(|p| p.job == JobId(1))
            .unwrap();
        assert!(second.reused, "same config, idle region → reuse");
        assert_eq!(second.transfer, SimDuration::ZERO);
        let stats = out.federation.site(SiteId(1)).rc.total_stats();
        assert_eq!(stats.reuses, 1);
        assert_eq!(stats.reconfigs, 1);
    }

    #[test]
    fn rc_backlog_drains_on_completion() {
        // 2 nodes × 8 area, config area 4 → 4 concurrent tasks; submit 6.
        let mk = |id: usize| {
            job(id, 1, 1000, 0)
                .with_rc(RcRequirement {
                    config: tg_model::ConfigId(0),
                    speedup: 10.0,
                    deadline: None,
                })
                .with_site(SiteId(1))
        };
        let out = run_jobs((0..6).map(mk).collect());
        assert_eq!(out.db.jobs.len(), 6);
        assert!(out.db.jobs.iter().all(|r| r.used_hw));
        let stats = out.federation.site(SiteId(1)).rc.total_stats();
        assert_eq!(stats.completed, 6);
        assert!(stats.reuses >= 2, "deferred tasks reuse freed regions");
    }

    #[test]
    fn big_inputs_are_staged_and_recorded() {
        let j = job(0, 2, 100, 0)
            .with_site(SiteId(1))
            .with_data(5_000.0, 10_000.0);
        let out = run_jobs(vec![j]);
        assert_eq!(out.db.transfers.len(), 2, "stage-in and stage-out");
        let stage_in = &out.db.transfers[0];
        assert_eq!(stage_in.src, SiteId(0));
        assert_eq!(stage_in.dst, SiteId(1));
        let r = &out.db.jobs[0];
        assert!(
            r.start > SimTime::ZERO,
            "staging delays the start: {}",
            r.start
        );
    }

    #[test]
    fn small_inputs_ride_free() {
        let j = job(0, 2, 100, 0).with_site(SiteId(1)).with_data(10.0, 10.0);
        let out = run_jobs(vec![j]);
        assert!(out.db.transfers.is_empty());
        assert_eq!(out.db.jobs[0].start, SimTime::ZERO);
    }

    #[test]
    fn determinism_same_seed_same_records() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| job(i, 1 + i % 8, 100 + i as u64, i as u64))
            .collect();
        let a = run_jobs(jobs.clone());
        let b = run_jobs(jobs);
        assert_eq!(a.db.jobs.len(), b.db.jobs.len());
        for (x, y) in a.db.jobs.iter().zip(&b.db.jobs) {
            assert_eq!(x, y);
        }
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn truth_is_quarantined_from_records() {
        let g = job(0, 1, 60, 0).via_gateway(tg_workload::GatewayId(0));
        let fed = tiny_federation();
        let scheds = schedulers(&fed, SchedulerKind::Easy);
        let sim = GridSim::new(
            fed,
            scheds,
            MetaPolicy::Random,
            RcPolicy::AWARE,
            SiteId(0),
            vec![g],
            RngFactory::new(1),
        );
        assert_eq!(sim.truth_of(JobId(0)), Some(Modality::ScienceGateway));
        assert_eq!(sim.truth_of(JobId(99)), None);
    }

    #[test]
    fn metrics_conserve_job_counts() {
        let fed = tiny_federation();
        let scheds = schedulers(&fed, SchedulerKind::Easy);
        let jobs: Vec<Job> = (0..12)
            .map(|i| job(i, 1 + i % 4, 200 + i as u64 * 10, i as u64 * 30))
            .collect();
        let sim = GridSim::new(
            fed,
            scheds,
            MetaPolicy::ShortestEta,
            RcPolicy::AWARE,
            SiteId(0),
            jobs,
            RngFactory::new(7),
        )
        .with_metrics()
        .with_sampling(SimDuration::from_secs(60));
        let mut engine = Engine::new();
        let out = sim.run(&mut engine);
        let snap = out.metrics.expect("metrics enabled");
        // Conservation: every recorded job shows up exactly once in the
        // per-site family and once in the per-modality family.
        assert_eq!(
            snap.counter_sum("completed.site."),
            out.db.jobs.len() as u64
        );
        assert_eq!(
            snap.counter_sum("completed.modality."),
            out.db.jobs.len() as u64
        );
        assert_eq!(snap.counter("jobs.submitted"), Some(12));
        assert_eq!(snap.counter("jobs.enqueued"), Some(12));
        // Gauges: time-weighted busy-core averages are within capacity.
        for site in out.federation.sites() {
            let g = snap
                .gauge(&format!("busy_cores.{}", site.name()))
                .expect("registered");
            let cap = site.cluster.total_cores() as f64;
            assert!(g.average >= 0.0 && g.average <= cap, "avg {}", g.average);
            assert!(g.peak <= cap);
            assert_eq!(g.current, 0.0, "machine drained");
        }
        // Samples land in `samples`, one busy fraction per site.
        assert!(!out.samples.is_empty(), "sampler ran");
        for row in &out.samples {
            assert_eq!(row.busy_fraction.len(), out.federation.len());
            assert!(row.busy_fraction.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn metrics_disabled_by_default_and_inert() {
        let out = run_jobs(vec![job(0, 4, 100, 0).with_site(SiteId(0))]);
        assert!(out.metrics.is_none());
        assert!(out.trace_health.sink_clean(), "no tracer, nothing lost");
    }

    /// An in-memory JSONL trace writer.
    #[derive(Clone, Default)]
    struct TraceBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl std::io::Write for TraceBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl TraceBuf {
        fn tracer(&self) -> Tracer {
            Tracer::new(Box::new(self.clone()))
        }

        /// Every line written so far, parsed.
        fn entries(&self) -> Vec<serde_json::Value> {
            let text = String::from_utf8(self.0.lock().unwrap().clone()).unwrap();
            text.lines()
                .map(|l| serde_json::from_str(l).expect("trace line is JSON"))
                .collect()
        }
    }

    #[test]
    fn tracer_sees_the_job_lifecycle() {
        let trace = TraceBuf::default();
        let fed = tiny_federation();
        let scheds = schedulers(&fed, SchedulerKind::Easy);
        let sim = GridSim::new(
            fed,
            scheds,
            MetaPolicy::ShortestEta,
            RcPolicy::AWARE,
            SiteId(0),
            vec![job(0, 4, 100, 0).with_site(SiteId(0))],
            RngFactory::new(1),
        )
        .with_tracer(trace.tracer());
        let mut engine = Engine::new();
        let out = sim.run(&mut engine);
        assert!(out.trace_health.sink_clean());
        let entries = trace.entries();
        let cats: Vec<&str> = entries.iter().map(|e| e["cat"].as_str().unwrap()).collect();
        assert_eq!(
            cats,
            vec!["submit", "queue", "span", "sched", "span", "done"]
        );
    }

    fn run_jobs_faulted(jobs: Vec<Job>, spec: &FaultSpec) -> FinishedSim {
        let fed = tiny_federation();
        let scheds = schedulers(&fed, SchedulerKind::Easy);
        let sim = GridSim::new(
            fed,
            scheds,
            MetaPolicy::ShortestEta,
            RcPolicy::AWARE,
            SiteId(0),
            jobs,
            RngFactory::new(1),
        )
        .with_faults(spec);
        let mut engine = Engine::new();
        sim.run(&mut engine)
    }

    /// An outage window over `[start_s, start_s + len_s]` seconds on site 0.
    fn outage_at(start_s: f64, len_s: f64) -> tg_fault::OutageWindow {
        tg_fault::OutageWindow {
            site: 0,
            start_hours: start_s / 3600.0,
            duration_hours: len_s / 3600.0,
            notice_hours: 0.0,
        }
    }

    #[test]
    fn trivial_fault_spec_is_inert() {
        let jobs: Vec<Job> = (0..10).map(|i| job(i, 2, 100, i as u64 * 10)).collect();
        let plain = run_jobs(jobs.clone());
        let faulted = run_jobs_faulted(jobs, &FaultSpec::default());
        assert_eq!(plain.db.jobs, faulted.db.jobs);
        assert_eq!(plain.end, faulted.end);
        let report = faulted.fault_report.expect("layer attached");
        assert_eq!(report, FaultReport::new(2), "nothing fired");
        assert!(plain.fault_report.is_none());
    }

    #[test]
    fn site_outage_kills_requeues_and_recovers() {
        let spec = FaultSpec {
            site_outages: vec![outage_at(50.0, 100.0)],
            ..FaultSpec::default()
        };
        let out = run_jobs_faulted(vec![job(0, 4, 100, 0).with_site(SiteId(0))], &spec);
        let report = out.fault_report.expect("faults attached");
        assert_eq!(report.site_outages, 1);
        assert_eq!(report.jobs_killed, 1);
        assert_eq!(report.jobs_requeued, 1);
        assert_eq!(report.jobs_abandoned, 0);
        assert!((report.downtime_by_site[0] - 100.0).abs() < 1e-6);
        let r = &out.db.jobs[0];
        assert_eq!(
            r.submit,
            SimTime::from_secs(110),
            "resubmitted after the 60 s default backoff"
        );
        assert_eq!(r.start, SimTime::from_secs(150), "held until recovery");
        assert_eq!(r.end, SimTime::from_secs(250), "rerun from scratch");
        let c = &out.federation.site(SiteId(0)).cluster;
        assert_eq!(c.offline_cores(), 0, "machine fully back in service");
        assert_eq!(c.busy_cores(), 0);
    }

    #[test]
    fn checkpoint_policy_reruns_only_the_remainder() {
        let spec = FaultSpec {
            site_outages: vec![outage_at(50.0, 100.0)],
            outage_policy: tg_fault::OutagePolicy::Checkpoint,
            ..FaultSpec::default()
        };
        let out = run_jobs_faulted(vec![job(0, 4, 100, 0).with_site(SiteId(0))], &spec);
        let report = out.fault_report.expect("faults attached");
        assert_eq!(report.checkpoint_restarts, 1);
        assert_eq!(report.jobs_killed, 1);
        let r = &out.db.jobs[0];
        assert_eq!(r.start, SimTime::from_secs(150));
        assert_eq!(r.end, SimTime::from_secs(200), "only 50 s remained");
    }

    #[test]
    fn exhausted_retries_abandon_the_job() {
        let spec = FaultSpec {
            site_outages: vec![outage_at(50.0, 100.0)],
            retry: Some(RetryPolicy {
                max_retries: 0,
                backoff_base_s: 60.0,
                backoff_factor: 2.0,
                backoff_cap_s: 3600.0,
            }),
            ..FaultSpec::default()
        };
        let out = run_jobs_faulted(vec![job(0, 4, 100, 0).with_site(SiteId(0))], &spec);
        let report = out.fault_report.expect("faults attached");
        assert_eq!(report.jobs_abandoned, 1);
        assert_eq!(report.jobs_requeued, 0);
        assert!(out.db.jobs.is_empty(), "abandoned work leaves no record");
    }

    #[test]
    fn abandoned_parent_still_releases_dependents() {
        let wf = WorkflowId(0);
        let parent = job(0, 4, 100, 0)
            .with_site(SiteId(0))
            .in_workflow(wf, vec![]);
        let child = job(1, 2, 50, 0).in_workflow(wf, vec![JobId(0)]);
        let spec = FaultSpec {
            site_outages: vec![outage_at(50.0, 100.0)],
            retry: Some(RetryPolicy {
                max_retries: 0,
                backoff_base_s: 60.0,
                backoff_factor: 2.0,
                backoff_cap_s: 3600.0,
            }),
            ..FaultSpec::default()
        };
        let out = run_jobs_faulted(vec![parent, child], &spec);
        assert_eq!(out.db.jobs.len(), 1, "child ran despite abandoned parent");
        assert_eq!(out.db.jobs[0].job, JobId(1));
    }

    #[test]
    fn node_crashes_repair_and_the_machine_drains() {
        let spec = FaultSpec {
            node_crashes: Some(tg_fault::NodeCrashSpec {
                mtbf_hours: 1.0,
                repair_hours: 0.5,
                cores_per_crash: 8,
                horizon_days: 1.0,
            }),
            ..FaultSpec::default()
        };
        let jobs: Vec<Job> = (0..40)
            .map(|i| job(i, 4, 1800, i as u64 * 600).with_site(SiteId(0)))
            .collect();
        let out = run_jobs_faulted(jobs, &spec);
        let report = out.fault_report.expect("faults attached");
        assert!(report.node_crashes > 0, "a day at 1 h MTBF crashes");
        assert_eq!(
            out.db.jobs.len() as u64 + report.jobs_abandoned,
            40,
            "every job completes or is abandoned"
        );
        let c = &out.federation.site(SiteId(0)).cluster;
        assert_eq!(c.offline_cores(), 0, "all repairs fired");
        assert_eq!(c.busy_cores(), 0);
    }

    #[test]
    fn total_ingest_loss_empties_the_db_but_not_truth() {
        let spec = FaultSpec {
            ingest: Some(tg_fault::IngestFaults {
                loss: 1.0,
                duplication: 0.0,
            }),
            ..FaultSpec::default()
        };
        let jobs: Vec<Job> = (0..5).map(|i| job(i, 2, 100, i as u64)).collect();
        let out = run_jobs_faulted(jobs, &spec);
        assert!(out.db.jobs.is_empty(), "every record dropped in flight");
        assert_eq!(out.truth.len(), 5, "ground truth untouched");
        let report = out.fault_report.expect("faults attached");
        assert_eq!(report.records_lost, 5);
        assert_eq!(report.jobs_killed, 0, "ingest loss never touches execution");
    }

    #[test]
    fn fault_and_requeue_spans_are_emitted() {
        let spec = FaultSpec {
            site_outages: vec![outage_at(50.0, 100.0)],
            ..FaultSpec::default()
        };
        let trace = TraceBuf::default();
        let fed = tiny_federation();
        let scheds = schedulers(&fed, SchedulerKind::Easy);
        let sim = GridSim::new(
            fed,
            scheds,
            MetaPolicy::ShortestEta,
            RcPolicy::AWARE,
            SiteId(0),
            vec![job(0, 4, 100, 0).with_site(SiteId(0))],
            RngFactory::new(1),
        )
        .with_faults(&spec)
        .with_tracer(trace.tracer());
        let mut engine = Engine::new();
        sim.run(&mut engine);
        let entries = trace.entries();
        let cats: Vec<&str> = entries.iter().map(|e| e["cat"].as_str().unwrap()).collect();
        assert!(cats.contains(&"fault"), "kill traced: {cats:?}");
        assert!(cats.contains(&"requeue"), "requeue traced: {cats:?}");
        let spans: Vec<&serde_json::Value> = entries
            .iter()
            .filter(|e| e["cat"].as_str() == Some(SPAN_CATEGORY))
            .map(|e| &e["fields"])
            .collect();
        let span_kinds: Vec<&str> = spans.iter().filter_map(|f| f["kind"].as_str()).collect();
        assert!(span_kinds.contains(&"fault"), "{span_kinds:?}");
        assert!(span_kinds.contains(&"requeue"), "{span_kinds:?}");
        let fault = spans
            .iter()
            .find(|f| f["kind"].as_str() == Some("fault"))
            .expect("fault span present");
        assert_eq!(fault["cause"].as_str(), Some("site-outage"));
        assert_eq!(
            fault["t1"].as_f64(),
            Some(50.0),
            "killed at the outage instant"
        );
    }

    #[test]
    fn weekly_drain_scheduler_wakeups_fire() {
        // A hero job on site 0 (16 cores) under WeeklyDrain + a normal job.
        let fed = tiny_federation();
        let scheds: Vec<Box<dyn BatchScheduler>> = fed
            .sites()
            .map(|s| SchedulerKind::WeeklyDrain.build(s.cluster.total_cores()))
            .collect();
        let hero = job(0, 16, 3600, 0).with_site(SiteId(0));
        let small = job(1, 2, 600, 100).with_site(SiteId(0));
        let sim = GridSim::new(
            fed,
            scheds,
            MetaPolicy::Random,
            RcPolicy::AWARE,
            SiteId(0),
            vec![hero, small],
            RngFactory::new(1),
        );
        let mut engine = Engine::new();
        let out = sim.run(&mut engine);
        let hero_rec = out.db.jobs.iter().find(|r| r.job == JobId(0)).unwrap();
        // Hero waits for the weekly boundary.
        assert_eq!(hero_rec.start, SimTime::from_days(7));
        let small_rec = out.db.jobs.iter().find(|r| r.job == JobId(1)).unwrap();
        assert!(
            small_rec.start < SimTime::from_days(7),
            "small job runs pre-drain"
        );
    }
}
