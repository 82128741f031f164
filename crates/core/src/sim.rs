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

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use tg_accounting::{
    AccountingDb, GatewayAttribute, IngestTally, JobRecord, RcPlacementRecord, RecordRef,
    RecordSink, SessionRecord, TransferRecord,
};
use tg_data::{DataLayer, DataReport, Locate};
use tg_des::metrics::{CounterId, MetricsRegistry, MetricsSnapshot};
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
    BatchScheduler, DataContext, MetaPolicy, QueuedJob, RcDecision, RcPolicy, RetryPolicy,
    SiteView, Started,
};
use tg_workload::{IdMap, Job, JobId, Labels, Modality, PagedArray, ProjectId, UserId};

/// Base offset for synthetic gateway community accounts in job records.
pub const COMMUNITY_ACCOUNT_BASE: usize = 10_000_000;

/// Inputs/outputs at or above this size (MB) are staged over the WAN and
/// produce transfer records; smaller ones ride along invisibly.
pub const STAGING_THRESHOLD_MB: f64 = 500.0;

/// The materialized job store gives back its drained tail once at least
/// `1/PENDING_SHRINK_DIVISOR` of its capacity is free, so a run's memory
/// falls as it submits. On glibc a large buffer shrinks in place
/// (`mremap`), so the cost is a few hundred syscalls over a run; an
/// allocator that copies on shrink moves O(n · PENDING_SHRINK_DIVISOR)
/// bytes in total. A larger divisor frees sooner and shrinks more often.
const PENDING_SHRINK_DIVISOR: usize = 16;

/// Simulation events. Every variant after admission names its job by its
/// [`Slot`] in [`GridSim`]'s in-flight store, where the job itself lives,
/// so an event is at most 24 bytes and the engine's heap sifts small
/// entries.
#[derive(Debug)]
pub enum Event {
    /// A job arrives from the materialized workload. It carries the job's
    /// delivery ordinal (0 for the first submission); the job itself is
    /// the top of [`GridSim`]'s pending store.
    Submit(usize),
    /// A job arrives from a *streamed* workload (the job rides in the event
    /// itself — there is no materialized job list to index into).
    SubmitJob(Box<Job>),
    /// A job (input staged, deps met) reaches a site's batch queue.
    Enqueue {
        /// Target site.
        site: SiteId,
        /// The job.
        slot: Slot,
        /// How the job's dataset was satisfied (`CacheHit`/`CacheMiss`),
        /// carried from the routing decision so the stage-in span emitted
        /// at enqueue time names the cause. `None` for jobs without a
        /// dataset (the pre-data-grid event, byte-identical behaviour).
        cause: Option<WaitCause>,
    },
    /// A batch job completes. Its site and start time are in the store.
    Complete {
        /// The finished job.
        slot: Slot,
    },
    /// An RC (hardware) task completes on a fabric region. Its site, node,
    /// region, start and setup cost are in the store.
    RcComplete {
        /// The finished job.
        slot: Slot,
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
        slot: Slot,
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

/// Where a job currently is in its lifecycle, for span emission. Every
/// in-flight job carries one, but it is read and advanced only while the
/// tracer or the live stats are enabled; spans are pure observers and never
/// influence simulation behavior.
#[derive(Debug, Clone, Copy)]
struct SpanTrack {
    /// When the current lifecycle phase began.
    phase_start: SimTime,
    /// Whether the job sat in an RC backlog (fabric full) this phase.
    deferred: bool,
}

impl SpanTrack {
    fn opened(at: SimTime) -> Self {
        SpanTrack {
            phase_start: at,
            deferred: false,
        }
    }
}

/// Which way a WAN staging transfer moves a job's data, which fixes what
/// its `xfer` trace event names: stage-in names its destination, and its
/// source only when that is a replica holder; stage-out names its source.
/// The `data_home` end of flat staging stays unnamed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Staging {
    /// Input from `data_home`, before queueing.
    In,
    /// Input from a replica holder (a data-grid cache miss).
    InFromReplica,
    /// Output to `data_home`, after completion.
    Out,
}

/// The online observability layer (`--live-stats`): span-duration sketches
/// plus the windowed operational series, with an optional JSONL sink that
/// receives one row per closed series bucket. Disabled by default; see
/// [`GridSim::with_live_stats`]. Metrics turn the series on too: its
/// per-site tracks are where the metrics snapshot's gauges come from
/// ([`GridSim::with_metrics`]). Like the tracer and metrics, everything
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
        }
    }
}

/// An admitted job, owned by [`GridSim`]'s in-flight store from admission
/// until it completes or is abandoned, with everything the driver tracks
/// per job: what it is executing, its lifecycle phase for spans and its
/// fault-kill count. Events, dependency waiters and RC backlogs hold its
/// [`Slot`], the schedulers' queues its id; the job never moves between
/// them.
struct InFlight {
    job: Job,
    run: Run,
    track: SpanTrack,
    /// Fault kills charged to the retry budget so far (checkpointed kills
    /// are not).
    retries: u32,
}

/// What an in-flight job is executing, if anything.
enum Run {
    /// Staging input, queued at a site, in an RC backlog or in retry
    /// backoff.
    Waiting,
    /// Held on a workflow dependency. `next` is the job held on the same
    /// dependency after this one, in the order they were held.
    Held { next: Option<Slot> },
    /// On a site's batch partition. `started` is the record the site's
    /// scheduler returned, handed back to it when the job completes or is
    /// killed; `key` is the completion event, which a crash or outage
    /// cancels before requeueing the job.
    Batch {
        site: SiteId,
        key: EventKey,
        started: Started,
    },
    /// On a region of a node of a site's RC fabric, executing since
    /// `started`, after `setup`; `reused` says whether the region already
    /// held the configuration. The placement record is built from these at
    /// completion.
    Rc {
        site: SiteId,
        node: tg_model::NodeId,
        region: tg_model::reconf::RegionId,
        started: SimTime,
        setup: tg_model::reconf::ReconfCost,
        reused: bool,
    },
}

/// A job's place in [`GridSim`]'s in-flight store, held from the job's
/// admission until it completes or is abandoned; the slot then goes to the
/// next admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(u32);

/// The in-flight job store: a slab of [`InFlight`] entries with a free
/// list. Slots live in fixed-size pages, so the store grows a page at a time
/// instead of doubling, and its size follows the most jobs ever in flight
/// at once, never the largest job id.
#[derive(Default)]
struct JobStore {
    pages: Vec<Vec<Option<InFlight>>>,
    /// Vacant slots, most recently vacated last.
    free: Vec<Slot>,
    len: usize,
}

impl JobStore {
    /// Slots per page (~0.3 MB of jobs).
    const PAGE: usize = 1024;

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Admit `job`, waiting, into a vacant slot.
    fn insert(&mut self, job: Job) -> Slot {
        let slot = self.free.pop().unwrap_or_else(|| {
            if self.pages.last().is_none_or(|p| p.len() == Self::PAGE) {
                self.pages.push(Vec::with_capacity(Self::PAGE));
            }
            let last = self.pages.len() - 1;
            let page = &mut self.pages[last];
            page.push(None);
            Slot((last * Self::PAGE + page.len() - 1) as u32)
        });
        self.len += 1;
        let track = SpanTrack::opened(job.submit_time);
        *self.entry(slot) = Some(InFlight {
            job,
            run: Run::Waiting,
            track,
            retries: 0,
        });
        slot
    }

    fn entry(&mut self, slot: Slot) -> &mut Option<InFlight> {
        let i = slot.0 as usize;
        &mut self.pages[i / Self::PAGE][i % Self::PAGE]
    }

    fn get_mut(&mut self, slot: Slot) -> &mut InFlight {
        self.entry(slot).as_mut().expect("slot holds a job")
    }

    /// The job in `slot`, if the slot is occupied.
    fn get(&self, slot: Slot) -> Option<&InFlight> {
        let i = slot.0 as usize;
        self.pages
            .get(i / Self::PAGE)?
            .get(i % Self::PAGE)?
            .as_ref()
    }

    /// Whether `e` still names a running job: its slot holds job `e.id`
    /// on `site`'s batch partition, started at `e.start`.
    fn runs(&self, site: SiteId, e: &KillEntry) -> bool {
        matches!(
            self.get(e.slot),
            Some(InFlight { job, run: Run::Batch { site: s, started, .. }, .. })
                if job.id == e.id && *s == site && started.start == e.start
        )
    }

    /// Take the job out of `slot`, vacating it.
    fn remove(&mut self, slot: Slot) -> InFlight {
        let entry = self.entry(slot).take().expect("slot holds a job");
        self.free.push(slot);
        self.len -= 1;
        entry
    }
}

impl std::ops::Index<Slot> for JobStore {
    type Output = InFlight;

    fn index(&self, slot: Slot) -> &InFlight {
        let i = slot.0 as usize;
        self.pages[i / Self::PAGE][i % Self::PAGE]
            .as_ref()
            .expect("slot holds a job")
    }
}

/// The account a job is recorded under: the gateway community account for
/// gateway traffic, the personal account otherwise.
fn account_of(job: &Job) -> UserId {
    match job.gateway {
        Some(gw) => UserId(COMMUNITY_ACCOUNT_BASE + gw.index()),
        None => job.user,
    }
}

/// A job's key into the span layer: its id and true modality.
fn span_of(job: &Job) -> (JobId, Modality) {
    (job.id, job.true_modality)
}

/// Ids of finished jobs, as a bitset: one bit per id in 64-bit words, paged
/// by [`PagedArray`] in pages of 4,096 ids, so memory follows the number of
/// jobs rather than the largest id (SWF traces may number jobs sparsely).
#[derive(Default)]
struct JobBitset {
    words: PagedArray<u64, 64>,
}

impl JobBitset {
    fn insert(&mut self, id: JobId) {
        let i = id.index();
        *self.words.slot_mut(i / 64) |= 1 << (i % 64);
    }

    fn contains(&self, id: JobId) -> bool {
        let i = id.index();
        self.words.get(i / 64) & (1 << (i % 64)) != 0
    }

    /// The first of `ids` not in the set.
    fn first_missing(&self, ids: &[JobId]) -> Option<JobId> {
        ids.iter().copied().find(|&id| !self.contains(id))
    }
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

/// A batch start as the kill order records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KillEntry {
    start: SimTime,
    id: JobId,
    slot: Slot,
}

/// One site's running batch jobs in kill order: a stack sorted by
/// `(start, id)`, whose top live entry — the highest id among the jobs of
/// the latest start — is the next crash or outage victim.
///
/// Starts arrive in time order, so a push lands on top, past at most the
/// entries of its own start with higher ids. Deletion is lazy: a
/// completion or kill only lowers `live`, and an entry that no longer
/// names a running job (the job completed, was killed, or its slot went to
/// another job) is dropped when it surfaces at the top, or when more than
/// half the entries are stale and the stack compacts. The stack therefore
/// holds at most `2 × live + KillOrder::SLACK` entries.
#[derive(Debug, Clone, Default)]
struct KillOrder {
    stack: Vec<KillEntry>,
    /// Entries naming a running job.
    live: usize,
}

impl KillOrder {
    /// Stale entries tolerated beyond `live` before a compaction.
    const SLACK: usize = 8;

    fn push(&mut self, e: KillEntry) {
        let key = |e: &KillEntry| (e.start, e.id);
        debug_assert!(
            self.stack.last().is_none_or(|t| t.start <= e.start),
            "starts arrive in time order"
        );
        self.stack.push(e);
        let mut i = self.stack.len() - 1;
        while i > 0 && key(&self.stack[i - 1]) > key(&e) {
            self.stack.swap(i - 1, i);
            i -= 1;
        }
        self.live += 1;
    }

    /// A running job left (completed or killed); `runs` tells the entries
    /// of still-running jobs from stale ones.
    fn leave(&mut self, runs: impl Fn(&KillEntry) -> bool) {
        self.live -= 1;
        if self.stack.len() > 2 * self.live + Self::SLACK {
            self.stack.retain(|e| runs(e));
            // A job killed and restarted within one instant at one site
            // leaves two equal, adjacent entries.
            self.stack.dedup();
        }
    }

    /// The next victim: pop stale entries off the top, then name the top.
    fn victim(&mut self, runs: impl Fn(&KillEntry) -> bool) -> Option<Slot> {
        while let Some(top) = self.stack.last() {
            if runs(top) {
                return Some(top.slot);
            }
            self.stack.pop();
        }
        None
    }
}

/// Everything fault injection needs at run time, attached by
/// [`GridSim::with_faults`]. `None` (the default) means the fault path is
/// completely inert: no events, no RNG draws, no job clones.
struct FaultLayer {
    schedule: FaultSchedule,
    outage_policy: OutagePolicy,
    retry: RetryPolicy,
    ingest: Option<IngestChannel>,
    /// Cores per site currently out of service from node crashes.
    crashed_cores: Vec<usize>,
    /// Free cores per site parked for the duration of a whole-site outage.
    outage_offline: Vec<usize>,
    /// Outage start per site (`Some` while the site is dark).
    down_since: Vec<Option<SimTime>>,
    /// Degradation-window start per site (`Some` while the uplink is slow).
    degraded_since: Vec<Option<SimTime>>,
    /// Batch jobs running per site, in kill order.
    running: Vec<KillOrder>,
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
    /// Materialized jobs not yet submitted, in *reverse* delivery order
    /// (`(submit_time, list index)` descending), so the next submission is
    /// always `pop()` and the buffer drains from its tail. Empty in
    /// streaming mode.
    pending: Vec<Job>,
    /// Ground-truth labels by job id (kept OUT of the record stream).
    truth: Labels,
    /// Every admitted job not yet completed or abandoned, with what it is
    /// executing — the one owner of each job after admission.
    jobs: JobStore,
    /// The slots of jobs in the schedulers' queues, by id: a scheduler
    /// names the jobs it starts by id.
    queued: IdMap<JobId, Slot>,
    /// Jobs waiting on workflow dependencies, as the first and last of the
    /// jobs held on each dep (the rest are linked through [`Run::Held`]).
    /// Each held job is registered under exactly *one* of its unmet deps;
    /// when that dep completes the job is re-examined and either routed or
    /// re-registered under another still-unmet dep. (A per-job unmet counter
    /// would go stale: deps the job is not registered under can complete in
    /// the meantime.)
    dep_waiters: IdMap<JobId, (Slot, Slot)>,
    completed: JobBitset,
    /// Deferred RC tasks, by site index (fabric was full).
    rc_backlog: Vec<VecDeque<Slot>>,
    /// Armed scheduler wakeups by site index (dedupe).
    armed_wakeups: Vec<Option<SimTime>>,
    /// Reused buffer for one scheduler decision pass (empty between
    /// dispatches).
    started: Vec<Started>,
    /// Reused buffer of per-site snapshots for the metascheduler.
    site_views: Vec<SiteView>,
    /// Reused buffer of the sites holding a routed job's dataset.
    holders: Vec<SiteId>,
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
    /// workload (its ground-truth labels are extracted and quarantined
    /// here); jobs are submitted in `(submit_time, list index)` order, so a
    /// list that is not sorted by submit time (an SWF replay) is sorted
    /// here, stably.
    pub fn new(
        federation: Federation,
        schedulers: Vec<Box<dyn BatchScheduler>>,
        meta_policy: MetaPolicy,
        rc_policy: RcPolicy,
        data_home: SiteId,
        mut jobs: Vec<Job>,
        rng: RngFactory,
    ) -> Self {
        assert_eq!(schedulers.len(), federation.len(), "one scheduler per site");
        assert!(data_home.index() < federation.len(), "data home must exist");
        if !jobs.is_sorted_by_key(|j| j.submit_time) {
            // Stable: tied submit times keep list order.
            jobs.sort_by_key(|j| j.submit_time);
        }
        jobs.reverse();
        // Drop the generator's growth slack (up to half the list) before
        // the label table is built, so the two are never live together.
        jobs.shrink_to_fit();
        let truth: Labels = jobs.iter().map(|j| (j.id, j.true_modality)).collect();
        let jobs_total = jobs.len();
        let sites = federation.len();
        let mut metrics = MetricsRegistry::disabled();
        let ins = Instruments::register(&mut metrics, &federation);
        GridSim {
            federation,
            schedulers,
            meta_policy,
            rc_policy,
            data_home,
            data: None,
            pending: jobs,
            truth,
            jobs: JobStore::default(),
            queued: IdMap::default(),
            dep_waiters: IdMap::default(),
            completed: JobBitset::default(),
            rc_backlog: vec![VecDeque::new(); sites],
            armed_wakeups: vec![None; sites],
            started: Vec::new(),
            site_views: Vec::with_capacity(sites),
            holders: Vec::new(),
            rng,
            db: AccountingDb::new(),
            jobs_done: 0,
            jobs_total,
            sample_interval: None,
            samples: Vec::new(),
            metrics,
            ins,
            tracer: Tracer::default(),
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

    /// Whether spans are emitted: the tracer or the live stats is on.
    fn spans_on(&self) -> bool {
        self.tracer.is_enabled() || self.obs.is_enabled()
    }

    /// [`GridSim::close_span`] for the job in `slot`, on the track its
    /// store entry carries.
    #[allow(clippy::too_many_arguments)] // a span's fields arrive together
    fn close_phase(
        &mut self,
        now: SimTime,
        slot: Slot,
        kind: SpanKind,
        until: SimTime,
        site: Option<SiteId>,
        cause: impl FnOnce(SpanTrack) -> Option<WaitCause>,
        keep_empty: bool,
    ) {
        if !self.spans_on() {
            return;
        }
        let entry = &self.jobs[slot];
        let (span, mut track) = (span_of(&entry.job), entry.track);
        self.close_span(now, span, &mut track, kind, until, site, cause, keep_empty);
        self.jobs.get_mut(slot).track = track;
    }

    /// Close a job's current lifecycle phase, kept in `track`, as a `kind`
    /// span over `[phase_start, until]` and open the next phase at `until`.
    /// The span goes to the online sketches and, as a `cat == "span"` entry
    /// stamped `now`, to the tracer (see `tg_des::span` for the schema) —
    /// unless it is empty and `keep_empty` is false. `cause` names the wait
    /// from the closing phase's track. `until` may lie after `now`
    /// (reconfiguration, stage-out), which is why both bounds are explicit
    /// span fields. Nothing happens while spans are off.
    #[allow(clippy::too_many_arguments)] // a span's fields arrive together
    fn close_span(
        &mut self,
        now: SimTime,
        (id, modality): (JobId, Modality),
        track: &mut SpanTrack,
        kind: SpanKind,
        until: SimTime,
        site: Option<SiteId>,
        cause: impl FnOnce(SpanTrack) -> Option<WaitCause>,
        keep_empty: bool,
    ) {
        if !self.spans_on() {
            return;
        }
        let closed = std::mem::replace(track, SpanTrack::opened(until));
        let (t0, t1) = (closed.phase_start, until);
        if t1 <= t0 && !keep_empty {
            return;
        }
        let cause = cause(closed);
        self.obs.sketches.record(
            kind,
            cause,
            site.map(|s| s.index()),
            Some(modality.index()),
            t1.saturating_since(t0).as_secs_f64(),
        );
        self.tracer.emit_event(now, SPAN_CATEGORY, || {
            let mut fields: Vec<(&'static str, TraceValue)> = vec![
                ("v", SPAN_SCHEMA_VERSION.into()),
                ("job", id.index().into()),
                ("kind", kind.name().into()),
                ("t0", t0.as_secs_f64().into()),
                ("t1", t1.as_secs_f64().into()),
                ("modality", modality.name().into()),
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

    /// Enable run-level metrics collection: the registry's counters, plus
    /// the windowed series' per-site tracks that the snapshot's busy-core
    /// and queue-length gauges are read from (one bucket for the whole run
    /// unless [`GridSim::with_live_stats`] sets a width). Metrics are pure
    /// observers — they never draw randomness or schedule events — so
    /// enabling them cannot change any simulation result.
    pub fn with_metrics(mut self) -> Self {
        self.metrics.set_enabled(true);
        if !self.obs.series.is_enabled() {
            self.obs.series = self.site_series(SimDuration::MAX);
        }
        self
    }

    /// An enabled windowed series over this federation's sites (their core
    /// counts are its utilization denominator).
    fn site_series(&self, bucket: SimDuration) -> WindowedSeries {
        let cores: Vec<f64> = self
            .federation
            .sites()
            .map(|s| s.cluster.total_cores() as f64)
            .collect();
        WindowedSeries::enabled(bucket, &cores)
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
        self.obs.series = self.site_series(bucket);
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
            ingest,
            crashed_cores: vec![0; sites],
            outage_offline: vec![0; sites],
            down_since: vec![None; sites],
            degraded_since: vec![None; sites],
            running: vec![KillOrder::default(); sites],
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
    /// pending jobs' submit times go in as one stream, in delivery order:
    /// delivery is bit-identical to per-job `schedule_at` calls in
    /// `(submit_time, list index)` order, but the engine's heap stays sized
    /// to the *dynamic* event population instead of holding the entire
    /// workload up front.
    pub fn prime(&self, engine: &mut Engine<Event>) {
        let times: Vec<SimTime> = self.pending.iter().rev().map(|j| j.submit_time).collect();
        engine.schedule_stream(
            times.len() as u64,
            times
                .into_iter()
                .enumerate()
                .map(|(ordinal, at)| (at, Event::Submit(ordinal))),
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
        let mut metrics = self.metrics.snapshot(engine.now());
        if let Some(m) = metrics.as_mut() {
            let names: Vec<String> = self
                .federation
                .sites()
                .map(|s| s.name().to_string())
                .collect();
            m.gauges = self.obs.series.site_gauges(engine.now(), &names);
        }
        let trace_health = self.tracer.close();
        debug_assert!(self.jobs.is_empty(), "the store drained with the jobs");
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
        self.truth.get(id)
    }

    /// Jobs completed so far.
    pub fn jobs_done(&self) -> usize {
        self.jobs_done
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    fn route(&mut self, ctx: &mut Ctx<Event>, slot: Slot) {
        let now = ctx.now();
        let job = &mut self.jobs.get_mut(slot).job;
        // Workflow release semantics: the queue sees the task now.
        job.submit_time = job.submit_time.max(now);
        let (is_rc, site_hint, dataset) = (job.rc.is_some(), job.site_hint, job.dataset);
        let who = (job.id, account_of(job), job.project);
        let input_mb = job.input_mb;
        // Span: time between original submission and routing was spent held
        // on workflow dependencies.
        self.close_phase(now, slot, SpanKind::Held, now, None, |_| None, false);
        if is_rc {
            let site = self.rc_site_for(site_hint);
            self.route_rc(ctx, site, slot);
            return;
        }
        let site = match site_hint {
            Some(s) => s,
            None => self.select_site(slot),
        };
        // Data-grid path: a named dataset replaces the flat input-staging
        // charge with replica-catalog / cache mechanics. A hit at the
        // chosen site enqueues immediately; a miss pays the WAN from the
        // nearest replica holder and admits the dataset into the site's
        // cache. Either way the resolution cause rides the event so the
        // stage-in span names it.
        if let (Some(ds), true) = (dataset, self.data.is_some()) {
            match self.data.as_mut().expect("checked above").access(
                ds,
                site,
                &self.federation.network,
            ) {
                Locate::Hit => {
                    ctx.schedule_now(Event::Enqueue {
                        site,
                        slot,
                        cause: Some(WaitCause::CacheHit),
                    });
                }
                Locate::Miss { source } => {
                    let mb = self.data.as_ref().expect("checked above").size_mb(ds);
                    let dur = self.federation.network.transfer_time(source, site, mb);
                    self.stage(now, who, (source, site), mb, dur, Staging::InFromReplica);
                    ctx.schedule_after(
                        dur,
                        Event::Enqueue {
                            site,
                            slot,
                            cause: Some(WaitCause::CacheMiss),
                        },
                    );
                }
            }
            return;
        }
        // Input staging for large inputs: pay the WAN before queueing.
        if input_mb >= STAGING_THRESHOLD_MB && site != self.data_home {
            let ends = (self.data_home, site);
            let dur = self
                .federation
                .network
                .transfer_time(ends.0, ends.1, input_mb);
            self.stage(now, who, ends, input_mb, dur, Staging::In);
            ctx.schedule_after(
                dur,
                Event::Enqueue {
                    site,
                    slot,
                    cause: None,
                },
            );
        } else {
            ctx.schedule_now(Event::Enqueue {
                site,
                slot,
                cause: None,
            });
        }
    }

    fn select_site(&mut self, slot: Slot) -> SiteId {
        let job = &self.jobs[slot].job;
        // Queue depth by scheduler queue length × job-average shape is a
        // coarse stand-in; use queue length × estimate of this job.
        let mut views = std::mem::take(&mut self.site_views);
        views.clear();
        views.extend(self.federation.sites().enumerate().map(|(i, s)| SiteView {
            site: s.id(),
            total_cores: s.cluster.total_cores(),
            free_cores: s.cluster.free_cores(),
            queued_core_seconds: self.schedulers[i].queue_len() as f64
                * job.cores as f64
                * job.estimate.as_secs_f64(),
            core_speed: s.core_speed(),
        }));
        // Under an active whole-site outage the metascheduler routes around
        // the dark site(s) — unless no surviving site could fit this job
        // (or everything is dark), in which case it routes to its normal
        // choice and waits out the outage there. The filter only engages
        // while a site is actually down, so fault-free runs build the
        // identical view vector.
        if let Some(f) = &self.faults {
            if f.down_since.iter().any(Option::is_some)
                && views
                    .iter()
                    .any(|v| f.down_since[v.site.index()].is_none() && job.cores <= v.total_cores)
            {
                views.retain(|v| f.down_since[v.site.index()].is_none());
            }
        }
        // Data-locality context: where the job's dataset is resident right
        // now (permanent replicas plus warm caches) and how big it is. Only
        // dataset-carrying jobs build one; everything else passes `None`,
        // which every policy ignores.
        let mut holders = std::mem::take(&mut self.holders);
        let dctx = match (job.dataset, &self.data) {
            (Some(d), Some(layer)) => {
                layer.holders_into(d, &mut holders);
                Some(DataContext {
                    resident: &holders,
                    size_mb: layer.size_mb(d),
                })
            }
            _ => None,
        };
        // Per-job streams are independent, so deriving this one only when
        // the policy draws from it changes no draw.
        let rng = &self.rng;
        let site = self
            .meta_policy
            .select(
                job,
                &views,
                self.data_home,
                &self.federation.network,
                dctx.as_ref(),
                || rng.stream(StreamId::new("meta", job.id.index() as u64)),
            )
            .expect("at least one site fits any generated job");
        self.site_views = views;
        self.holders = holders;
        site
    }

    fn rc_site_for(&self, site_hint: Option<SiteId>) -> SiteId {
        if let Some(s) = site_hint {
            if self.federation.site(s).has_rc() {
                return s;
            }
        }
        self.federation
            .sites()
            .find(|s| s.has_rc())
            .map(|s| s.id())
            .unwrap_or_else(|| site_hint.unwrap_or(SiteId(0)))
    }

    // ------------------------------------------------------------------
    // Batch path
    // ------------------------------------------------------------------

    fn enqueue(
        &mut self,
        ctx: &mut Ctx<Event>,
        site: SiteId,
        slot: Slot,
        cause: Option<WaitCause>,
    ) {
        self.metrics.inc(self.ins.enqueues);
        let view = QueuedJob::from(&self.jobs[slot].job);
        let id = view.id;
        // Span: any gap since routing was input staging over the WAN.
        // Dataset jobs always close a stage-in span — a cache hit closes a
        // zero-length one — so the hit/miss cause is observable; jobs
        // without a dataset keep the pre-data-grid emission rule.
        let now = ctx.now();
        let keep_empty = cause.is_some();
        self.close_phase(
            now,
            slot,
            SpanKind::StageIn,
            now,
            Some(site),
            |_| cause,
            keep_empty,
        );
        self.tracer.emit_event(now, "queue", || {
            vec![
                ("job", id.index().into()),
                ("site", site.index().into()),
                ("cores", view.cores.into()),
            ]
        });
        self.schedulers[site.index()].submit(now, view);
        self.dispatch(ctx, site, Some((id, slot)));
    }

    /// Start what the site's scheduler picks, then refresh the site's
    /// busy-core and queued-job tracks in the windowed series. Every change
    /// to a site's cores or queue ends in a dispatch of that site — a dark
    /// one included — so the tracks see each change at the instant it
    /// happens. `fresh` is a job just submitted to the site and not yet in
    /// `queued`: it enters `queued` only if this pass leaves it waiting,
    /// which spares the map for the many jobs that start on arrival.
    fn dispatch(&mut self, ctx: &mut Ctx<Event>, site: SiteId, mut fresh: Option<(JobId, Slot)>) {
        let now = ctx.now();
        // A site in a whole-site outage is frozen: its queue keeps accepting
        // work but nothing starts until recovery (which dispatches again).
        if !self.site_is_down(site) {
            let speed = self.federation.site(site).core_speed();
            let cluster = &mut self.federation.site_mut(site).cluster;
            let mut started = std::mem::take(&mut self.started);
            self.schedulers[site.index()].make_decisions(now, cluster, speed, &mut started);
            for s in started.drain(..) {
                let id = s.job.id;
                let slot = match fresh {
                    Some((fresh_id, slot)) if fresh_id == id => {
                        fresh = None;
                        slot
                    }
                    _ => self.queued.remove(&id).expect("a started job was queued"),
                };
                // The completion event carries only the slot; its key, kept
                // with the job, lets a crash or outage cancel the attempt
                // and requeue the job.
                let entry = self.jobs.get_mut(slot);
                let actual = entry.job.runtime_on(speed, false);
                let key = ctx.schedule_after(actual, Event::Complete { slot });
                entry.run = Run::Batch {
                    site,
                    key,
                    started: s,
                };
                if let Some(f) = self.faults.as_mut() {
                    f.running[site.index()].push(KillEntry {
                        start: now,
                        id,
                        slot,
                    });
                }
                self.obs.series.on_start(now);
                // Span: queued phase closes at start. The scheduler attributes
                // the wait from the job's routed submit time; jobs whose queued
                // phase began this instant (e.g. after staging) started
                // immediately.
                let cause = |t: SpanTrack| {
                    Some(if t.phase_start >= now {
                        WaitCause::Immediate
                    } else {
                        s.cause
                    })
                };
                self.close_phase(now, slot, SpanKind::Queued, now, Some(site), cause, true);
                self.tracer.emit_event(now, "sched", || {
                    vec![
                        ("job", id.index().into()),
                        ("site", site.index().into()),
                        ("cores", s.job.cores.into()),
                    ]
                });
            }
            self.started = started;
            // Arm a wakeup if the policy wants one (weekly drain).
            if let Some(at) = self.schedulers[site.index()].next_wakeup(now) {
                let armed = &mut self.armed_wakeups[site.index()];
                if *armed != Some(at) {
                    *armed = Some(at);
                    ctx.schedule_at(at, Event::SchedWakeup { site });
                }
            }
        }
        if let Some((id, slot)) = fresh {
            self.queued.insert(id, slot);
        }
        if self.obs.series.is_enabled() {
            let busy = self.federation.site(site).cluster.busy_cores();
            let queued = self.schedulers[site.index()].queue_len();
            self.obs
                .series
                .set_site(site.index(), now, busy as f64, queued as f64);
        }
    }

    fn complete_batch(&mut self, ctx: &mut Ctx<Event>, slot: Slot) {
        let mut done = self.jobs.remove(slot);
        let (id, cores) = (done.job.id, done.job.cores);
        let Run::Batch { site, started, .. } = done.run else {
            unreachable!("batch completion of a job not running on a batch partition");
        };
        if let Some(f) = self.faults.as_mut() {
            let jobs = &self.jobs;
            f.running[site.index()].leave(|e| jobs.runs(site, e));
        }
        let now = ctx.now();
        self.federation.site_mut(site).cluster.release(now, cores);
        self.obs.series.on_stop(now);
        self.schedulers[site.index()].on_complete(now, &started);
        let span = span_of(&done.job);
        self.close_span(
            now,
            span,
            &mut done.track,
            SpanKind::Run,
            now,
            Some(site),
            |_| None,
            true,
        );
        self.tracer.emit_event(now, "done", || {
            let wait = started.start.saturating_since(done.job.submit_time);
            vec![
                ("job", id.index().into()),
                ("site", site.index().into()),
                ("wait_s", wait.as_secs_f64().into()),
            ]
        });
        self.emit_records(ctx, site, &mut done, started.start, false, None);
        self.finish_job(ctx, id);
        self.dispatch(ctx, site, None);
    }

    // ------------------------------------------------------------------
    // RC path
    // ------------------------------------------------------------------

    fn route_rc(&mut self, ctx: &mut Ctx<Event>, site: SiteId, slot: Slot) {
        if !self.federation.site(site).has_rc() {
            // No fabric anywhere: run the software version.
            self.enqueue(ctx, site, slot, None);
            return;
        }
        let now = ctx.now();
        let job = &self.jobs[slot].job;
        let id = job.id;
        let decision = {
            let fed = &self.federation;
            let s = fed.site(site);
            self.rc_policy.decide(
                job,
                &s.rc,
                &fed.library,
                |c| fed.bitstream_fetch_time(c, site),
                now,
                s.core_speed(),
            )
        };
        match decision {
            RcDecision::PlaceHw { node, plan, setup } => {
                let reused = matches!(plan, HostPlan::Reuse(_));
                let entry = self.jobs.get_mut(slot);
                let job = &entry.job;
                let rc_cfg = job.rc.expect("rc job").config;
                let (s, library) = self.federation.site_mut_with_library(site);
                let speed = s.core_speed();
                let region = s.rc.node_mut(node).commit(plan, rc_cfg, library, now);
                let exec_start = now + setup.total();
                let end = exec_start + job.runtime_on(speed, true);
                entry.run = Run::Rc {
                    site,
                    node,
                    region,
                    started: exec_start,
                    setup,
                    reused,
                };
                // Spans: queued-for-fabric (zero-length unless the job sat in
                // the deferral backlog), then bitstream transfer + reconfig.
                let cause = |t: SpanTrack| {
                    Some(if t.deferred {
                        WaitCause::FabricBusy
                    } else {
                        WaitCause::Immediate
                    })
                };
                self.close_phase(now, slot, SpanKind::Queued, now, Some(site), cause, true);
                let cause = |_| Some(WaitCause::ReconfigLatency);
                self.close_phase(
                    now,
                    slot,
                    SpanKind::Reconfig,
                    exec_start,
                    Some(site),
                    cause,
                    true,
                );
                self.obs.series.on_start(now);
                ctx.schedule_at(end, Event::RcComplete { slot });
            }
            RcDecision::RunSw => {
                // A deferred job falling back to software spent its backlog
                // time waiting on the fabric, not staging input.
                let cause = |_| Some(WaitCause::FabricBusy);
                self.close_phase(now, slot, SpanKind::Queued, now, Some(site), cause, false);
                self.enqueue(ctx, site, slot, None);
            }
            RcDecision::Defer => {
                self.metrics.inc(self.ins.rc_deferrals);
                self.tracer.emit_event(now, "rc", || {
                    vec![("job", id.index().into()), ("deferred", true.into())]
                });
                self.jobs.get_mut(slot).track.deferred = true;
                self.rc_backlog[site.index()].push_back(slot);
            }
        }
    }

    fn complete_rc(&mut self, ctx: &mut Ctx<Event>, slot: Slot) {
        let mut done = self.jobs.remove(slot);
        let (job, id) = (&done.job, done.job.id);
        let Run::Rc {
            site,
            node,
            region,
            started,
            setup,
            reused,
        } = done.run
        else {
            unreachable!("RC completion of a job not running on a fabric region");
        };
        let now = ctx.now();
        let rc = job.rc.expect("rc job");
        // The task ends now, so its deadline is judged against now.
        let placement = RcPlacementRecord {
            job: id,
            site,
            node,
            config: rc.config,
            reused,
            transfer: setup.transfer,
            reconfig: setup.reconfig,
            deadline_met: rc.deadline.map(|d| now <= job.submit_time + d),
        };
        self.federation
            .site_mut(site)
            .rc
            .node_mut(node)
            .finish(region, now);
        self.obs.series.on_stop(now);
        let span = span_of(&done.job);
        self.close_span(
            now,
            span,
            &mut done.track,
            SpanKind::Run,
            now,
            Some(site),
            |_| None,
            true,
        );
        self.tracer.emit_event(now, "rc", || {
            vec![
                ("job", id.index().into()),
                ("site", site.index().into()),
                ("reused", reused.into()),
            ]
        });
        self.emit_records(ctx, site, &mut done, started, true, Some(placement));
        self.finish_job(ctx, id);
        // Fabric freed: retry deferred tasks (FIFO, stop at first re-defer).
        while let Some(next) = self.rc_backlog[site.index()].pop_front() {
            let before = self.rc_backlog[site.index()].len();
            self.route_rc(ctx, site, next);
            // If route_rc deferred it again it went to the back; avoid
            // spinning over a full backlog in one pass.
            if self.rc_backlog[site.index()].len() > before {
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
                self.dispatch(ctx, site, None);
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
        self.dispatch(ctx, site, None);
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
        self.dispatch(ctx, site, None);
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
        // Nothing starts on a dark site; the dispatch refreshes its tracks.
        self.dispatch(ctx, site, None);
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
        self.dispatch(ctx, site, None);
    }

    /// The running job at `site` that started last (ties: highest id) — the
    /// deterministic kill order for crashes and outages. Preferring the
    /// newest attempt loses the least completed work.
    fn pick_victim(&mut self, site: SiteId) -> Option<Slot> {
        let f = self.faults.as_mut().expect("fault layer");
        let jobs = &self.jobs;
        f.running[site.index()].victim(|e| jobs.runs(site, e))
    }

    /// Kill one running job: cancel its completion event, free its cores
    /// (without counting a completion), emit a `fault` span for the lost
    /// execution, and requeue it after backoff — or checkpoint-restart it,
    /// or abandon it once the retry budget is exhausted.
    fn kill_running(
        &mut self,
        ctx: &mut Ctx<Event>,
        slot: Slot,
        cause: WaitCause,
        checkpoint: bool,
    ) {
        let now = ctx.now();
        let entry = self.jobs.get_mut(slot);
        let Run::Batch { site, key, started } = std::mem::replace(&mut entry.run, Run::Waiting)
        else {
            unreachable!("victim is running on a batch partition");
        };
        let (cores, id) = (entry.job.cores, entry.job.id);
        assert!(
            ctx.cancel(key),
            "completion already delivered for a running job"
        );
        self.federation.site_mut(site).cluster.preempt(now, cores);
        self.obs.series.on_stop(now);
        self.schedulers[site.index()].on_complete(now, &started);
        let f = self.faults.as_mut().expect("fault layer");
        let jobs = &self.jobs;
        f.running[site.index()].leave(|e| jobs.runs(site, e));
        f.report.jobs_killed += 1;
        self.close_phase(
            now,
            slot,
            SpanKind::Fault,
            now,
            Some(site),
            |_| Some(cause),
            true,
        );
        self.tracer.emit_event(now, "fault", || {
            vec![
                ("job", id.index().into()),
                ("site", site.index().into()),
                ("cause", cause.name().into()),
            ]
        });
        if checkpoint {
            // Checkpoint at the kill instant: only the remaining work reruns
            // and the retry budget is not charged.
            let speed = self.federation.site(site).core_speed();
            let done_ref = now.saturating_since(started.start).as_secs_f64() * speed;
            let job = &mut self.jobs.get_mut(slot).job;
            let remaining = (job.runtime.as_secs_f64() - done_ref).max(1.0);
            job.runtime = SimDuration::from_secs_f64(remaining);
            job.estimate = job.estimate.max(job.runtime);
            let f = self.faults.as_mut().expect("fault layer");
            f.report.checkpoint_restarts += 1;
            f.report.jobs_requeued += 1;
            let backoff = f.retry.backoff(1);
            ctx.schedule_after(backoff, Event::Requeue { slot });
            return;
        }
        let entry = self.jobs.get_mut(slot);
        entry.retries += 1;
        let attempts = entry.retries;
        let f = self.faults.as_mut().expect("fault layer");
        if f.retry.exhausted(attempts) {
            f.report.jobs_abandoned += 1;
            self.tracer.emit_event(now, "abandon", || {
                vec![
                    ("job", id.index().into()),
                    ("attempts", (attempts as usize).into()),
                ]
            });
            // The job never completes and leaves no accounting record, but
            // it still counts toward the drain and releases its dependents.
            self.jobs.remove(slot);
            self.finish_job(ctx, id);
        } else {
            f.report.jobs_requeued += 1;
            let backoff = f.retry.backoff(attempts);
            ctx.schedule_after(backoff, Event::Requeue { slot });
        }
    }

    /// A killed job returns from backoff: emit the `requeue` span covering
    /// the backoff wait (its phase opened at the kill), then route it as a
    /// fresh submission (`route` bumps `submit_time`, so accounting sees the
    /// final attempt's resubmission).
    fn requeue(&mut self, ctx: &mut Ctx<Event>, slot: Slot) {
        let now = ctx.now();
        let id = self.jobs[slot].job.id;
        self.close_phase(now, slot, SpanKind::Requeue, now, None, |_| None, false);
        self.tracer
            .emit_event(now, "requeue", || vec![("job", id.index().into())]);
        self.route(ctx, slot);
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

    /// Ingest the accounting records of `done`, which ran at `site` from
    /// `started` until now, and stage its output out. `done` has just left
    /// the store; its track opens the stage-out span.
    fn emit_records(
        &mut self,
        ctx: &mut Ctx<Event>,
        site: SiteId,
        done: &mut InFlight,
        started: SimTime,
        used_hw: bool,
        placement: Option<RcPlacementRecord>,
    ) {
        let job = &done.job;
        let account = account_of(job);
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
            let (who, span, mb) = ((job.id, account, job.project), span_of(job), job.output_mb);
            let ends = (site, self.data_home);
            let dur = self.federation.network.transfer_time(ends.0, ends.1, mb);
            let now = ctx.now();
            self.close_span(
                now,
                span,
                &mut done.track,
                SpanKind::StageOut,
                now + dur,
                Some(site),
                |_| None,
                true,
            );
            self.stage(now, who, ends, mb, dur, Staging::Out);
        }
    }

    /// Account one WAN staging transfer of `mb` MB for a job, identified
    /// by `(id, account, project)`, over `ends = (src, dst)` from `now`
    /// for `dur`: the staging counters, the `xfer` trace event (naming
    /// the ends `way` says) and the ingested transfer record.
    fn stage(
        &mut self,
        now: SimTime,
        (id, user, project): (JobId, UserId, ProjectId),
        (src, dst): (SiteId, SiteId),
        mb: f64,
        dur: SimDuration,
        way: Staging,
    ) {
        self.metrics.add(self.ins.staging_bytes, (mb * 1e6) as u64);
        self.metrics.inc(self.ins.staging_transfers);
        self.tracer.emit_event(now, "xfer", || {
            let dir = if way == Staging::Out { "out" } else { "in" };
            let mut fields = vec![("job", id.index().into()), ("dir", dir.into())];
            if way != Staging::In {
                fields.push(("src", src.index().into()));
            }
            if way != Staging::Out {
                fields.push(("dst", dst.index().into()));
            }
            fields.push(("mb", mb.into()));
            fields
        });
        let rec = TransferRecord {
            user,
            project,
            src,
            dst,
            mb,
            start: now,
            end: now + dur,
        };
        self.ingest(Record::Transfer(rec));
    }

    /// Count `id` as done — completed, or abandoned after its last retry —
    /// and route any job whose last unmet dependency it was.
    fn finish_job(&mut self, ctx: &mut Ctx<Event>, id: JobId) {
        self.obs.series.on_complete(ctx.now());
        self.jobs_done += 1;
        self.completed.insert(id);
        let mut waiter = self.dep_waiters.remove(&id).map(|(first, _)| first);
        while let Some(held) = waiter {
            let entry = self.jobs.get_mut(held);
            let Run::Held { next } = std::mem::replace(&mut entry.run, Run::Waiting) else {
                unreachable!("a dependency waiter is held");
            };
            waiter = next;
            match self.completed.first_missing(&entry.job.deps) {
                None => self.route(ctx, held),
                Some(dep) => self.hold(held, dep),
            }
        }
    }

    /// Hold the job in `slot` until `dep` finishes, behind any job already
    /// held on it.
    fn hold(&mut self, slot: Slot, dep: JobId) {
        self.jobs.get_mut(slot).run = Run::Held { next: None };
        match self.dep_waiters.entry(dep) {
            Entry::Occupied(mut e) => {
                let last = std::mem::replace(&mut e.get_mut().1, slot);
                self.jobs.get_mut(last).run = Run::Held { next: Some(slot) };
            }
            Entry::Vacant(e) => {
                e.insert((slot, slot));
            }
        }
    }

    fn submit_from_trace(&mut self, ctx: &mut Ctx<Event>, ordinal: usize) {
        debug_assert_eq!(
            ordinal,
            self.jobs_total - self.pending.len(),
            "submits delivered in order"
        );
        let job = self.pending.pop().expect("one pending job per submit");
        let free = self.pending.capacity() - self.pending.len();
        if free > 0 && free * PENDING_SHRINK_DIVISOR >= self.pending.capacity() {
            self.pending.shrink_to_fit();
        }
        self.admit(ctx, job);
    }

    /// Admit a newly arrived job — the shared trunk of both submit paths.
    /// In streaming mode the ground-truth label is quarantined here (the
    /// materialized constructor did it up front; the final tables are
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
        let first_unmet = self.completed.first_missing(&job.deps);
        let slot = self.jobs.insert(job);
        match first_unmet {
            None => self.route(ctx, slot),
            Some(dep) => self.hold(slot, dep),
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
            Event::Submit(ordinal) => self.submit_from_trace(ctx, ordinal),
            Event::SubmitJob(job) => self.admit(ctx, *job),
            Event::Enqueue { site, slot, cause } => self.enqueue(ctx, site, slot, cause),
            Event::Complete { slot } => self.complete_batch(ctx, slot),
            Event::RcComplete { slot } => self.complete_rc(ctx, slot),
            Event::SchedWakeup { site } => {
                self.armed_wakeups[site.index()] = None;
                self.dispatch(ctx, site, None);
            }
            Event::Sample => self.take_sample(ctx),
            Event::Fault(index) => self.handle_fault(ctx, index),
            Event::Requeue { slot } => self.requeue(ctx, slot),
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
    pub truth: Labels,
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
    fn pending_store_shrinks_as_jobs_are_submitted() {
        // One job every 10 s, each short enough to finish before the next,
        // in a list with growth slack.
        let mut jobs = Vec::with_capacity(1_000);
        jobs.extend((0..400).map(|i| job(i, 1, 5, i as u64 * 10)));
        let fed = tiny_federation();
        let scheds = schedulers(&fed, SchedulerKind::Easy);
        let mut sim = GridSim::new(
            fed,
            scheds,
            MetaPolicy::ShortestEta,
            RcPolicy::AWARE,
            SiteId(0),
            jobs,
            RngFactory::new(1),
        );
        assert_eq!(sim.pending.capacity(), 400, "growth slack dropped up front");
        let mut engine = Engine::new();
        sim.prime(&mut engine);
        for stop_s in [0, 9, 1_000, 2_995, 3_990] {
            engine.run_until(&mut sim, StopCondition::AtTime(SimTime::from_secs(stop_s)));
            let unsubmitted = 400 - (stop_s as usize / 10 + 1);
            let (len, cap) = (sim.pending.len(), sim.pending.capacity());
            assert_eq!(len, unsubmitted, "stopped at {stop_s} s");
            assert!(
                (cap - len) * PENDING_SHRINK_DIVISOR < cap.max(1),
                "stopped at {stop_s} s: capacity {cap} for {len} unsubmitted jobs"
            );
        }
        engine.run_until(&mut sim, StopCondition::Exhausted);
        assert_eq!(sim.pending.capacity(), 0, "the store is freed by the end");
    }

    #[test]
    fn unsorted_job_lists_are_admitted_by_submit_time_then_list_index() {
        // Ids deliberately disagree with list positions, and three jobs
        // tie at 10 s: an id tie-break would admit 0, 4, 5 there.
        let at = |id: usize, submit: u64| job(id, 1, 100, submit).with_site(SiteId(0));
        let jobs = vec![at(3, 20), at(0, 10), at(5, 10), at(1, 0), at(4, 10)];
        let out = run_jobs(jobs);
        // Each job starts at admission on an idle site and runs 100 s, so
        // completions (record order) follow admission order.
        let order: Vec<usize> = out.db.jobs.iter().map(|r| r.job.index()).collect();
        assert_eq!(order, [1, 0, 5, 4, 3]);
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

    /// The retry count lives with the job across its attempts: three
    /// outages kill one job, which is requeued twice under `max_retries:
    /// 2` and abandoned at the third kill. Checkpointed kills leave the
    /// budget alone: after two checkpointed outage kills, a node crash is
    /// the job's first charged kill, so `max_retries: 1` requeues it.
    #[test]
    fn retry_budget_counts_charged_kills_per_job() {
        let retry = |max_retries| {
            Some(RetryPolicy {
                max_retries,
                ..RetryPolicy::default()
            })
        };
        let jobs = || vec![job(0, 4, 1000, 0).with_site(SiteId(0))];
        let spec = FaultSpec {
            site_outages: vec![
                outage_at(50.0, 100.0),
                outage_at(300.0, 100.0),
                outage_at(600.0, 100.0),
            ],
            retry: retry(2),
            ..FaultSpec::default()
        };
        let out = run_jobs_faulted(jobs(), &spec);
        let report = out.fault_report.expect("faults attached");
        assert_eq!(report.jobs_killed, 3);
        assert_eq!(report.jobs_requeued, 2);
        assert_eq!(report.jobs_abandoned, 1);
        assert!(out.db.jobs.is_empty(), "abandoned at the third kill");

        let spec = FaultSpec {
            site_outages: vec![outage_at(50.0, 100.0), outage_at(300.0, 100.0)],
            outage_policy: tg_fault::OutagePolicy::Checkpoint,
            retry: retry(1),
            ..FaultSpec::default()
        };
        let fed = tiny_federation();
        let scheds = schedulers(&fed, SchedulerKind::Easy);
        let mut sim = GridSim::new(
            fed,
            scheds,
            MetaPolicy::ShortestEta,
            RcPolicy::AWARE,
            SiteId(0),
            jobs(),
            RngFactory::new(1),
        )
        .with_faults(&spec);
        // Every core of site 0 crashes at 600 s and is back at 650 s.
        let site = SiteId(0);
        let events = &mut sim.faults.as_mut().expect("attached").schedule.events;
        for (at, kind) in [
            (600, FaultEventKind::NodeCrash { site, cores: 16 }),
            (650, FaultEventKind::NodeRepair { site, cores: 16 }),
        ] {
            let at = SimTime::from_secs(at);
            events.push(tg_fault::FaultEvent { at, kind });
        }
        let out = sim.run(&mut Engine::new());
        let report = out.fault_report.expect("faults attached");
        assert_eq!(report.jobs_killed, 3);
        assert_eq!(report.checkpoint_restarts, 2);
        assert_eq!(report.jobs_requeued, 3);
        assert_eq!(report.jobs_abandoned, 0);
        // The checkpoints left 800 s to run; the crash reruns all of it
        // from the requeue at 660 s.
        assert_eq!(out.db.jobs.len(), 1);
        assert_eq!(out.db.jobs[0].end, SimTime::from_secs(1460));
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

    #[test]
    fn job_bitset_holds_sparse_ids_in_few_pages() {
        let ids = [0, 63, 64, 4095, 4096, 999_999_999_999];
        let mut set = JobBitset::default();
        for id in ids {
            set.insert(JobId(id));
        }
        assert!(ids.iter().all(|&id| set.contains(JobId(id))));
        for id in [1, 62, 65, 4094, 4097, 8192, 999_999_999_998] {
            assert!(!set.contains(JobId(id)), "{id} was never inserted");
        }
        assert_eq!(set.words.page_count(), 3, "pages follow the ids in use");
    }

    #[test]
    fn job_store_reuses_slots_and_grows_by_the_page() {
        let mut store = JobStore::default();
        let n = JobStore::PAGE + 1;
        let slots: Vec<Slot> = (0..n).map(|i| store.insert(job(i, 1, 1, 0))).collect();
        assert_eq!(store.pages.len(), 2, "one page, then one more slot");
        assert!(slots
            .iter()
            .enumerate()
            .all(|(i, &s)| store[s].job.id == JobId(i)));
        // Vacated slots go to the next admissions, most recent first, so
        // the store stays at the most jobs ever in flight.
        assert_eq!(store.remove(slots[7]).job.id, JobId(7));
        assert_eq!(store.remove(slots[3]).job.id, JobId(3));
        assert_eq!(store.insert(job(n, 1, 1, 0)), slots[3]);
        assert_eq!(store.insert(job(n + 1, 1, 1, 0)), slots[7]);
        assert_eq!(store[slots[7]].job.id, JobId(n + 1));
        assert_eq!(store.pages.len(), 2);
        for &s in &slots {
            store.remove(s);
        }
        assert!(store.is_empty());
    }

    /// Drives a [`KillOrder`] beside a model of the slots (`slot → (id,
    /// start)` of the job running in it): starts at tied and advancing
    /// instants with ids in no order, completions, crash kills (some
    /// restarted at once in the same slot), and slot reuse. Every victim
    /// is the highest id among the latest start's running jobs — never a
    /// completed, killed-and-requeued or reused slot's entry — and the
    /// stack stays within `2 × live + SLACK`.
    #[test]
    fn kill_order_names_the_newest_running_job_and_stays_compact() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut order = KillOrder::default();
        let mut slots: Vec<Option<(JobId, SimTime)>> = vec![None; 48];
        let mut requeued: Vec<JobId> = Vec::new();
        let mut next_id = 0;
        let mut now = SimTime::ZERO;
        let (mut kills, mut stale_pops) = (0, 0);
        for _ in 0..20_000 {
            if draw(4) == 0 {
                now += SimDuration::from_secs(draw(3));
            }
            let running: Vec<usize> = (0..slots.len()).filter(|&s| slots[s].is_some()).collect();
            let runs = |slots: &[Option<(JobId, SimTime)>], e: &KillEntry| {
                slots[e.slot.0 as usize] == Some((e.id, e.start))
            };
            match draw(10) {
                // Start: a requeued job or a fresh one (ids far apart, so a
                // tie's order is not its arrival order), in the lowest
                // free slot — slots are reused at once.
                0..=4 => {
                    let Some(slot) = slots.iter().position(Option::is_none) else {
                        continue;
                    };
                    let id = match requeued.pop() {
                        Some(id) if draw(2) == 0 => id,
                        other => {
                            requeued.extend(other);
                            next_id += 1;
                            JobId(draw(1 << 20) as usize * 64 + next_id % 64)
                        }
                    };
                    slots[slot] = Some((id, now));
                    order.push(KillEntry {
                        start: now,
                        id,
                        slot: Slot(slot as u32),
                    });
                }
                // Completion of any running job.
                5..=7 if !running.is_empty() => {
                    let s = running[draw(running.len() as u64) as usize];
                    slots[s] = None;
                    order.leave(|e| runs(&slots, e));
                }
                // Crash: kill the victim, sometimes restarting it at once.
                8..=9 if !running.is_empty() => {
                    let newest = running
                        .iter()
                        .map(|&s| {
                            let (id, start) = slots[s].expect("running");
                            ((start, id), s)
                        })
                        .max()
                        .map(|(_, s)| s);
                    let before = order.stack.len();
                    let victim = order.victim(|e| runs(&slots, e)).map(|v| v.0 as usize);
                    stale_pops += before - order.stack.len();
                    assert_eq!(victim, newest, "the latest start's highest id at {now:?}");
                    let s = victim.expect("a job runs");
                    let (id, _) = slots[s].take().expect("victim runs");
                    order.leave(|e| runs(&slots, e));
                    kills += 1;
                    if draw(3) == 0 {
                        slots[s] = Some((id, now));
                        order.push(KillEntry {
                            start: now,
                            id,
                            slot: Slot(s as u32),
                        });
                    } else {
                        requeued.push(id);
                    }
                }
                _ => {}
            }
            let live = slots.iter().flatten().count();
            assert_eq!(order.live, live);
            assert!(
                order.stack.len() <= 2 * live + KillOrder::SLACK,
                "{} entries for {live} running jobs",
                order.stack.len()
            );
        }
        assert!(
            kills > 1_000 && stale_pops > 0,
            "{kills} kills, {stale_pops} stale pops"
        );
    }
}
