//! End-to-end scenario assembly: config → workload + federation →
//! simulation → outputs.
//!
//! A [`Scenario`] is a pure function of `(ScenarioConfig, seed)`; every
//! experiment binary is a sweep over configs and seeds.

use crate::sim::{Event, FinishedSim, GridSim};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;
use tg_accounting::{AccountingDb, ChargePolicy};
use tg_data::{DataGridSpec, DataLayer, DataReport, DatasetSpec};
use tg_des::metrics::{EngineProfile, MetricsSnapshot};
use tg_des::trace::Tracer;
use tg_des::{Engine, RngFactory, SimTime};
use tg_fault::{FaultReport, FaultSpec};
use tg_model::reconf::RcNodeStats;
use tg_model::{ConfigLibrary, Federation, SiteConfig, SiteId};
use tg_sched::{BatchScheduler, MetaPolicy, RcPolicy, SchedulerKind};
use tg_workload::{GeneratorConfig, JobId, Modality, WorkloadGenerator};

/// Everything that defines an experiment run (minus the seed).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioConfig {
    /// Scenario label for reports.
    pub name: String,
    /// The federation's sites.
    pub sites: Vec<SiteConfig>,
    /// Which site hosts the data archive / bitstream repository.
    pub data_home: usize,
    /// Per-site batch scheduling policy (same at every site).
    pub scheduler: SchedulerKind,
    /// Site-selection policy for unpinned jobs.
    pub meta: MetaPolicy,
    /// Reconfigurable-task policy.
    pub rc_policy: RcPolicy,
    /// The workload description.
    pub workload: GeneratorConfig,
    /// Processor-configuration library override. `None` uses
    /// [`ConfigLibrary::synthetic`] sized to the workload's
    /// `rc_config_count` — the reconfiguration-time sweeps inject custom
    /// libraries here.
    pub library: Option<ConfigLibrary>,
    /// Periodic metric sampling interval (`None` disables; see
    /// [`crate::sim::SampleRow`]).
    #[serde(default)]
    pub sample_interval: Option<tg_des::SimDuration>,
    /// Fault-injection spec (`None` — or a trivial spec — runs fault-free,
    /// byte-identical to a config without the field). The compiled schedule
    /// is a pure function of `(spec, seed)`; see [`tg_fault::FaultSpec`].
    #[serde(default)]
    pub faults: Option<FaultSpec>,
    /// Data-grid spec: named datasets with permanent replica placements,
    /// Zipf popularity, and per-modality attach probabilities (`None` — or
    /// a trivial spec — runs the flat staging model, byte-identical to a
    /// config without the field). Per-site cache capacity comes from
    /// [`SiteConfig::data_cache_mb`].
    #[serde(default)]
    pub data: Option<DataGridSpec>,
}

impl ScenarioConfig {
    /// The baseline scenario: three heterogeneous sites (one with RC
    /// fabric), EASY backfill, shortest-ETA metascheduling, RC-aware
    /// placement, and the baseline population.
    pub fn baseline(users: usize, days: u64) -> Self {
        let sites = vec![
            SiteConfig::medium("alpha"),
            SiteConfig::large("bravo"),
            SiteConfig {
                batch_nodes: 256,
                rc_nodes: 32,
                rc_area_per_node: 8,
                ..SiteConfig::medium("carol")
            },
        ];
        let workload = GeneratorConfig::baseline(users, days, sites.len());
        ScenarioConfig {
            name: format!("baseline-{users}u-{days}d"),
            sites,
            data_home: 0,
            scheduler: SchedulerKind::Easy,
            meta: MetaPolicy::ShortestEta,
            rc_policy: RcPolicy::AWARE,
            workload,
            library: None,
            sample_interval: None,
            faults: None,
            data: None,
        }
    }

    /// The large-scale stress scenario: the baseline federation and mix
    /// under a much bigger population over a longer window. This is the
    /// performance-bench workload (`configs/large-3000u-90d.json`) — same
    /// physics as [`ScenarioConfig::baseline`], an order of magnitude more
    /// events.
    pub fn large(users: usize, days: u64) -> Self {
        ScenarioConfig {
            name: format!("large-{users}u-{days}d"),
            ..ScenarioConfig::baseline(users, days)
        }
    }

    /// The million-user streaming scenario: the baseline federation under a
    /// very large, very *sparse* population — per-modality submission rates
    /// scaled down to ~0.01 jobs/user/day overall, so a 1M-user × 365-day
    /// window lands near 3.5M jobs. What this config stresses is the
    /// pending-workload footprint (users × window), not raw event count;
    /// it is the `RunOptions::stream_gen` benchmark workload
    /// (`configs/million-1000000u-365d.json`).
    pub fn million(users: usize, days: u64) -> Self {
        let mut cfg = ScenarioConfig::baseline(users, days);
        cfg.name = format!("million-{users}u-{days}d");
        // The baseline mix produces ~6 jobs/user/day including ensemble and
        // workflow expansion; 0.0016 of that is ~0.01 jobs/user/day.
        for p in &mut cfg.workload.profiles {
            p.per_user_per_day *= 0.0016;
        }
        cfg
    }

    /// The data-grid scenario: the baseline federation shrunk until queues
    /// form, a per-site dataset cache, a Zipf-popular catalog of six
    /// datasets pinned across the sites, and the replica-catalog-aware
    /// metascheduler. This is the locality experiment's workload
    /// (`configs/datagrid-300u-14d.json`); swap `meta` to
    /// [`MetaPolicy::ShortestEta`] for the locality-blind control.
    pub fn datagrid(users: usize, days: u64) -> Self {
        let mut cfg = ScenarioConfig::baseline(users, days);
        cfg.name = format!("datagrid-{users}u-{days}d");
        cfg.meta = MetaPolicy::DataLocality;
        cfg.sites[0].batch_nodes = 128;
        cfg.sites[1].batch_nodes = 256;
        cfg.sites[2].batch_nodes = 64;
        for s in &mut cfg.sites {
            s.data_cache_mb = 6_000.0;
        }
        let ds = |name: &str, size_mb: f64, replicas: Vec<usize>| DatasetSpec {
            name: name.to_string(),
            size_mb,
            replicas,
        };
        cfg.data = Some(DataGridSpec {
            datasets: vec![
                ds("sky-survey", 2_400.0, vec![0]),
                ds("reference-genome", 1_800.0, vec![1]),
                ds("climate-reanalysis", 3_600.0, vec![2]),
                ds("protein-structures", 1_200.0, vec![1]),
                ds("seismic-waveforms", 2_800.0, vec![0]),
                ds("shared-calibration", 900.0, vec![0, 1, 2]),
            ],
            zipf_s: 0.9,
            attach: [
                ("batch".to_string(), 0.6),
                ("ensemble".to_string(), 0.5),
                ("workflow".to_string(), 0.4),
            ]
            .into_iter()
            .collect(),
        });
        cfg
    }

    /// Check the invariants the simulator relies on: per-field ones (every
    /// site's hardware figures are usable, a sampler interval is positive,
    /// every workload profile's rates and distributions are usable) and
    /// cross-field ones.
    /// The error names the offending field's path, e.g. `data_home`,
    /// `workload.profiles[3].arrival.mean_quiet_s` or
    /// `data.datasets[1].replicas[0]`.
    pub fn validate(&self) -> Result<(), String> {
        let nsites = self.sites.len();
        for (i, site) in self.sites.iter().enumerate() {
            site.validate().map_err(|e| format!("sites[{i}].{e}"))?;
        }
        if self.sample_interval.is_some_and(|d| d.is_zero()) {
            return Err("sample_interval: must be positive (omit it to disable sampling)".into());
        }
        let profiles = &self.workload.profiles;
        if profiles.len() != Modality::ALL.len() {
            return Err(format!(
                "workload.profiles: needs one profile per modality ({}), got {}",
                Modality::ALL.len(),
                profiles.len()
            ));
        }
        for (i, (p, m)) in profiles.iter().zip(Modality::ALL).enumerate() {
            if p.modality != m {
                return Err(format!(
                    "workload.profiles[{i}].modality: profiles must be in modality \
                     order (expected {m:?}, got {:?})",
                    p.modality
                ));
            }
            p.validate()
                .map_err(|e| format!("workload.profiles[{i}].{e}"))?;
        }
        if self.workload.sites != nsites {
            return Err(format!(
                "workload.sites: workload and federation disagree on site count \
                 (workload.sites is {}, `sites` lists {nsites})",
                self.workload.sites
            ));
        }
        if self.data_home >= nsites {
            return Err(format!(
                "data_home: site {} is out of range (federation has {nsites} sites)",
                self.data_home
            ));
        }
        if let Some(spec) = &self.data {
            spec.validate(nsites).map_err(|e| format!("data.{e}"))?;
        }
        if let Some(spec) = &self.faults {
            spec.validate(nsites).map_err(|e| format!("faults.{e}"))?;
        }
        if let Some(library) = &self.library {
            for (id, cfg) in library.iter() {
                cfg.validate()
                    .map_err(|e| format!("library.configs[{}].{e}", id.index()))?;
            }
            if library.len() < self.workload.rc_config_count {
                return Err(format!(
                    "library: {} configurations, fewer than the {} ids \
                     workload.rc_config_count draws",
                    library.len(),
                    self.workload.rc_config_count
                ));
            }
        }
        Ok(())
    }

    /// Build the scenario. Panics with the [`ScenarioConfig::validate`]
    /// message on an invalid config.
    pub fn build(self) -> Scenario {
        if let Err(e) = self.validate() {
            panic!("invalid scenario '{}': {e}", self.name);
        }
        Scenario { config: self }
    }

    /// The workload config this scenario actually generates from: the
    /// data-grid spec's dataset assignment (count, popularity, attach
    /// probabilities) is injected unless the workload already carries an
    /// explicit one. A trivial spec injects nothing, keeping the generator's
    /// draw sequence — and therefore every output byte — unchanged.
    fn effective_workload(&self) -> GeneratorConfig {
        let mut w = self.workload.clone();
        if w.data.is_none() {
            if let Some(spec) = &self.data {
                if !spec.is_trivial() {
                    w.data = Some(spec.assignment());
                }
            }
        }
        w
    }
}

/// Where accounting records land during a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum RecordStreaming {
    /// Retain every record in the in-memory [`AccountingDb`] (the default —
    /// post-processing experiments need the records).
    #[default]
    Retain,
    /// Stream records to a JSONL file as they are emitted, keeping only a
    /// running [`tg_accounting::IngestTally`] in memory.
    Jsonl(PathBuf),
    /// Discard records, keeping only the tally. For memory-budget runs
    /// where even the output file is unwanted.
    Discard,
}

/// Observability options for one run. Everything here is an *observer*:
/// enabling any of it cannot change simulation results (the determinism
/// tests hold with or without them — including `reference_schedulers`,
/// whose whole point is producing bit-identical results slower, and
/// `stream_gen`/`record_streaming`, which change *where* the workload and
/// the records live in memory, never what they contain).
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Collect a [`MetricsSnapshot`] (counters and time-weighted gauges).
    pub metrics: bool,
    /// Stream a JSONL structured trace to this path.
    pub trace_path: Option<PathBuf>,
    /// Build the frozen naive schedulers ([`SchedulerKind::build_reference`])
    /// instead of the optimized ones. The differential suite runs whole
    /// scenarios both ways and asserts identical outputs.
    pub reference_schedulers: bool,
    /// Generate the workload lazily ([`WorkloadGenerator::generate_streaming`])
    /// and feed jobs to the engine on demand, so pending workload is
    /// O(in-flight) instead of O(total jobs). Outputs are byte-identical to
    /// the materialized path at the same seed (the differential suite proves
    /// it). The generator's per-user prepass fans out over every available
    /// core before the event loop starts, so a streaming run is not meant
    /// to share the machine with other replications; `tgsim` rejects
    /// `--stream-out` with `--reps > 1`.
    pub stream_gen: bool,
    /// Where accounting records land (retained in `db` by default).
    pub record_streaming: RecordStreaming,
    /// Collect constant-memory online observability: span-latency sketches
    /// keyed by (kind, cause, site, modality) plus the windowed operational
    /// series ([`crate::sim::GridSim::with_live_stats`]). The final
    /// [`crate::sim::StatsReport`] lands in [`SimOutput::stats`].
    pub live_stats: bool,
    /// Stream each closed series bucket as a JSONL row to this path while
    /// the run progresses (implies `live_stats`).
    pub live_stats_path: Option<PathBuf>,
    /// Bucket width for the windowed series (`None` = one hour).
    pub live_stats_bucket: Option<tg_des::SimDuration>,
}

impl RunOptions {
    /// Options with metrics collection on.
    pub fn with_metrics() -> Self {
        RunOptions {
            metrics: true,
            ..Self::default()
        }
    }
}

/// A runnable scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ScenarioConfig,
}

impl Scenario {
    /// The configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Run with `seed`, deterministically.
    pub fn run(&self, seed: u64) -> SimOutput {
        self.run_with(seed, &RunOptions::default())
    }

    /// Run with `seed` and explicit observability options. The simulation
    /// results are identical to [`Scenario::run`] for any options; only the
    /// `metrics`/`profile` side channels differ.
    pub fn run_with(&self, seed: u64, opts: &RunOptions) -> SimOutput {
        let cfg = &self.config;
        let alloc_before = tg_des::memory::alloc_snapshot();
        let library = self.library();
        if opts.stream_gen {
            return self.run_streaming(seed, opts, build_federation(cfg, &library));
        }
        let mut workload =
            WorkloadGenerator::new(cfg.effective_workload()).generate(&RngFactory::new(seed));
        let jobs = std::mem::take(&mut workload.jobs);
        let mut out = self.run_materialized(seed, jobs, &library, opts, alloc_before);
        out.population = workload.population;
        out
    }

    /// Run `jobs` (e.g. an imported archive trace) through this scenario's
    /// federation, policies and layers at `seed`, in place of the generated
    /// workload. Jobs are clamped to the machine as generated ones are; site
    /// hints must name sites of this federation. The output's population is
    /// empty: no generator ran.
    pub fn run_jobs(&self, seed: u64, jobs: Vec<tg_workload::Job>, opts: &RunOptions) -> SimOutput {
        let alloc_before = tg_des::memory::alloc_snapshot();
        let library = self.library();
        self.run_materialized(seed, jobs, &library, opts, alloc_before)
    }

    /// The processor-configuration library runs build their federation
    /// with. `build` validated that an explicit library covers every config
    /// id the workload draws; the synthetic one is sized to cover them.
    fn library(&self) -> ConfigLibrary {
        let cfg = &self.config;
        cfg.library
            .clone()
            .unwrap_or_else(|| ConfigLibrary::synthetic(cfg.workload.rc_config_count.max(1)))
    }

    /// The materialized tail of a run: clamp, assemble, run, output.
    /// `alloc_before` is where the profile's allocation count starts.
    fn run_materialized(
        &self,
        seed: u64,
        mut jobs: Vec<tg_workload::Job>,
        library: &ConfigLibrary,
        opts: &RunOptions,
        alloc_before: tg_des::memory::AllocSnapshot,
    ) -> SimOutput {
        let cfg = &self.config;
        jobs.iter_mut().for_each(machine_clamp(cfg));
        let sim = assemble(cfg, library, jobs, RngFactory::new(seed), opts);
        // Wall-clock profiling wraps the event loop; it lives OUTSIDE the
        // deterministic outputs (never compared across runs).
        let mut engine: Engine<Event> = Engine::with_capacity(1024);
        let wall_start = std::time::Instant::now();
        let finished = sim.run(&mut engine);
        let profile = measure(&engine, wall_start, alloc_before);
        self.output(seed, opts, finished, Default::default(), profile)
    }

    /// The streaming run path: lazy generation, jobs pulled on demand, and
    /// (optionally) records streamed out. Byte-identical outputs to the
    /// materialized path at the same seed.
    fn run_streaming(&self, seed: u64, opts: &RunOptions, federation: Federation) -> SimOutput {
        let cfg = &self.config;
        let alloc_before = tg_des::memory::alloc_snapshot();
        let streamed = WorkloadGenerator::new(cfg.effective_workload())
            .generate_streaming(&RngFactory::new(seed));
        let population = streamed.population;
        let total_jobs = streamed.total_jobs;
        // The same machine-size clamp the materialized path applies after
        // generation, moved into the stream adapter so it runs per job.
        let clamp = machine_clamp(cfg);
        let jobs = streamed.stream.map(move |mut job| {
            clamp(&mut job);
            job
        });

        let schedulers = build_schedulers(cfg, &federation, opts);
        let mut sim = GridSim::new_streaming(
            federation,
            schedulers,
            cfg.meta,
            cfg.rc_policy,
            SiteId(cfg.data_home),
            total_jobs,
            RngFactory::new(seed),
        );
        sim = apply_sim_options(sim, cfg, opts);
        let mut engine: Engine<Event> = Engine::with_capacity(1024);
        let wall_start = std::time::Instant::now();
        let finished = sim.run_streaming(&mut engine, jobs);
        let profile = measure(&engine, wall_start, alloc_before);
        self.output(seed, opts, finished, population, profile)
    }

    /// Fold a finished run and its engine profile into a [`SimOutput`].
    fn output(
        &self,
        seed: u64,
        opts: &RunOptions,
        finished: FinishedSim,
        population: tg_workload::user::Population,
        profile: EngineProfile,
    ) -> SimOutput {
        let cfg = &self.config;
        let charge_policy = ChargePolicy::new(cfg.sites.iter().map(|s| s.charge_factor).collect());
        let metrics = finished.metrics.map(|mut m| {
            m.engine = Some(profile.clone());
            m
        });
        let site_stats: Vec<SiteStats> = finished
            .federation
            .sites()
            .map(|s| SiteStats {
                name: s.name().to_string(),
                utilization: s.cluster.utilization(finished.end),
                core_seconds: s.cluster.core_seconds(finished.end),
                jobs_finished: s.cluster.jobs_finished(),
                rc_stats: s.rc.total_stats(),
                rc_wasted_area_seconds: s.rc.wasted_area_integral(finished.end),
                rc_busy_area_seconds: s.rc.busy_area_integral(finished.end),
            })
            .collect();
        SimOutput {
            scenario: cfg.name.clone(),
            seed,
            db: finished.db,
            truth: finished.truth,
            end: finished.end,
            charge_policy,
            site_stats,
            samples: finished.samples,
            population,
            events_delivered: profile.events_delivered,
            metrics,
            profile,
            trace_health: opts.trace_path.as_ref().map(|_| finished.trace_health),
            fault_report: finished.fault_report,
            ingest_tally: finished.ingest_tally,
            stats: finished.stats,
            data_report: finished.data_report,
        }
    }
}

/// The wall-clock profile of a run whose event loop started at
/// `wall_start`, with the process's memory figures since `alloc_before`.
fn measure(
    engine: &Engine<Event>,
    wall_start: std::time::Instant,
    alloc_before: tg_des::memory::AllocSnapshot,
) -> EngineProfile {
    let wall = wall_start.elapsed().as_secs_f64();
    EngineProfile::new(engine.delivered(), wall, engine.peak_queue_len()).with_memory(
        tg_des::memory::peak_rss_bytes(),
        tg_des::memory::AllocDelta::since(alloc_before),
    )
}

/// Real users size jobs to the machine; the generator doesn't know machine
/// sizes, so every run clamps each job's cores: a pinned job fits its site,
/// an unpinned one fits the largest site.
fn machine_clamp(cfg: &ScenarioConfig) -> impl Fn(&mut tg_workload::Job) + Send + 'static {
    let caps: Vec<usize> = cfg.sites.iter().map(SiteConfig::total_cores).collect();
    let max_cores = *caps.iter().max().expect("non-empty federation");
    move |job| {
        let cap = job.site_hint.map_or(max_cores, |s| caps[s.index()]);
        job.cores = job.cores.min(cap);
    }
}

fn build_federation(cfg: &ScenarioConfig, library: &ConfigLibrary) -> Federation {
    let mut builder = Federation::builder().library(library.clone());
    for s in &cfg.sites {
        builder = builder.site(s.clone());
    }
    builder.repository_at(cfg.data_home).build()
}

/// Assemble the materialized-workload [`GridSim`] for one run.
fn assemble(
    cfg: &ScenarioConfig,
    library: &ConfigLibrary,
    jobs: Vec<tg_workload::Job>,
    factory: RngFactory,
    opts: &RunOptions,
) -> GridSim {
    let federation = build_federation(cfg, library);
    let schedulers = build_schedulers(cfg, &federation, opts);
    let sim = GridSim::new(
        federation,
        schedulers,
        cfg.meta,
        cfg.rc_policy,
        SiteId(cfg.data_home),
        jobs,
        factory,
    );
    apply_sim_options(sim, cfg, opts)
}

/// One batch scheduler per site, optimized or frozen-reference per `opts`.
fn build_schedulers(
    cfg: &ScenarioConfig,
    federation: &Federation,
    opts: &RunOptions,
) -> Vec<Box<dyn BatchScheduler>> {
    federation
        .sites()
        .map(|s| {
            if opts.reference_schedulers {
                cfg.scheduler.build_reference(s.cluster.total_cores())
            } else {
                cfg.scheduler.build(s.cluster.total_cores())
            }
        })
        .collect()
}

/// The config/option knobs shared by both construction paths (materialized
/// and streaming), output sinks included.
fn apply_sim_options(mut sim: GridSim, cfg: &ScenarioConfig, opts: &RunOptions) -> GridSim {
    if let Some(interval) = cfg.sample_interval {
        sim = sim.with_sampling(interval);
    }
    if let Some(spec) = &cfg.data {
        if !spec.is_trivial() {
            let caches: Vec<f64> = cfg.sites.iter().map(|s| s.data_cache_mb).collect();
            sim = sim.with_data_grid(DataLayer::new(spec, &caches));
        }
    }
    if let Some(spec) = &cfg.faults {
        if !spec.is_trivial() {
            sim = sim.with_faults(spec);
        }
    }
    if opts.metrics {
        sim = sim.with_metrics();
    }
    if opts.live_stats || opts.live_stats_path.is_some() {
        let bucket = opts
            .live_stats_bucket
            .unwrap_or(tg_des::SimDuration::from_hours(1));
        sim = sim.with_live_stats(bucket);
    }
    if let Some(path) = &opts.trace_path {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
        sim = sim.with_tracer(Tracer::new(Box::new(std::io::BufWriter::new(file))));
    }
    if let Some(sink) = build_record_sink(&opts.record_streaming) {
        sim = sim.with_record_sink(sink);
    }
    if let Some(sink) = build_live_sink(opts) {
        sim = sim.with_live_sink(sink);
    }
    sim
}

/// Construct the live-stats JSONL sink (`None` when not streaming).
fn build_live_sink(opts: &RunOptions) -> Option<Box<dyn std::io::Write + Send>> {
    let path = opts.live_stats_path.as_ref()?;
    let file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create live-stats file {}: {e}", path.display()));
    Some(Box::new(std::io::BufWriter::new(file)))
}

/// Construct the record sink `opts` asks for (`None` = retain in `db`).
fn build_record_sink(mode: &RecordStreaming) -> Option<Box<dyn tg_accounting::RecordSink>> {
    match mode {
        RecordStreaming::Retain => None,
        RecordStreaming::Jsonl(path) => {
            let sink = tg_accounting::JsonlRecordSink::create(path)
                .unwrap_or_else(|e| panic!("cannot create record sink {}: {e}", path.display()));
            Some(Box::new(sink))
        }
        RecordStreaming::Discard => Some(Box::new(tg_accounting::NullRecordSink::default())),
    }
}

/// Per-site outcome statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteStats {
    /// Site name.
    pub name: String,
    /// Average batch utilization over the run.
    pub utilization: f64,
    /// Core-seconds delivered.
    pub core_seconds: f64,
    /// Jobs completed at the site.
    pub jobs_finished: u64,
    /// RC partition counters.
    pub rc_stats: RcNodeStats,
    /// RC wasted-area integral (area·seconds).
    pub rc_wasted_area_seconds: f64,
    /// RC busy-area integral (area·seconds).
    pub rc_busy_area_seconds: f64,
}

/// Everything one run produces.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// Scenario label.
    pub scenario: String,
    /// The seed used.
    pub seed: u64,
    /// The accounting database.
    pub db: AccountingDb,
    /// Ground-truth labels (scoring only).
    pub truth: HashMap<JobId, Modality>,
    /// Final virtual time.
    pub end: SimTime,
    /// The federation's charging policy.
    pub charge_policy: ChargePolicy,
    /// Per-site statistics.
    pub site_stats: Vec<SiteStats>,
    /// Periodic metric snapshots (empty unless `sample_interval` was set).
    pub samples: Vec<crate::sim::SampleRow>,
    /// The generated population behind the workload (ground truth for
    /// survey experiments and field-of-science reports).
    pub population: tg_workload::user::Population,
    /// Events the engine delivered (cost/scale indicator).
    pub events_delivered: u64,
    /// Run-level metrics snapshot (`None` unless [`RunOptions::metrics`]),
    /// engine profile attached.
    pub metrics: Option<MetricsSnapshot>,
    /// Wall-clock engine profile for this run. Always measured; never part
    /// of the deterministic output (varies run to run).
    pub profile: EngineProfile,
    /// Trace sink health (`Some` only when [`RunOptions::trace_path`] was
    /// set). Lets callers surface write or flush failures instead of
    /// silently shipping a truncated trace.
    pub trace_health: Option<tg_des::TraceHealth>,
    /// What fault injection did to the run (`None` when the config carried
    /// no — or only a trivial — fault spec).
    pub fault_report: Option<FaultReport>,
    /// Final record-sink tally (`Some` only when
    /// [`RunOptions::record_streaming`] diverted records; `db` is empty
    /// then and this carries the summary counts instead).
    pub ingest_tally: Option<tg_accounting::IngestTally>,
    /// Online observability report (`Some` only when
    /// [`RunOptions::live_stats`] or a live-stats path was set):
    /// analyzer-aligned span-latency sketch tables plus the windowed
    /// operational series. Deterministic, unlike `profile`.
    pub stats: Option<crate::sim::StatsReport>,
    /// Data-grid outcome (`Some` only when the config carried a non-trivial
    /// data spec): per-site cache hit rates, WAN bytes moved by dataset
    /// fetches, eviction counts.
    pub data_report: Option<DataReport>,
}

impl SimOutput {
    /// Ground-truth modality of a recorded job.
    pub fn truth_of(&self, id: JobId) -> Option<Modality> {
        self.truth.get(&id).copied()
    }

    /// Mean queue wait over all jobs, seconds.
    pub fn mean_wait_secs(&self) -> f64 {
        tg_accounting::query::mean_wait_secs(&self.db.jobs)
    }

    /// Federation-wide average utilization, core-weighted.
    pub fn average_utilization(&self) -> f64 {
        let total_cs: f64 = self.site_stats.iter().map(|s| s.core_seconds).sum();
        let total_cap: f64 = self
            .site_stats
            .iter()
            .map(|s| {
                if s.utilization > 0.0 {
                    s.core_seconds / s.utilization
                } else {
                    0.0
                }
            })
            .sum();
        if total_cap <= 0.0 {
            0.0
        } else {
            total_cs / total_cap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioConfig {
        let mut cfg = ScenarioConfig::baseline(80, 7);
        // Shrink the machines so the test exercises queueing.
        cfg.sites[0].batch_nodes = 64;
        cfg.sites[1].batch_nodes = 128;
        cfg.sites[2].batch_nodes = 32;
        cfg
    }

    #[test]
    fn baseline_scenario_runs_end_to_end() {
        let out = small().build().run(42);
        assert!(!out.db.jobs.is_empty(), "jobs completed");
        assert!(out.end > SimTime::from_days(6), "ran through the window");
        assert!(out.events_delivered > out.db.jobs.len() as u64);
        // Every recorded job has a truth label.
        for r in &out.db.jobs {
            assert!(out.truth_of(r.job).is_some());
        }
        // All seven modalities appear in the truth.
        for m in Modality::ALL {
            assert!(
                out.truth.values().any(|&t| t == m),
                "modality {m} missing from workload"
            );
        }
        // RC site saw fabric activity.
        let carol = &out.site_stats[2];
        assert!(carol.rc_stats.completed > 0, "RC tasks ran on fabric");
        assert!(carol.rc_busy_area_seconds > 0.0);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let a = small().build().run(7);
        let b = small().build().run(7);
        assert_eq!(a.db.jobs, b.db.jobs);
        assert_eq!(a.end, b.end);
        assert_eq!(a.events_delivered, b.events_delivered);
        let c = small().build().run(8);
        assert_ne!(a.db.jobs.len(), 0);
        assert!(a.db.jobs != c.db.jobs || a.end != c.end);
    }

    #[test]
    fn utilization_is_sane() {
        let out = small().build().run(3);
        let u = out.average_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        for s in &out.site_stats {
            assert!(s.utilization >= 0.0 && s.utilization <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "disagree on site count")]
    fn mismatched_site_count_rejected() {
        let mut cfg = ScenarioConfig::baseline(10, 1);
        cfg.sites.pop();
        cfg.build();
    }

    #[test]
    fn sampling_produces_monotone_bounded_series() {
        let mut cfg = small();
        cfg.sample_interval = Some(tg_des::SimDuration::from_hours(6));
        let out = cfg.build().run(11);
        assert!(
            out.samples.len() >= 7 * 4 - 2,
            "expected ~4 samples/day over 7 days, got {}",
            out.samples.len()
        );
        for w in out.samples.windows(2) {
            assert!(w[0].at < w[1].at, "sample times must increase");
        }
        for row in &out.samples {
            assert_eq!(row.busy_fraction.len(), 3);
            assert_eq!(row.queue_len.len(), 3);
            for &f in &row.busy_fraction {
                assert!((0.0..=1.0).contains(&f));
            }
        }
        // Something was busy at some point.
        assert!(out
            .samples
            .iter()
            .any(|r| r.busy_fraction.iter().any(|&f| f > 0.0)));
        // Disabled sampling stays empty.
        let out2 = small().build().run(11);
        assert!(out2.samples.is_empty());
    }

    #[test]
    fn metrics_do_not_perturb_the_simulation() {
        let mut cfg = small();
        cfg.sample_interval = Some(tg_des::SimDuration::from_hours(6));
        let plain = cfg.clone().build().run(5);
        let observed = cfg.build().run_with(5, &RunOptions::with_metrics());
        assert_eq!(
            plain.db.jobs, observed.db.jobs,
            "metrics are pure observers"
        );
        assert_eq!(plain.end, observed.end);
        assert_eq!(plain.events_delivered, observed.events_delivered);
        assert!(plain.metrics.is_none());
        let snap = observed.metrics.expect("metrics requested");
        assert_eq!(
            snap.counter_sum("completed.site."),
            observed.db.jobs.len() as u64,
            "per-site completions conserve the job count"
        );
        assert_eq!(
            snap.counter_sum("completed.modality."),
            observed.db.jobs.len() as u64
        );
        let profile = snap.engine.expect("profile attached");
        assert_eq!(profile.events_delivered, observed.events_delivered);
        assert!(profile.peak_queue_len > 0);
        assert!(profile.wall_seconds >= 0.0);
    }

    #[test]
    fn profile_is_always_measured() {
        let out = small().build().run(2);
        assert_eq!(out.profile.events_delivered, out.events_delivered);
        assert!(out.profile.peak_queue_len > 0);
    }

    #[test]
    fn faulted_scenario_runs_reports_and_roundtrips() {
        let mut cfg = small();
        cfg.faults = Some(FaultSpec {
            site_outages: vec![tg_fault::OutageWindow {
                site: 1,
                start_hours: 48.0,
                duration_hours: 12.0,
                notice_hours: 2.0,
            }],
            ..FaultSpec::default()
        });
        // The spec rides the config through JSON untouched.
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.faults, cfg.faults);
        let out = cfg.clone().build().run(42);
        let report = out.fault_report.expect("fault layer attached");
        assert_eq!(report.site_outages, 1);
        assert!(report.total_downtime_s() >= 12.0 * 3600.0 - 1.0);
        // A trivial spec leaves the run untouched and unreported.
        cfg.faults = Some(FaultSpec::default());
        let trivial = cfg.build().run(42);
        assert!(trivial.fault_report.is_none());
        let plain = small().build().run(42);
        assert_eq!(plain.db.jobs, trivial.db.jobs);
        assert_eq!(plain.end, trivial.end);
    }

    /// `configs/million-1000000u-365d.json` is the serialized form of
    /// [`ScenarioConfig::million`]. Regenerate after changing either side:
    /// `REGEN_CONFIGS=1 cargo test -p tg-core million_config_file`.
    #[test]
    fn million_config_file_is_in_sync() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/million-1000000u-365d.json"
        );
        let cfg = ScenarioConfig::million(1_000_000, 365);
        let want = serde_json::to_string_pretty(&cfg).unwrap();
        if std::env::var_os("REGEN_CONFIGS").is_some() {
            std::fs::write(path, &want).unwrap();
        }
        let text =
            std::fs::read_to_string(path).expect("config file exists (REGEN_CONFIGS=1 writes it)");
        let on_disk: ScenarioConfig = serde_json::from_str(&text).expect("config parses");
        assert_eq!(
            serde_json::to_string_pretty(&on_disk).unwrap(),
            want,
            "configs/million-1000000u-365d.json drifted from ScenarioConfig::million"
        );
    }

    /// `configs/datagrid-300u-14d.json` is the serialized form of
    /// [`ScenarioConfig::datagrid`]. Regenerate after changing either side:
    /// `REGEN_CONFIGS=1 cargo test -p tg-core datagrid_config_file`.
    #[test]
    fn datagrid_config_file_is_in_sync() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../configs/datagrid-300u-14d.json"
        );
        let cfg = ScenarioConfig::datagrid(300, 14);
        cfg.data
            .as_ref()
            .expect("datagrid carries a catalog")
            .validate(cfg.sites.len())
            .expect("catalog is valid");
        let want = serde_json::to_string_pretty(&cfg).unwrap();
        if std::env::var_os("REGEN_CONFIGS").is_some() {
            std::fs::write(path, &want).unwrap();
        }
        let text =
            std::fs::read_to_string(path).expect("config file exists (REGEN_CONFIGS=1 writes it)");
        let on_disk: ScenarioConfig = serde_json::from_str(&text).expect("config parses");
        assert_eq!(
            serde_json::to_string_pretty(&on_disk).unwrap(),
            want,
            "configs/datagrid-300u-14d.json drifted from ScenarioConfig::datagrid"
        );
    }

    #[test]
    fn scenario_config_json_roundtrip() {
        let cfg = small();
        let json = serde_json::to_string_pretty(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        // Round-tripped config produces an identical simulation.
        let a = cfg.build().run(3);
        let b = back.build().run(3);
        assert_eq!(a.db.jobs, b.db.jobs);
        assert_eq!(a.end, b.end);
    }
}
