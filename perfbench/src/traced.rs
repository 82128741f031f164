//! The traced run: the simulation [`crate::run_rep`] times, rebuilt from
//! public constructors (`GridSim::new`/`new_streaming`, `with_*`, `prime`
//! or `Engine::schedule_stream`, `Engine::run_until`) and driven through a
//! wrapper that times every event handler from outside.
//!
//! Each delivered [`Event`] is forwarded to the public `GridSim::handle`
//! between an `Instant` pair and two allocation-counter reads, and charged
//! to the layer its variant enters. Three more timers wrap public calls:
//! the job-stream iterator the engine pulls from, a record sink around
//! `NullRecordSink`, and the generator. What the handlers and the stream
//! pull do not cover is the engine's own self time (`des`), which therefore
//! also carries the wrapper's few nanoseconds of bookkeeping per event.

use crate::{
    analyze_reps, ensemble_base_seed, ingest_anchor, layer_tallies, output_anchors, ratio, Plan,
    Report, ENSEMBLE_REPS, ENSEMBLE_WORKERS,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tg_accounting::{NullRecordSink, RecordRef, RecordSink};
use tg_core::sim::{Event, GridSim};
use tg_core::{replicate, RecordStreaming, RunOptions, ScenarioConfig};
use tg_data::DataLayer;
use tg_des::memory::alloc_snapshot;
use tg_des::{Ctx, Engine, RngFactory, SimDuration, SimTime, Simulation, StopCondition};
use tg_model::{ConfigLibrary, Federation, SiteId};
use tg_sched::BatchScheduler;
use tg_workload::{GeneratorConfig, Job, WorkloadGenerator};

/// Handler kinds, each named after the layer its event variant enters.
/// Events of any other variant are charged to the last slot.
const KINDS: [&str; 9] = [
    "route",
    "sched.enqueue",
    "sched.complete",
    "sched.wakeup",
    "reconf.complete",
    "fault.event",
    "fault.requeue",
    "obs.sample",
    "other",
];

fn kind_of(event: &Event) -> usize {
    match event {
        Event::Submit(_) | Event::SubmitJob(_) => 0,
        Event::Enqueue { .. } => 1,
        Event::Complete { .. } => 2,
        Event::SchedWakeup { .. } => 3,
        Event::RcComplete { .. } => 4,
        Event::Fault(_) => 5,
        Event::Requeue { .. } => 6,
        Event::Sample => 7,
        _ => 8,
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct KindStat {
    count: u64,
    ns: u64,
    allocs: u64,
}

/// The timing wrapper: forwards every event to `GridSim::handle`.
struct Timed {
    sim: GridSim,
    kinds: [KindStat; KINDS.len()],
}

impl Simulation for Timed {
    type Event = Event;

    fn handle(&mut self, ctx: &mut Ctx<Event>, event: Event) {
        let kind = kind_of(&event);
        let allocs = alloc_snapshot().allocations;
        let t = Instant::now();
        self.sim.handle(ctx, event);
        let ns = t.elapsed().as_nanos() as u64;
        let stat = &mut self.kinds[kind];
        stat.count += 1;
        stat.ns += ns;
        stat.allocs += alloc_snapshot().allocations - allocs;
    }
}

/// Time spent inside the job stream's `next`, shared with the engine-owned
/// iterator.
#[derive(Debug, Default)]
struct PullStat {
    pulls: AtomicU64,
    ns: AtomicU64,
}

struct TimedIter<I> {
    inner: I,
    stat: Arc<PullStat>,
}

impl<I: Iterator> Iterator for TimedIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let t = Instant::now();
        let item = self.inner.next();
        // Relaxed: plain statistics, read after the run has ended.
        let ns = t.elapsed().as_nanos() as u64;
        self.stat.ns.fetch_add(ns, Ordering::Relaxed);
        self.stat.pulls.fetch_add(1, Ordering::Relaxed);
        item
    }
}

/// A `NullRecordSink` whose writes are counted and timed. The simulation
/// owns the sink and never closes it on the traced path, so the state is
/// shared with the harness.
#[derive(Debug, Default)]
struct SinkStat {
    sink: NullRecordSink,
    records: u64,
    ns: u64,
}

struct TimedSink(Arc<Mutex<SinkStat>>);

impl RecordSink for TimedSink {
    fn write(&mut self, rec: RecordRef<'_>) {
        let mut s = self.0.lock().expect("sink state lock poisoned");
        let t = Instant::now();
        s.sink.write(rec);
        s.ns += t.elapsed().as_nanos() as u64;
        s.records += 1;
    }

    fn close(&mut self) -> tg_accounting::IngestTally {
        self.0
            .lock()
            .expect("sink state lock poisoned")
            .sink
            .close()
    }
}

/// The generator config `Scenario::run_with` generates from: the data-grid
/// spec's dataset assignment is injected unless the workload carries one.
fn effective_workload(cfg: &ScenarioConfig) -> GeneratorConfig {
    let mut w = cfg.workload.clone();
    if w.data.is_none() {
        if let Some(spec) = cfg.data.as_ref().filter(|s| !s.is_trivial()) {
            w.data = Some(spec.assignment());
        }
    }
    w
}

fn federation(cfg: &ScenarioConfig) -> Federation {
    let library = cfg
        .library
        .clone()
        .unwrap_or_else(|| ConfigLibrary::synthetic(cfg.workload.rc_config_count.max(1)));
    let mut builder = Federation::builder().library(library);
    for s in &cfg.sites {
        builder = builder.site(s.clone());
    }
    builder.repository_at(cfg.data_home).build()
}

/// Attach the config's and options' layers the way `Scenario::run_with`
/// does. Records not retained go to the timing sink (the benchmark's
/// plans only discard them).
fn attach_layers(
    mut sim: GridSim,
    cfg: &ScenarioConfig,
    opts: &RunOptions,
    sink: &Arc<Mutex<SinkStat>>,
) -> GridSim {
    if let Some(interval) = cfg.sample_interval {
        sim = sim.with_sampling(interval);
    }
    if let Some(spec) = cfg.data.as_ref().filter(|s| !s.is_trivial()) {
        let caches: Vec<f64> = cfg.sites.iter().map(|s| s.data_cache_mb).collect();
        sim = sim.with_data_grid(DataLayer::new(spec, &caches));
    }
    if let Some(spec) = cfg.faults.as_ref().filter(|s| !s.is_trivial()) {
        sim = sim.with_faults(spec);
    }
    if opts.live_stats {
        let bucket = opts.live_stats_bucket.unwrap_or(SimDuration::from_hours(1));
        sim = sim.with_live_stats(bucket);
    }
    if opts.record_streaming != RecordStreaming::Retain {
        sim = sim.with_record_sink(Box::new(TimedSink(Arc::clone(sink))));
    }
    sim
}

/// Rebuild `cfg` at `seed`, run it through the timing wrapper, and report
/// its per-layer metrics plus the anchors the untraced run also reports
/// (`prefix` namespaces them for ensembles).
pub fn trace_sim(cfg: &ScenarioConfig, opts: &RunOptions, seed: u64, prefix: &str) -> Report {
    let mut r = Report::default();
    let federation = federation(cfg);
    let site_cores: Vec<usize> = federation
        .sites()
        .map(|s| s.cluster.total_cores())
        .collect();
    let schedulers: Vec<Box<dyn BatchScheduler>> = site_cores
        .iter()
        .map(|&cores| cfg.scheduler.build(cores))
        .collect();
    // The machine-size clamp `run_with` applies to every generated job.
    let caps = site_cores.clone();
    let max_cores = *caps.iter().max().expect("non-empty federation");
    let clamp = move |mut job: Job| {
        let cap = job.site_hint.map_or(max_cores, |s| caps[s.index()]);
        job.cores = job.cores.min(cap);
        job
    };
    let generator = WorkloadGenerator::new(effective_workload(cfg));
    let sink = Arc::new(Mutex::new(SinkStat::default()));
    let pull = Arc::new(PullStat::default());
    let mut engine: Engine<Event> = Engine::with_capacity(1024);

    let t = Instant::now();
    let (sim, users, generate_s, prepass_s) = if opts.stream_gen {
        let streamed = generator.generate_streaming(&RngFactory::new(seed));
        let prepass_s = t.elapsed().as_secs_f64();
        let total = streamed.total_jobs;
        let sim = GridSim::new_streaming(
            federation,
            schedulers,
            cfg.meta,
            cfg.rc_policy,
            SiteId(cfg.data_home),
            total,
            RngFactory::new(seed),
        );
        let sim = attach_layers(sim, cfg, opts, &sink);
        let stream = TimedIter {
            inner: streamed.stream,
            stat: Arc::clone(&pull),
        };
        engine.schedule_stream(
            total as u64,
            stream
                .map(clamp)
                .map(|j| (j.submit_time, Event::SubmitJob(Box::new(j)))),
        );
        // The rest of `GridSim::run_streaming`'s priming, in its order:
        // the sample tick, then the fault schedule.
        if let Some(interval) = cfg.sample_interval {
            engine.schedule_at(SimTime::ZERO + interval, Event::Sample);
        }
        if let Some(spec) = cfg.faults.as_ref().filter(|s| !s.is_trivial()) {
            let schedule = spec.compile(&site_cores, &RngFactory::new(seed));
            for (i, ev) in schedule.events.iter().enumerate() {
                engine.schedule_at(ev.at, Event::Fault(i));
            }
        }
        (sim, streamed.population.users.len(), 0.0, prepass_s)
    } else {
        let workload = generator.generate(&RngFactory::new(seed));
        let generate_s = t.elapsed().as_secs_f64();
        let jobs: Vec<Job> = workload.jobs.into_iter().map(clamp).collect();
        let sim = GridSim::new(
            federation,
            schedulers,
            cfg.meta,
            cfg.rc_policy,
            SiteId(cfg.data_home),
            jobs,
            RngFactory::new(seed),
        );
        let sim = attach_layers(sim, cfg, opts, &sink);
        sim.prime(&mut engine);
        (sim, workload.population.users.len(), generate_s, 0.0)
    };

    let mut timed = Timed {
        sim,
        kinds: [KindStat::default(); KINDS.len()],
    };
    // Attaching the stream already pulled its head; count the loop's pulls.
    let pull_ns_before = pull.ns.load(Ordering::Relaxed);
    let pulls_before = pull.pulls.load(Ordering::Relaxed);
    let allocs = alloc_snapshot();
    let t = Instant::now();
    engine.run_until(&mut timed, StopCondition::Exhausted);
    let loop_ns = t.elapsed().as_nanos() as u64;
    let after = alloc_snapshot();

    let events = engine.delivered();
    let handled: u64 = timed.kinds.iter().map(|k| k.count).sum();
    assert_eq!(handled, events, "every delivered event passes the wrapper");
    let handler_ns: u64 = timed.kinds.iter().map(|k| k.ns).sum();
    let pull_ns = pull.ns.load(Ordering::Relaxed) - pull_ns_before;
    let pulls = pull.pulls.load(Ordering::Relaxed) - pulls_before;
    // The handlers and the stream pull run inside the loop's interval and
    // never overlap each other, so what remains is the engine's own time.
    let des_ns = loop_ns
        .checked_sub(handler_ns + pull_ns)
        .expect("handler and pull time fit inside the loop interval");
    let events_f = events as f64;

    r.anchor(format!("{prefix}events"), events);
    r.anchor(format!("{prefix}jobs"), timed.sim.jobs_done());
    r.anchor(format!("{prefix}end_s"), engine.now().as_secs_f64());
    let mut sink = sink.lock().expect("sink state lock poisoned");
    if opts.record_streaming != RecordStreaming::Retain {
        r.anchor(format!("{prefix}ingest"), ingest_anchor(&sink.sink.close()));
    } else {
        r.anchor(format!("{prefix}db_records"), timed.sim.db.len());
    }

    r.metric("trace.sim_s", loop_ns as f64 * 1e-9);
    r.metric("des.events", events_f);
    r.metric("des.peak_pending", engine.peak_queue_len() as f64);
    r.metric("des.self_ns_per_event", ratio(des_ns as f64, events_f));
    r.metric("workload.generate_s", generate_s);
    r.metric("workload.prepass_s", prepass_s);
    r.metric(
        "workload.prepass_us_per_user",
        ratio(prepass_s * 1e6, users as f64),
    );
    r.metric(
        "workload.stream_next_ns",
        ratio(pull_ns as f64, pulls as f64),
    );
    for (name, k) in KINDS.iter().zip(&timed.kinds).take(KINDS.len() - 1) {
        let calls = k.count as f64;
        r.metric(format!("{name}.count"), calls);
        r.metric(format!("{name}.ns_per_event"), ratio(k.ns as f64, calls));
        r.metric(
            format!("{name}.allocs_per_event"),
            ratio(k.allocs as f64, calls),
        );
        r.metric(format!("{name}.share"), ratio(k.ns as f64, loop_ns as f64));
    }
    r.metric(
        "accounting.sink_ns_per_record",
        ratio(sink.ns as f64, sink.records as f64),
    );
    r.metric("accounting.db_records", timed.sim.db.len() as f64);
    r.metric(
        "mem.allocs_per_event",
        ratio((after.allocations - allocs.allocations) as f64, events_f),
    );
    r.metric(
        "mem.bytes_per_event",
        ratio((after.bytes - allocs.bytes) as f64, events_f),
    );
    r
}

/// The traced counterpart of [`crate::run_rep`]: per-layer metrics for
/// the plan at `seed`. The plan first runs untraced in this process (its
/// anchors and layer tallies, and the baseline for `trace.overhead_frac`),
/// then through [`trace_sim`], which must reproduce its anchors exactly.
/// An ensemble also times each step of the classification pipeline; its
/// event-level trace covers the first rep.
///
/// Panics when the traced run disagrees with the untraced one.
pub fn run_traced(plan: &Plan, seed: u64) -> Report {
    let scenario = plan.config.clone().build();
    let mut r = Report::default();
    let (trace_seed, prefix, untraced_sim_s, analysis) = if plan.ensemble {
        let base = ensemble_base_seed(seed);
        let reps = replicate(&scenario, base, ENSEMBLE_REPS, ENSEMBLE_WORKERS);
        let times = analyze_reps(&mut r, &reps);
        layer_tallies(&mut r, &reps[0].output);
        let jobs: usize = reps.iter().map(|x| x.output.truth.len()).sum();
        let rep0_sim_s = reps[0].output.profile.wall_seconds;
        (base, "rep0.", rep0_sim_s, Some((times, jobs)))
    } else {
        let out = scenario.run_with(seed, &plan.options);
        output_anchors(&mut r, "", &out);
        layer_tallies(&mut r, &out);
        (seed, "", out.profile.wall_seconds, None)
    };
    let traced = trace_sim(&plan.config, &plan.options, trace_seed, prefix);
    for (name, value) in &traced.anchors {
        let untraced = r.anchor_of(name);
        assert_eq!(
            untraced,
            Some(value.as_str()),
            "traced run disagrees with the untraced run on {name}"
        );
    }
    let traced_sim_s = traced.get("trace.sim_s").expect("trace_sim reports it");
    r.metrics.extend(traced.metrics);
    r.metric("trace.overhead_frac", traced_sim_s / untraced_sim_s - 1.0);

    let (times, jobs) = analysis.unwrap_or_default();
    r.metric("classify.with_attrs_s", times.with_attrs_s);
    r.metric("classify.records_only_s", times.records_only_s);
    r.metric(
        "classify.ns_per_job",
        ratio(
            (times.with_attrs_s + times.records_only_s) * 1e9,
            2.0 * jobs as f64,
        ),
    );
    r.metric("accuracy.score_s", times.score_s);
    r.metric("report.compute_s", times.report_s);
    r.metric("analysis_s", times.total());
    r
}
