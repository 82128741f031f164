//! Criterion microbenches for the hot paths of the simulator stack:
//! event-queue throughput, scheduler decision rounds, RC placement
//! planning, distribution sampling, workload generation, and classifier
//! throughput.
//!
//! Run with `cargo bench -p tg-bench`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tg_core::{classify_all, ClassifierMode, ScenarioConfig};
use tg_des::dist::{DistKind, Zipf};
use tg_des::{Ctx, Engine, RngFactory, SimDuration, SimRng, SimTime, Simulation};
use tg_model::config::ConfigLibrary;
use tg_model::reconf::RcPartition;
use tg_model::Cluster;
use tg_sched::{QueuedJob, RcPolicy, SchedulerKind};
use tg_workload::{
    GeneratorConfig, Job, JobId, ProjectId, RcRequirement, UserId, WorkloadGenerator,
};

/// Event-queue throughput: N timer events that each reschedule themselves
/// once — the engine's pop/push hot loop.
fn bench_event_queue(c: &mut Criterion) {
    struct Relay {
        remaining: u64,
    }
    impl Simulation for Relay {
        type Event = u32;
        fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.schedule_after(SimDuration::from_millis(ev as u64 % 97 + 1), ev);
            }
        }
    }
    let mut group = c.benchmark_group("event_queue");
    for &n in &[1_000u64, 10_000, 100_000] {
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("relay", n), &n, |b, &n| {
            b.iter(|| {
                let mut engine: Engine<u32> = Engine::with_capacity(64);
                for i in 0..64u32 {
                    engine.schedule_at(SimTime::from_micros(i as u64), i);
                }
                let mut sim = Relay { remaining: n };
                engine.run(&mut sim);
                black_box(engine.now())
            });
        });
    }
    group.finish();
}

/// One scheduler decision round with a 100-deep queue on a busy machine.
fn bench_scheduler_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_round");
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::Easy,
        SchedulerKind::Conservative,
    ] {
        group.bench_function(kind.name(), |b| {
            b.iter_with_setup(
                || {
                    let mut sched = kind.build(1024);
                    let mut cluster = Cluster::new(SimTime::ZERO, 1024);
                    // A wide running job blocks the head; 100 queued jobs.
                    sched.submit(
                        SimTime::ZERO,
                        QueuedJob::from(&Job::batch(
                            JobId(0),
                            UserId(0),
                            ProjectId(0),
                            SimTime::ZERO,
                            1000,
                            SimDuration::from_hours(10),
                        )),
                    );
                    sched.make_decisions(SimTime::ZERO, &mut cluster, 1.0, &mut Vec::new());
                    for i in 1..=100 {
                        let cores = 1 + (i * 37) % 512;
                        sched.submit(
                            SimTime::ZERO,
                            QueuedJob::from(&Job::batch(
                                JobId(i),
                                UserId(i),
                                ProjectId(0),
                                SimTime::ZERO,
                                cores,
                                SimDuration::from_mins(10 + (i as u64 * 13) % 600),
                            )),
                        );
                    }
                    (sched, cluster)
                },
                // Returns the scheduler, cluster and picks so that their
                // drop falls outside the timed region.
                |(mut sched, mut cluster)| {
                    let mut started = Vec::new();
                    sched.make_decisions(SimTime::from_secs(1), &mut cluster, 1.0, &mut started);
                    (sched, cluster, started)
                },
            );
        });
    }
    group.finish();
}

/// RC placement planning across a 64-node partition.
fn bench_rc_planning(c: &mut Criterion) {
    let library = ConfigLibrary::synthetic(16);
    let mut partition = RcPartition::new(SimTime::ZERO, 64, 8, 8);
    // Warm the fabric with a realistic mixed state.
    let mut rng = SimRng::seeded(7);
    for i in 0..96 {
        let config = tg_model::ConfigId(rng.below(16) as usize);
        let node = tg_model::NodeId((i * 7) % 64);
        let plan = partition.node(node).plan(config, &library);
        if !matches!(plan, tg_model::reconf::HostPlan::Infeasible) {
            let rid = partition.node_mut(node).commit(
                plan,
                config,
                &library,
                SimTime::from_secs(i as u64),
            );
            if i % 2 == 0 {
                partition
                    .node_mut(node)
                    .finish(rid, SimTime::from_secs(i as u64 + 10));
            }
        }
    }
    let job = Job::batch(
        JobId(0),
        UserId(0),
        ProjectId(0),
        SimTime::ZERO,
        1,
        SimDuration::from_mins(20),
    )
    .with_rc(RcRequirement {
        config: tg_model::ConfigId(3),
        speedup: 12.0,
        deadline: None,
    });
    let mut group = c.benchmark_group("rc_planning");
    for policy in [RcPolicy::AWARE, RcPolicy::BLIND] {
        group.bench_function(policy.name(), |b| {
            b.iter(|| {
                black_box(policy.decide(
                    black_box(&job),
                    &partition,
                    &library,
                    |_c| SimDuration::from_millis(200),
                    SimTime::from_secs(1_000),
                    1.0,
                ))
            });
        });
    }
    group.finish();
}

/// Distribution sampling hot loop.
fn bench_distributions(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributions");
    group.throughput(Throughput::Elements(1));
    let expo = DistKind::Exponential { mean: 10.0 };
    let logn = DistKind::LogNormal {
        mean: 3600.0,
        cv: 1.5,
    };
    let zipf = Zipf::new(10_000, 1.1);
    let mut rng = SimRng::seeded(42);
    group.bench_function("exponential", |b| {
        b.iter(|| black_box(expo.sample(&mut rng)))
    });
    group.bench_function("lognormal", |b| b.iter(|| black_box(logn.sample(&mut rng))));
    group.bench_function("zipf_10k", |b| {
        b.iter(|| black_box(zipf.sample_rank(&mut rng)))
    });
    group.finish();
}

/// Whole-workload generation throughput (jobs/second generated).
fn bench_workload_generation(c: &mut Criterion) {
    let cfg = GeneratorConfig::baseline(200, 14, 3);
    let gen = WorkloadGenerator::new(cfg);
    let factory = RngFactory::new(5);
    let jobs = gen.generate(&factory).jobs.len() as u64;
    let mut group = c.benchmark_group("workload_generation");
    group.throughput(Throughput::Elements(jobs));
    group.sample_size(10);
    group.bench_function("baseline_200u_14d", |b| {
        b.iter(|| black_box(gen.generate(&factory).jobs.len()));
    });
    group.finish();
}

/// Classifier throughput over a real accounting database.
fn bench_classifier(c: &mut Criterion) {
    let mut cfg = ScenarioConfig::baseline(150, 7);
    cfg.sites[0].batch_nodes = 64;
    cfg.sites[1].batch_nodes = 128;
    cfg.sites[2].batch_nodes = 48;
    let out = cfg.build().run(1);
    let jobs = out.db.jobs.len() as u64;
    let mut group = c.benchmark_group("classifier");
    group.throughput(Throughput::Elements(jobs));
    group.sample_size(20);
    for mode in [ClassifierMode::WithAttributes, ClassifierMode::RecordsOnly] {
        group.bench_function(mode.name(), |b| {
            b.iter(|| black_box(classify_all(&out.db, mode).len()));
        });
    }
    group.finish();
}

/// A small end-to-end scenario per iteration — the macro number.
fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("scenario_80u_3d", |b| {
        b.iter(|| {
            let mut cfg = ScenarioConfig::baseline(80, 3);
            cfg.sites[0].batch_nodes = 64;
            cfg.sites[1].batch_nodes = 64;
            cfg.sites[2].batch_nodes = 32;
            let out = cfg.build().run(9);
            black_box(out.db.jobs.len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_scheduler_round,
    bench_rc_planning,
    bench_distributions,
    bench_workload_generation,
    bench_classifier,
    bench_end_to_end,
);
criterion_main!(benches);
