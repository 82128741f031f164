//! Validation against closed-form queueing theory.
//!
//! The whole simulator stack (engine → cluster → scheduler → records) is
//! driven as an M/M/c queue — Poisson arrivals, exponential service,
//! single-core jobs, FCFS — and the measured mean wait is checked against
//! the Erlang-C formula. This is the strongest correctness evidence a DES
//! can offer: if event ordering, resource accounting, or record timing were
//! wrong anywhere in the pipeline, these numbers would not land.

use teragrid_repro::prelude::*;
use tg_core::sim::{Event, GridSim};
use tg_des::{Engine, SimRng, StreamId};
use tg_model::{ConfigLibrary, Federation};
use tg_sched::BatchScheduler;
use tg_workload::{JobId, ProjectId, UserId};

/// Erlang-C probability that an arrival waits, for `c` servers at offered
/// load `a = λ/μ` Erlangs.
fn erlang_c(c: usize, a: f64) -> f64 {
    // Compute a^c/c! · (c/(c-a)) against the partial sum, in a numerically
    // stable incremental form.
    let mut term = 1.0; // a^k / k! running term, k = 0
    let mut sum = 1.0;
    for k in 1..=c {
        term *= a / k as f64;
        if k < c {
            sum += term;
        }
    }
    let tail = term * c as f64 / (c as f64 - a);
    tail / (sum + tail)
}

/// Theoretical M/M/c mean wait in queue.
fn mmc_mean_wait(c: usize, lambda: f64, mu: f64) -> f64 {
    let a = lambda / mu;
    assert!(a < c as f64, "unstable queue");
    erlang_c(c, a) / (c as f64 * mu - lambda)
}

/// Drive the full pipeline as an M/M/c queue and return the measured mean
/// wait (seconds) over `n_jobs` jobs.
fn simulate_mmc(c: usize, lambda: f64, mu: f64, n_jobs: usize, seed: u64) -> f64 {
    // One site, one "node" holding exactly c cores.
    let site = SiteConfig {
        batch_nodes: 1,
        cores_per_node: c,
        charge_factor: 1.0,
        core_speed: 1.0,
        ..SiteConfig::medium("mmc")
    };
    let federation = Federation::builder()
        .site(site)
        .library(ConfigLibrary::new())
        .build();
    let schedulers: Vec<Box<dyn BatchScheduler>> = vec![SchedulerKind::Fcfs.build(c)];

    // Build the arrival/service streams by hand.
    let factory = RngFactory::new(seed);
    let mut arr_rng: SimRng = factory.stream(StreamId::global("mmc-arrivals"));
    let mut svc_rng: SimRng = factory.stream(StreamId::global("mmc-service"));
    let mut jobs = Vec::with_capacity(n_jobs);
    let mut t = SimTime::ZERO;
    for i in 0..n_jobs {
        t += SimDuration::from_secs_f64(arr_rng.standard_exponential() / lambda);
        let runtime = SimDuration::from_secs_f64((svc_rng.standard_exponential() / mu).max(1e-6));
        jobs.push(
            Job::batch(JobId(i), UserId(0), ProjectId(0), t, 1, runtime)
                .with_site(tg_model::SiteId(0)),
        );
    }

    let sim = GridSim::new(
        federation,
        schedulers,
        MetaPolicy::ShortestEta,
        RcPolicy::AWARE,
        tg_model::SiteId(0),
        jobs,
        factory,
    );
    let mut engine: Engine<Event> = Engine::with_capacity(n_jobs);
    let finished = sim.run(&mut engine);

    // Discard a warm-up prefix so the empty-system start doesn't bias the
    // steady-state estimate.
    let warmup = n_jobs / 10;
    let waits: Vec<f64> = finished
        .db
        .jobs
        .iter()
        .filter(|r| r.job.index() >= warmup)
        .map(|r| r.wait().as_secs_f64())
        .collect();
    waits.iter().sum::<f64>() / waits.len() as f64
}

#[test]
fn mm1_mean_wait_matches_theory() {
    // M/M/1 at ρ = 0.6: Wq = ρ/(μ−λ).
    let (lambda, mu) = (0.006, 0.01); // per second; mean service 100 s
    let theory = mmc_mean_wait(1, lambda, mu);
    let measured: f64 = (0..3)
        .map(|s| simulate_mmc(1, lambda, mu, 40_000, 100 + s))
        .sum::<f64>()
        / 3.0;
    let rel = (measured - theory).abs() / theory;
    assert!(
        rel < 0.08,
        "M/M/1 wait: measured {measured:.1}s vs Erlang-C {theory:.1}s ({rel:.2} rel err)"
    );
}

#[test]
fn mmc_mean_wait_matches_theory() {
    // M/M/8 at ρ = 0.8.
    let c = 8;
    let mu = 0.01; // mean service 100 s
    let lambda = 0.8 * c as f64 * mu;
    let theory = mmc_mean_wait(c, lambda, mu);
    let measured: f64 = (0..3)
        .map(|s| simulate_mmc(c, lambda, mu, 60_000, 200 + s))
        .sum::<f64>()
        / 3.0;
    let rel = (measured - theory).abs() / theory;
    assert!(
        rel < 0.10,
        "M/M/8 wait: measured {measured:.1}s vs Erlang-C {theory:.1}s"
    );
}

#[test]
fn light_load_has_negligible_waits() {
    // M/M/16 at ρ = 0.2: waits should be near zero.
    let c = 16;
    let mu = 0.01;
    let lambda = 0.2 * c as f64 * mu;
    let measured = simulate_mmc(c, lambda, mu, 20_000, 300);
    let theory = mmc_mean_wait(c, lambda, mu);
    assert!(measured < 1.0, "measured {measured}s at 20% load");
    assert!(theory < 1.0);
}

#[test]
fn erlang_c_sanity() {
    // Known value: c=1 reduces to ρ.
    assert!((erlang_c(1, 0.5) - 0.5).abs() < 1e-12);
    // Monotone in load.
    assert!(erlang_c(4, 3.0) > erlang_c(4, 2.0));
    // Heavily overprovisioned → waits vanish.
    assert!(erlang_c(100, 10.0) < 1e-6);
}
