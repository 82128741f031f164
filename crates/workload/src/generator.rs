//! The workload generator: population + profiles → a deterministic,
//! time-ordered job stream with ground-truth modality labels.
//!
//! Determinism contract: every user draws from an RNG stream keyed by their
//! id, so the stream one user generates is independent of every other
//! user's — changing the population mix never reshuffles surviving users'
//! workloads (the common-random-numbers property policy comparisons rely
//! on).

use crate::arrival::{arrivals_in, ArrivalProcess, DiurnalPoisson, Mmpp2, Poisson};
use crate::dag::DagShape;
use crate::ids::{EnsembleId, GatewayId, JobId, ProjectId, UserId, WorkflowId};
use crate::job::{Job, RcRequirement};
use crate::modality::Modality;
use crate::profiles::{ArrivalKind, ModalityProfile, PopulationMix};
use crate::user::{Population, Project, User};
use serde::{Deserialize, Serialize};
use tg_data::{DatasetAssignment, DatasetId};
use tg_des::dist::Zipf;
use tg_des::{RngFactory, SimDuration, SimRng, SimTime, StreamId};
use tg_model::{ConfigId, SiteId};

/// Full generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct GeneratorConfig {
    /// Length of the generated window (jobs arrive in `[0, horizon)`).
    pub horizon: SimDuration,
    /// Population mix.
    pub mix: PopulationMix,
    /// One profile per modality, in [`Modality::ALL`] order. Use
    /// [`ModalityProfile::all_defaults`] and patch what the experiment
    /// varies.
    pub profiles: Vec<ModalityProfile>,
    /// Number of sites (for home-site assignment).
    pub sites: usize,
    /// Sites hosting RC partitions; RC tasks are pinned to these.
    pub rc_sites: Vec<SiteId>,
    /// Size of the processor-configuration library RC tasks draw from.
    pub rc_config_count: usize,
    /// Dataset-assignment rule when the scenario declares a data grid:
    /// per-modality attach probabilities plus the Zipf skew over catalog
    /// ranks. `None` (the default) draws nothing and generates workloads
    /// byte-identical to pre-data-grid builds.
    #[serde(default)]
    pub data: Option<DatasetAssignment>,
}

impl GeneratorConfig {
    /// A ready-to-run baseline: `users` users over `days` days on `sites`
    /// sites (the last site hosting RC fabric), default profiles.
    pub fn baseline(users: usize, days: u64, sites: usize) -> Self {
        assert!(sites > 0, "need at least one site");
        GeneratorConfig {
            horizon: SimDuration::from_days(days),
            mix: PopulationMix::baseline(users),
            profiles: ModalityProfile::all_defaults(),
            sites,
            rc_sites: vec![SiteId(sites - 1)],
            rc_config_count: 12,
            data: None,
        }
    }

    /// The profile for `m`. Panics if the profile list is malformed.
    pub fn profile(&self, m: Modality) -> &ModalityProfile {
        let p = &self.profiles[m.index()];
        assert_eq!(p.modality, m, "profiles must be in Modality::ALL order");
        p
    }

    /// Mutable access to the profile for `m` (for experiment sweeps).
    pub fn profile_mut(&mut self, m: Modality) -> &mut ModalityProfile {
        let p = &mut self.profiles[m.index()];
        assert_eq!(p.modality, m, "profiles must be in Modality::ALL order");
        p
    }
}

/// The generated workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    /// The user population behind the jobs.
    pub population: Population,
    /// All jobs, sorted by `(submit_time, id)`.
    pub jobs: Vec<Job>,
}

impl Workload {
    /// Jobs with ground-truth modality `m`.
    pub fn jobs_of(&self, m: Modality) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(move |j| j.true_modality == m)
    }

    /// Group jobs by ensemble membership. Jobs without an ensemble id are
    /// skipped rather than unwrapped — mixed workloads (the normal case)
    /// are mostly non-ensemble jobs, and a batch that happens to contain
    /// both must not panic the grouping.
    pub fn by_ensemble(&self) -> std::collections::HashMap<EnsembleId, Vec<&Job>> {
        let mut by_ens: std::collections::HashMap<EnsembleId, Vec<&Job>> =
            std::collections::HashMap::new();
        for j in &self.jobs {
            if let Some(ens) = j.ensemble {
                by_ens.entry(ens).or_default().push(j);
            }
        }
        by_ens
    }

    /// Total core-seconds demanded (reference hardware, software versions).
    pub fn total_core_seconds(&self) -> f64 {
        self.jobs.iter().map(Job::core_seconds).sum()
    }

    /// Offered load against `total_cores` over the window `horizon`:
    /// demanded core-seconds / available core-seconds.
    pub fn offered_load(&self, total_cores: usize, horizon: SimDuration) -> f64 {
        let available = total_cores as f64 * horizon.as_secs_f64();
        if available <= 0.0 {
            return 0.0;
        }
        self.total_core_seconds() / available
    }
}

/// The generator.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: GeneratorConfig,
    /// Shared dataset-popularity distribution; `Some` only when a
    /// non-trivial dataset assignment is configured. Draw-free to construct.
    data_zipf: Option<Zipf>,
}

impl WorkloadGenerator {
    /// A generator for `config`. Panics on inconsistent configuration
    /// (missing profiles, RC users without RC sites or configurations).
    pub fn new(config: GeneratorConfig) -> Self {
        assert_eq!(
            config.profiles.len(),
            Modality::ALL.len(),
            "need one profile per modality"
        );
        let rc_users = config.mix.users_per_modality[Modality::RcAccelerated.index()];
        if rc_users > 0 {
            assert!(
                !config.rc_sites.is_empty(),
                "RC users configured but no RC sites"
            );
            assert!(
                config.rc_config_count > 0,
                "RC users configured but empty configuration library"
            );
        }
        assert!(config.sites > 0, "need at least one site");
        if let Some(data) = &config.data {
            assert!(
                data.attach.values().all(|p| (0.0..=1.0).contains(p)),
                "dataset attach probabilities must be in [0,1]"
            );
            assert!(
                data.is_trivial() || data.count > 0,
                "dataset assignment needs a non-empty catalog"
            );
        }
        let data_zipf = config
            .data
            .as_ref()
            .filter(|d| !d.is_trivial())
            .map(|d| Zipf::new(d.count as u64, d.zipf_s));
        WorkloadGenerator { config, data_zipf }
    }

    /// The configuration.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Generate the population and job stream.
    pub fn generate(&self, factory: &RngFactory) -> Workload {
        let population = self.build_population();
        let mut jobs = Vec::new();
        let rc_zipf = self.rc_zipf();
        let mut ids = IdCursor::default();
        let mut gw_counter = 0usize;

        for user in &population.users {
            let gateway = self.gateway_for(user, &mut gw_counter);
            let mut cursor = UserGen::new(self, user, factory, ids, gateway);
            while cursor.emit_next(self, rc_zipf.as_ref(), &mut jobs) {}
            ids = cursor.ids();
        }

        // Job ids are unique, so the unstable sort yields the same order
        // without the stable sort's scratch copy of half the jobs.
        jobs.sort_unstable_by_key(|j| (j.submit_time, j.id));
        Workload { population, jobs }
    }

    /// The shared RC configuration-popularity distribution, if the library
    /// is non-empty. Draw-free to construct; sampling uses the caller's rng.
    pub(crate) fn rc_zipf(&self) -> Option<Zipf> {
        (self.config.rc_config_count > 0)
            .then(|| Zipf::new(self.config.rc_config_count as u64, self.rc_zipf_s()))
    }

    /// Gateway users share gateway identities round-robin, in population
    /// order. Draw-free: the assignment depends only on how many gateway
    /// users precede this one.
    pub(crate) fn gateway_for(&self, user: &User, gw_counter: &mut usize) -> Option<GatewayId> {
        (user.modality == Modality::ScienceGateway).then(|| {
            let g = GatewayId(*gw_counter % self.config.mix.gateways.max(1));
            *gw_counter += 1;
            g
        })
    }

    /// Build the population (public so the streaming path can construct it
    /// identically before any jobs exist).
    pub(crate) fn population(&self) -> Population {
        self.build_population()
    }

    fn rc_zipf_s(&self) -> f64 {
        self.config
            .profile(Modality::RcAccelerated)
            .rc
            .as_ref()
            .map(|r| r.config_zipf_s)
            .unwrap_or(1.0)
    }

    fn build_population(&self) -> Population {
        let mix = &self.config.mix;
        let mut projects = Vec::with_capacity(mix.projects);
        for i in 0..mix.projects.max(1) {
            let field = ["astro", "bio", "climate", "materials", "physics"][i % 5];
            projects.push(Project::new(ProjectId(i), 1.0e6, field));
        }
        let mut users = Vec::with_capacity(mix.total_users());
        let mut uid = 0usize;
        for m in Modality::ALL {
            let count = mix.users_per_modality[m.index()];
            // Zipf-skewed activity, normalized to mean 1 within the modality.
            let s = mix.activity_zipf_s;
            let weights: Vec<f64> = (0..count).map(|i| ((i + 1) as f64).powf(-s)).collect();
            let mean = weights.iter().sum::<f64>() / count.max(1) as f64;
            for (i, w) in weights.into_iter().enumerate() {
                let project = ProjectId(uid % projects.len());
                users.push(User::new(UserId(uid), project, m).with_activity((w / mean).max(1e-3)));
                uid += 1;
                let _ = i;
            }
        }
        Population { projects, users }
    }

    /// A plain job drawn from `profile` (no modality specialization yet).
    #[allow(clippy::too_many_arguments)]
    fn base_job(
        &self,
        profile: &ModalityProfile,
        user: &User,
        at: SimTime,
        id: JobId,
        home: SiteId,
        rng: &mut SimRng,
    ) -> Job {
        let weights: Vec<f64> = profile.cores_weights.iter().map(|&(_, w)| w).collect();
        let cores = profile.cores_weights[rng.pick_weighted(&weights)].0;
        let runtime = SimDuration::from_secs_f64(profile.runtime.sample(rng).max(1.0));
        let factor = profile.estimate_factor.sample(rng).max(1.0);
        let input = profile.input_mb.sample(rng).max(0.0);
        let output = profile.output_mb.sample(rng).max(0.0);
        let mut job = Job::batch(id, user.id, user.project, at, cores, runtime)
            .with_estimate(runtime.mul_f64(factor))
            .with_data(input, output);
        if rng.chance(profile.site_pinned_prob) {
            job = job.with_site(home);
        }
        // Dataset assignment rides the same per-user stream, after every
        // existing draw, and only when the scenario configured a data grid —
        // zero extra draws otherwise, so data-free runs stay byte-identical.
        if let Some(zipf) = &self.data_zipf {
            let p = self
                .config
                .data
                .as_ref()
                .map(|d| d.prob(profile.modality.name()))
                .unwrap_or(0.0);
            if p > 0.0 && rng.chance(p) {
                let rank = zipf.sample_rank(rng);
                job = job.with_dataset(DatasetId((rank - 1) as u32));
            }
        }
        job
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_workflow(
        &self,
        profile: &ModalityProfile,
        user: &User,
        at: SimTime,
        wf: WorkflowId,
        home: SiteId,
        next_job: &mut usize,
        jobs: &mut Vec<Job>,
        rng: &mut SimRng,
    ) {
        let weights: Vec<f64> = profile.dag_shapes.iter().map(|&(_, w)| w).collect();
        let shape: DagShape = profile.dag_shapes[rng.pick_weighted(&weights)].0;
        let skeleton = shape.generate(rng);
        let base = *next_job;
        for t in 0..skeleton.tasks {
            let deps: Vec<JobId> = skeleton
                .deps_of(t)
                .into_iter()
                .map(|d| JobId(base + d))
                .collect();
            let job = self
                .base_job(profile, user, at, JobId(base + t), home, rng)
                .in_workflow(wf, deps);
            jobs.push(job);
        }
        *next_job += skeleton.tasks;
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_ensemble(
        &self,
        profile: &ModalityProfile,
        user: &User,
        at: SimTime,
        ens: EnsembleId,
        home: SiteId,
        next_job: &mut usize,
        jobs: &mut Vec<Job>,
        rng: &mut SimRng,
    ) {
        let width_dist = profile
            .ensemble_width
            .as_ref()
            .expect("ensemble profile has width");
        let width = (width_dist.sample(rng).round() as usize).max(2);
        // Members share the shape (same cores) — that's what makes an
        // ensemble recognizable — with per-member runtime jitter.
        let template = self.base_job(profile, user, at, JobId(*next_job), home, rng);
        for i in 0..width {
            let runtime = SimDuration::from_secs_f64(profile.runtime.sample(rng).max(1.0));
            let mut member = template.clone();
            member.id = JobId(*next_job + i);
            member.runtime = runtime;
            member.estimate = member.estimate.max(runtime);
            let member = member.in_ensemble(ens);
            jobs.push(member);
        }
        *next_job += width;
    }
}

/// Absolute positions of the global id counters threaded across users in
/// population order: each user's jobs (and workflows, ensembles) occupy a
/// contiguous id block starting where the previous user's ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IdCursor {
    pub next_job: usize,
    pub next_wf: usize,
    pub next_ens: usize,
}

/// One user's deterministic generation state.
///
/// Encapsulates exactly the per-user slice of [`WorkloadGenerator::generate`]
/// so the materialized and streaming paths share one draw sequence: the
/// user's RNG stream draws the home site, then *all* arrival instants, then
/// per-arrival job fields — in that order, independent of every other user
/// (the common-random-numbers contract). Arrival instants strictly increase
/// and every job in an arrival's block shares its submit time with ids
/// ascending, so blocks come out already sorted by `(submit_time, id)`.
///
/// A clone taken before the first [`UserGen::emit_next`] emits exactly what
/// a fresh [`UserGen::new`] would: it carries the same arrival instants and
/// the RNG state right after they were drawn.
#[derive(Clone)]
pub(crate) struct UserGen {
    user: User,
    home: SiteId,
    rc_home: Option<SiteId>,
    gateway: Option<GatewayId>,
    rng: SimRng,
    arrivals: Vec<SimTime>,
    next_arrival: usize,
    ids: IdCursor,
}

impl UserGen {
    pub(crate) fn new(
        gen: &WorkloadGenerator,
        user: &User,
        factory: &RngFactory,
        ids: IdCursor,
        gateway: Option<GatewayId>,
    ) -> Self {
        let profile = gen.config.profile(user.modality);
        let mut rng = factory.stream(StreamId::new("user", user.id.index() as u64));
        let home = SiteId(rng.below(gen.config.sites as u64) as usize);
        let rc_home = gen
            .config
            .rc_sites
            .get(user.id.index() % gen.config.rc_sites.len().max(1))
            .copied();
        let rate_per_day = profile.per_user_per_day * user.activity;
        let mut process = build_arrival(profile.arrival, rate_per_day);
        let arrivals = arrivals_in(
            process.as_mut(),
            SimTime::ZERO,
            SimTime::ZERO + gen.config.horizon,
            &mut rng,
        );
        UserGen {
            user: user.clone(),
            home,
            rc_home,
            gateway,
            rng,
            arrivals,
            next_arrival: 0,
            ids,
        }
    }

    /// Build `user`'s cursor at a zero id base and count the ids it will
    /// use by draining a clone of it into `scratch` (jobs discarded). The
    /// returned cursor's [`UserGen::ids`] hold that count until
    /// [`UserGen::rebase`] moves them to the user's real base. Ids feed no
    /// draw, so the count and every job field are independent of the base.
    pub(crate) fn counted(
        gen: &WorkloadGenerator,
        user: &User,
        factory: &RngFactory,
        gateway: Option<GatewayId>,
        rc_zipf: Option<&Zipf>,
        scratch: &mut Vec<Job>,
    ) -> Self {
        let mut cursor = UserGen::new(gen, user, factory, IdCursor::default(), gateway);
        let mut counter = cursor.clone();
        while counter.emit_next(gen, rc_zipf, scratch) {
            scratch.clear();
        }
        cursor.ids = counter.ids;
        cursor
    }

    /// Start a [`UserGen::counted`] cursor's ids at `base`, returning where
    /// they end (the next user's base). The cursor then emits exactly what
    /// `UserGen::new` at `base` would.
    pub(crate) fn rebase(&mut self, base: IdCursor) -> IdCursor {
        let used = std::mem::replace(&mut self.ids, base);
        IdCursor {
            next_job: base.next_job + used.next_job,
            next_wf: base.next_wf + used.next_wf,
            next_ens: base.next_ens + used.next_ens,
        }
    }

    /// Submit time of the next undelivered arrival, if any remain.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.arrivals.get(self.next_arrival).copied()
    }

    /// Where the global id counters stand (the next block's bases).
    pub(crate) fn ids(&self) -> IdCursor {
        self.ids
    }

    /// Emit the next arrival's job block into `out`. Returns `false` once
    /// the user's arrivals are exhausted.
    pub(crate) fn emit_next(
        &mut self,
        gen: &WorkloadGenerator,
        rc_zipf: Option<&Zipf>,
        out: &mut Vec<Job>,
    ) -> bool {
        let Some(at) = self.peek_time() else {
            return false;
        };
        self.next_arrival += 1;
        let profile = gen.config.profile(self.user.modality);
        match self.user.modality {
            Modality::Workflow => {
                let wf = WorkflowId(self.ids.next_wf);
                self.ids.next_wf += 1;
                gen.emit_workflow(
                    profile,
                    &self.user,
                    at,
                    wf,
                    self.home,
                    &mut self.ids.next_job,
                    out,
                    &mut self.rng,
                );
            }
            Modality::Ensemble => {
                let ens = EnsembleId(self.ids.next_ens);
                self.ids.next_ens += 1;
                gen.emit_ensemble(
                    profile,
                    &self.user,
                    at,
                    ens,
                    self.home,
                    &mut self.ids.next_job,
                    out,
                    &mut self.rng,
                );
            }
            _ => {
                let mut job = gen.base_job(
                    profile,
                    &self.user,
                    at,
                    JobId(self.ids.next_job),
                    self.home,
                    &mut self.rng,
                );
                self.ids.next_job += 1;
                match self.user.modality {
                    Modality::ScienceGateway => {
                        job = job.via_gateway(self.gateway.expect("gateway assigned"));
                    }
                    Modality::Interactive => {
                        job = job.labeled(Modality::Interactive);
                    }
                    Modality::DataMovement => {
                        job = job.labeled(Modality::DataMovement);
                    }
                    Modality::RcAccelerated => {
                        let rc_profile = profile.rc.as_ref().expect("RC profile present");
                        let zipf = rc_zipf.expect("RC library configured");
                        let rank = zipf.sample_rank(&mut self.rng);
                        let speedup = rc_profile.speedup.sample(&mut self.rng).max(1.0);
                        let deadline = self.rng.chance(rc_profile.deadline_fraction).then(|| {
                            let slack = rc_profile.deadline_slack.sample(&mut self.rng).max(1.0);
                            // Deadline scaled from the HW runtime.
                            job.runtime.mul_f64(slack / speedup)
                        });
                        job = job.with_rc(RcRequirement {
                            config: ConfigId((rank - 1) as usize),
                            speedup,
                            deadline,
                        });
                        if let Some(rc_site) = self.rc_home {
                            job = job.with_site(rc_site);
                        }
                    }
                    _ => {}
                }
                out.push(job);
            }
        }
        true
    }
}

fn build_arrival(kind: ArrivalKind, rate_per_day: f64) -> Box<dyn ArrivalProcess> {
    let rate = rate_per_day.max(1e-9);
    match kind {
        ArrivalKind::Poisson => Box::new(Poisson::per_day(rate)),
        ArrivalKind::Diurnal {
            day_night_ratio,
            peak_hour,
            weekend_factor,
        } => Box::new(DiurnalPoisson::new(
            rate,
            day_night_ratio,
            peak_hour,
            weekend_factor,
        )),
        ArrivalKind::Bursty {
            burst_ratio,
            mean_quiet_s,
            mean_burst_s,
        } => {
            // Solve for state rates so the long-run mean matches `rate`.
            let mean_per_sec = rate / 86_400.0;
            let total = mean_quiet_s + mean_burst_s;
            // mean = (rq*q + rb*b)/total with rb = ratio*rq.
            let rq = mean_per_sec * total / (mean_quiet_s + burst_ratio * mean_burst_s);
            let rb = burst_ratio * rq;
            Box::new(Mmpp2::new(rq, rb, mean_quiet_s, mean_burst_s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> GeneratorConfig {
        let mut cfg = GeneratorConfig::baseline(140, 14, 3);
        // Keep the test fast but exercise every modality.
        cfg.mix.activity_zipf_s = 0.8;
        cfg
    }

    fn generate(seed: u64) -> Workload {
        WorkloadGenerator::new(small_config()).generate(&RngFactory::new(seed))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(7);
        let b = generate(7);
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.jobs, b.jobs);
        let c = generate(8);
        assert_ne!(a.jobs, c.jobs);
    }

    #[test]
    fn jobs_are_sorted_and_ids_unique() {
        let w = generate(1);
        assert!(!w.jobs.is_empty());
        for pair in w.jobs.windows(2) {
            assert!(
                (pair[0].submit_time, pair[0].id) < (pair[1].submit_time, pair[1].id),
                "jobs must be strictly ordered"
            );
        }
        let mut ids: Vec<_> = w.jobs.iter().map(|j| j.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), w.jobs.len());
    }

    #[test]
    fn every_modality_produces_jobs() {
        let w = generate(2);
        for m in Modality::ALL {
            assert!(
                w.jobs_of(m).count() > 0,
                "modality {m} generated no jobs in 14 days"
            );
        }
    }

    #[test]
    fn ground_truth_matches_structure() {
        let w = generate(3);
        for j in &w.jobs {
            match j.true_modality {
                Modality::ScienceGateway => assert!(j.gateway.is_some()),
                Modality::Workflow => assert!(j.workflow.is_some()),
                Modality::Ensemble => assert!(j.ensemble.is_some()),
                Modality::RcAccelerated => assert!(j.rc.is_some()),
                _ => {
                    assert!(j.gateway.is_none());
                    assert!(j.workflow.is_none());
                    assert!(j.ensemble.is_none());
                    assert!(j.rc.is_none());
                }
            }
        }
    }

    #[test]
    fn workflow_deps_reference_earlier_jobs_in_same_workflow() {
        let w = generate(4);
        use std::collections::HashMap;
        let by_id: HashMap<JobId, &Job> = w.jobs.iter().map(|j| (j.id, j)).collect();
        let mut saw_deps = false;
        for j in w.jobs_of(Modality::Workflow) {
            for d in &j.deps {
                saw_deps = true;
                let dep = by_id.get(d).expect("dep exists");
                assert_eq!(dep.workflow, j.workflow, "dep crosses workflows");
                assert!(dep.id < j.id, "dep must precede dependent");
                assert_eq!(dep.submit_time, j.submit_time, "tasks submitted together");
            }
        }
        assert!(saw_deps, "some workflow task must have dependencies");
    }

    #[test]
    fn ensembles_share_shape() {
        let w = generate(5);
        let by_ens = w.by_ensemble();
        assert!(!by_ens.is_empty());
        for (ens, members) in by_ens {
            assert!(members.len() >= 2, "{ens} too small");
            let cores = members[0].cores;
            assert!(
                members.iter().all(|m| m.cores == cores),
                "{ens} members differ in cores"
            );
            let t = members[0].submit_time;
            assert!(members.iter().all(|m| m.submit_time == t));
        }
    }

    #[test]
    fn ensemble_grouping_tolerates_mixed_batches() {
        // Regression: grouping used to unwrap `j.ensemble` while iterating,
        // which panics the moment a non-ensemble job lands in the batch.
        // A generated workload is exactly such a mixed batch.
        let w = generate(5);
        assert!(
            w.jobs.iter().any(|j| j.ensemble.is_none()),
            "need non-ensemble jobs to make the batch mixed"
        );
        let by_ens = w.by_ensemble();
        assert!(!by_ens.is_empty());
        let grouped: usize = by_ens.values().map(Vec::len).sum();
        assert_eq!(
            grouped,
            w.jobs.iter().filter(|j| j.ensemble.is_some()).count(),
            "every ensemble member grouped exactly once"
        );
        for members in by_ens.values() {
            assert!(members.iter().all(|m| m.ensemble.is_some()));
        }
    }

    #[test]
    fn rc_jobs_are_pinned_to_rc_sites_with_valid_configs() {
        let w = generate(6);
        let cfg = small_config();
        for j in w.jobs_of(Modality::RcAccelerated) {
            let rc = j.rc.expect("rc set");
            assert!(rc.config.index() < cfg.rc_config_count);
            assert!(rc.speedup >= 1.0);
            let site = j.site_hint.expect("RC jobs pinned");
            assert!(cfg.rc_sites.contains(&site));
            if let Some(d) = rc.deadline {
                assert!(d > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn estimates_never_undershoot_runtime() {
        let w = generate(7);
        for j in &w.jobs {
            assert!(j.estimate >= j.runtime, "{}", j.id);
            assert!(j.cores > 0);
            assert!(j.runtime > SimDuration::ZERO);
        }
    }

    #[test]
    fn batch_dominates_core_seconds_gateway_dominates_users() {
        let w = generate(8);
        let batch_cs: f64 = w
            .jobs_of(Modality::BatchComputing)
            .map(Job::core_seconds)
            .sum();
        let gw_cs: f64 = w
            .jobs_of(Modality::ScienceGateway)
            .map(Job::core_seconds)
            .sum();
        assert!(
            batch_cs > gw_cs,
            "batch ({batch_cs:.0}) should out-consume gateway ({gw_cs:.0})"
        );
        let counts = w.population.modality_counts();
        assert!(
            counts[Modality::ScienceGateway.index()] > counts[Modality::BatchComputing.index()]
        );
    }

    #[test]
    fn offered_load_scales_with_cores() {
        let w = generate(9);
        let horizon = small_config().horizon;
        let l1 = w.offered_load(1000, horizon);
        let l2 = w.offered_load(2000, horizon);
        assert!(l1 > 0.0);
        assert!((l1 / l2 - 2.0).abs() < 1e-9);
        assert_eq!(w.offered_load(0, horizon), 0.0);
    }

    #[test]
    #[should_panic(expected = "no RC sites")]
    fn rc_users_without_rc_sites_rejected() {
        let mut cfg = small_config();
        cfg.rc_sites.clear();
        WorkloadGenerator::new(cfg);
    }

    #[test]
    fn zero_rc_users_allows_empty_library() {
        let mut cfg = small_config();
        cfg.mix = cfg.mix.with_users(Modality::RcAccelerated, 0);
        cfg.rc_sites.clear();
        cfg.rc_config_count = 0;
        let w = WorkloadGenerator::new(cfg).generate(&RngFactory::new(1));
        assert_eq!(w.jobs_of(Modality::RcAccelerated).count(), 0);
    }

    #[test]
    fn activity_skew_is_normalized() {
        let w = generate(10);
        for m in Modality::ALL {
            let acts: Vec<f64> = w.population.users_of(m).map(|u| u.activity).collect();
            if acts.len() < 2 {
                continue;
            }
            let mean = acts.iter().sum::<f64>() / acts.len() as f64;
            assert!((mean - 1.0).abs() < 0.01, "{m}: mean activity {mean}");
            let max = acts.iter().cloned().fold(0.0, f64::max);
            let min = acts.iter().cloned().fold(f64::MAX, f64::min);
            assert!(max / min > 2.0, "{m}: expected skew, got {min}..{max}");
        }
    }
}
