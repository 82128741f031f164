//! Time-to-result benchmark for `teragrid-sim`.
//!
//! What a user of the simulator waits for is config → simulate →
//! (classify → score → report). Each [`Workload`] names one such path at a
//! fixed size; [`run_rep`] times one untraced repetition of it through the
//! public API only (`Scenario::run_with`, `runner::replicate`,
//! `classify_all`, `Accuracy::score`, `UsageReport::compute`), and
//! [`traced::run_traced`] rebuilds the same simulation from public
//! constructors to attribute wall time, calls and allocations to the
//! simulator's layers.
//!
//! Every run also reports *anchors*: deterministic outputs (event and job
//! counts, end time, data/fault tallies, classifier accuracy bits) that the
//! harness compares across repetitions and against pinned values.

pub mod traced;

use serde_json::{json, Value};
use std::fmt::Display;
use std::path::Path;
use std::time::Instant;
use tg_accounting::IngestTally;
use tg_core::{
    classify_all, replicate, Accuracy, ClassifierMode, FaultSpec, NodeCrashSpec, OutageWindow,
    RecordStreaming, Replication, RunOptions, ScenarioConfig, SimOutput, UsageReport,
};
use tg_des::SimDuration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `configs/large-3000u-90d.json`, materialized, records retained.
    LargeSim,
    /// A sparse million-style population, streamed, records discarded.
    SparseStream,
    /// A shrunken data grid with faults and live stats: deep queues.
    CongestedGrid,
    /// Four replications of the baseline, each classified, scored and
    /// reported.
    EnsembleClassify,
}

/// Users in the `sparse-stream` population (the streaming prepass is
/// linear in users, so this sets its share of the run).
pub const SPARSE_USERS: usize = 40_000;

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::LargeSim,
        Workload::SparseStream,
        Workload::CongestedGrid,
        Workload::EnsembleClassify,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeSim => "large-sim",
            Workload::SparseStream => "sparse-stream",
            Workload::CongestedGrid => "congested-grid",
            Workload::EnsembleClassify => "ensemble-classify",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's plan. `root` is the repository root (the large
    /// config is read from its `configs/` directory).
    pub fn plan(self, root: &Path) -> Result<Plan, String> {
        let plan = match self {
            Workload::LargeSim => {
                let path = root.join("configs/large-3000u-90d.json");
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let config: ScenarioConfig = serde_json::from_str(&text)
                    .map_err(|e| format!("cannot parse {}: {e:?}", path.display()))?;
                Plan::single(config, RunOptions::default())
            }
            Workload::SparseStream => Plan::single(
                ScenarioConfig::million(SPARSE_USERS, 365),
                RunOptions {
                    stream_gen: true,
                    record_streaming: RecordStreaming::Discard,
                    ..RunOptions::default()
                },
            ),
            Workload::CongestedGrid => {
                let mut config = ScenarioConfig::datagrid(900, 60);
                config.faults = Some(congested_faults(60.0));
                config.sample_interval = Some(SimDuration::from_hours(1));
                Plan::single(
                    config,
                    RunOptions {
                        live_stats: true,
                        ..RunOptions::default()
                    },
                )
            }
            Workload::EnsembleClassify => Plan {
                config: ScenarioConfig::baseline(300, 30),
                options: RunOptions::default(),
                ensemble: true,
            },
        };
        Ok(plan)
    }
}

/// Replications in an ensemble run.
pub const ENSEMBLE_REPS: usize = 4;

/// `runner::replicate` worker threads. One: on a 2-vCPU host, two
/// concurrent reps time-share a core pair and their event-loop walls swing
/// by 2x.
pub(crate) const ENSEMBLE_WORKERS: usize = 1;

/// The first replication seed of an ensemble at benchmark seed `seed`.
/// `replicate` runs rep `i` at `base + i`, so the stride keeps the reps of
/// neighbouring benchmark seeds disjoint.
pub fn ensemble_base_seed(seed: u64) -> u64 {
    seed.wrapping_mul(ENSEMBLE_REPS as u64)
}

/// A crash trickle at every site over the whole window, plus two site
/// outages, with requeue-on-kill: the fault layer's kill, requeue and
/// retry paths all run.
pub fn congested_faults(days: f64) -> FaultSpec {
    FaultSpec {
        node_crashes: Some(NodeCrashSpec {
            mtbf_hours: 36.0,
            repair_hours: 4.0,
            cores_per_crash: 64,
            horizon_days: days,
        }),
        site_outages: vec![
            OutageWindow {
                site: 1,
                start_hours: days * 24.0 * 0.3,
                duration_hours: 12.0,
                notice_hours: 2.0,
            },
            OutageWindow {
                site: 0,
                start_hours: days * 24.0 * 0.7,
                duration_hours: 8.0,
                notice_hours: 0.0,
            },
        ],
        ..FaultSpec::default()
    }
}

/// What to run: one scenario under fixed options, optionally as a
/// classified ensemble.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The scenario.
    pub config: ScenarioConfig,
    /// Run options. The benchmark never sets the sharded-engine knobs
    /// (`threads`, `governor`, `per_event_sync`).
    pub options: RunOptions,
    /// Replicate ([`ENSEMBLE_REPS`] reps), then classify, score and report
    /// every rep.
    pub ensemble: bool,
}

impl Plan {
    /// A single-run plan.
    pub fn single(config: ScenarioConfig, options: RunOptions) -> Plan {
        Plan {
            config,
            options,
            ensemble: false,
        }
    }
}

/// Named metrics and anchors from one measured run.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// `(name, value)` in insertion order.
    pub metrics: Vec<(String, f64)>,
    /// Deterministic outputs, rendered exactly.
    pub anchors: Vec<(String, String)>,
}

impl Report {
    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Add an anchor.
    pub fn anchor(&mut self, name: impl Into<String>, value: impl Display) {
        self.anchors.push((name.into(), value.to_string()));
    }

    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// An anchor's value by name.
    pub fn anchor_of(&self, name: &str) -> Option<&str> {
        self.anchors
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// One JSON object: `{"metrics": {...}, "anchors": {...}}`. Non-finite
    /// metrics are written as `null`.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(n, v)| {
                let v = if v.is_finite() {
                    Value::F64(*v)
                } else {
                    Value::Null
                };
                (n.clone(), v)
            })
            .collect();
        let anchors = self
            .anchors
            .iter()
            .map(|(n, v)| (n.clone(), Value::Str(v.clone())))
            .collect();
        serde_json::to_string(&json!({
            "metrics": Value::Map(metrics),
            "anchors": Value::Map(anchors),
        }))
        .expect("a JSON value always serializes")
    }
}

/// Run one untraced repetition of `plan` at `seed` and report its
/// end-to-end metrics (minus the process-level memory figures, which the
/// caller samples once the run is over) plus the layer tallies a
/// [`SimOutput`] carries.
pub fn run_rep(plan: &Plan, seed: u64) -> Report {
    let start = Instant::now();
    let scenario = plan.config.clone().build();
    let mut r = Report::default();
    let (setup_s, sim_s, events, jobs) = if plan.ensemble {
        let t = Instant::now();
        let reps = replicate(
            &scenario,
            ensemble_base_seed(seed),
            ENSEMBLE_REPS,
            ENSEMBLE_WORKERS,
        );
        let replicate_s = t.elapsed().as_secs_f64();
        let sim_s: f64 = reps.iter().map(|x| x.output.profile.wall_seconds).sum();
        analyze_reps(&mut r, &reps);
        let events = reps.iter().map(|x| x.output.events_delivered).sum();
        let jobs = reps.iter().map(|x| x.output.truth.len() as u64).sum();
        // `replicate` hides each rep's own wall time; with one worker, its
        // time outside the event loops is the set-up share.
        let setup_s = (replicate_s - sim_s).max(0.0);
        (setup_s, sim_s, events, jobs)
    } else {
        let t = Instant::now();
        let out = scenario.run_with(seed, &plan.options);
        let run_s = t.elapsed().as_secs_f64();
        let sim_s = out.profile.wall_seconds;
        output_anchors(&mut r, "", &out);
        layer_tallies(&mut r, &out);
        let jobs = out.truth.len() as u64;
        (run_s - sim_s, sim_s, out.events_delivered, jobs)
    };
    let wall_s = start.elapsed().as_secs_f64();
    r.metric("setup_s", setup_s);
    r.metric("sim_s", sim_s);
    r.metric("wall_s", wall_s);
    r.metric("events_per_s", events as f64 / sim_s);
    r.metric("jobs_per_s", jobs as f64 / wall_s);
    r
}

/// The anchors every run pins: event and job counts and the end time.
pub(crate) fn output_anchors(r: &mut Report, prefix: &str, out: &SimOutput) {
    r.anchor(format!("{prefix}events"), out.events_delivered);
    r.anchor(format!("{prefix}jobs"), out.truth.len());
    r.anchor(format!("{prefix}end_s"), out.end.as_secs_f64());
    if let Some(d) = &out.data_report {
        r.anchor(format!("{prefix}data_hits"), d.hits);
        r.anchor(format!("{prefix}data_misses"), d.misses);
    }
    if let Some(f) = &out.fault_report {
        r.anchor(format!("{prefix}jobs_killed"), f.jobs_killed);
        r.anchor(format!("{prefix}jobs_requeued"), f.jobs_requeued);
    }
    if let Some(s) = &out.stats {
        r.anchor(format!("{prefix}live_spans"), s.spans.spans);
    }
    if let Some(t) = &out.ingest_tally {
        r.anchor(format!("{prefix}ingest"), ingest_anchor(t));
    } else {
        r.anchor(format!("{prefix}db_records"), out.db.len());
    }
}

/// The ingest tally as one exact anchor value.
pub(crate) fn ingest_anchor(t: &IngestTally) -> String {
    format!(
        "{}/{}/{}/{}/{}/{}",
        t.jobs, t.transfers, t.sessions, t.gateway_attrs, t.rc_placements, t.core_hours
    )
}

/// `num / den`, or 0 where nothing was counted.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layer tallies a [`SimOutput`] already carries (the traced run cannot
/// read them: they live in private simulator state until the run closes).
pub(crate) fn layer_tallies(r: &mut Report, out: &SimOutput) {
    let jobs = out.truth.len() as f64;
    r.metric("workload.users", out.population.users.len() as f64);
    r.metric("workload.jobs", jobs);
    let records = out
        .ingest_tally
        .as_ref()
        .map_or(out.db.len() as u64, |t| t.len());
    r.metric("accounting.records", records as f64);
    let (accesses, hit_ratio, wan_mb) = out
        .data_report
        .as_ref()
        .map_or((0, 0.0, 0.0), |d| (d.accesses, d.hit_rate, d.wan_mb));
    r.metric("data.accesses", accesses as f64);
    r.metric("data.hit_ratio", hit_ratio);
    r.metric("data.wan_mb", wan_mb);
    let (killed, requeued) = out
        .fault_report
        .as_ref()
        .map_or((0, 0), |f| (f.jobs_killed, f.jobs_requeued));
    r.metric("fault.jobs_killed", killed as f64);
    r.metric("fault.jobs_requeued", requeued as f64);
    // Job starts that ran to completion rather than being killed.
    r.metric("fault.useful_frac", jobs / (jobs + killed as f64));
}

/// Wall seconds in each step of the measurement pipeline, summed over
/// runs.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AnalysisTimes {
    /// `classify_all(WithAttributes)`.
    pub with_attrs_s: f64,
    /// `classify_all(RecordsOnly)`.
    pub records_only_s: f64,
    /// Both `Accuracy::score` calls.
    pub score_s: f64,
    /// `UsageReport::compute`.
    pub report_s: f64,
}

impl AnalysisTimes {
    /// The whole pipeline.
    pub fn total(&self) -> f64 {
        self.with_attrs_s + self.records_only_s + self.score_s + self.report_s
    }
}

/// The paper's pipeline on every rep: classify in both modes, score both
/// against the ground truth, and compute the usage report from the
/// instrumented labels. Each rep's outputs and accuracies (bit-exact) are
/// anchored under `rep{index}.`.
pub(crate) fn analyze_reps(r: &mut Report, reps: &[Replication]) -> AnalysisTimes {
    let mut times = AnalysisTimes::default();
    let timed = |slot: &mut f64, t: Instant| *slot += t.elapsed().as_secs_f64();
    for rep in reps {
        let out = &rep.output;
        let prefix = format!("rep{}.", rep.index);
        output_anchors(r, &prefix, out);
        let t = Instant::now();
        let with_attrs = classify_all(&out.db, ClassifierMode::WithAttributes);
        timed(&mut times.with_attrs_s, t);
        let t = Instant::now();
        let records_only = classify_all(&out.db, ClassifierMode::RecordsOnly);
        timed(&mut times.records_only_s, t);
        let t = Instant::now();
        let with_attrs_acc = Accuracy::score(&out.truth, &with_attrs).accuracy;
        let records_only_acc = Accuracy::score(&out.truth, &records_only).accuracy;
        timed(&mut times.score_s, t);
        let t = Instant::now();
        let report = UsageReport::compute(&out.db, &with_attrs, &out.charge_policy);
        timed(&mut times.report_s, t);
        r.anchor(format!("{prefix}acc_with_attrs"), with_attrs_acc);
        r.anchor(format!("{prefix}acc_records_only"), records_only_acc);
        r.anchor(format!("{prefix}report_jobs"), report.shares.total_jobs());
    }
    times
}
