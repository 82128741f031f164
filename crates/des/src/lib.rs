//! # tg-des — discrete-event simulation substrate
//!
//! The calibration notes for this reproduction flag the Rust DES ecosystem as
//! thin, so the engine is built from scratch here. It provides everything the
//! grid simulator above it needs:
//!
//! * [`time`] — a virtual clock ([`SimTime`]) with microsecond resolution and
//!   ergonomic duration arithmetic.
//! * [`engine`] — the event loop: a priority queue of timestamped events with
//!   stable FIFO ordering among simultaneous events, cancellation, and
//!   stop conditions.
//! * [`rng`] — deterministic random-number streams. Every component derives
//!   its own independent stream from a single master seed, so adding or
//!   removing a component never perturbs the draws seen by the others.
//! * [`dist`] — the probability distributions used by workload models
//!   (exponential, log-normal, Weibull, Pareto, gamma, Zipf, hyperexponential,
//!   empirical/alias sampling, ...). Implemented here rather than pulling in
//!   `rand_distr` so sampling stays deterministic and auditable.
//! * [`stats`] — time-weighted averages (utilization), windowed sums, and
//!   Student-t confidence intervals across replications.
//! * [`trace`] — a lightweight structured event trace streamed to a JSONL
//!   writer; off when no writer is attached.
//! * [`span`] — per-job lifecycle span schema (held / stage-in / queued /
//!   reconfig / run / stage-out) with wait-cause attribution, emitted
//!   through the tracer as `cat == "span"` entries.
//! * [`analyze`] — offline reconstruction of spans from an archived JSONL
//!   trace into per-kind / per-cause / per-site / per-modality latency
//!   breakdowns, folded through the same [`sketch`] tables the online
//!   statistics use.
//! * [`memory`] — process-level memory observability for benchmarks: peak
//!   RSS via `/proc` and an opt-in counting global allocator (thread-safe:
//!   worker-thread allocations are attributed to the same run totals).
//! * [`sketch`] — fixed-layout log-binned quantile sketches, the one
//!   streaming quantile estimator: constant memory, exactly mergeable
//!   (element-wise counts), so pooled tables are independent of slot order.
//! * [`series`] — time-bucketed windowed operational series (submit /
//!   start / complete rates, active jobs, utilization, queue depth) with
//!   per-site gauge columns.
//! * [`metrics`] — a run-level metrics registry (counters and time-weighted
//!   gauges) and serializable snapshots, plus wall-clock engine
//!   profiling ([`metrics::EngineProfile`]). Observers only: when disabled
//!   every operation is a single branch, and nothing here ever perturbs
//!   simulation state or RNG draws.
//!
//! ## Determinism contract
//!
//! A simulation run is a pure function of its configuration and master seed.
//! The engine guarantees: (1) events at equal timestamps fire in scheduling
//! order; (2) RNG streams are independent and keyed by stable identifiers;
//! (3) nothing in this crate reads wall-clock time or global state.
//!
//! ## Quick example
//!
//! ```
//! use tg_des::prelude::*;
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! struct Counter { seen: u32 }
//! impl Simulation for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
//!         let Ev::Ping(n) = ev;
//!         self.seen += n;
//!         if n < 3 {
//!             ctx.schedule_after(SimDuration::from_secs(1), Ev::Ping(n + 1));
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.schedule_at(SimTime::ZERO, Ev::Ping(1));
//! let mut sim = Counter { seen: 0 };
//! engine.run(&mut sim);
//! assert_eq!(sim.seen, 6);
//! assert_eq!(engine.now(), SimTime::from_secs(2));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analyze;
pub mod dist;
pub mod engine;
pub mod memory;
pub mod metrics;
pub mod param;
pub mod rng;
pub mod series;
pub mod sketch;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;

/// Convenience re-exports of the items virtually every simulation needs.
pub mod prelude {
    pub use crate::dist::{Dist, DistKind};
    pub use crate::engine::{Ctx, Engine, EventKey, Simulation, StopCondition};
    pub use crate::metrics::{EngineProfile, MetricsRegistry, MetricsSnapshot};
    pub use crate::rng::{RngFactory, SimRng, StreamId};
    pub use crate::span::{Span, SpanKind, WaitCause};
    pub use crate::stats::TimeWeighted;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::trace::{TraceValue, Tracer};
}

pub use analyze::{TraceAnalysis, TraceAnalyzer};
pub use dist::{Dist, DistKind};
pub use engine::{Ctx, Engine, EventKey, Simulation, StopCondition};
pub use memory::{
    alloc_snapshot, current_in_use_bytes, peak_in_use_bytes, peak_rss_bytes, AllocDelta,
    AllocSnapshot, CountingAlloc,
};
pub use metrics::{CounterId, EngineProfile, GaugeId, MetricsRegistry, MetricsSnapshot};
pub use rng::{RngFactory, SimRng, StreamId};
pub use series::{SeriesDigest, SeriesRow, SeriesSnapshot, WindowedSeries};
pub use sketch::{QuantileSketch, SketchSummary, SpanSketchbook, SpanStatsSnapshot};
pub use span::{Span, SpanKind, WaitCause, SPAN_SCHEMA_VERSION};
pub use stats::TimeWeighted;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEntry, TraceHealth, TraceValue, Tracer};
