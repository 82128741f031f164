//! Run-level metrics: a small registry of named counters, plus a
//! serializable end-of-run snapshot.
//!
//! The registry is the observability companion to the engine:
//! simulations register counters up front (cheap, once) and bump them from
//! event handlers. Every increment is a single branch when the registry is
//! disabled, so instrumentation can stay on hot paths unconditionally —
//! and because the registry only *observes* (it never draws randomness or
//! schedules events), enabling it cannot perturb a simulation's results.
//!
//! Time-weighted signals are not kept here: a simulation that tracks one
//! (the grid simulator's per-site busy cores and queued jobs live in its
//! [`WindowedSeries`](crate::series::WindowedSeries)) fills the snapshot's
//! [`GaugeSnapshot`]s from its own store, so each signal is integrated
//! once. Sampled time series are likewise the simulation's own.
//!
//! [`MetricsSnapshot`] is plain serializable data for JSON export;
//! [`EngineProfile`] carries the wall-clock engine figures that ride along
//! with a snapshot but are *not* part of the deterministic run output.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

#[derive(Debug, Clone)]
struct Counter {
    name: String,
    value: u64,
}

/// The metrics registry. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Vec<Counter>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl MetricsRegistry {
    /// A disabled registry: registration works (handles stay valid), every
    /// mutating operation is a single branch, and [`MetricsRegistry::snapshot`]
    /// returns `None`.
    pub fn disabled() -> Self {
        MetricsRegistry {
            enabled: false,
            counters: Vec::new(),
        }
    }

    /// An enabled registry.
    pub fn enabled() -> Self {
        MetricsRegistry {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// Is the registry recording?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off. Counters registered while disabled stay
    /// valid, so a simulation can lay out its counters once and flip this from
    /// configuration.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Register a counter (starts at 0). Registration is independent of the
    /// enabled flag so instrument layout never depends on configuration.
    pub fn counter(&mut self, name: impl Into<String>) -> CounterId {
        self.counters.push(Counter {
            name: name.into(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        if !self.enabled {
            return;
        }
        self.counters[id.0].value += n;
    }

    /// Freeze the counters into a serializable snapshot taken at `now`, with
    /// no gauges (the caller adds its own). Returns `None` when the registry
    /// is disabled.
    pub fn snapshot(&self, now: SimTime) -> Option<MetricsSnapshot> {
        if !self.enabled {
            return None;
        }
        Some(MetricsSnapshot {
            at_secs: now.as_secs_f64(),
            counters: self
                .counters
                .iter()
                .map(|c| CounterSnapshot {
                    name: c.name.clone(),
                    value: c.value,
                })
                .collect(),
            gauges: Vec::new(),
            engine: None,
        })
    }
}

/// One counter's final value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Instrument name.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// One time-weighted signal's closing statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Instrument name.
    pub name: String,
    /// Value at snapshot time.
    pub current: f64,
    /// Time-weighted average over the gauge's lifetime.
    pub average: f64,
    /// Highest value reached.
    pub peak: f64,
    /// Integral (value·seconds) over the gauge's lifetime.
    pub integral: f64,
}

/// Wall-clock engine profile for one run. Reported *alongside* simulation
/// output, never inside it: wall time varies run to run while the
/// simulation results stay bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineProfile {
    /// Events the engine delivered.
    pub events_delivered: u64,
    /// Wall-clock seconds spent inside the event loop.
    pub wall_seconds: f64,
    /// `events_delivered / wall_seconds` (0 for a zero-duration run).
    pub events_per_sec: f64,
    /// High-water mark of the event queue (peak heap footprint proxy).
    pub peak_queue_len: u64,
    /// Peak resident set of the measuring process in bytes
    /// ([`crate::memory::peak_rss_bytes`]); `None` off Linux or when the
    /// caller did not sample it. A whole-process figure: meaningful for a
    /// bench running one scenario at a time, not for concurrent batches.
    #[serde(default)]
    pub peak_rss_bytes: Option<u64>,
    /// Heap allocations during the run (`None` unless the binary installed
    /// [`crate::memory::CountingAlloc`]).
    #[serde(default)]
    pub allocations: Option<u64>,
    /// Bytes requested from the allocator during the run (same gating).
    #[serde(default)]
    pub allocated_bytes: Option<u64>,
}

impl EngineProfile {
    /// Build a profile from the raw figures, computing the rate. Memory
    /// fields start empty; see [`EngineProfile::with_memory`].
    pub fn new(events_delivered: u64, wall_seconds: f64, peak_queue_len: usize) -> Self {
        let events_per_sec = if wall_seconds > 0.0 {
            events_delivered as f64 / wall_seconds
        } else {
            0.0
        };
        EngineProfile {
            events_delivered,
            wall_seconds,
            events_per_sec,
            peak_queue_len: peak_queue_len as u64,
            peak_rss_bytes: None,
            allocations: None,
            allocated_bytes: None,
        }
    }

    /// Attach memory figures: the process's peak RSS and (when a counting
    /// allocator is installed) the run's allocation traffic.
    pub fn with_memory(
        mut self,
        peak_rss_bytes: Option<u64>,
        alloc: Option<crate::memory::AllocDelta>,
    ) -> Self {
        self.peak_rss_bytes = peak_rss_bytes;
        self.allocations = alloc.map(|d| d.allocations);
        self.allocated_bytes = alloc.map(|d| d.bytes);
        self
    }
}

/// A full end-of-run metrics snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Virtual time (seconds) the snapshot was taken at.
    pub at_secs: f64,
    /// All counters, registration order.
    pub counters: Vec<CounterSnapshot>,
    /// Time-weighted signals, in the order the simulation reports them.
    pub gauges: Vec<GaugeSnapshot>,
    /// Engine profile, attached by the harness after the run (wall-clock
    /// data lives outside the deterministic simulation).
    #[serde(default)]
    pub engine: Option<EngineProfile>,
}

impl MetricsSnapshot {
    /// Look up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<&GaugeSnapshot> {
        self.gauges.iter().find(|g| g.name == name)
    }

    /// Sum of all counters whose name starts with `prefix` — handy for
    /// conservation checks over per-site or per-modality families.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| c.value)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let mut m = MetricsRegistry::disabled();
        let c = m.counter("jobs");
        m.inc(c);
        assert!(m.snapshot(SimTime::from_secs(10)).is_none());
        assert!(!m.is_enabled());
    }

    #[test]
    fn counters_snapshot() {
        let mut m = MetricsRegistry::enabled();
        let c = m.counter("jobs_completed");
        m.inc(c);
        m.add(c, 2);
        let snap = m.snapshot(SimTime::from_secs(30)).expect("enabled");
        assert_eq!(snap.counter("jobs_completed"), Some(3));
        assert_eq!(snap.counter("missing"), None);
        assert!(snap.gauges.is_empty());
        assert_eq!(snap.at_secs, 30.0);
    }

    #[test]
    fn counter_sum_by_prefix() {
        let mut m = MetricsRegistry::enabled();
        let a = m.counter("site.alpha.completions");
        let b = m.counter("site.bravo.completions");
        let other = m.counter("staging_bytes");
        m.add(a, 5);
        m.add(b, 7);
        m.add(other, 999);
        let snap = m.snapshot(SimTime::ZERO).unwrap();
        assert_eq!(snap.counter_sum("site."), 12);
    }

    #[test]
    fn engine_profile_rate() {
        let p = EngineProfile::new(1000, 0.5, 42);
        assert_eq!(p.events_per_sec, 2000.0);
        assert_eq!(p.peak_queue_len, 42);
        let z = EngineProfile::new(10, 0.0, 1);
        assert_eq!(z.events_per_sec, 0.0);
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let mut m = MetricsRegistry::enabled();
        let c = m.counter("n");
        m.inc(c);
        let mut snap = m.snapshot(SimTime::from_secs(2)).unwrap();
        snap.gauges.push(GaugeSnapshot {
            name: "g".into(),
            current: 2.0,
            average: 1.5,
            peak: 2.0,
            integral: 3.0,
        });
        snap.engine = Some(EngineProfile::new(5, 0.001, 3));
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.engine.as_ref().unwrap().events_delivered, 5);
    }
}
