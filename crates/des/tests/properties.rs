//! Property-based tests for the DES substrate: engine ordering, RNG
//! determinism, distribution sanity, time arithmetic, and span durations. (Quantile sketch
//! properties live in `sketch_prop.rs`.)

use proptest::prelude::*;
use tg_des::analyze::parse_span_line;
use tg_des::dist::DistKind;
use tg_des::{Ctx, Engine, RngFactory, SimDuration, SimRng, SimTime, Simulation, StreamId};

// ---------------------------------------------------------------------
// Engine ordering
// ---------------------------------------------------------------------

struct Collector {
    seen: Vec<(SimTime, u32)>,
}

impl Simulation for Collector {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        self.seen.push((ctx.now(), ev));
    }
}

proptest! {
    /// Whatever order events are scheduled in, delivery is sorted by time,
    /// and ties preserve scheduling order.
    #[test]
    fn engine_delivers_in_time_then_fifo_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_secs(t), i as u32);
        }
        let mut sim = Collector { seen: Vec::new() };
        engine.run(&mut sim);
        prop_assert_eq!(sim.seen.len(), times.len());
        for w in sim.seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                // Same instant: scheduling (= id) order.
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exactly_the_cancelled(
        times in prop::collection::vec(0u64..100, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut engine = Engine::new();
        let keys: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| engine.schedule_at(SimTime::from_secs(t), i as u32))
            .collect();
        let mut expect: Vec<u32> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(engine.cancel(*key));
            } else {
                expect.push(i as u32);
            }
        }
        let mut sim = Collector { seen: Vec::new() };
        engine.run(&mut sim);
        let mut got: Vec<u32> = sim.seen.iter().map(|&(_, e)| e).collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// RNG streams
// ---------------------------------------------------------------------

proptest! {
    /// A stream's draws depend only on (master seed, stream id).
    #[test]
    fn streams_are_pure_functions_of_seed_and_id(seed in any::<u64>(), idx in 0u64..1000) {
        let draw = |seed: u64, idx: u64| -> Vec<u64> {
            let mut r = RngFactory::new(seed).stream(StreamId::new("p", idx));
            (0..8).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        prop_assert_eq!(draw(seed, idx), draw(seed, idx));
        // Perturbing either coordinate changes the stream (overwhelmingly).
        prop_assert_ne!(draw(seed, idx), draw(seed.wrapping_add(1), idx));
        prop_assert_ne!(draw(seed, idx), draw(seed, idx + 1));
    }

    /// `below(n)` is always in range; `pick_weighted` returns a positive-
    /// weight index.
    #[test]
    fn bounded_draws_stay_in_bounds(seed in any::<u64>(), n in 1u64..10_000) {
        let mut rng = SimRng::seeded(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
        let weights = [0.0, 2.5, 0.0, 1.0];
        for _ in 0..100 {
            let i = rng.pick_weighted(&weights);
            prop_assert!(i == 1 || i == 3);
        }
    }
}

// ---------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------

fn arb_distkind() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        (0.1f64..1e6).prop_map(|v| DistKind::Constant { value: v }),
        (0.1f64..100.0, 1.0f64..100.0).prop_map(|(lo, w)| DistKind::Uniform { lo, hi: lo + w }),
        (0.1f64..1e5).prop_map(|mean| DistKind::Exponential { mean }),
        (1.0f64..1e5, 0.1f64..3.0).prop_map(|(mean, cv)| DistKind::LogNormal { mean, cv }),
        (0.2f64..5.0, 0.1f64..1e4).prop_map(|(k, lambda)| DistKind::Weibull { k, lambda }),
        (0.1f64..1e3, 1.1f64..4.0).prop_map(|(xm, alpha)| DistKind::Pareto { xm, alpha }),
        (0.2f64..5.0, 0.1f64..1e3).prop_map(|(k, theta)| DistKind::Gamma { k, theta }),
        (1.0f64..1e4, 1.0f64..6.0).prop_map(|(mean, scv)| DistKind::Hyperexp { mean, scv }),
    ]
}

proptest! {
    /// Every (non-normal) distribution draws non-negative, finite values,
    /// and its sampled mean tracks its closed-form mean where one exists.
    #[test]
    fn distributions_draw_finite_nonnegative(kind in arb_distkind(), seed in any::<u64>()) {
        let mut rng = SimRng::seeded(seed);
        let mut acc = 0.0;
        let n = 4000;
        for _ in 0..n {
            let x = kind.sample(&mut rng);
            prop_assert!(x.is_finite(), "{kind:?} drew {x}");
            prop_assert!(x >= 0.0, "{kind:?} drew {x}");
            acc += x;
        }
        if let Some(mean) = kind.mean() {
            let sampled = acc / n as f64;
            // Loose: heavy tails need slack. Pareto with alpha near 1 is
            // excluded by the strategy (alpha ≥ 1.1 still slow) — allow 12×.
            prop_assert!(
                sampled > mean / 12.0 && sampled < mean * 12.0,
                "{kind:?}: sampled {sampled} vs closed {mean}"
            );
        }
    }

    /// Serde round-trips every DistKind.
    #[test]
    fn distkind_serde_roundtrip(kind in arb_distkind()) {
        let json = serde_json::to_string(&kind).unwrap();
        let back: DistKind = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(kind, back);
    }
}

// ---------------------------------------------------------------------
// Time and span durations
// ---------------------------------------------------------------------

proptest! {
    /// Time arithmetic: (t + d) - t == d and ordering is preserved.
    #[test]
    fn time_arithmetic_roundtrips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(t);
        let d = SimDuration::from_micros(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert!(t + d >= t);
    }

    /// A span's bounds survive the trace's shortest-round-trip seconds
    /// format, so the offline duration is bit-for-bit the simulator's
    /// `t1 - t0` (up to ~3 years of clock, ~11 days per span).
    #[test]
    fn span_duration_survives_the_trace_format(t0 in 0u64..100_000_000_000_000, d in 0u64..1_000_000_000_000) {
        let (t0, t1) = (SimTime::from_micros(t0), SimTime::from_micros(t0 + d));
        let line = format!(
            "{{\"t\":{t:?},\"cat\":\"span\",\"fields\":{{\"v\":1,\"job\":1,\"kind\":\"run\",\"t0\":{a:?},\"t1\":{t:?}}}}}",
            a = t0.as_secs_f64(),
            t = t1.as_secs_f64(),
        );
        let span = parse_span_line(&line).expect("parses");
        let online = t1.saturating_since(t0).as_secs_f64();
        prop_assert_eq!(span.duration().to_bits(), online.to_bits());
    }
}
