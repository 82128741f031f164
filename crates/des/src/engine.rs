//! The discrete-event loop.
//!
//! The engine owns a priority queue of `(time, sequence, event)` entries.
//! Popping always yields the earliest event; ties on time break by scheduling
//! order (FIFO), which makes simultaneous-event behaviour deterministic — a
//! property most ad-hoc `BinaryHeap<(t, ev)>` loops silently lack.
//!
//! User code implements [`Simulation`]: the engine pops an event and passes
//! it to [`Simulation::handle`] together with a [`Ctx`] through which the
//! handler schedules follow-up events, cancels pending ones, and inspects the
//! clock. The engine never calls back re-entrantly, so handlers may freely
//! mutate their own state.
//!
//! Cancellation is tombstone-based: [`Ctx::cancel`] marks an [`EventKey`] and
//! the pop loop discards marked entries, costing O(log n) amortized rather
//! than requiring a decrease-key heap. A companion set of *live* sequence
//! numbers keeps cancellation honest: cancelling a key that was already
//! delivered (or already cancelled) returns `false` and leaves no stale
//! tombstone behind, and [`Engine::pending`] / [`Ctx::pending`] report the
//! exact live-event count.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifies one scheduled event so it can be cancelled before it fires.
///
/// Keys are unique for the lifetime of an [`Engine`] (a `u64` sequence
/// counter; wrap-around is unreachable in practice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventKey(u64);

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// Dense membership set over event sequence numbers.
///
/// Seqs are allocated 0, 1, 2, … for the engine's lifetime, so a bitmap
/// beats a `HashSet<u64>`: membership flips on the delivery hot path touch
/// one cache line instead of hashing into a table that grows to tens of
/// megabytes on multi-million-event runs.
#[derive(Debug, Default)]
struct SeqSet {
    bits: Vec<u64>,
    len: usize,
}

impl SeqSet {
    #[inline]
    fn insert(&mut self, seq: u64) -> bool {
        let (word, bit) = ((seq / 64) as usize, seq % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.bits[word] & mask == 0 {
            self.bits[word] |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Insert every seq in `[start, end)`. Used when a stream source
    /// reserves its sequence block up front so `pending` stays exact while
    /// the events themselves are still unpulled.
    fn insert_range(&mut self, start: u64, end: u64) {
        for seq in start..end {
            self.insert(seq);
        }
    }

    /// Remove `seq`, reporting whether it was present.
    #[inline]
    fn remove(&mut self, seq: u64) -> bool {
        let (word, bit) = ((seq / 64) as usize, seq % 64);
        let Some(w) = self.bits.get_mut(word) else {
            return false;
        };
        let mask = 1u64 << bit;
        if *w & mask != 0 {
            *w &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

// Reverse ordering so BinaryHeap (a max-heap) pops the *earliest* entry;
// among equal timestamps the lowest sequence number (earliest scheduled) wins.
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

/// A simulation model driven by an [`Engine`].
pub trait Simulation {
    /// The event payload type this model reacts to.
    type Event;

    /// React to one event. `ctx.now()` is the event's timestamp; follow-up
    /// events are scheduled through `ctx`.
    fn handle(&mut self, ctx: &mut Ctx<Self::Event>, event: Self::Event);
}

/// When the run loop should stop, checked *before* each event is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Run until no events remain.
    Exhausted,
    /// Run until the clock would pass the given instant; events at exactly
    /// the horizon still fire.
    AtTime(SimTime),
    /// Run until the given number of events has been delivered.
    EventCount(u64),
}

/// Why a call to [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueExhausted,
    /// The stop condition triggered with events still pending.
    StoppedEarly,
}

/// Scheduling context handed to [`Simulation::handle`].
///
/// A thin view over the engine's queue plus the frozen "current time" of the
/// event being processed.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut BinaryHeap<Scheduled<E>>,
    cancelled: &'a mut SeqSet,
    live: &'a mut SeqSet,
    peak_queue_len: &'a mut usize,
    next_seq: &'a mut u64,
    delivered: u64,
    stop_requested: &'a mut bool,
}

impl<'a, E> Ctx<'a, E> {
    /// The timestamp of the event currently being handled.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far in this run (including the current one).
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Exact number of live (scheduled, not yet delivered, not cancelled)
    /// events. Lets periodic self-rescheduling activities (metric samplers,
    /// heartbeats) stop once they are the only thing left, so the run can
    /// drain.
    #[inline]
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// Schedule `event` at the absolute instant `at`.
    ///
    /// Scheduling into the past is a model bug; it panics in debug builds and
    /// clamps to `now` in release builds.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        debug_assert!(
            at >= self.now,
            "scheduled into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = *self.next_seq;
        *self.next_seq += 1;
        self.live.insert(seq);
        self.queue.push(Scheduled { at, seq, event });
        *self.peak_queue_len = (*self.peak_queue_len).max(self.queue.len());
        EventKey(seq)
    }

    /// Schedule `event` after the relative delay `after`.
    #[inline]
    pub fn schedule_after(&mut self, after: SimDuration, event: E) -> EventKey {
        self.schedule_at(self.now + after, event)
    }

    /// Schedule `event` at the current instant, after all other events
    /// already scheduled for this instant.
    #[inline]
    pub fn schedule_now(&mut self, event: E) -> EventKey {
        self.schedule_at(self.now, event)
    }

    /// Cancel a pending event. Returns `true` if the key was still pending
    /// (i.e. not yet delivered and not already cancelled).
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if self.live.remove(key.0) {
            self.cancelled.insert(key.0);
            true
        } else {
            false
        }
    }

    /// Ask the engine to stop after this handler returns, regardless of the
    /// active stop condition.
    pub fn request_stop(&mut self) {
        *self.stop_requested = true;
    }
}

/// A lazily-pulled event source feeding the engine (see
/// [`Engine::schedule_stream`]). The source owns a contiguous block of
/// pre-reserved sequence numbers and hands them out in pull order, so the
/// merged delivery order is bit-identical to scheduling the same items one
/// by one — but only the buffered head physically exists at any moment.
struct StreamSource<E> {
    head: Option<Scheduled<E>>,
    iter: Box<dyn Iterator<Item = (SimTime, E)> + Send>,
    /// Next seq to hand to a pulled item.
    next_seq: u64,
    /// One past the last reserved seq.
    end_seq: u64,
}

impl<E> StreamSource<E> {
    /// Refill `head` from the iterator. Panics if the iterator runs dry
    /// before the declared count is exhausted (the reservation contract).
    fn pull(&mut self) {
        self.head = if self.next_seq < self.end_seq {
            let (at, event) = self
                .iter
                .next()
                .expect("stream source yielded fewer events than declared");
            let seq = self.next_seq;
            self.next_seq += 1;
            Some(Scheduled { at, seq, event })
        } else {
            None
        };
    }
}

/// The event queue and virtual clock.
///
/// Events live in two places: the binary heap (everything scheduled one
/// at a time) and an optional *stream source* ([`Engine::schedule_stream`])
/// that materializes time-ordered events one at a time on demand. Delivery
/// merges the two by `(time, seq)`, which is exactly the heap's total
/// order, so a stream behaves bit-identically to the equivalent
/// `schedule_at` loop while the heap stays small: a workload's million
/// pre-scheduled arrivals become an O(1)-resident pull instead of
/// log-depth sifts through a heap that dwarfs the cache.
pub struct Engine<E> {
    queue: BinaryHeap<Scheduled<E>>,
    /// Lazily-pulled source, sorted ascending by time; only its head is
    /// resident.
    stream: Option<StreamSource<E>>,
    cancelled: SeqSet,
    /// Sequence numbers of events that are scheduled but neither delivered
    /// nor cancelled. Keeping this alongside the tombstone set makes
    /// `cancel` exact (a delivered key can no longer be "cancelled") and
    /// `pending` O(1) without subtraction that could underflow.
    live: SeqSet,
    /// High-water mark of resident pending events (heap plus the stream's
    /// buffered head, tombstoned entries included) over the engine's
    /// lifetime; feeds engine profiling.
    peak_queue_len: usize,
    now: SimTime,
    next_seq: u64,
    delivered: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// An empty engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Engine {
            queue: BinaryHeap::new(),
            stream: None,
            cancelled: SeqSet::default(),
            live: SeqSet::default(),
            peak_queue_len: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            delivered: 0,
        }
    }

    /// An empty engine with pre-allocated queue capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Engine {
            queue: BinaryHeap::with_capacity(cap),
            ..Self::new()
        }
    }

    /// Current virtual time (the timestamp of the last delivered event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered over the engine's lifetime.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Exact number of pending (scheduled, undelivered, non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.live.len()
    }

    /// High-water mark of the event-queue length over the engine's lifetime
    /// (cancelled-but-unpopped entries included). A cheap proxy for the
    /// engine's peak heap footprint, reported by run profiling.
    #[inline]
    pub fn peak_queue_len(&self) -> usize {
        self.peak_queue_len
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Timestamp of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.peek_key().map(|(at, _)| at)
    }

    /// The `(at, seq)` of the stream's buffered head, if any.
    #[inline]
    fn stream_key(&self) -> Option<(SimTime, u64)> {
        self.stream
            .as_ref()
            .and_then(|s| s.head.as_ref())
            .map(|s| (s.at, s.seq))
    }

    /// The `(at, seq)` of the earliest undelivered event across both
    /// sources, tombstones included.
    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        let heap = self.queue.peek().map(|s| (s.at, s.seq));
        match (heap, self.stream_key()) {
            (Some(h), Some(s)) => Some(h.min(s)),
            (h, s) => h.or(s),
        }
    }

    /// Pop the earliest undelivered event across both sources.
    #[inline]
    fn pop_next(&mut self) -> Option<Scheduled<E>> {
        let Some(stream) = self.stream_key() else {
            return self.queue.pop();
        };
        if self.queue.peek().is_some_and(|h| (h.at, h.seq) < stream) {
            return self.queue.pop();
        }
        let source = self.stream.as_mut().expect("stream head peeked");
        let item = source.head.take();
        source.pull();
        if source.head.is_none() {
            self.stream = None;
        }
        item
    }

    /// Schedule an event from outside a handler (initial conditions).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        assert!(at >= self.now, "scheduled into the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(seq);
        self.queue.push(Scheduled { at, seq, event });
        self.peak_queue_len = self.peak_queue_len.max(self.queue.len());
        EventKey(seq)
    }

    /// Attach a lazily-pulled event source (initial conditions — a
    /// workload's arrival stream generated on demand).
    ///
    /// The source must yield exactly `count` events in ascending time order;
    /// its block of sequence numbers `[next, next+count)` is reserved up
    /// front, so anything scheduled afterwards sorts behind stream events at
    /// equal timestamps — delivery order is bit-identical to calling
    /// [`Engine::schedule_at`] once per item in pull order, but only one
    /// stream item is resident at a time. `pending` counts the full reservation.
    /// Stream events are fire-and-forget (no [`EventKey`]s, no
    /// cancellation), and at most one stream can be attached at once.
    ///
    /// Panics if a stream is already attached, if the source yields fewer
    /// than `count` events, or (in debug builds) if it yields out of time
    /// order.
    pub fn schedule_stream(
        &mut self,
        count: u64,
        source: impl Iterator<Item = (SimTime, E)> + Send + 'static,
    ) {
        assert!(self.stream.is_none(), "a stream source is already attached");
        if count == 0 {
            return;
        }
        let start = self.next_seq;
        self.next_seq += count;
        self.live.insert_range(start, self.next_seq);
        let floor = self.now;
        let mut last = SimTime::ZERO;
        let iter = source.inspect(move |(at, _)| {
            debug_assert!(*at >= floor, "stream event scheduled into the past");
            debug_assert!(*at >= last, "stream events must be time-ordered");
            last = *at;
        });
        let mut src = StreamSource {
            head: None,
            iter: Box::new(iter),
            next_seq: start,
            end_seq: self.next_seq,
        };
        src.pull();
        self.stream = Some(src);
        // The stream's single buffered head joins the peak-queue accounting;
        // the unpulled remainder intentionally does not — not being resident
        // is the point.
        self.peak_queue_len = self.peak_queue_len.max(self.queue.len() + 1);
    }

    /// Schedule an event `after` the current clock from outside a handler.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) -> EventKey {
        self.schedule_at(self.now + after, event)
    }

    /// Cancel a pending event from outside a handler. Returns `false` for
    /// keys that were already delivered or already cancelled.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        if self.live.remove(key.0) {
            self.cancelled.insert(key.0);
            true
        } else {
            false
        }
    }

    fn skip_cancelled(&mut self) {
        while let Some((_, seq)) = self.peek_key() {
            if self.cancelled.remove(seq) {
                self.pop_next();
            } else {
                break;
            }
        }
    }

    /// Deliver the single next event to `sim`. Returns `false` if the queue
    /// was empty.
    pub fn step<S: Simulation<Event = E>>(&mut self, sim: &mut S) -> bool {
        self.skip_cancelled();
        let Some(Scheduled { at, seq, event }) = self.pop_next() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue yielded a past event");
        self.live.remove(seq);
        self.now = at;
        self.delivered += 1;
        let mut stop = false;
        let mut ctx = Ctx {
            now: at,
            queue: &mut self.queue,
            cancelled: &mut self.cancelled,
            live: &mut self.live,
            peak_queue_len: &mut self.peak_queue_len,
            next_seq: &mut self.next_seq,
            delivered: self.delivered,
            stop_requested: &mut stop,
        };
        sim.handle(&mut ctx, event);
        true
    }

    /// Run until the queue drains.
    pub fn run<S: Simulation<Event = E>>(&mut self, sim: &mut S) -> RunOutcome {
        self.run_until(sim, StopCondition::Exhausted)
    }

    /// Run until `stop` triggers or the queue drains.
    ///
    /// With [`StopCondition::AtTime`], the clock is advanced to the horizon on
    /// early stop so that time-weighted statistics close out correctly.
    pub fn run_until<S: Simulation<Event = E>>(
        &mut self,
        sim: &mut S,
        stop: StopCondition,
    ) -> RunOutcome {
        let start_delivered = self.delivered;
        loop {
            self.skip_cancelled();
            let Some((head_at, _)) = self.peek_key() else {
                if let StopCondition::AtTime(horizon) = stop {
                    self.now = self.now.max(horizon);
                }
                return RunOutcome::QueueExhausted;
            };
            match stop {
                StopCondition::Exhausted => {}
                StopCondition::AtTime(horizon) => {
                    if head_at > horizon {
                        self.now = horizon;
                        return RunOutcome::StoppedEarly;
                    }
                }
                StopCondition::EventCount(n) => {
                    if self.delivered - start_delivered >= n {
                        return RunOutcome::StoppedEarly;
                    }
                }
            }
            let Scheduled { at, seq, event } = self.pop_next().expect("peeked");
            self.live.remove(seq);
            self.now = at;
            self.delivered += 1;
            let mut stop_req = false;
            let mut ctx = Ctx {
                now: at,
                queue: &mut self.queue,
                cancelled: &mut self.cancelled,
                live: &mut self.live,
                peak_queue_len: &mut self.peak_queue_len,
                next_seq: &mut self.next_seq,
                delivered: self.delivered,
                stop_requested: &mut stop_req,
            };
            sim.handle(&mut ctx, event);
            if stop_req {
                return RunOutcome::StoppedEarly;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    enum Ev {
        Tag(&'static str),
        Chain(u32),
    }

    #[derive(Default)]
    struct Recorder {
        log: Vec<(SimTime, Ev)>,
        cancel_target: Option<EventKey>,
        stop_at_tag: Option<&'static str>,
    }

    impl Simulation for Recorder {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
            self.log.push((ctx.now(), ev.clone()));
            match ev {
                Ev::Chain(n) if n > 0 => {
                    ctx.schedule_after(SimDuration::from_secs(1), Ev::Chain(n - 1));
                }
                Ev::Tag(t) => {
                    if let Some(k) = self.cancel_target.take() {
                        assert!(ctx.cancel(k));
                    }
                    if self.stop_at_tag == Some(t) {
                        ctx.request_stop();
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_secs(3), Ev::Tag("c"));
        eng.schedule_at(SimTime::from_secs(1), Ev::Tag("a"));
        eng.schedule_at(SimTime::from_secs(2), Ev::Tag("b"));
        let mut sim = Recorder::default();
        assert_eq!(eng.run(&mut sim), RunOutcome::QueueExhausted);
        let tags: Vec<_> = sim.log.iter().map(|(_, e)| e.clone()).collect();
        assert_eq!(tags, vec![Ev::Tag("a"), Ev::Tag("b"), Ev::Tag("c")]);
        assert_eq!(eng.now(), SimTime::from_secs(3));
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut eng = Engine::new();
        let t = SimTime::from_secs(5);
        for tag in ["first", "second", "third", "fourth"] {
            eng.schedule_at(t, Ev::Tag(tag));
        }
        let mut sim = Recorder::default();
        eng.run(&mut sim);
        let tags: Vec<_> = sim
            .log
            .iter()
            .map(|(_, e)| match e {
                Ev::Tag(t) => *t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec!["first", "second", "third", "fourth"]);
    }

    #[test]
    fn chained_scheduling_advances_clock() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Chain(5));
        let mut sim = Recorder::default();
        eng.run(&mut sim);
        assert_eq!(sim.log.len(), 6);
        assert_eq!(eng.now(), SimTime::from_secs(5));
        assert_eq!(eng.delivered(), 6);
    }

    #[test]
    fn cancellation_prevents_delivery() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), Ev::Tag("keep"));
        let doomed = eng.schedule_at(SimTime::from_secs(2), Ev::Tag("doomed"));
        eng.schedule_at(SimTime::from_secs(3), Ev::Tag("keep2"));
        assert!(eng.cancel(doomed));
        assert!(!eng.cancel(doomed), "double-cancel reports false");
        assert_eq!(eng.pending(), 2);
        let mut sim = Recorder::default();
        eng.run(&mut sim);
        assert_eq!(sim.log.len(), 2);
        assert!(sim.log.iter().all(|(_, e)| *e != Ev::Tag("doomed")));
    }

    #[test]
    fn cancel_from_within_handler() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), Ev::Tag("canceller"));
        let doomed = eng.schedule_at(SimTime::from_secs(2), Ev::Tag("doomed"));
        let mut sim = Recorder {
            cancel_target: Some(doomed),
            ..Default::default()
        };
        eng.run(&mut sim);
        assert_eq!(sim.log.len(), 1);
    }

    #[test]
    fn cancel_unknown_key_is_false() {
        let mut eng: Engine<Ev> = Engine::new();
        assert!(!eng.cancel(EventKey(99)));
    }

    #[test]
    fn cancel_after_delivery_is_false() {
        let mut eng = Engine::new();
        let key = eng.schedule_at(SimTime::from_secs(1), Ev::Tag("fired"));
        let mut sim = Recorder::default();
        eng.run(&mut sim);
        assert_eq!(sim.log.len(), 1);
        assert!(
            !eng.cancel(key),
            "cancelling an already-delivered key must report false"
        );
        // The failed cancel must not poison the tombstone set: a fresh event
        // still schedules, counts, and delivers normally.
        eng.schedule_at(SimTime::from_secs(2), Ev::Tag("later"));
        assert_eq!(eng.pending(), 1);
        eng.run(&mut sim);
        assert_eq!(sim.log.len(), 2);
    }

    #[test]
    fn pending_stays_exact_under_mixed_cancel_and_delivery() {
        let mut eng = Engine::new();
        let keys: Vec<_> = (0..6)
            .map(|i| eng.schedule_at(SimTime::from_secs(i + 1), Ev::Tag("ev")))
            .collect();
        assert_eq!(eng.pending(), 6);
        // Cancel two, deliver one, then try to cancel the delivered one and
        // re-cancel a cancelled one; the count must never drift or underflow.
        assert!(eng.cancel(keys[1]));
        assert!(eng.cancel(keys[4]));
        assert_eq!(eng.pending(), 4);
        let mut sim = Recorder::default();
        assert!(eng.step(&mut sim)); // delivers keys[0]
        assert_eq!(eng.pending(), 3);
        assert!(!eng.cancel(keys[0]), "delivered key");
        assert!(!eng.cancel(keys[1]), "already-cancelled key");
        assert_eq!(eng.pending(), 3, "failed cancels must not change pending");
        eng.run(&mut sim);
        assert_eq!(eng.pending(), 0);
        assert!(eng.is_empty());
        assert_eq!(sim.log.len(), 4);
    }

    #[test]
    fn ctx_cancel_after_delivery_is_false() {
        // A handler that tries to cancel the event *currently being handled*
        // (already delivered) and a previously-fired one.
        struct S {
            first_key: Option<EventKey>,
            results: Vec<bool>,
        }
        impl Simulation for S {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
                if let Ev::Tag("second") = ev {
                    let stale = self.first_key.take().expect("set by test");
                    self.results.push(ctx.cancel(stale));
                    let live = ctx.schedule_after(SimDuration::from_secs(1), Ev::Tag("third"));
                    self.results.push(ctx.cancel(live));
                    self.results.push(ctx.cancel(live));
                    self.results.push(ctx.pending() == 0);
                }
            }
        }
        let mut eng = Engine::new();
        let first = eng.schedule_at(SimTime::from_secs(1), Ev::Tag("first"));
        eng.schedule_at(SimTime::from_secs(2), Ev::Tag("second"));
        let mut sim = S {
            first_key: Some(first),
            results: vec![],
        };
        eng.run(&mut sim);
        assert_eq!(
            sim.results,
            vec![false, true, false, true],
            "stale cancel false; live cancel true; double-cancel false; pending exact"
        );
    }

    #[test]
    fn peak_queue_len_tracks_high_water_mark() {
        let mut eng = Engine::new();
        assert_eq!(eng.peak_queue_len(), 0);
        for i in 0..5 {
            eng.schedule_at(SimTime::from_secs(i + 1), Ev::Tag("ev"));
        }
        assert_eq!(eng.peak_queue_len(), 5);
        let mut sim = Recorder::default();
        eng.run(&mut sim);
        // Draining does not lower the recorded peak.
        assert_eq!(eng.peak_queue_len(), 5);
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn stop_at_time_clamps_clock_to_horizon() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), Ev::Tag("in"));
        eng.schedule_at(SimTime::from_secs(10), Ev::Tag("out"));
        let mut sim = Recorder::default();
        let outcome = eng.run_until(&mut sim, StopCondition::AtTime(SimTime::from_secs(5)));
        assert_eq!(outcome, RunOutcome::StoppedEarly);
        assert_eq!(sim.log.len(), 1);
        assert_eq!(eng.now(), SimTime::from_secs(5));
        assert_eq!(eng.pending(), 1);
    }

    #[test]
    fn stop_at_time_fires_events_exactly_at_horizon() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_secs(5), Ev::Tag("edge"));
        let mut sim = Recorder::default();
        eng.run_until(&mut sim, StopCondition::AtTime(SimTime::from_secs(5)));
        assert_eq!(sim.log.len(), 1);
    }

    #[test]
    fn stop_at_time_on_drained_queue_advances_clock() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), Ev::Tag("only"));
        let mut sim = Recorder::default();
        let outcome = eng.run_until(&mut sim, StopCondition::AtTime(SimTime::from_secs(30)));
        assert_eq!(outcome, RunOutcome::QueueExhausted);
        assert_eq!(eng.now(), SimTime::from_secs(30));
    }

    #[test]
    fn stop_after_event_count() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, Ev::Chain(100));
        let mut sim = Recorder::default();
        let outcome = eng.run_until(&mut sim, StopCondition::EventCount(10));
        assert_eq!(outcome, RunOutcome::StoppedEarly);
        assert_eq!(sim.log.len(), 10);
    }

    #[test]
    fn handler_requested_stop() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), Ev::Tag("go"));
        eng.schedule_at(SimTime::from_secs(2), Ev::Tag("stop-here"));
        eng.schedule_at(SimTime::from_secs(3), Ev::Tag("never"));
        let mut sim = Recorder {
            stop_at_tag: Some("stop-here"),
            ..Default::default()
        };
        let outcome = eng.run(&mut sim);
        assert_eq!(outcome, RunOutcome::StoppedEarly);
        assert_eq!(sim.log.len(), 2);
    }

    #[test]
    fn run_can_resume_after_early_stop() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), Ev::Tag("a"));
        eng.schedule_at(SimTime::from_secs(10), Ev::Tag("b"));
        let mut sim = Recorder::default();
        eng.run_until(&mut sim, StopCondition::AtTime(SimTime::from_secs(5)));
        eng.run(&mut sim);
        assert_eq!(sim.log.len(), 2);
        assert_eq!(eng.now(), SimTime::from_secs(10));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut eng = Engine::new();
        let head = eng.schedule_at(SimTime::from_secs(1), Ev::Tag("head"));
        eng.schedule_at(SimTime::from_secs(2), Ev::Tag("next"));
        eng.cancel(head);
        assert_eq!(eng.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn ctx_pending_lets_periodic_activities_self_terminate() {
        // A "sampler" that re-arms itself only while other events exist.
        struct Sampler {
            ticks: u32,
        }
        impl Simulation for Sampler {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
                if let Ev::Tag("tick") = ev {
                    self.ticks += 1;
                    if ctx.pending() > 0 {
                        ctx.schedule_after(SimDuration::from_secs(10), Ev::Tag("tick"));
                    }
                }
            }
        }
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_secs(10), Ev::Tag("tick"));
        eng.schedule_at(SimTime::from_secs(35), Ev::Tag("work"));
        let mut sim = Sampler { ticks: 0 };
        let outcome = eng.run(&mut sim);
        assert_eq!(outcome, RunOutcome::QueueExhausted);
        // Ticks at 10, 20, 30 re-arm (work pending); the tick at 40 sees an
        // empty queue and stops — the run drains instead of looping forever.
        assert_eq!(sim.ticks, 4);
        assert_eq!(eng.now(), SimTime::from_secs(40));
    }

    #[test]
    fn stream_source_is_bit_identical_to_schedule_at_loop() {
        let items = |n: u64| {
            (0..n).map(|i| {
                (
                    SimTime::from_secs(1 + i / 2), // duplicate timestamps on purpose
                    Ev::Chain(0),
                )
            })
        };
        let run = |streamed: bool| {
            let mut eng = Engine::new();
            if streamed {
                eng.schedule_stream(8, items(8));
            } else {
                for (at, ev) in items(8) {
                    eng.schedule_at(at, ev);
                }
            }
            // Later scheduling must sort behind stream events at equal times.
            eng.schedule_at(SimTime::from_secs(2), Ev::Tag("late"));
            let mut sim = Recorder::default();
            eng.run(&mut sim);
            (sim.log, eng.delivered())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn stream_reservation_keeps_pending_exact() {
        let mut eng = Engine::new();
        eng.schedule_stream(
            5,
            (0..5u64).map(|i| (SimTime::from_secs(i + 1), Ev::Tag("s"))),
        );
        assert_eq!(eng.pending(), 5);
        let mut sim = Recorder::default();
        assert!(eng.step(&mut sim));
        assert_eq!(eng.pending(), 4);
        eng.run(&mut sim);
        assert_eq!(eng.pending(), 0);
        assert!(eng.is_empty());
        assert_eq!(sim.log.len(), 5);
    }

    #[test]
    #[should_panic(expected = "fewer events than declared")]
    fn stream_shorter_than_declared_panics() {
        let mut eng = Engine::new();
        eng.schedule_stream(
            3,
            (0..2u64).map(|i| (SimTime::from_secs(i + 1), Ev::Tag("s"))),
        );
        let mut sim = Recorder::default();
        eng.run(&mut sim);
    }

    #[test]
    fn stream_interleaves_with_handler_scheduling() {
        // A handler chain scheduled mid-run must merge with stream events in
        // (time, seq) order exactly as it would against the same arrivals
        // scheduled one by one.
        let arrivals = |n: u64| (0..n).map(|i| (SimTime::from_secs(2 * i), Ev::Tag("arrive")));
        let run = |streamed: bool| {
            let mut eng = Engine::new();
            if streamed {
                eng.schedule_stream(6, arrivals(6));
            } else {
                for (at, ev) in arrivals(6) {
                    eng.schedule_at(at, ev);
                }
            }
            eng.schedule_at(SimTime::from_secs(1), Ev::Chain(4));
            let mut sim = Recorder::default();
            eng.run(&mut sim);
            sim.log
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn schedule_now_runs_after_peers_at_same_instant() {
        struct S {
            order: Vec<&'static str>,
        }
        impl Simulation for S {
            type Event = Ev;
            fn handle(&mut self, ctx: &mut Ctx<Ev>, ev: Ev) {
                if let Ev::Tag(t) = ev {
                    self.order.push(t);
                    if t == "a" {
                        ctx.schedule_now(Ev::Tag("injected"));
                    }
                }
            }
        }
        let mut eng = Engine::new();
        let t = SimTime::from_secs(1);
        eng.schedule_at(t, Ev::Tag("a"));
        eng.schedule_at(t, Ev::Tag("b"));
        let mut sim = S { order: vec![] };
        eng.run(&mut sim);
        assert_eq!(sim.order, vec!["a", "b", "injected"]);
    }
}
