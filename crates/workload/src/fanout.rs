//! The generator's fan-out: per-user work spread over every core.
//!
//! Every user draws from its own RNG stream and ids feed no draw, so each
//! user's generation is independent of every other's. Both generation
//! paths exploit that the same way: the population is cut into chunks of
//! [`CHUNK`] users, worker threads take chunks from one shared queue
//! (population order keeps the costly workflow users together, so fixed
//! splits would be unbalanced), and whatever depends on earlier users —
//! id bases, gateway round-robin — is settled outside the fan-out, where
//! population order is known.
//!
//! A default fan-out's helper threads come from one process-wide budget
//! of `available_parallelism − 1`, and the calling thread always works.
//! The budget caps helpers on top of the callers' own threads: fan-outs
//! started at once from a P-thread sweep pool peak at 2P − 1 threads, not
//! P², and a fan-out that finds the budget spent simply runs on its
//! caller.

use crate::generator::WorkloadGenerator;
use crate::user::User;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

/// Users per unit of fan-out work: small enough that the costly workflow
/// users, which sit together in population order, spread over the
/// workers; large enough that taking a chunk costs nothing next to
/// generating its users.
pub(crate) const CHUNK: usize = 64;

/// The machine's parallelism: the default worker count of a fan-out.
fn available_workers() -> usize {
    thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Helper threads not currently lent to a fan-out, process-wide. The
/// count publishes no other data, so its read-modify-writes are `Relaxed`.
fn budget() -> &'static AtomicUsize {
    static FREE: OnceLock<AtomicUsize> = OnceLock::new();
    FREE.get_or_init(|| AtomicUsize::new(available_workers() - 1))
}

/// The threads one fan-out runs on: the caller's plus its helpers. Helpers
/// taken from the process-wide budget go back when the crew is dropped.
pub(crate) struct Crew {
    /// Helper threads the crew spawns.
    helpers: usize,
    /// Of those, the ones taken from the budget.
    borrowed: usize,
}

impl Crew {
    /// The default crew: the caller plus whatever helpers the budget has
    /// left, up to `available_parallelism − 1`. Never waits.
    pub(crate) fn from_budget() -> Self {
        let want = available_workers() - 1;
        let free = budget()
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n - n.min(want))
            })
            .expect("the update closure never declines");
        let helpers = free.min(want);
        Crew {
            helpers,
            borrowed: helpers,
        }
    }

    /// A crew of exactly `workers` threads (at least one: the caller's),
    /// whatever the budget holds and without touching it, so a test runs
    /// the thread count it names on any machine.
    #[cfg(test)]
    pub(crate) fn exactly(workers: usize) -> Self {
        Crew {
            helpers: workers.saturating_sub(1),
            borrowed: 0,
        }
    }

    /// Threads in the crew, the caller's included.
    pub(crate) fn size(&self) -> usize {
        self.helpers + 1
    }

    /// Run `work` once per item, each thread taking the next item from a
    /// shared queue and carrying its own `scratch` state across the items
    /// it takes. Which thread takes which item is up to the scheduler, so
    /// `work` must not care.
    pub(crate) fn run<I, S>(
        &self,
        items: I,
        scratch: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, I::Item) + Sync,
    ) where
        I: ExactSizeIterator + Send,
        I::Item: Send,
    {
        let spawned = self.helpers.min(items.len().saturating_sub(1));
        let queue = Mutex::new(items);
        let worker = || {
            let mut state = scratch();
            loop {
                let next = queue
                    .lock()
                    .expect("fan-out workers never panic while holding the queue")
                    .next();
                let Some(item) = next else {
                    return;
                };
                work(&mut state, item);
            }
        };
        thread::scope(|s| {
            for _ in 0..spawned {
                s.spawn(worker);
            }
            worker();
        });
    }

    /// Run `work` on every [`CHUNK`] of `users`, each chunk paired with its
    /// users' slots of `slots` (one slot per user, in population order).
    pub(crate) fn run_chunks<O: Send, S>(
        &self,
        gen: &WorkloadGenerator,
        users: &[User],
        slots: &mut [O],
        scratch: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, UserChunk<'_>, &mut [O]) + Sync,
    ) {
        assert_eq!(slots.len(), users.len(), "one slot per user");
        // `gateway_for` is a draw-free counter in population order, so each
        // chunk's starting count is known before the fan-out.
        let mut gw_counter = 0usize;
        let chunks: Vec<UserChunk<'_>> = users
            .chunks(CHUNK)
            .map(|users| {
                let gateways_before = gw_counter;
                for user in users {
                    gen.gateway_for(user, &mut gw_counter);
                }
                UserChunk {
                    users,
                    gateways_before,
                }
            })
            .collect();
        self.run(
            chunks.into_iter().zip(slots.chunks_mut(CHUNK)),
            scratch,
            |state, (chunk, slots)| work(state, chunk, slots),
        );
    }
}

impl Drop for Crew {
    fn drop(&mut self) {
        budget().fetch_add(self.borrowed, Ordering::Relaxed);
    }
}

/// One unit of fan-out work: [`CHUNK`] consecutive users (fewer in the
/// last chunk).
pub(crate) struct UserChunk<'a> {
    /// The chunk's users, in population order.
    pub users: &'a [User],
    /// Gateway users before the chunk in population order: the chunk's
    /// starting `gateway_for` count.
    pub gateways_before: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crew_sizes() {
        assert_eq!(Crew::exactly(1).size(), 1, "one worker means no helpers");
        assert_eq!(Crew::exactly(0).size(), 1, "the caller always works");
        assert_eq!(
            Crew::exactly(5).size(),
            5,
            "an exact crew ignores the budget"
        );
        let crew = Crew::from_budget();
        assert!(crew.size() <= available_workers());
    }

    #[test]
    fn every_item_is_worked_exactly_once() {
        let crew = Crew::exactly(4);
        let mut hits = vec![0u32; 1000];
        crew.run(
            hits.chunks_mut(7),
            || (),
            |_, part| {
                for h in part {
                    *h += 1;
                }
            },
        );
        assert!(hits.iter().all(|&h| h == 1));
        crew.run(std::iter::empty::<()>(), || (), |_, _| unreachable!());
    }
}
