//! Lazy, seed-derived streaming workload generation.
//!
//! [`WorkloadGenerator::generate`] materializes every job up front; at
//! million-user scale that footprint dominates peak RSS. This module
//! produces the *identical* job sequence one job at a time:
//!
//! 1. **Per-user cursors.** One `UserGen` per user draws the home site and
//!    the arrival instants up front (~8 bytes per arrival, versus hundreds
//!    per materialized job) and draws job fields lazily as each arrival is
//!    pulled. The draw *order* within the user's stream is unchanged —
//!    all arrivals first, then per-arrival job fields — so every sampled
//!    value matches the materialized path bit for bit.
//! 2. **Counting prepass.** A clone of each fresh cursor is drained with
//!    the jobs discarded, yielding how many job, workflow, and ensemble ids
//!    the user will take. The clone starts from the cursor's post-arrival
//!    RNG state, so it makes the same per-arrival draws the cursor will
//!    make later, and the arrival process is walked once per user. Each
//!    user draws from its own RNG stream and ids feed no draw, so this
//!    per-user work is independent: it runs on every core, each cursor
//!    built at a zero id base, on the same fan-out as the materialized
//!    generator. Workers take chunks of 64 users from a shared queue
//!    (population order keeps the costly workflow users together, so fixed
//!    splits would be unbalanced) and write each cursor into its slot of
//!    one population-ordered vector.
//! 3. **Id assembly.** One sequential pass in population order prefix-sums
//!    the counts and rebases each cursor, so each user owns the contiguous
//!    block of each id space the global counters of the materialized path
//!    would have given it. Gateway identities come from a draw-free
//!    round-robin counter, so each chunk's starting count is taken before
//!    the fan-out. The result is the same whatever the worker count.
//! 4. **K-way merge.** Arrival instants strictly increase within a user
//!    and every job in an arrival's block shares its submit time with
//!    contiguous ascending ids, so each cursor emits blocks already sorted
//!    by `(submit_time, id)`, and block id-ranges are globally disjoint. A
//!    heap over `(next submit time, next id)` therefore reproduces the
//!    materialized `(submit_time, id)` sort exactly.
//!
//! The cost is one extra pass over each user's per-arrival job fields (the
//! prepass; arrival instants are drawn once) and the resident cursors;
//! what it buys is that pending jobs never exist all at once. Of this
//! path, only the prepass is parallel (the materialized generator fans out
//! its emission, rebase and sort too): the merge, and the run that pulls
//! from it, stay on the calling thread.

use crate::fanout::Crew;
use crate::generator::{IdCursor, UserGen, WorkloadGenerator};
use crate::job::Job;
use crate::user::Population;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tg_des::dist::Zipf;
use tg_des::{RngFactory, SimTime};

/// A lazily generated workload: the population and exact job count are
/// known up front (the simulation needs both before the first event), but
/// the jobs themselves materialize one at a time from [`StreamedWorkload::stream`].
pub struct StreamedWorkload {
    /// The user population behind the jobs (identical to the materialized
    /// path's).
    pub population: Population,
    /// Exact number of jobs the stream will yield.
    pub total_jobs: usize,
    /// The job stream, sorted by `(submit_time, id)`.
    pub stream: WorkloadStream,
}

/// Iterator over the merged per-user job streams. Yields every job the
/// materialized generator would produce, in the same order, holding only
/// per-user cursors plus one arrival block in memory.
pub struct WorkloadStream {
    gen: WorkloadGenerator,
    rc_zipf: Option<Zipf>,
    cursors: Vec<UserGen>,
    /// Min-heap of `(next submit time, next job id, cursor index)` — the
    /// head of each non-exhausted cursor.
    heap: BinaryHeap<Reverse<(SimTime, usize, usize)>>,
    /// The current arrival block in reverse, so that `pop` delivers it
    /// front to back. One buffer, refilled in place for every arrival.
    block: Vec<Job>,
    emitted: usize,
}

impl WorkloadGenerator {
    /// Generate the population and a lazy job stream. The stream yields a
    /// job sequence bit-identical to [`WorkloadGenerator::generate`] at the
    /// same seed (see the module docs for why), without ever materializing
    /// the whole workload. The counting prepass runs on the caller's
    /// thread plus whatever helpers the process-wide budget of
    /// [`std::thread::available_parallelism`] − 1 has free.
    pub fn generate_streaming(&self, factory: &RngFactory) -> StreamedWorkload {
        self.generate_streaming_on(factory, Crew::from_budget())
    }

    /// [`WorkloadGenerator::generate_streaming`] with the prepass on
    /// `crew`'s threads. The output does not depend on the crew's size.
    pub(crate) fn generate_streaming_on(
        &self,
        factory: &RngFactory,
        crew: Crew,
    ) -> StreamedWorkload {
        let population = self.population();
        let users = &population.users;
        let rc_zipf = self.rc_zipf();
        let mut slots: Vec<Option<UserGen>> = Vec::new();
        slots.resize_with(users.len(), || None);
        crew.run_chunks(
            self,
            users,
            &mut slots,
            Vec::new,
            |scratch: &mut Vec<Job>, chunk, slots| {
                let mut gw_counter = chunk.gateways_before;
                for (slot, user) in slots.iter_mut().zip(chunk.users) {
                    let gateway = self.gateway_for(user, &mut gw_counter);
                    *slot = Some(UserGen::counted(
                        self,
                        user,
                        factory,
                        gateway,
                        rc_zipf.as_ref(),
                        scratch,
                    ));
                }
            },
        );

        // Assembly in population order. Mapping the slot vector in place
        // makes the cursor vector reuse its allocation.
        let mut ids = IdCursor::default();
        let mut heap = BinaryHeap::with_capacity(users.len());
        let cursors: Vec<UserGen> = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let mut cursor = slot.expect("every chunk was taken by a worker");
                ids = cursor.rebase(ids);
                if let Some(t) = cursor.peek_time() {
                    heap.push(Reverse((t, cursor.ids().next_job, i)));
                }
                cursor
            })
            .collect();

        let total_jobs = ids.next_job;
        StreamedWorkload {
            population,
            total_jobs,
            stream: WorkloadStream {
                gen: self.clone(),
                rc_zipf,
                cursors,
                heap,
                block: Vec::new(),
                emitted: 0,
            },
        }
    }
}

impl WorkloadStream {
    /// Jobs yielded so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    fn refill(&mut self) {
        let Some(Reverse((_, _, idx))) = self.heap.pop() else {
            return;
        };
        let cursor = &mut self.cursors[idx];
        debug_assert!(self.block.is_empty(), "refilled before the block drained");
        let produced = cursor.emit_next(&self.gen, self.rc_zipf.as_ref(), &mut self.block);
        debug_assert!(produced, "heaped cursor had no arrival left");
        self.block.reverse();
        if let Some(t) = cursor.peek_time() {
            self.heap.push(Reverse((t, cursor.ids().next_job, idx)));
        }
    }
}

impl Iterator for WorkloadStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        while self.block.is_empty() {
            if self.heap.is_empty() {
                return None;
            }
            self.refill();
        }
        self.emitted += 1;
        self.block.pop()
    }
}

/// A materialized workload viewed as the same kind of stream — used by
/// trace-replay paths that already hold the jobs but want to feed the
/// engine's lazy scheduling interface.
pub fn drain_sorted(jobs: Vec<Job>) -> impl Iterator<Item = Job> + Send {
    debug_assert!(jobs
        .windows(2)
        .all(|w| (w[0].submit_time, w[0].id) <= (w[1].submit_time, w[1].id)));
    jobs.into_iter()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fanout::CHUNK;
    use crate::generator::GeneratorConfig;
    use crate::modality::Modality;

    fn cfg() -> GeneratorConfig {
        let mut cfg = GeneratorConfig::baseline(140, 14, 3);
        cfg.mix.activity_zipf_s = 0.8;
        cfg
    }

    #[test]
    fn streamed_equals_materialized() {
        for seed in [1u64, 7, 42] {
            let gen = WorkloadGenerator::new(cfg());
            let materialized = gen.generate(&RngFactory::new(seed));
            let streamed = gen.generate_streaming(&RngFactory::new(seed));
            assert_eq!(streamed.population.users, materialized.population.users);
            assert_eq!(streamed.total_jobs, materialized.jobs.len());
            let jobs: Vec<Job> = streamed.stream.collect();
            assert_eq!(jobs, materialized.jobs, "seed {seed}");
        }
    }

    #[test]
    fn stream_covers_every_modality() {
        let gen = WorkloadGenerator::new(cfg());
        let streamed = gen.generate_streaming(&RngFactory::new(2));
        let jobs: Vec<Job> = streamed.stream.collect();
        for m in Modality::ALL {
            assert!(jobs.iter().any(|j| j.true_modality == m), "no {m} jobs");
        }
    }

    /// Every block a cursor emits, each paired with the `peek_time` seen
    /// before it, and where the id counters stand once it is exhausted.
    type Drained = (Vec<(Option<SimTime>, Vec<Job>)>, IdCursor);

    fn drain(gen: &WorkloadGenerator, rc_zipf: Option<&Zipf>, mut g: UserGen) -> Drained {
        let mut blocks = Vec::new();
        loop {
            let at = g.peek_time();
            let mut out = Vec::new();
            if !g.emit_next(gen, rc_zipf, &mut out) {
                assert!(at.is_none() && out.is_empty());
                return (blocks, g.ids());
            }
            blocks.push((at, out));
        }
    }

    fn sparse_year(users: usize) -> GeneratorConfig {
        let mut cfg = GeneratorConfig::baseline(users, 365, 3);
        for p in &mut cfg.profiles {
            p.per_user_per_day *= 0.0016;
        }
        cfg.data = Some(tg_data::DatasetAssignment {
            count: 6,
            zipf_s: 1.1,
            attach: Modality::ALL
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name().to_string(), 0.2 + 0.1 * i as f64))
                .collect(),
        });
        cfg
    }

    /// The streaming prepass drains a clone of each cursor instead of a
    /// second `UserGen::new`; that is only sound if a clone emits exactly
    /// what a rebuild does. Checked for every modality, with RC sites and a
    /// dataset assignment (the per-job `data_zipf` draws ride the user
    /// stream), at a sparse million-style rate over a year so that bursty
    /// users walk many quiet states before their first arrival.
    #[test]
    fn cloned_cursor_equals_rebuilt_cursor() {
        let gen = WorkloadGenerator::new(sparse_year(1000));
        let factory = RngFactory::new(17);
        let rc_zipf = gen.rc_zipf();
        let population = gen.population();
        let mut ids = IdCursor::default();
        let mut gw_counter = 0usize;
        let mut nonempty = [0usize; Modality::ALL.len()];
        let mut with_dataset = 0usize;
        for user in &population.users {
            let gateway = gen.gateway_for(user, &mut gw_counter);
            let built = UserGen::new(&gen, user, &factory, ids, gateway);
            let cloned = built.clone();
            let rebuilt = UserGen::new(&gen, user, &factory, ids, gateway);
            let want = drain(&gen, rc_zipf.as_ref(), rebuilt);
            assert_eq!(drain(&gen, rc_zipf.as_ref(), built), want, "{:?}", user.id);
            assert_eq!(drain(&gen, rc_zipf.as_ref(), cloned), want, "{:?}", user.id);
            if !want.0.is_empty() {
                nonempty[user.modality.index()] += 1;
            }
            with_dataset += want
                .0
                .iter()
                .flat_map(|(_, b)| b)
                .filter(|j| j.dataset.is_some())
                .count();
            ids = want.1;
        }
        for m in Modality::ALL {
            assert!(
                nonempty[m.index()] > 0,
                "no {m} user emitted a block: {nonempty:?}"
            );
        }
        assert!(with_dataset > 0, "no job drew a dataset");
    }

    /// The prepass fans out over workers that take chunks in whatever order
    /// the threads run; ids are assigned afterwards in population order, so
    /// no worker count may change the population, the job count or a job.
    /// Covered: several chunks with RC users and dataset draws, a
    /// population smaller than one chunk, and an empty one.
    #[test]
    fn worker_count_does_not_change_the_stream() {
        let factory = RngFactory::new(23);
        for (users, chunks) in [(400, 7), (CHUNK / 2, 1), (0, 0)] {
            let gen = WorkloadGenerator::new(sparse_year(users));
            let materialized = gen.generate(&factory);
            let built = materialized.population.users.len();
            assert_eq!(
                built.div_ceil(CHUNK),
                chunks,
                "{users} users built as {built}"
            );
            if users > 0 {
                assert!(materialized.jobs_of(Modality::RcAccelerated).count() > 0);
                assert!(materialized.jobs.iter().any(|j| j.dataset.is_some()));
            }
            for workers in [1, 2, 3, 5] {
                let streamed = gen.generate_streaming_on(&factory, Crew::exactly(workers));
                assert_eq!(streamed.population.users, materialized.population.users);
                assert_eq!(streamed.total_jobs, materialized.jobs.len());
                let jobs: Vec<Job> = streamed.stream.collect();
                assert_eq!(jobs, materialized.jobs, "{users} users, {workers} workers");
            }
        }
    }

    #[test]
    fn emitted_counts_match_declared_total() {
        let gen = WorkloadGenerator::new(cfg());
        let streamed = gen.generate_streaming(&RngFactory::new(3));
        let declared = streamed.total_jobs;
        let mut stream = streamed.stream;
        let n = stream.by_ref().count();
        assert_eq!(n, declared);
        assert_eq!(stream.emitted(), declared);
        assert!(stream.next().is_none(), "stream stays exhausted");
    }
}
