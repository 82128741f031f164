//! Workflow DAG shapes.
//!
//! Generates the dependency skeletons workflow engines submit. Three shapes
//! cover the common cases in the workflow-workload literature:
//!
//! * [`DagShape::Chain`] — sequential pipelines.
//! * [`DagShape::ForkJoin`] — split/process/merge (map-reduce style).
//! * [`DagShape::Layered`] — Montage-like random layered DAGs where each
//!   task depends on a random subset of the previous layer.
//!
//! Output is edge lists over task indices `0..n` with the invariant that
//! every edge goes from a lower to a higher index — acyclicity by
//! construction, verified by tests.

use serde::{Deserialize, Serialize};
use tg_des::SimRng;

/// A workflow skeleton: task count plus dependency edges `(from, to)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagSkeleton {
    /// Number of tasks.
    pub tasks: usize,
    /// Dependency edges; `to` cannot start before `from` completes.
    pub edges: Vec<(usize, usize)>,
}

impl DagSkeleton {
    /// Direct dependencies of task `t`.
    pub fn deps_of(&self, t: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|&&(_, to)| to == t)
            .map(|&(from, _)| from)
            .collect()
    }

    /// Tasks with no dependencies (the entry layer).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.tasks)
            .filter(|&t| !self.edges.iter().any(|&(_, to)| to == t))
            .collect()
    }

    /// Length of the longest dependency chain (the DAG's critical-path hop
    /// count), computed by DP over the topological (index) order.
    pub fn critical_path_len(&self) -> usize {
        if self.tasks == 0 {
            return 0;
        }
        let mut depth = vec![1usize; self.tasks];
        for &(from, to) in &self.edges {
            // Edges always point forward, so a single pass in index order is
            // a valid topological relaxation as long as we iterate edges
            // sorted by `to`.
            debug_assert!(from < to);
            depth[to] = depth[to].max(depth[from] + 1);
        }
        depth.into_iter().max().unwrap_or(0)
    }

    /// Validate the forward-edge invariant.
    pub fn is_acyclic_by_construction(&self) -> bool {
        self.edges
            .iter()
            .all(|&(from, to)| from < to && to < self.tasks)
    }
}

/// The supported workflow shapes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "shape", rename_all = "snake_case")]
#[serde(deny_unknown_fields)]
pub enum DagShape {
    /// `n` tasks in a sequential chain.
    Chain {
        /// Number of tasks (≥ 1).
        n: usize,
    },
    /// A fork-join: one source, `width` parallel tasks per stage for
    /// `stages` stages (joined between stages), one sink.
    ForkJoin {
        /// Parallel width per stage (≥ 1).
        width: usize,
        /// Number of parallel stages (≥ 1).
        stages: usize,
    },
    /// Random layered DAG: `layers` layers of `width` tasks; each task
    /// depends on 1..=fan_in random tasks of the previous layer.
    Layered {
        /// Number of layers (≥ 1).
        layers: usize,
        /// Tasks per layer (≥ 1).
        width: usize,
        /// Maximum dependencies per task on the previous layer (≥ 1).
        fan_in: usize,
    },
}

impl DagShape {
    /// Number of tasks this shape expands to (independent of the RNG).
    pub fn task_count(&self) -> usize {
        match *self {
            DagShape::Chain { n } => n,
            DagShape::ForkJoin { width, stages } => width * stages + 2,
            DagShape::Layered { layers, width, .. } => layers * width,
        }
    }

    /// Whether every size parameter is at least 1, as [`DagShape::generate`]
    /// requires.
    pub fn is_valid(&self) -> bool {
        match *self {
            DagShape::Chain { n } => n >= 1,
            DagShape::ForkJoin { width, stages } => width >= 1 && stages >= 1,
            DagShape::Layered {
                layers,
                width,
                fan_in,
            } => layers >= 1 && width >= 1 && fan_in >= 1,
        }
    }

    /// Generate the skeleton (deterministic given `rng` state).
    pub fn generate(&self, rng: &mut SimRng) -> DagSkeleton {
        assert!(
            self.is_valid(),
            "DAG shape sizes must be at least 1: {self:?}"
        );
        match *self {
            DagShape::Chain { n } => {
                let edges = (1..n).map(|i| (i - 1, i)).collect();
                DagSkeleton { tasks: n, edges }
            }
            DagShape::ForkJoin { width, stages } => {
                // Index layout: 0 = source; then per stage `width` workers;
                // then sink. Stages are joined through synthetic join tasks
                // only if stages > 1 — we join directly worker→worker of
                // the next stage via an all-to-all, which preserves the
                // barrier semantics without extra tasks.
                let mut edges = Vec::new();
                let worker = |stage: usize, i: usize| 1 + stage * width + i;
                for i in 0..width {
                    edges.push((0, worker(0, i)));
                }
                for s in 1..stages {
                    for i in 0..width {
                        for j in 0..width {
                            edges.push((worker(s - 1, i), worker(s, j)));
                        }
                    }
                }
                let sink = 1 + stages * width;
                for i in 0..width {
                    edges.push((worker(stages - 1, i), sink));
                }
                DagSkeleton {
                    tasks: sink + 1,
                    edges,
                }
            }
            DagShape::Layered {
                layers,
                width,
                fan_in,
            } => {
                let mut edges = Vec::new();
                let task = |layer: usize, i: usize| layer * width + i;
                for l in 1..layers {
                    for i in 0..width {
                        let k = rng.int_range(1, fan_in.min(width) as u64) as usize;
                        // Choose k distinct parents from the previous layer.
                        let mut parents: Vec<usize> = (0..width).collect();
                        rng.shuffle(&mut parents);
                        for &p in parents.iter().take(k) {
                            edges.push((task(l - 1, p), task(l, i)));
                        }
                    }
                }
                edges.sort_unstable_by_key(|&(_, to)| to);
                DagSkeleton {
                    tasks: layers * width,
                    edges,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_shape() {
        let mut rng = SimRng::seeded(1);
        let d = DagShape::Chain { n: 5 }.generate(&mut rng);
        assert_eq!(d.tasks, 5);
        assert_eq!(d.edges, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(d.roots(), vec![0]);
        assert_eq!(d.critical_path_len(), 5);
        assert!(d.is_acyclic_by_construction());
        assert_eq!(d.deps_of(3), vec![2]);
    }

    #[test]
    fn single_task_chain() {
        let mut rng = SimRng::seeded(1);
        let d = DagShape::Chain { n: 1 }.generate(&mut rng);
        assert_eq!(d.tasks, 1);
        assert!(d.edges.is_empty());
        assert_eq!(d.critical_path_len(), 1);
    }

    #[test]
    fn fork_join_shape() {
        let mut rng = SimRng::seeded(2);
        let d = DagShape::ForkJoin {
            width: 3,
            stages: 2,
        }
        .generate(&mut rng);
        // 1 source + 2*3 workers + 1 sink = 8 tasks.
        assert_eq!(d.tasks, 8);
        assert_eq!(d.roots(), vec![0]);
        // Critical path: source → w0 → w1 → sink = 4 hops.
        assert_eq!(d.critical_path_len(), 4);
        assert!(d.is_acyclic_by_construction());
        // Sink depends on all stage-2 workers.
        assert_eq!(d.deps_of(7).len(), 3);
        // Stage-2 workers depend on all stage-1 workers (barrier).
        assert_eq!(d.deps_of(4).len(), 3);
    }

    #[test]
    fn layered_shape_respects_fan_in_and_layers() {
        let mut rng = SimRng::seeded(3);
        let d = DagShape::Layered {
            layers: 4,
            width: 5,
            fan_in: 2,
        }
        .generate(&mut rng);
        assert_eq!(d.tasks, 20);
        assert!(d.is_acyclic_by_construction());
        assert_eq!(d.critical_path_len(), 4);
        // First layer are roots.
        let roots = d.roots();
        assert_eq!(roots, vec![0, 1, 2, 3, 4]);
        // Every non-root task has 1..=2 deps, all from the previous layer.
        for t in 5..20 {
            let deps = d.deps_of(t);
            assert!((1..=2).contains(&deps.len()), "task {t}: {deps:?}");
            let layer = t / 5;
            for p in deps {
                assert_eq!(p / 5, layer - 1, "dep crosses more than one layer");
            }
        }
    }

    #[test]
    fn layered_deps_are_distinct() {
        let mut rng = SimRng::seeded(4);
        let d = DagShape::Layered {
            layers: 3,
            width: 4,
            fan_in: 4,
        }
        .generate(&mut rng);
        for t in 0..d.tasks {
            let mut deps = d.deps_of(t);
            let n = deps.len();
            deps.sort_unstable();
            deps.dedup();
            assert_eq!(deps.len(), n, "duplicate dependency on task {t}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let gen = |seed| {
            let mut rng = SimRng::seeded(seed);
            DagShape::Layered {
                layers: 5,
                width: 6,
                fan_in: 3,
            }
            .generate(&mut rng)
        };
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }
}
