//! Property-based tests for workload generation: structural invariants
//! under arbitrary population mixes, arrival-process monotonicity, DAG
//! acyclicity, SWF-parser robustness against arbitrary input, and the
//! paged label table against an ordered-map reference.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use tg_data::DatasetAssignment;
use tg_des::{RngFactory, SimDuration, SimRng, SimTime};
use tg_workload::arrival::{arrivals_in, ArrivalProcess, DiurnalPoisson, Mmpp2, Poisson};
use tg_workload::dag::DagShape;
use tg_workload::swf;
use tg_workload::{
    GeneratorConfig, JobId, Labels, Modality, ModalityProfile, PopulationMix, WorkloadGenerator,
};

fn arb_mix() -> impl Strategy<Value = PopulationMix> {
    (
        prop::collection::vec(0usize..25, Modality::ALL.len()),
        1usize..20,
        0.0f64..1.5,
        1usize..6,
    )
        .prop_map(|(users, projects, zipf, gateways)| {
            let mut mix = PopulationMix {
                users_per_modality: [0; Modality::ALL.len()],
                projects,
                activity_zipf_s: zipf,
                gateways,
            };
            for (i, &u) in users.iter().enumerate() {
                mix.users_per_modality[i] = u;
            }
            // At least one user somewhere.
            if mix.total_users() == 0 {
                mix.users_per_modality[0] = 1;
            }
            mix
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Whatever the mix, the generated stream is sorted, ids are dense and
    /// unique, estimates bound runtimes, and structural markers match
    /// ground truth.
    #[test]
    fn generator_structural_invariants(mix in arb_mix(), seed in any::<u64>(), days in 1u64..4) {
        let rc_users = mix.users_per_modality[Modality::RcAccelerated.index()];
        let cfg = GeneratorConfig {
            horizon: SimDuration::from_days(days),
            mix,
            profiles: ModalityProfile::all_defaults(),
            sites: 3,
            rc_sites: if rc_users > 0 { vec![tg_model::SiteId(2)] } else { vec![] },
            rc_config_count: if rc_users > 0 { 5 } else { 0 },
            data: None,
        };
        let w = WorkloadGenerator::new(cfg).generate(&RngFactory::new(seed));
        let horizon = SimTime::ZERO + SimDuration::from_days(days);
        let mut prev: Option<(SimTime, tg_workload::JobId)> = None;
        let mut ids: Vec<usize> = Vec::with_capacity(w.jobs.len());
        for j in &w.jobs {
            if let Some(p) = prev {
                prop_assert!((j.submit_time, j.id) > p, "stream not strictly ordered");
            }
            prev = Some((j.submit_time, j.id));
            ids.push(j.id.index());
            prop_assert!(j.submit_time < horizon);
            prop_assert!(j.estimate >= j.runtime);
            prop_assert!(j.cores >= 1);
            prop_assert!(j.runtime > SimDuration::ZERO);
            match j.true_modality {
                Modality::ScienceGateway => prop_assert!(j.gateway.is_some()),
                Modality::Workflow => prop_assert!(j.workflow.is_some()),
                Modality::Ensemble => prop_assert!(j.ensemble.is_some()),
                Modality::RcAccelerated => {
                    let rc = j.rc.expect("rc requirement");
                    prop_assert!(rc.config.index() < 5);
                    prop_assert!(rc.speedup >= 1.0);
                }
                _ => prop_assert!(j.rc.is_none() && j.workflow.is_none()),
            }
        }
        // Ids are exactly 0..n (dense) — sorting the stream by id gives a
        // permutation of the index range.
        ids.sort_unstable();
        for (expect, got) in ids.iter().enumerate() {
            prop_assert_eq!(expect, *got);
        }
    }

    /// Workflow dependencies always point backwards within the same
    /// workflow instance.
    #[test]
    fn workflow_deps_point_backwards(seed in any::<u64>()) {
        let mut mix = PopulationMix::baseline(0);
        mix.users_per_modality = [0; Modality::ALL.len()];
        mix.users_per_modality[Modality::Workflow.index()] = 10;
        let cfg = GeneratorConfig {
            horizon: SimDuration::from_days(5),
            mix,
            profiles: ModalityProfile::all_defaults(),
            sites: 1,
            rc_sites: vec![],
            rc_config_count: 0,
            data: None,
        };
        let w = WorkloadGenerator::new(cfg).generate(&RngFactory::new(seed));
        let by_id: std::collections::HashMap<_, _> =
            w.jobs.iter().map(|j| (j.id, j)).collect();
        for j in &w.jobs {
            for d in &j.deps {
                prop_assert!(d < &j.id);
                prop_assert_eq!(by_id[d].workflow, j.workflow);
            }
        }
    }
}

proptest! {
    /// All arrival processes produce strictly increasing instants.
    #[test]
    fn arrivals_strictly_increase(
        seed in any::<u64>(),
        rate in 1.0f64..2000.0,
        kind in 0usize..3,
    ) {
        let mut rng = SimRng::seeded(seed);
        let mut process: Box<dyn ArrivalProcess> = match kind {
            0 => Box::new(Poisson::per_day(rate)),
            1 => Box::new(DiurnalPoisson::new(rate, 3.0, 12.0, 0.5)),
            _ => Box::new(Mmpp2::new(rate / 86_400.0, rate / 8_640.0, 3600.0, 600.0)),
        };
        let arrivals = arrivals_in(
            process.as_mut(),
            SimTime::ZERO,
            SimTime::from_days(2),
            &mut rng,
        );
        for w in arrivals.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Random layered DAGs are acyclic with correct layer counts.
    #[test]
    fn layered_dags_are_acyclic(
        layers in 1usize..6,
        width in 1usize..8,
        fan_in in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seeded(seed);
        let d = DagShape::Layered { layers, width, fan_in }.generate(&mut rng);
        prop_assert!(d.is_acyclic_by_construction());
        prop_assert_eq!(d.tasks, layers * width);
        prop_assert_eq!(d.critical_path_len(), layers);
        prop_assert_eq!(d.roots().len(), width);
        prop_assert_eq!(DagShape::Layered { layers, width, fan_in }.task_count(), d.tasks);
    }

    /// The SWF parser never panics, whatever bytes it is fed.
    #[test]
    fn swf_parser_never_panics(text in "\\PC{0,400}") {
        let _ = swf::from_swf(&text);
    }

    /// Structured-ish random SWF lines either parse or error cleanly.
    #[test]
    fn swf_random_numeric_lines(fields in prop::collection::vec(-5i64..100_000, 18)) {
        let line = fields
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let result = swf::from_swf(&line);
        prop_assert!(result.is_ok(), "18 numeric fields must parse: {result:?}");
    }
}

/// No data grid, or a dataset assignment: a catalog of one or more
/// datasets, any Zipf skew, and an attach probability in `[0, 1]` for every
/// modality (both ends included; all of them zero, which leaves the
/// assignment inert, is possible but rare).
fn arb_data() -> impl Strategy<Value = Option<DatasetAssignment>> {
    prop_oneof![
        Just(None),
        (
            1usize..10,
            0.0f64..2.0,
            prop::collection::vec(
                prop_oneof![Just(0.0), 0.0f64..1.0, Just(1.0)],
                Modality::ALL.len(),
            ),
        )
            .prop_map(|(count, zipf_s, probs)| {
                Some(DatasetAssignment {
                    count,
                    zipf_s,
                    attach: Modality::ALL
                        .iter()
                        .zip(probs)
                        .map(|(m, p)| (m.name().to_string(), p))
                        .collect(),
                })
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The streaming generator emits the exact job sequence the
    /// materialized generator produces — ids, arrival times, modalities,
    /// every field — whatever the population mix, dataset assignment or
    /// seed. This is the contract the streaming simulation path's
    /// byte-identity rests on.
    #[test]
    fn streaming_equals_materialized_generation(
        mix in arb_mix(),
        data in arb_data(),
        seed in any::<u64>(),
        days in 1u64..4,
    ) {
        let rc_users = mix.users_per_modality[Modality::RcAccelerated.index()];
        let cfg = GeneratorConfig {
            horizon: SimDuration::from_days(days),
            mix,
            profiles: ModalityProfile::all_defaults(),
            sites: 3,
            rc_sites: if rc_users > 0 { vec![tg_model::SiteId(2)] } else { vec![] },
            rc_config_count: if rc_users > 0 { 5 } else { 0 },
            data,
        };
        let gen = WorkloadGenerator::new(cfg);
        let materialized = gen.generate(&RngFactory::new(seed));
        let streamed = gen.generate_streaming(&RngFactory::new(seed));
        prop_assert_eq!(&streamed.population.users, &materialized.population.users);
        prop_assert_eq!(streamed.total_jobs, materialized.jobs.len());
        let mut n = 0usize;
        for (got, want) in streamed.stream.zip(materialized.jobs.iter()) {
            prop_assert_eq!(got.id, want.id);
            prop_assert_eq!(got.submit_time, want.submit_time);
            prop_assert_eq!(got.true_modality, want.true_modality);
            prop_assert_eq!(&got, want, "full job mismatch at #{}", n);
            n += 1;
        }
        prop_assert_eq!(n, materialized.jobs.len(), "stream ended early");
    }

    /// SWF-replay inputs: the archive format truncates submit times to
    /// whole seconds (which can reorder ties) and drops sub-second-runtime
    /// jobs as cancelled records, so a replay harness re-sorts by
    /// `(submit_time, id)` before streaming. After that sort the import is
    /// a valid stream input — `stream::drain_sorted` yields it unchanged —
    /// and every surviving job keeps its id and modality label.
    #[test]
    fn swf_roundtrip_feeds_the_stream_path(mix in arb_mix(), seed in any::<u64>()) {
        let cfg = GeneratorConfig {
            horizon: SimDuration::from_days(2),
            mix,
            profiles: ModalityProfile::all_defaults(),
            sites: 3,
            rc_sites: vec![tg_model::SiteId(2)],
            rc_config_count: 5,
            data: None,
        };
        let w = WorkloadGenerator::new(cfg).generate(&RngFactory::new(seed));
        let mut imported = swf::from_swf(&swf::to_swf(&w.jobs)).expect("round trip parses");
        prop_assert!(imported.len() <= w.jobs.len());
        imported.sort_by_key(|j| (j.submit_time, j.id));
        let expect: Vec<_> = imported
            .iter()
            .map(|j| (j.submit_time, j.id, j.true_modality))
            .collect();
        let drained: Vec<_> = tg_workload::stream::drain_sorted(imported)
            .map(|j| (j.submit_time, j.id, j.true_modality))
            .collect();
        prop_assert_eq!(&drained, &expect);
        let truth: Labels = w.jobs.iter().map(|j| (j.id, j.true_modality)).collect();
        for &(_, id, modality) in &drained {
            prop_assert_eq!(truth.get(id), Some(modality), "id {:?} not in source", id);
        }
    }
}

/// Job ids in one of three layouts: dense from 0, SWF-style numbers spread
/// more than a label page (4,096 ids) apart, and numbers above 2^32.
fn arb_ids() -> impl Strategy<Value = Vec<usize>> {
    (0usize..3, prop::collection::vec(0usize..6_000, 1..64)).prop_map(|(layout, raw)| {
        raw.into_iter()
            .map(|r| match layout {
                0 => r,
                1 => r * 4_099 + 17,
                _ => (1 << 32) + r * 7,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `Labels` behaves as an ordered map from job id to modality under
    /// inserts, overwrites and removes: every result, `len` and `get`
    /// agree with a `BTreeMap` after each step, `iter` yields id order,
    /// pages exist only where labelled ids do, and equality does not
    /// depend on the order the labels arrived in.
    #[test]
    fn labels_match_an_ordered_map_reference(
        ids in arb_ids(),
        ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..7), 1..200),
    ) {
        let mut labels = Labels::default();
        let mut reference = BTreeMap::new();
        for (op, k, m) in ops {
            let id = JobId(ids[k % ids.len()]);
            if op == 0 {
                prop_assert_eq!(labels.remove(id), reference.remove(&id));
            } else {
                let m = Modality::ALL[m];
                prop_assert_eq!(labels.insert(id, m), reference.insert(id, m));
            }
            prop_assert_eq!(labels.len(), reference.len());
            prop_assert_eq!(labels.is_empty(), reference.is_empty());
            prop_assert_eq!(labels.get(id), reference.get(&id).copied());
        }
        for &i in &ids {
            for id in [JobId(i), JobId(i + 1)] {
                prop_assert_eq!(labels.get(id), reference.get(&id).copied());
            }
        }
        let want: Vec<(JobId, Modality)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(labels.iter().collect::<Vec<_>>(), want.clone());
        prop_assert!(labels.values().eq(reference.values().copied()));
        let pages: BTreeSet<usize> = reference.keys().map(|id| id.index() / 4096).collect();
        prop_assert_eq!(labels.page_count(), pages.len());
        let rebuilt: Labels = want.iter().rev().copied().collect();
        prop_assert_eq!(&rebuilt, &labels);
    }
}
