//! Per-modality behaviour profiles and the population mix.
//!
//! A [`ModalityProfile`] bundles everything the generator needs to emit one
//! user's stream for one modality: arrival process shape, job-size and
//! runtime distributions, estimate padding, data sizes, and the structural
//! extras (ensemble widths, workflow shapes, RC kernel choices).
//!
//! Defaults are shaped by the parallel-workload-archive literature: heavy-
//! tailed log-normal runtimes, power-of-two core counts, office-hour
//! diurnality for human-driven modalities, Zipf-skewed per-user activity.

use crate::dag::DagShape;
use crate::modality::Modality;
use serde::{Deserialize, Serialize};
use tg_des::dist::DistKind;
use tg_des::param::Rule;

/// Which arrival process a profile uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
#[serde(deny_unknown_fields)]
pub enum ArrivalKind {
    /// Homogeneous Poisson.
    Poisson,
    /// Diurnal/weekly-modulated Poisson.
    Diurnal {
        /// Peak-to-trough rate ratio (≥ 1).
        day_night_ratio: f64,
        /// Hour of day of the peak (0–24).
        peak_hour: f64,
        /// Weekend rate multiplier in (0, 1].
        weekend_factor: f64,
    },
    /// Two-state MMPP (bursty).
    Bursty {
        /// Burst-to-quiet rate ratio (> 1).
        burst_ratio: f64,
        /// Mean quiet-state duration, seconds.
        mean_quiet_s: f64,
        /// Mean burst-state duration, seconds.
        mean_burst_s: f64,
    },
}

/// Reconfigurable-task parameters within a profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct RcTaskProfile {
    /// Zipf exponent over the configuration library (popularity skew).
    pub config_zipf_s: f64,
    /// Distribution of hardware-over-software speedups.
    pub speedup: DistKind,
    /// Fraction of tasks carrying a deadline.
    pub deadline_fraction: f64,
    /// Deadline slack factor: deadline = hw_runtime × factor (sampled).
    pub deadline_slack: DistKind,
}

/// Everything needed to generate one modality's job stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ModalityProfile {
    /// The modality this profile describes.
    pub modality: Modality,
    /// Base submissions per user per day (scaled by user activity). For
    /// ensemble/workflow modalities this is *instances* per day, each
    /// expanding to many jobs.
    pub per_user_per_day: f64,
    /// Arrival process shape.
    pub arrival: ArrivalKind,
    /// Core-count choices and weights.
    pub cores_weights: Vec<(usize, f64)>,
    /// Runtime distribution, seconds.
    pub runtime: DistKind,
    /// Estimate padding multiplier distribution (≥ 1 enforced at use).
    pub estimate_factor: DistKind,
    /// Input staging size, MB.
    pub input_mb: DistKind,
    /// Output staging size, MB.
    pub output_mb: DistKind,
    /// Probability the user pins their home site instead of letting the
    /// metascheduler choose.
    pub site_pinned_prob: f64,
    /// Ensemble width distribution (ensemble modality only).
    pub ensemble_width: Option<DistKind>,
    /// Workflow shapes with selection weights (workflow modality only).
    pub dag_shapes: Vec<(DagShape, f64)>,
    /// RC task parameters (RC modality only).
    pub rc: Option<RcTaskProfile>,
}

impl ModalityProfile {
    /// The literature-shaped default profile for `modality`.
    pub fn default_for(modality: Modality) -> Self {
        let base = ModalityProfile {
            modality,
            per_user_per_day: 1.0,
            arrival: ArrivalKind::Poisson,
            cores_weights: vec![(1, 1.0)],
            runtime: DistKind::LogNormal {
                mean: 3600.0,
                cv: 1.5,
            },
            estimate_factor: DistKind::Uniform { lo: 1.0, hi: 3.0 },
            input_mb: DistKind::LogNormal {
                mean: 100.0,
                cv: 2.0,
            },
            output_mb: DistKind::LogNormal {
                mean: 200.0,
                cv: 2.0,
            },
            site_pinned_prob: 0.5,
            ensemble_width: None,
            dag_shapes: Vec::new(),
            rc: None,
        };
        match modality {
            Modality::BatchComputing => ModalityProfile {
                per_user_per_day: 1.5,
                arrival: ArrivalKind::Diurnal {
                    day_night_ratio: 2.0,
                    peak_hour: 14.0,
                    weekend_factor: 0.7,
                },
                cores_weights: vec![
                    (16, 20.0),
                    (32, 20.0),
                    (64, 18.0),
                    (128, 15.0),
                    (256, 12.0),
                    (512, 8.0),
                    (1024, 5.0),
                    (4096, 2.0), // hero-class runs
                ],
                runtime: DistKind::LogNormal {
                    mean: 4.0 * 3600.0,
                    cv: 1.8,
                },
                site_pinned_prob: 0.7,
                ..base
            },
            Modality::Interactive => ModalityProfile {
                per_user_per_day: 8.0,
                arrival: ArrivalKind::Diurnal {
                    day_night_ratio: 6.0,
                    peak_hour: 14.0,
                    weekend_factor: 0.3,
                },
                cores_weights: vec![(1, 40.0), (2, 25.0), (4, 20.0), (8, 15.0)],
                runtime: DistKind::LogNormal {
                    mean: 600.0,
                    cv: 1.0,
                },
                estimate_factor: DistKind::Uniform { lo: 2.0, hi: 6.0 },
                site_pinned_prob: 0.95, // interactive users live on one machine
                ..base
            },
            Modality::ScienceGateway => ModalityProfile {
                per_user_per_day: 5.0,
                arrival: ArrivalKind::Diurnal {
                    day_night_ratio: 4.0,
                    peak_hour: 15.0,
                    weekend_factor: 0.5,
                },
                cores_weights: vec![(1, 30.0), (2, 20.0), (4, 20.0), (8, 18.0), (16, 12.0)],
                runtime: DistKind::LogNormal {
                    mean: 1800.0,
                    cv: 1.2,
                },
                site_pinned_prob: 0.2, // the gateway brokers placement
                ..base
            },
            Modality::Workflow => ModalityProfile {
                per_user_per_day: 0.25,
                arrival: ArrivalKind::Bursty {
                    burst_ratio: 20.0,
                    mean_quiet_s: 6.0 * 3600.0,
                    mean_burst_s: 1800.0,
                },
                cores_weights: vec![(1, 25.0), (4, 25.0), (16, 25.0), (64, 25.0)],
                runtime: DistKind::LogNormal {
                    mean: 3600.0,
                    cv: 1.0,
                },
                site_pinned_prob: 0.1, // the engine metaschedules
                dag_shapes: vec![
                    (DagShape::Chain { n: 6 }, 3.0),
                    (
                        DagShape::ForkJoin {
                            width: 8,
                            stages: 2,
                        },
                        3.0,
                    ),
                    (
                        DagShape::Layered {
                            layers: 4,
                            width: 6,
                            fan_in: 2,
                        },
                        4.0,
                    ),
                ],
                ..base
            },
            Modality::Ensemble => ModalityProfile {
                per_user_per_day: 0.15,
                arrival: ArrivalKind::Poisson,
                cores_weights: vec![(1, 40.0), (2, 30.0), (4, 30.0)],
                runtime: DistKind::LogNormal {
                    mean: 3600.0,
                    cv: 0.6,
                },
                ensemble_width: Some(DistKind::LogNormal {
                    mean: 60.0,
                    cv: 1.0,
                }),
                site_pinned_prob: 0.3,
                ..base
            },
            Modality::DataMovement => ModalityProfile {
                per_user_per_day: 3.0,
                arrival: ArrivalKind::Diurnal {
                    day_night_ratio: 2.0,
                    peak_hour: 11.0,
                    weekend_factor: 0.8,
                },
                cores_weights: vec![(1, 1.0)],
                runtime: DistKind::LogNormal {
                    mean: 300.0,
                    cv: 0.8,
                },
                input_mb: DistKind::Pareto {
                    xm: 1_000.0,
                    alpha: 1.3,
                },
                output_mb: DistKind::Pareto {
                    xm: 2_000.0,
                    alpha: 1.3,
                },
                site_pinned_prob: 0.4,
                ..base
            },
            Modality::RcAccelerated => ModalityProfile {
                per_user_per_day: 12.0,
                arrival: ArrivalKind::Poisson, // machine-driven
                cores_weights: vec![(1, 1.0)],
                runtime: DistKind::LogNormal {
                    mean: 1200.0,
                    cv: 1.0,
                },
                site_pinned_prob: 1.0, // RC tasks go where the fabric is
                rc: Some(RcTaskProfile {
                    config_zipf_s: 1.1,
                    speedup: DistKind::Uniform { lo: 4.0, hi: 40.0 },
                    deadline_fraction: 0.5,
                    deadline_slack: DistKind::Uniform { lo: 3.0, hi: 12.0 },
                }),
                ..base
            },
        }
    }

    /// Check every field the generator samples from or indexes into, and the
    /// extras its modality needs (ensemble widths, workflow shapes, RC task
    /// parameters). The error names the field's path within the profile,
    /// e.g. `arrival.mean_quiet_s: …` or `cores_weights[2]: …`.
    pub fn validate(&self) -> Result<(), String> {
        use Rule::{AtLeast, NonNegative, Positive, Probability};
        let dist = |name: &str, d: &DistKind| d.validate().map_err(|e| format!("{name}.{e}"));

        NonNegative.check("per_user_per_day", self.per_user_per_day)?;
        match self.arrival {
            ArrivalKind::Poisson => {}
            ArrivalKind::Diurnal {
                day_night_ratio,
                peak_hour,
                weekend_factor,
            } => {
                AtLeast(1.0).check("arrival.day_night_ratio", day_night_ratio)?;
                NonNegative.check("arrival.peak_hour", peak_hour)?;
                if peak_hour >= 24.0 {
                    return Err(format!("arrival.peak_hour: must be < 24, got {peak_hour}"));
                }
                Positive.check("arrival.weekend_factor", weekend_factor)?;
                Probability.check("arrival.weekend_factor", weekend_factor)?;
            }
            ArrivalKind::Bursty {
                burst_ratio,
                mean_quiet_s,
                mean_burst_s,
            } => {
                Positive.check("arrival.burst_ratio", burst_ratio)?;
                Positive.check("arrival.mean_quiet_s", mean_quiet_s)?;
                Positive.check("arrival.mean_burst_s", mean_burst_s)?;
                // The generator solves the state rates through this sum.
                if !(mean_quiet_s + burst_ratio * mean_burst_s).is_finite() {
                    return Err(
                        "arrival: mean_quiet_s + burst_ratio × mean_burst_s must be finite".into(),
                    );
                }
            }
        }
        if self.cores_weights.is_empty() {
            return Err("cores_weights: needs at least one (cores, weight) entry".into());
        }
        for (k, &(cores, weight)) in self.cores_weights.iter().enumerate() {
            if cores == 0 {
                return Err(format!("cores_weights[{k}]: core count must be positive"));
            }
            Positive.check(&format!("cores_weights[{k}]"), weight)?;
        }
        dist("runtime", &self.runtime)?;
        dist("estimate_factor", &self.estimate_factor)?;
        dist("input_mb", &self.input_mb)?;
        dist("output_mb", &self.output_mb)?;
        Probability.check("site_pinned_prob", self.site_pinned_prob)?;
        match &self.ensemble_width {
            Some(d) => dist("ensemble_width", d)?,
            None if self.modality == Modality::Ensemble => {
                return Err("ensemble_width: required for the ensemble modality".into())
            }
            None => {}
        }
        if self.modality == Modality::Workflow && self.dag_shapes.is_empty() {
            return Err("dag_shapes: the workflow modality needs at least one shape".into());
        }
        for (k, &(shape, weight)) in self.dag_shapes.iter().enumerate() {
            if !shape.is_valid() {
                return Err(format!("dag_shapes[{k}]: every size must be at least 1"));
            }
            Positive.check(&format!("dag_shapes[{k}]"), weight)?;
        }
        match &self.rc {
            Some(rc) => {
                NonNegative.check("rc.config_zipf_s", rc.config_zipf_s)?;
                dist("rc.speedup", &rc.speedup)?;
                Probability.check("rc.deadline_fraction", rc.deadline_fraction)?;
                dist("rc.deadline_slack", &rc.deadline_slack)?;
            }
            None if self.modality == Modality::RcAccelerated => {
                return Err("rc: required for the RC-accelerated modality".into())
            }
            None => {}
        }
        Ok(())
    }

    /// All default profiles, in [`Modality::ALL`] order.
    pub fn all_defaults() -> Vec<ModalityProfile> {
        Modality::ALL
            .iter()
            .map(|&m| ModalityProfile::default_for(m))
            .collect()
    }
}

/// How many users practice each modality, plus population-level skew knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PopulationMix {
    /// Users per modality, in [`Modality::ALL`] order.
    pub users_per_modality: [usize; Modality::ALL.len()],
    /// Number of projects users are spread across.
    pub projects: usize,
    /// Zipf exponent of the per-user activity skew (0 = uniform).
    pub activity_zipf_s: f64,
    /// Number of science gateways sharing the gateway users.
    pub gateways: usize,
}

impl PopulationMix {
    /// The baseline-scenario mix: gateway users dominate user counts, batch
    /// users dominate consumed core-hours — the asymmetry the paper's
    /// measurement program exists to expose.
    pub fn baseline(total_users: usize) -> Self {
        // Shares of the user population per modality.
        let shares = [
            (Modality::BatchComputing, 0.22),
            (Modality::Interactive, 0.12),
            (Modality::ScienceGateway, 0.40),
            (Modality::Workflow, 0.08),
            (Modality::Ensemble, 0.08),
            (Modality::DataMovement, 0.06),
            (Modality::RcAccelerated, 0.04),
        ];
        let mut users = [0usize; Modality::ALL.len()];
        for (m, share) in shares {
            users[m.index()] = ((total_users as f64) * share).round() as usize;
        }
        PopulationMix {
            users_per_modality: users,
            projects: (total_users / 8).max(1),
            activity_zipf_s: 1.0,
            gateways: 6,
        }
    }

    /// Total user count.
    pub fn total_users(&self) -> usize {
        self.users_per_modality.iter().sum()
    }

    /// Set the user count for one modality (builder style).
    pub fn with_users(mut self, m: Modality, count: usize) -> Self {
        self.users_per_modality[m.index()] = count;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_exist_for_every_modality() {
        for m in Modality::ALL {
            let p = ModalityProfile::default_for(m);
            assert_eq!(p.modality, m);
            assert!(p.per_user_per_day > 0.0);
            assert!(!p.cores_weights.is_empty());
            assert!(p.cores_weights.iter().all(|&(c, w)| c > 0 && w > 0.0));
        }
        assert_eq!(ModalityProfile::all_defaults().len(), Modality::ALL.len());
    }

    #[test]
    fn defaults_validate() {
        for p in ModalityProfile::all_defaults() {
            assert_eq!(p.validate(), Ok(()), "{:?}", p.modality);
        }
    }

    #[test]
    fn validate_names_the_bad_field() {
        type Mutation = fn(&mut ModalityProfile);
        let cases: &[(Modality, Mutation, &str)] = &[
            (
                Modality::BatchComputing,
                |p| p.per_user_per_day = f64::NAN,
                "per_user_per_day:",
            ),
            (
                Modality::Workflow,
                |p| {
                    p.arrival = ArrivalKind::Bursty {
                        burst_ratio: 20.0,
                        mean_quiet_s: 600.0,
                        mean_burst_s: f64::INFINITY,
                    }
                },
                "arrival.mean_burst_s:",
            ),
            (
                Modality::Workflow,
                |p| {
                    p.arrival = ArrivalKind::Bursty {
                        burst_ratio: 1e300,
                        mean_quiet_s: 600.0,
                        mean_burst_s: 1e300,
                    }
                },
                "arrival: mean_quiet_s + burst_ratio",
            ),
            (
                Modality::Interactive,
                |p| {
                    p.arrival = ArrivalKind::Diurnal {
                        day_night_ratio: 2.0,
                        peak_hour: 24.0,
                        weekend_factor: 0.5,
                    }
                },
                "arrival.peak_hour:",
            ),
            (
                Modality::Interactive,
                |p| p.cores_weights[0].0 = 0,
                "cores_weights[0]: core count",
            ),
            (
                Modality::Interactive,
                |p| p.cores_weights[1].1 = f64::NAN,
                "cores_weights[1]:",
            ),
            (
                Modality::BatchComputing,
                |p| {
                    p.output_mb = DistKind::Pareto {
                        xm: 1.0,
                        alpha: f64::NEG_INFINITY,
                    }
                },
                "output_mb.alpha:",
            ),
            (
                Modality::Ensemble,
                |p| p.ensemble_width = None,
                "ensemble_width: required",
            ),
            (
                Modality::Workflow,
                |p| p.dag_shapes.clear(),
                "dag_shapes: the workflow",
            ),
            (
                Modality::Workflow,
                |p| {
                    p.dag_shapes[1].0 = DagShape::ForkJoin {
                        width: 0,
                        stages: 2,
                    }
                },
                "dag_shapes[1]: every size",
            ),
            (Modality::RcAccelerated, |p| p.rc = None, "rc: required"),
            (
                Modality::RcAccelerated,
                |p| p.rc.as_mut().expect("rc").deadline_fraction = -0.1,
                "rc.deadline_fraction:",
            ),
        ];
        for &(m, mutate, want) in cases {
            let mut p = ModalityProfile::default_for(m);
            mutate(&mut p);
            let err = p.validate().expect_err(want);
            assert!(err.starts_with(want), "want `{want}…`, got `{err}`");
        }
    }

    #[test]
    fn structural_extras_only_where_expected() {
        for m in Modality::ALL {
            let p = ModalityProfile::default_for(m);
            assert_eq!(p.ensemble_width.is_some(), m == Modality::Ensemble);
            assert_eq!(!p.dag_shapes.is_empty(), m == Modality::Workflow);
            assert_eq!(p.rc.is_some(), m == Modality::RcAccelerated);
        }
    }

    #[test]
    fn baseline_mix_shares() {
        let mix = PopulationMix::baseline(1000);
        assert_eq!(mix.total_users(), 1000);
        let gw = mix.users_per_modality[Modality::ScienceGateway.index()];
        let batch = mix.users_per_modality[Modality::BatchComputing.index()];
        assert!(gw > batch, "gateway users dominate the population");
        assert!(mix.projects >= 1);
        assert!(mix.gateways >= 1);
    }

    #[test]
    fn with_users_overrides() {
        let mix = PopulationMix::baseline(100).with_users(Modality::RcAccelerated, 50);
        assert_eq!(mix.users_per_modality[Modality::RcAccelerated.index()], 50);
    }

    #[test]
    fn tagged_variants_reject_unknown_keys() {
        let parse = |json: &str| serde_json::from_str::<ArrivalKind>(json);
        assert_eq!(
            parse(r#"{"kind": "poisson"}"#).unwrap(),
            ArrivalKind::Poisson
        );
        let bursty = r#"{"kind": "bursty", "burst_ratio": 20.0, "mean_quiet_s": 60.0,
            "mean_burst_s": 6.0"#;
        assert!(
            parse(&format!("{bursty}}}")).is_ok(),
            "the tag key is allowed"
        );
        let err = parse(&format!(r#"{bursty}, "mean_quiet": 1.0}}"#)).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown field `mean_quiet` in variant ArrivalKind::Bursty"),
            "{err}"
        );
        let err = parse(r#"{"kind": "poisson", "rate": 1.0}"#).unwrap_err();
        assert!(
            err.to_string()
                .contains("unknown field `rate` in variant ArrivalKind::Poisson"),
            "{err}"
        );
    }

    #[test]
    fn profiles_serde_roundtrip() {
        let p = ModalityProfile::default_for(Modality::Workflow);
        let json = serde_json::to_string(&p).unwrap();
        let back: ModalityProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
