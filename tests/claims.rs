//! The reconstructed evaluation's claims, checked at a small scale.
//!
//! Each test runs one experiment of `tg_bench::exp` at `Scale::Quick` over
//! two or three seeds and asserts that every claim check it returns holds,
//! plus a few shape bounds read from its artifact. The full-scale runs
//! (`exp all`) check the same claims on the published artifacts; these keep
//! a change that flips a headline result from passing the test suite.
//!
//! Every bound below states the margin it had when it was set. A bound
//! that starts failing is a finding about the simulator, to be recorded in
//! EXPERIMENTS.md, not a number to loosen. F3's scheduler ordering is
//! covered by `tests/policy_ordering.rs` and data locality by
//! `crates/core/tests/data.rs`, so neither is repeated here.

use tg_bench::exp::{f1, f2, r1, t1, t2, t5, t6, Outcome, Scale};

/// Run `run` at quick scale for each seed offset, assert every check holds
/// and hand back the outcomes for artifact bounds.
fn holds(run: fn(Scale) -> Outcome, seeds: u64) -> Vec<Outcome> {
    (0..seeds)
        .map(|seed| {
            let o = run(Scale::Quick(seed));
            let failed: Vec<_> = o.failures().collect();
            assert!(failed.is_empty(), "{} seed {seed}: {failed:#?}", o.artifact);
            assert!(!o.checks.is_empty(), "{} makes no checks", o.artifact);
            o
        })
        .collect()
}

fn f64_at(v: &serde_json::Value) -> f64 {
    v.as_f64().expect("a number")
}

#[test]
fn t1_gateways_lead_users_batch_leads_nus() {
    // Checked: 60 gateway vs 33 batch users; the gateway users appear as 6
    // accounts; the metric counters match the records.
    for o in holds(t1::run, 3) {
        // Batch's NU share: 83.6–84.2% at the three quick seeds, 81.7% at
        // full scale.
        assert!(f64_at(&o.json["nu_share"][0]) > 0.5);
    }
}

#[test]
fn t2_attributes_make_the_classifier() {
    for o in holds(t2::run, 3) {
        // Checked: with-attributes macro-F1 ≥ 0.85 (quick seeds 0.992–0.994,
        // full 0.991) and records-only at least 0.2 below it (quick
        // 0.404–0.449, full 0.450). Gateway and RC F1 with attributes are
        // 1.000 at every quick seed and at full scale.
        let with = &o.json["modes"][0]["per_class_f1"];
        for (name, i) in [("gateway", 2), ("rc", 6)] {
            assert!(f64_at(&with[i]) >= 0.99, "{name} F1 {:?}", with[i]);
        }
    }
}

#[test]
fn r1_accuracy_never_rises_with_ingest_loss() {
    for o in holds(r1::run, 3) {
        let points = o.json["points"].as_array().expect("points");
        // On the records it still sees, the classifier stays sharp: ≥ 0.94
        // at 20% loss at every quick seed (0.9434 at full scale).
        for p in points {
            assert!(f64_at(&p["modes"][0]["accuracy_on_covered"]) >= 0.9);
        }
        // The measured shares drift as losses mount: the L1 drift at 20%
        // loss is 3.6–4.3× the drift at 5% at the quick seeds (3.9× full).
        let drift = |i: usize| f64_at(&points[i]["job_share_l1_drift"]);
        assert!(drift(4) > 2.0 * drift(1), "{} vs {}", drift(4), drift(1));
    }
}

#[test]
fn t6_slack_is_zero_at_one_site_and_grows_with_load() {
    // Two seeds: T6 is the slowest quick run (~3 s each in debug). At 20
    // requests per point its growth with site count is noisy (one quick
    // seed reads 4,322 s at 2 sites and 2,600 s at 3), so only the
    // site-count check of the full run gates that claim.
    for seed in 0..2 {
        let o = t6::run(Scale::Quick(seed));
        for name in ["t6.single_site_slack_is_zero", "t6.slack_grows_with_load"] {
            assert!(o.get(name).ok, "seed {seed}: {:?}", o.get(name));
        }
        for p in o.json.as_array().expect("points") {
            if p["sites"].as_u64() == Some(1) {
                assert_eq!(f64_at(&p["p95_slack_s"]), 0.0);
            }
        }
    }
}

#[test]
fn f1_batch_stays_the_largest_nu_consumer() {
    // Batch holds 75.0–84.5% of the last quick quarter's NUs (80.7% at
    // full scale); the gateway share grows 0.6–1.4% → 3.6–5.8%.
    holds(f1::run, 3);
}

#[test]
fn f2_hero_tail_lives_only_in_batch() {
    // Batch P99 is 4,096 cores at every seed; no other job exceeds 64.
    holds(f2::run, 3);
}

#[test]
fn t5_naive_surveys_miss_gateway_users() {
    // Naive surveys see 10.2–15.9% gateway users against a true 40.0%;
    // weighting cuts the L1 error by 54–64% (69% at full scale).
    holds(t5::run, 3);
}
