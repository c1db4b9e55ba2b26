//! Invariants that span crate boundaries.

use clapf::core::objective::{map_lower_bound, smoothed_ap};
use clapf::core::{Clapf, ClapfConfig};
use clapf::data::synthetic::{generate, WorldConfig};
use clapf::data::{Interactions, UserId};
use clapf::{DssMode, DssSampler, Recommender, TripleSampler, UniformSampler};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn world(seed: u64) -> Interactions {
    generate(
        &WorldConfig {
            n_users: 80,
            n_items: 140,
            target_pairs: 2_000,
            ..WorldConfig::default()
        },
        &mut SmallRng::seed_from_u64(seed),
    )
    .unwrap()
}

/// The smoothed-MAP bound of Sec 4.1 holds on *trained model scores*, not
/// just synthetic vectors: ln(smoothed AP_u) ≥ bound for every user.
#[test]
fn map_bound_holds_on_trained_model() {
    let data = world(1);
    let mut rng = SmallRng::seed_from_u64(2);
    let trainer = Clapf::new(ClapfConfig {
        dim: 8,
        iterations: 20_000,
        ..ClapfConfig::map(0.4)
    });
    let (model, _) = trainer.fit(&data, &mut UniformSampler, &mut rng);
    for u in data.users() {
        let scores: Vec<f32> = data
            .items_of(u)
            .iter()
            .map(|&i| model.mf.score(u, i))
            .collect();
        if scores.is_empty() {
            continue;
        }
        let bound = map_lower_bound(&scores);
        let value = smoothed_ap(&scores).ln();
        assert!(
            bound <= value + 1e-6,
            "bound violated for {u}: {bound} > {value}"
        );
    }
}

/// Training CLAPF-MAP should *raise* the average smoothed AP of the
/// training users relative to the untrained model.
#[test]
fn training_raises_smoothed_ap() {
    let data = world(3);
    let make = |iterations: usize| {
        let mut rng = SmallRng::seed_from_u64(4);
        let trainer = Clapf::new(ClapfConfig {
            dim: 8,
            iterations,
            ..ClapfConfig::map(0.4)
        });
        trainer.fit(&data, &mut UniformSampler, &mut rng).0
    };
    let avg_ap = |model: &clapf::core::ClapfModel| -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for u in data.users() {
            let scores: Vec<f32> = data
                .items_of(u)
                .iter()
                .map(|&i| model.mf.score(u, i))
                .collect();
            if !scores.is_empty() {
                total += smoothed_ap(&scores);
                n += 1;
            }
        }
        total / n as f64
    };
    let before = avg_ap(&make(1));
    let after = avg_ap(&make(30_000));
    assert!(
        after > before,
        "smoothed AP did not improve: {before} → {after}"
    );
}

/// DSS triples drawn against a *trained* model still satisfy the class
/// membership contract (i, k observed; j unobserved) for every user.
#[test]
fn dss_membership_on_trained_model() {
    let data = world(5);
    let mut rng = SmallRng::seed_from_u64(6);
    let trainer = Clapf::new(ClapfConfig {
        dim: 8,
        iterations: 15_000,
        ..ClapfConfig::map(0.4)
    });
    let mut sampler = DssSampler::dss(DssMode::Map);
    let (model, _) = trainer.fit(&data, &mut sampler, &mut rng);
    sampler.refresh(&model.mf);
    for u in data.users().take(40) {
        let degree = data.degree_of_user(u);
        if degree == 0 || degree >= data.n_items() as usize {
            continue; // no triple exists for empty or saturated users
        }
        for _ in 0..20 {
            let t = sampler.sample(&data, &model.mf, u, &mut rng).unwrap();
            assert!(data.contains(u, t.i));
            assert!(data.contains(u, t.k));
            assert!(!data.contains(u, t.j));
        }
    }
}

/// λ = 0 with identical RNG streams must produce *identical* models under
/// both CLAPF modes (both reduce to BPR), across sampler types.
#[test]
fn lambda_zero_mode_equivalence() {
    let data = world(7);
    let fit = |mode_map: bool| {
        let mut rng = SmallRng::seed_from_u64(8);
        let base = if mode_map {
            ClapfConfig::map(0.0)
        } else {
            ClapfConfig::mrr(0.0)
        };
        let trainer = Clapf::new(ClapfConfig {
            dim: 6,
            iterations: 6_000,
            ..base
        });
        trainer.fit(&data, &mut UniformSampler, &mut rng).0
    };
    let a = fit(true);
    let b = fit(false);
    for u in (0..data.n_users()).step_by(11) {
        for i in (0..data.n_items()).step_by(13) {
            assert_eq!(
                a.mf.score(UserId(u), clapf::ItemId(i)),
                b.mf.score(UserId(u), clapf::ItemId(i)),
            );
        }
    }
}

/// `Recommender::recommend` agrees with the metrics crate's ranking.
#[test]
fn recommend_agrees_with_metrics_ranking() {
    let data = world(9);
    let mut rng = SmallRng::seed_from_u64(10);
    let trainer = Clapf::new(ClapfConfig {
        dim: 6,
        iterations: 5_000,
        ..ClapfConfig::mrr(0.3)
    });
    let (model, _) = trainer.fit(&data, &mut UniformSampler, &mut rng);
    for u in (0..data.n_users()).step_by(19) {
        let user = UserId(u);
        let mut scores = Vec::new();
        model.scores_into(user, &mut scores);
        let mut via_metrics = Vec::new();
        clapf::metrics::top_k_into(&scores, 8, |i| !data.contains(user, i), &mut via_metrics);
        let via_recommend = model.recommend(user, 8, Some(&data));
        assert_eq!(via_metrics, via_recommend, "mismatch for {user}");
    }
}
