//! End-to-end pipeline tests spanning every crate: generate → split → train
//! → evaluate → recommend.

use clapf::core::{Clapf, ClapfConfig};
use clapf::data::split::{Protocol, SplitStrategy};
use clapf::data::synthetic::{generate, WorldConfig};
use clapf::data::{Interactions, UserId};
use clapf::metrics::{evaluate_serial, BulkScorer, EvalConfig, EvalReport};
use clapf::mf::image::{ImageKind, ImageReader, ImageWriter};
use clapf::{DssMode, DssSampler, Recommender, UniformSampler};
use clapf_baselines::PopRank;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn world(seed: u64) -> Interactions {
    generate(
        &WorldConfig {
            n_users: 120,
            n_items: 200,
            target_pairs: 3_600,
            ..WorldConfig::default()
        },
        &mut SmallRng::seed_from_u64(seed),
    )
    .unwrap()
}

fn eval(model: &dyn Recommender, train: &Interactions, test: &Interactions) -> EvalReport {
    struct A<'a>(&'a dyn Recommender);
    impl BulkScorer for A<'_> {
        fn scores_into(&self, u: UserId, out: &mut Vec<f32>) {
            self.0.scores_into(u, out)
        }
    }
    evaluate_serial(&A(model), train, test, &EvalConfig::at_5())
}

#[test]
fn clapf_beats_popularity_on_planted_structure() {
    let data = world(1);
    let fold = &Protocol::default().folds(&data).unwrap()[0];

    let pop = PopRank.fit(&fold.train);
    let pop_report = eval(&pop, &fold.train, &fold.test);

    let mut rng = SmallRng::seed_from_u64(2);
    let trainer = Clapf::new(ClapfConfig {
        dim: 10,
        iterations: 100 * fold.train.n_pairs(),
        ..ClapfConfig::map(0.4)
    });
    let mut sampler = DssSampler::dss(DssMode::Map);
    let (model, fit) = trainer.fit(&fold.train, &mut sampler, &mut rng);
    assert!(!fit.diverged);
    let clapf_report = eval(&model, &fold.train, &fold.test);

    assert!(
        clapf_report.ndcg_at(5) > pop_report.ndcg_at(5),
        "CLAPF NDCG@5 {} should beat PopRank {}",
        clapf_report.ndcg_at(5),
        pop_report.ndcg_at(5)
    );
    assert!(
        clapf_report.map > pop_report.map,
        "CLAPF MAP {} should beat PopRank {}",
        clapf_report.map,
        pop_report.map
    );
    assert!(clapf_report.auc > 0.7, "AUC = {}", clapf_report.auc);
}

#[test]
fn recommendations_exclude_training_items_and_rank_by_score() {
    let data = world(3);
    let fold = &Protocol::default().folds(&data).unwrap()[0];
    let mut rng = SmallRng::seed_from_u64(4);
    let trainer = Clapf::new(ClapfConfig {
        dim: 8,
        iterations: 10_000,
        ..ClapfConfig::mrr(0.2)
    });
    let (model, _) = trainer.fit(&fold.train, &mut UniformSampler, &mut rng);

    for u in (0..data.n_users()).step_by(17) {
        let user = UserId(u);
        let recs = model.recommend(user, 10, Some(&fold.train));
        // No training item leaks into the list.
        for &i in &recs {
            assert!(!fold.train.contains(user, i), "{user} recommended seen {i}");
        }
        // The list is sorted by descending model score.
        for w in recs.windows(2) {
            assert!(
                model.score(user, w[0]) >= model.score(user, w[1]),
                "list not sorted for {user}"
            );
        }
    }
}

#[test]
fn model_round_trips_through_the_image() {
    let data = world(5);
    let mut rng = SmallRng::seed_from_u64(6);
    let trainer = Clapf::new(ClapfConfig {
        dim: 6,
        iterations: 5_000,
        ..ClapfConfig::map(0.4)
    });
    let (model, _) = trainer.fit(&data, &mut UniformSampler, &mut rng);

    let bytes = ImageWriter::new(ImageKind::Bundle, &model.mf).finish();
    let (restored, rest) = ImageReader::open(&bytes, ImageKind::Bundle).expect("decode");
    rest.finish().expect("the model tables are the whole image");
    for u in data.users() {
        for i in data.items() {
            assert_eq!(
                model.mf.score(u, i).to_bits(),
                restored.score(u, i).to_bits()
            );
        }
    }
}

#[test]
fn protocol_folds_are_usable_end_to_end() {
    let data = world(7);
    let folds = Protocol {
        repeats: 3,
        train_fraction: 0.5,
        strategy: SplitStrategy::GlobalPairs,
        base_seed: 11,
    }
    .folds(&data)
    .unwrap();
    assert_eq!(folds.len(), 3);
    let mut ndcgs = Vec::new();
    for fold in &folds {
        let mut rng = SmallRng::seed_from_u64(fold.seed);
        let trainer = Clapf::new(ClapfConfig {
            dim: 6,
            iterations: 8_000,
            ..ClapfConfig::map(0.4)
        });
        let (model, _) = trainer.fit(&fold.train, &mut UniformSampler, &mut rng);
        let report = eval(&model, &fold.train, &fold.test);
        assert!(report.n_users > 0);
        ndcgs.push(report.ndcg_at(5));
    }
    // Folds differ, so metrics differ (but all are meaningful).
    assert!(ndcgs.iter().all(|&x| x > 0.0));
    assert!(ndcgs.windows(2).any(|w| w[0] != w[1]));
}
