//! MPR — Multiple Pairwise Ranking (Yu et al., CIKM 2018).
//!
//! MPR relaxes BPR's single pairwise assumption with *multiple* pairwise
//! criteria over three item classes: observed `i`, "uncertain" `k` and
//! negative `j`, optimizing `ln σ(λ(f_ui − f_uk) + (1 − λ)(f_uk − f_uj))`.
//!
//! The original uses auxiliary view data for the uncertain class. The CLAPF
//! paper evaluates MPR on datasets with no view signal, so the uncertain
//! class must be derived from the data; we use the standard popularity
//! proxy: the most popular *unobserved* items are plausibly-seen-but-not-
//! chosen ("uncertain"), the long tail is treated as truly negative. The
//! uncertain pool is the most-popular half of the catalogue. This
//! substitution is recorded in DESIGN.md.

use crate::bpr::baseline_plan;
use clapf_core::checkpoint::CheckpointError;
use clapf_core::objective::sigmoid;
use clapf_core::{
    train, FactorRecommender, FitOptions, FitReport, ParallelConfig, Plan, Seed, SgdRates, Step,
    StepTally,
};
use clapf_data::{Interactions, ItemId, UserId};
use clapf_mf::{Init, SgdConfig, SharedMfModel};
use clapf_sampling::sample_observed_pair;
use rand::{Rng, RngCore};

/// MPR hyper-parameters (the paper searches λ ∈ {0.0, 0.1, …, 1.0}).
#[derive(Copy, Clone, Debug)]
pub struct MprConfig {
    /// Latent dimension.
    pub dim: usize,
    /// Tradeoff between the two pairwise criteria.
    pub lambda: f32,
    /// Learning rate and regularization.
    pub sgd: SgdConfig,
    /// Total SGD steps; `0` = automatic (`100·|P|`, capped at 8 M).
    pub iterations: usize,
    /// Parameter initialization.
    pub init: Init,
    /// Fraction of the catalogue (by popularity) forming the uncertain pool.
    pub uncertain_fraction: f64,
    /// Multi-threaded training settings for [`Mpr::fit_with`].
    pub parallel: ParallelConfig,
}

impl Default for MprConfig {
    fn default() -> Self {
        MprConfig {
            dim: 20,
            lambda: 0.4,
            sgd: SgdConfig::default(),
            iterations: 0,
            init: Init::default(),
            uncertain_fraction: 0.5,
            parallel: ParallelConfig::default(),
        }
    }
}

/// The MPR trainer.
#[derive(Copy, Clone, Debug, Default)]
pub struct Mpr {
    /// Hyper-parameters.
    pub config: MprConfig,
}

impl Mpr {
    /// Fits by SGD over (observed, uncertain, negative) triples, serially,
    /// on the caller's RNG stream.
    pub fn fit<R: Rng>(&self, data: &Interactions, rng: &mut R) -> FactorRecommender {
        let mut step = MprStep::new(&self.config, data);
        let (model, _) = train(data, &mut step, Seed::Stream(rng), FitOptions::default())
            .expect("a fit without checkpoints does no I/O");
        FactorRecommender {
            model,
            label: step.label(),
        }
    }

    /// Fits from `SmallRng::seed_from_u64(seed)` through the shared driver,
    /// with the contracts of [`Bpr::fit_with`](crate::Bpr::fit_with). The
    /// popularity pools are rebuilt deterministically from the data on
    /// every run, so a checkpoint (model + RNG state + epoch) captures the
    /// whole run.
    pub fn fit_with(
        &self,
        data: &Interactions,
        seed: u64,
        opts: FitOptions<'_>,
    ) -> Result<(FactorRecommender, FitReport), CheckpointError> {
        let mut step = MprStep::new(&self.config, data);
        let (model, report) = train(data, &mut step, Seed::Base(seed), opts)?;
        let label = step.label();
        Ok((FactorRecommender { model, label }, report))
    }
}

/// Popularity split of the catalogue into uncertain head / negative tail.
#[derive(Clone, Debug)]
struct ItemPools {
    by_pop: Vec<ItemId>,
    head: usize,
}

impl ItemPools {
    fn from_popularity(data: &Interactions, uncertain_fraction: f64) -> Self {
        let mut by_pop: Vec<ItemId> = (0..data.n_items()).map(ItemId).collect();
        let pop = data.item_popularity();
        by_pop.sort_unstable_by(|&a, &b| pop[b.index()].cmp(&pop[a.index()]).then(a.cmp(&b)));
        let head = ((data.n_items() as f64 * uncertain_fraction) as usize)
            .clamp(1, data.n_items() as usize - 1);
        ItemPools { by_pop, head }
    }

    fn uncertain(&self) -> &[ItemId] {
        &self.by_pop[..self.head]
    }

    fn negative(&self) -> &[ItemId] {
        &self.by_pop[self.head..]
    }
}

fn draw(pool: &[ItemId], data: &Interactions, u: UserId, rng: &mut dyn RngCore) -> Option<ItemId> {
    for _ in 0..64 {
        let c = pool[rng.gen_range(0..pool.len())];
        if !data.contains(u, c) {
            return Some(c);
        }
    }
    None
}

/// One MPR SGD step: `R = λ f_ui + (1 − 2λ) f_uk − (1 − λ) f_uj`.
#[derive(Clone, Debug)]
struct MprStep {
    config: MprConfig,
    pools: ItemPools,
    rates: SgdRates,
    u_old: Vec<f32>,
    grad_u: Vec<f32>,
}

impl MprStep {
    fn new(config: &MprConfig, data: &Interactions) -> Self {
        assert!(config.dim > 0, "dim must be positive");
        assert!(
            (0.0..=1.0).contains(&config.lambda),
            "lambda must be in [0, 1]"
        );
        MprStep {
            config: *config,
            pools: ItemPools::from_popularity(data, config.uncertain_fraction),
            rates: SgdRates::scaled(&config.sgd, 1.0),
            u_old: vec![0.0; config.dim],
            grad_u: vec![0.0; config.dim],
        }
    }
}

impl Step for MprStep {
    fn plan(&self, data: &Interactions) -> Plan {
        let c = &self.config;
        baseline_plan(c.dim, c.init, c.iterations, &c.parallel, data.n_pairs())
    }

    fn label(&self) -> String {
        format!("MPR(λ={:.1})", self.config.lambda)
    }

    fn sampler(&self) -> &'static str {
        "PopularityPools"
    }

    fn fingerprint(&self, plan: &Plan, seed: u64) -> Vec<(&'static str, String)> {
        let c = &self.config;
        vec![
            ("model", "MPR".to_string()),
            ("dim", c.dim.to_string()),
            // λ at full precision — the display label rounds to one decimal.
            ("lambda", format!("{}", c.lambda)),
            ("uncertain", format!("{}", c.uncertain_fraction)),
            ("sgd", format!("{:?}", c.sgd)),
            ("init", format!("{:?}", c.init)),
            ("iterations", plan.iterations.to_string()),
            ("epoch", plan.epoch_steps.to_string()),
            ("sampler", self.sampler().to_string()),
            ("seed", seed.to_string()),
        ]
    }

    fn set_lr_scale(&mut self, scale: f32) {
        self.rates = SgdRates::scaled(&self.config.sgd, scale);
    }

    fn fork(&self) -> Option<Box<dyn Step + Send>> {
        Some(Box::new(self.clone()))
    }

    #[inline]
    fn step(
        &mut self,
        shared: &SharedMfModel,
        data: &Interactions,
        rng: &mut dyn RngCore,
        tally: &mut StepTally,
    ) {
        let model = shared.view();
        let (lambda, p) = (self.config.lambda, &self.rates);
        let probe = tally.start_draw();
        let (u, i) = sample_observed_pair(data, rng);
        let drawn = draw(self.pools.uncertain(), data, u, rng)
            .and_then(|k| Some((k, draw(self.pools.negative(), data, u, rng)?)));
        tally.end_draw(probe);
        let Some((k, j)) = drawn else {
            tally.skip();
            return;
        };

        let r = lambda * (model.score(u, i) - model.score(u, k))
            + (1.0 - lambda) * (model.score(u, k) - model.score(u, j));
        let g = sigmoid(-r);
        tally.record(r, g);

        model.copy_user_into(u, &mut self.u_old);
        let coefficients = [(i, lambda), (k, 1.0 - 2.0 * lambda), (j, -(1.0 - lambda))];
        self.grad_u.fill(0.0);
        for (t, c) in coefficients {
            if c != 0.0 {
                for (slot, &w) in self.grad_u.iter_mut().zip(model.item(t)) {
                    *slot += c * w;
                }
            }
        }
        shared.sgd_user(u, p.lr * g, &self.grad_u, p.decay_u);
        for (t, c) in coefficients {
            shared.sgd_item(t, p.lr * g * c, &self.u_old, p.decay_v);
            shared.sgd_bias(t, p.lr, g * c, p.decay_b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{checkpointed, observed};
    use clapf_core::Recommender;
    use clapf_core::{CheckpointConfig, NoopObserver, TrainObserver};
    use clapf_data::split::{split, SplitStrategy};
    use clapf_data::synthetic::{generate, WorldConfig};
    use clapf_data::UserId;
    use clapf_metrics::{evaluate_serial, EvalConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn quick(lambda: f32) -> Mpr {
        Mpr {
            config: MprConfig {
                dim: 8,
                lambda,
                iterations: 12_000,
                ..MprConfig::default()
            },
        }
    }

    #[test]
    fn learns_better_than_chance() {
        let world = WorldConfig {
            n_users: 50,
            n_items: 80,
            target_pairs: 900,
            affinity_weight: 4.0,
            ..WorldConfig::default()
        };
        let data = generate(&world, &mut SmallRng::seed_from_u64(10)).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let s = split(&data, SplitStrategy::PerUser, 0.5, &mut rng).unwrap();
        let model = quick(0.4).fit(&s.train, &mut rng);
        let scorer = |u: UserId, out: &mut Vec<f32>| model.scores_into(u, out);
        let report = evaluate_serial(&scorer, &s.train, &s.test, &EvalConfig::at_5());
        assert!(report.auc > 0.6, "AUC = {}", report.auc);
    }

    #[test]
    fn label_includes_lambda() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(12)).unwrap();
        let model = Mpr {
            config: MprConfig {
                dim: 4,
                lambda: 0.3,
                iterations: 100,
                ..MprConfig::default()
            },
        }
        .fit(&data, &mut SmallRng::seed_from_u64(13));
        assert_eq!(model.name(), "MPR(λ=0.3)");
        assert!(!model.model.has_non_finite());
    }

    #[test]
    fn threads_1_is_bitwise_serial() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(30)).unwrap();
        let trainer = Mpr {
            config: MprConfig {
                dim: 6,
                lambda: 0.4,
                iterations: 4_000,
                ..MprConfig::default()
            },
        };
        let serial = trainer.fit(&data, &mut SmallRng::seed_from_u64(44));
        let parallel = trainer
            .fit_with(&data, 44, FitOptions::default())
            .unwrap()
            .0;
        for u in data.users() {
            for i in data.items() {
                assert_eq!(serial.score(u, i).to_bits(), parallel.score(u, i).to_bits());
            }
        }
    }

    #[test]
    fn parallel_training_stays_finite() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(31)).unwrap();
        let model = Mpr {
            config: MprConfig {
                dim: 6,
                iterations: 8_000,
                parallel: ParallelConfig {
                    threads: 4,
                    chunk_size: 64,
                },
                ..MprConfig::default()
            },
        }
        .fit_with(&data, 7, FitOptions::default())
        .unwrap()
        .0;
        assert!(!model.model.has_non_finite());
    }

    #[test]
    fn observer_leaves_mpr_fit_bit_identical() {
        #[derive(Default)]
        struct Recording {
            meta: Option<clapf_telemetry::FitMeta>,
            epochs: Vec<clapf_telemetry::EpochStats>,
        }
        impl TrainObserver for Recording {
            fn on_fit_start(&mut self, meta: &clapf_telemetry::FitMeta) {
                self.meta = Some(meta.clone());
            }
            fn on_epoch(
                &mut self,
                stats: &clapf_telemetry::EpochStats,
            ) -> clapf_telemetry::Control {
                self.epochs.push(stats.clone());
                clapf_telemetry::Control::Continue
            }
        }
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(42)).unwrap();
        let trainer = Mpr {
            config: MprConfig {
                dim: 6,
                lambda: 0.4,
                iterations: 4_000,
                ..MprConfig::default()
            },
        };
        let plain = trainer.fit(&data, &mut SmallRng::seed_from_u64(60));
        let mut obs = Recording::default();
        let observed = trainer.fit_with(&data, 60, observed(&mut obs)).unwrap().0;
        for u in data.users() {
            for i in data.items() {
                assert_eq!(plain.score(u, i).to_bits(), observed.score(u, i).to_bits());
            }
        }
        let meta = obs.meta.expect("fit_start fired");
        assert_eq!(meta.model, "MPR(λ=0.4)");
        assert_eq!(meta.sampler, "PopularityPools");
        assert!(!obs.epochs.is_empty());
        assert_eq!(obs.epochs.last().unwrap().steps_total, 4_000);
        for e in &obs.epochs {
            assert!(e.loss.is_finite() && e.loss > 0.0);
            assert!(e.item_norm.is_finite() && e.item_norm > 0.0);
        }
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("clapf-mpr-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Simulates a crash at an epoch edge; `enabled()` is false so the RNG
    /// stream matches an unobserved fit.
    struct AbortAfterEpochs(usize);
    impl TrainObserver for AbortAfterEpochs {
        fn enabled(&self) -> bool {
            false
        }
        fn on_epoch(&mut self, _: &clapf_telemetry::EpochStats) -> clapf_telemetry::Control {
            self.0 -= 1;
            if self.0 == 0 {
                clapf_telemetry::Control::Abort
            } else {
                clapf_telemetry::Control::Continue
            }
        }
    }

    #[test]
    fn resumable_uninterrupted_matches_fit_bitwise() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(80)).unwrap();
        let trainer = Mpr {
            config: MprConfig {
                dim: 6,
                lambda: 0.4,
                iterations: 4_000,
                ..MprConfig::default()
            },
        };
        let plain = trainer.fit(&data, &mut SmallRng::seed_from_u64(81));
        let dir = ckpt_dir("uninterrupted");
        let ckpt = CheckpointConfig::new(&dir);
        let (resumable, report) = trainer
            .fit_with(&data, 81, checkpointed(&ckpt, &mut NoopObserver))
            .unwrap();
        assert!(report.resumed_from.is_none());
        assert_eq!(report.iterations, 4_000);
        for u in data.users() {
            for i in data.items() {
                assert_eq!(plain.score(u, i).to_bits(), resumable.score(u, i).to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_after_interrupt_is_bit_identical() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(82)).unwrap();
        let trainer = Mpr {
            config: MprConfig {
                dim: 6,
                lambda: 0.4,
                iterations: 4_000,
                ..MprConfig::default()
            },
        };
        let full = trainer.fit(&data, &mut SmallRng::seed_from_u64(83));
        let dir = ckpt_dir("interrupt");
        let ckpt = CheckpointConfig::new(&dir);
        let (_, first) = trainer
            .fit_with(&data, 83, checkpointed(&ckpt, &mut AbortAfterEpochs(2)))
            .unwrap();
        assert!(first.aborted_at.is_some(), "abort fired mid-run");

        let (resumed, report) = trainer
            .fit_with(&data, 83, checkpointed(&ckpt, &mut NoopObserver))
            .unwrap();
        assert!(report.resumed_from.unwrap() >= 1, "resumed mid-run");
        assert_eq!(report.iterations, 4_000);
        for u in data.users() {
            for i in data.items() {
                assert_eq!(full.score(u, i).to_bits(), resumed.score(u, i).to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn invalid_lambda_panics() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(14)).unwrap();
        Mpr {
            config: MprConfig {
                lambda: 2.0,
                ..MprConfig::default()
            },
        }
        .fit(&data, &mut SmallRng::seed_from_u64(15));
    }
}
