//! BPR — Bayesian Personalized Ranking (Rendle et al., UAI 2009).
//!
//! The seminal pairwise baseline: maximize `Σ ln σ(f_ui − f_uj)` over
//! observed/unobserved pairs by SGD (Eqs. 1–4 of the paper). CLAPF with
//! `λ = 0` optimizes the same criterion, and one of its steps applies this
//! exact update — plus the weight decay Eq. 23 still gives the second
//! observed item `k`, whose gradient coefficient is 0. Keeping a standalone
//! implementation both provides the baseline and cross-checks the reduction
//! (the `clapf_step_at_lambda_zero_is_a_bpr_step` test).

use clapf_core::checkpoint::CheckpointError;
use clapf_core::objective::sigmoid;
use clapf_core::{
    train, FactorRecommender, FitOptions, FitReport, ParallelConfig, Plan, Seed, SgdRates, Step,
    StepTally,
};
use clapf_data::Interactions;
use clapf_mf::{Init, SgdConfig, SharedMfModel};
use clapf_sampling::{sample_observed_pair, sample_unobserved_uniform};
use rand::{Rng, RngCore};

/// BPR hyper-parameters.
#[derive(Copy, Clone, Debug)]
pub struct BprConfig {
    /// Latent dimension (20 in the paper).
    pub dim: usize,
    /// Learning rate and regularization.
    pub sgd: SgdConfig,
    /// Total SGD steps; `0` = automatic (`100·|P|`, capped at 8 M).
    pub iterations: usize,
    /// Parameter initialization.
    pub init: Init,
    /// Multi-threaded training settings for [`Bpr::fit_with`].
    pub parallel: ParallelConfig,
}

impl Default for BprConfig {
    fn default() -> Self {
        BprConfig {
            dim: 20,
            sgd: SgdConfig::default(),
            iterations: 0,
            init: Init::default(),
            parallel: ParallelConfig::default(),
        }
    }
}

/// The BPR trainer.
#[derive(Copy, Clone, Debug, Default)]
pub struct Bpr {
    /// Hyper-parameters.
    pub config: BprConfig,
}

impl Bpr {
    /// Fits by SGD with uniform negative sampling, serially, on the
    /// caller's RNG stream.
    pub fn fit<R: Rng>(&self, data: &Interactions, rng: &mut R) -> FactorRecommender {
        let (model, _) = train(
            data,
            &mut BprStep::new(&self.config),
            Seed::Stream(rng),
            FitOptions::default(),
        )
        .expect("a fit without checkpoints does no I/O");
        FactorRecommender {
            model,
            label: "BPR".into(),
        }
    }

    /// Fits from `SmallRng::seed_from_u64(seed)` through the shared driver,
    /// with the same contracts as
    /// [`Clapf::fit_with`](clapf_core::Clapf::fit_with): an observer sees
    /// synthetic epochs (one data pass each, at most 100 per run);
    /// checkpoints resume bit-identically and roll back on divergence;
    /// `config.parallel.threads` Hogwild workers share the model, and one
    /// worker is bit-identical to [`fit`](Bpr::fit) with the same seed.
    pub fn fit_with(
        &self,
        data: &Interactions,
        seed: u64,
        opts: FitOptions<'_>,
    ) -> Result<(FactorRecommender, FitReport), CheckpointError> {
        let (model, report) = train(
            data,
            &mut BprStep::new(&self.config),
            Seed::Base(seed),
            opts,
        )?;
        let label = "BPR".into();
        Ok((FactorRecommender { model, label }, report))
    }
}

/// The plan of a baseline fit. BPR and MPR have no sampler refresh, so
/// their epochs exist only for observation, divergence checks and
/// checkpoints: one pass over the observed pairs, widened so a run has at
/// most 100 of them. Chunking the steps changes neither their order nor
/// the RNG stream.
pub(crate) fn baseline_plan(
    dim: usize,
    init: Init,
    iterations: usize,
    parallel: &ParallelConfig,
    n_pairs: usize,
) -> Plan {
    let iterations = Plan::budget(iterations, n_pairs);
    Plan {
        dim,
        init,
        iterations,
        epoch_steps: n_pairs.max(iterations.div_ceil(100)).max(1),
        threads: parallel.resolve_threads(),
        chunk: parallel.resolve_chunk(),
    }
}

/// One BPR SGD step (Eqs. 1–4).
#[derive(Clone, Debug)]
struct BprStep {
    config: BprConfig,
    rates: SgdRates,
    u_old: Vec<f32>,
    grad_u: Vec<f32>,
}

impl BprStep {
    fn new(config: &BprConfig) -> Self {
        assert!(config.dim > 0, "dim must be positive");
        BprStep {
            config: *config,
            rates: SgdRates::scaled(&config.sgd, 1.0),
            u_old: vec![0.0; config.dim],
            grad_u: vec![0.0; config.dim],
        }
    }
}

impl Step for BprStep {
    fn plan(&self, data: &Interactions) -> Plan {
        let c = &self.config;
        baseline_plan(c.dim, c.init, c.iterations, &c.parallel, data.n_pairs())
    }

    fn label(&self) -> String {
        "BPR".into()
    }

    fn sampler(&self) -> &'static str {
        "UniformNegative"
    }

    fn fingerprint(&self, plan: &Plan, seed: u64) -> Vec<(&'static str, String)> {
        let c = &self.config;
        vec![
            ("model", "BPR".to_string()),
            ("dim", c.dim.to_string()),
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
        let p = &self.rates;
        let probe = tally.start_draw();
        let (u, i) = sample_observed_pair(data, rng);
        let drawn = sample_unobserved_uniform(data, u, rng);
        tally.end_draw(probe);
        let Some(j) = drawn else {
            tally.skip();
            return;
        };
        let x = model.score(u, i) - model.score(u, j);
        let g = sigmoid(-x);
        tally.record(x, g);

        model.copy_user_into(u, &mut self.u_old);
        for ((slot, &vi), &vj) in self.grad_u.iter_mut().zip(model.item(i)).zip(model.item(j)) {
            *slot = vi - vj;
        }
        shared.sgd_user(u, p.lr * g, &self.grad_u, p.decay_u);
        shared.sgd_item(i, p.lr * g, &self.u_old, p.decay_v);
        shared.sgd_bias(i, p.lr, g, p.decay_b);
        shared.sgd_item(j, -p.lr * g, &self.u_old, p.decay_v);
        shared.sgd_bias(j, p.lr, -g, p.decay_b);
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
    use clapf_data::{ItemId, UserId};
    use clapf_metrics::{evaluate_serial, EvalConfig};
    use clapf_mf::MfModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn quick() -> Bpr {
        Bpr {
            config: BprConfig {
                dim: 8,
                iterations: 12_000,
                ..BprConfig::default()
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
        let data = generate(&world, &mut SmallRng::seed_from_u64(1)).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let s = split(&data, SplitStrategy::PerUser, 0.5, &mut rng).unwrap();
        let model = quick().fit(&s.train, &mut rng);
        let scorer = |u: UserId, out: &mut Vec<f32>| model.scores_into(u, out);
        let report = evaluate_serial(&scorer, &s.train, &s.test, &EvalConfig::at_5());
        assert!(report.auc > 0.62, "AUC = {}", report.auc);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(3)).unwrap();
        let trainer = Bpr {
            config: BprConfig {
                dim: 4,
                iterations: 2_000,
                ..BprConfig::default()
            },
        };
        let a = trainer.fit(&data, &mut SmallRng::seed_from_u64(7));
        let b = trainer.fit(&data, &mut SmallRng::seed_from_u64(7));
        assert_eq!(a.score(UserId(0), ItemId(0)), b.score(UserId(0), ItemId(0)));
    }

    #[test]
    fn threads_1_is_bitwise_serial() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(20)).unwrap();
        let trainer = Bpr {
            config: BprConfig {
                dim: 6,
                iterations: 4_000,
                ..BprConfig::default()
            },
        };
        let serial = trainer.fit(&data, &mut SmallRng::seed_from_u64(33));
        let parallel = trainer
            .fit_with(&data, 33, FitOptions::default())
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
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(21)).unwrap();
        let model = Bpr {
            config: BprConfig {
                dim: 6,
                iterations: 8_000,
                parallel: ParallelConfig {
                    threads: 4,
                    chunk_size: 64,
                },
                ..BprConfig::default()
            },
        }
        .fit_with(&data, 9, FitOptions::default())
        .unwrap()
        .0;
        assert!(!model.model.has_non_finite());
    }

    /// Records everything the trainer reports.
    #[derive(Default)]
    struct Recording {
        meta: Option<clapf_telemetry::FitMeta>,
        epochs: Vec<clapf_telemetry::EpochStats>,
        summary: Option<clapf_telemetry::FitSummary>,
    }

    impl TrainObserver for Recording {
        fn on_fit_start(&mut self, meta: &clapf_telemetry::FitMeta) {
            self.meta = Some(meta.clone());
        }
        fn on_epoch(&mut self, stats: &clapf_telemetry::EpochStats) -> clapf_telemetry::Control {
            self.epochs.push(stats.clone());
            clapf_telemetry::Control::Continue
        }
        fn on_fit_end(&mut self, summary: &clapf_telemetry::FitSummary) {
            self.summary = Some(summary.clone());
        }
    }

    #[test]
    fn observer_leaves_bpr_fit_bit_identical() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(40)).unwrap();
        let trainer = Bpr {
            config: BprConfig {
                dim: 6,
                iterations: 4_000,
                ..BprConfig::default()
            },
        };
        let plain = trainer.fit(&data, &mut SmallRng::seed_from_u64(50));
        let mut obs = Recording::default();
        let observed = trainer.fit_with(&data, 50, observed(&mut obs)).unwrap().0;
        for u in data.users() {
            for i in data.items() {
                assert_eq!(plain.score(u, i).to_bits(), observed.score(u, i).to_bits());
            }
        }
        let meta = obs.meta.expect("fit_start fired");
        assert_eq!(meta.model, "BPR");
        assert_eq!(meta.iterations, 4_000);
        assert!(!obs.epochs.is_empty());
        assert_eq!(obs.epochs.last().unwrap().steps_total, 4_000);
        for e in &obs.epochs {
            assert!(e.loss.is_finite() && e.loss > 0.0, "loss = {}", e.loss);
            assert!((0.0..=1.0).contains(&e.grad_scale));
            assert!(e.user_norm.is_finite() && e.user_norm > 0.0);
        }
        assert_eq!(obs.summary.expect("fit_end fired").steps, 4_000);
    }

    #[test]
    fn parallel_observer_sees_start_and_end() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(41)).unwrap();
        let trainer = Bpr {
            config: BprConfig {
                dim: 6,
                iterations: 4_000,
                parallel: ParallelConfig {
                    threads: 4,
                    chunk_size: 64,
                },
                ..BprConfig::default()
            },
        };
        let mut obs = Recording::default();
        let model = trainer.fit_with(&data, 9, observed(&mut obs)).unwrap().0;
        assert!(!model.model.has_non_finite());
        assert_eq!(obs.meta.expect("fit_start fired").threads, 4);
        // The fan-out sweeps the same synthetic epochs as a serial fit:
        // one data pass each (4 000 steps ≥ |P| here, so ⌈4 000 / |P|⌉).
        assert!(data.n_pairs() >= 40, "epochs are data passes");
        assert_eq!(obs.epochs.len(), 4_000usize.div_ceil(data.n_pairs()));
        assert_eq!(obs.epochs.last().unwrap().steps_total, 4_000);
        let summary = obs.summary.expect("fit_end fired");
        assert_eq!(summary.steps, 4_000);
        assert!(!summary.diverged);
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("clapf-bpr-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Simulates a crash at an epoch edge: aborts after `0` reaches zero.
    /// `enabled()` is false so the RNG stream matches an unobserved fit.
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
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(70)).unwrap();
        let trainer = Bpr {
            config: BprConfig {
                dim: 6,
                iterations: 4_000,
                ..BprConfig::default()
            },
        };
        let plain = trainer.fit(&data, &mut SmallRng::seed_from_u64(71));
        let dir = ckpt_dir("uninterrupted");
        let ckpt = CheckpointConfig::new(&dir);
        let (resumable, report) = trainer
            .fit_with(&data, 71, checkpointed(&ckpt, &mut NoopObserver))
            .unwrap();
        assert!(report.resumed_from.is_none());
        assert_eq!(report.iterations, 4_000);
        assert_eq!(report.recoveries, 0);
        for u in data.users() {
            for i in data.items() {
                assert_eq!(plain.score(u, i).to_bits(), resumable.score(u, i).to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_after_interrupt_is_bit_identical() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(72)).unwrap();
        let trainer = Bpr {
            config: BprConfig {
                dim: 6,
                iterations: 4_000,
                ..BprConfig::default()
            },
        };
        let full = trainer.fit(&data, &mut SmallRng::seed_from_u64(73));
        let dir = ckpt_dir("interrupt");
        let ckpt = CheckpointConfig::new(&dir);
        // First run "crashes" two synthetic epochs in.
        let (_, first) = trainer
            .fit_with(&data, 73, checkpointed(&ckpt, &mut AbortAfterEpochs(2)))
            .unwrap();
        assert!(first.aborted_at.is_some(), "abort fired mid-run");

        let (resumed, report) = trainer
            .fit_with(&data, 73, checkpointed(&ckpt, &mut NoopObserver))
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
    fn divergence_recovery_rolls_back_and_completes() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(74)).unwrap();
        let trainer = Bpr {
            config: BprConfig {
                dim: 6,
                iterations: 4_000,
                sgd: SgdConfig {
                    learning_rate: 1e5,
                    ..SgdConfig::default()
                },
                ..BprConfig::default()
            },
        };
        let dir = ckpt_dir("diverge");
        let ckpt = CheckpointConfig {
            lr_backoff: 1e-6,
            max_retries: 2,
            ..CheckpointConfig::new(&dir)
        };
        let (model, report) = trainer
            .fit_with(&data, 75, checkpointed(&ckpt, &mut NoopObserver))
            .unwrap();
        assert!(
            report.recoveries >= 1,
            "lr 1e5 should diverge at least once"
        );
        assert!(!report.diverged, "recovered run ends finite");
        assert!(!model.model.has_non_finite());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One CLAPF-MAP step at λ = 0 and one BPR step, applied to the same
    /// model on the same record `(u, i, j)` (CLAPF also draws a second
    /// observed item `k ≠ i`). Returns both updated models and `k`.
    fn clapf_and_bpr_step(sgd: SgdConfig) -> (MfModel, MfModel, ItemId) {
        use clapf_core::{ClapfConfig, ClapfStep};
        use clapf_sampling::TripleSampler;

        /// Completes every record with a fixed `(k, j)`.
        struct Fixed(ItemId, ItemId);
        impl TripleSampler for Fixed {
            fn refresh(&mut self, _: &MfModel) {}
            fn complete(
                &mut self,
                _: &Interactions,
                _: &MfModel,
                _: UserId,
                _: ItemId,
                _: &mut dyn RngCore,
            ) -> Option<(ItemId, ItemId)> {
                Some((self.0, self.1))
            }
            fn name(&self) -> &'static str {
                "Fixed"
            }
        }

        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(90)).unwrap();
        let mut rng = SmallRng::seed_from_u64(91);
        let start = MfModel::new(data.n_users(), data.n_items(), 6, Init::default(), &mut rng);
        // The record BPR's step will draw from this RNG state.
        let (u, i) = sample_observed_pair(&data, &mut rng.clone());
        let j = {
            let mut r = rng.clone();
            sample_observed_pair(&data, &mut r);
            sample_unobserved_uniform(&data, u, &mut r).unwrap()
        };
        let k = *data
            .items_of(u)
            .iter()
            .find(|&&k| k != i)
            .expect("user has two items");

        let run = |step: &mut dyn Step| {
            let shared = SharedMfModel::new(start.clone());
            step.step(&shared, &data, &mut rng.clone(), &mut StepTally::default());
            shared.into_inner()
        };
        let clapf_cfg = ClapfConfig {
            dim: 6,
            sgd,
            ..ClapfConfig::map(0.0)
        };
        let clapf = run(&mut ClapfStep::new(&clapf_cfg, Fixed(k, j)));
        let bpr = run(&mut BprStep::new(&BprConfig {
            dim: 6,
            sgd,
            ..BprConfig::default()
        }));
        (clapf, bpr, k)
    }

    #[test]
    fn clapf_step_at_lambda_zero_is_a_bpr_step() {
        // Sec 4.3: with λ = 0 the listwise pair drops out of the criterion.
        // Without item/bias regularization the two updates are the same
        // arithmetic, bit for bit.
        let sgd = SgdConfig {
            reg_item: 0.0,
            reg_bias: 0.0,
            ..SgdConfig::default()
        };
        let (clapf, bpr, _) = clapf_and_bpr_step(sgd);
        let bits = |m: &MfModel| {
            let mut v: Vec<u32> = Vec::new();
            for u in 0..m.n_users() {
                v.extend(m.user(UserId(u)).iter().map(|x| x.to_bits()));
            }
            for i in 0..m.n_items() {
                v.extend(m.item(ItemId(i)).iter().map(|x| x.to_bits()));
                v.push(m.bias(ItemId(i)).to_bits());
            }
            v
        };
        assert_eq!(bits(&clapf), bits(&bpr));
    }

    #[test]
    fn clapf_step_at_lambda_zero_still_decays_k() {
        // Eq. 23 weight-decays V_k and b_k even though their gradient
        // coefficient λ is 0, so with the default regularization the two
        // steps differ there — and only there.
        let (clapf, bpr, k) = clapf_and_bpr_step(SgdConfig::default());
        for u in 0..clapf.n_users() {
            assert_eq!(clapf.user(UserId(u)), bpr.user(UserId(u)));
        }
        for i in (0..clapf.n_items()).map(ItemId) {
            if i == k {
                assert_ne!(clapf.item(i), bpr.item(i), "V_k is decayed");
                assert_ne!(clapf.bias(i), bpr.bias(i), "b_k is decayed");
            } else {
                assert_eq!(clapf.item(i), bpr.item(i), "item {i:?}");
                assert_eq!(clapf.bias(i).to_bits(), bpr.bias(i).to_bits(), "bias {i:?}");
            }
        }
    }

    #[test]
    fn label_and_finiteness() {
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(4)).unwrap();
        let model = quick().fit(&data, &mut SmallRng::seed_from_u64(5));
        assert_eq!(model.name(), "BPR");
        assert!(!model.model.has_non_finite());
    }
}
