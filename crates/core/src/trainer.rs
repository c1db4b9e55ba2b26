//! The CLAPF SGD trainer (Sec 4.3 of the paper).

use crate::checkpoint::CheckpointError;
use crate::driver::{train, FitOptions, FitReport, Plan, Seed, SgdRates, Step, StepTally};
use crate::objective::{sigmoid, CriterionWeights};
use crate::{ClapfConfig, Recommender};
use clapf_data::{Interactions, ItemId, UserId};
use clapf_mf::{MfModel, SharedMfModel};
use clapf_sampling::{sample_observed_pair, TripleSampler};
use clapf_telemetry::{NoopObserver, TrainObserver};
use rand::{Rng, RngCore};

/// A fitted CLAPF model. Serializable (JSON via serde) for persistence;
/// see the `model_round_trips_through_serde` integration test.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ClapfModel {
    /// The learned factors.
    pub mf: MfModel,
    /// The configuration that produced them.
    pub config: ClapfConfig,
}

impl Recommender for ClapfModel {
    fn name(&self) -> String {
        format!("CLAPF(λ={:.1})-{}", self.config.lambda, self.config.mode)
    }

    fn n_items(&self) -> u32 {
        self.mf.n_items()
    }

    fn score(&self, u: UserId, i: ItemId) -> f32 {
        self.mf.score(u, i)
    }

    fn scores_into(&self, u: UserId, out: &mut Vec<f32>) {
        self.mf.scores_for_user(u, out);
    }

    fn scores_into_batch(&self, users: &[UserId], out: &mut [Vec<f32>]) {
        self.mf.scores_for_users(users, out);
    }
}

/// The CLAPF trainer. Construct with a validated [`ClapfConfig`], then
/// [`fit`](Clapf::fit) against training interactions with any
/// [`TripleSampler`].
///
/// ```
/// use clapf_core::{Clapf, ClapfConfig};
/// use clapf_data::synthetic::{generate, WorldConfig};
/// use clapf_sampling::UniformSampler;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let data = generate(&WorldConfig::tiny(), &mut rng).unwrap();
/// let trainer = Clapf::new(ClapfConfig {
///     iterations: 2_000,
///     ..ClapfConfig::map(0.4)
/// });
/// let (model, report) = trainer.fit(&data, &mut UniformSampler, &mut rng);
/// assert!(!report.diverged);
/// assert_eq!(model.mf.n_users(), data.n_users());
/// ```
#[derive(Clone, Debug)]
pub struct Clapf {
    config: ClapfConfig,
}

impl Clapf {
    /// Creates a trainer, validating the configuration.
    pub fn new(config: ClapfConfig) -> Self {
        config.validate();
        Clapf { config }
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &ClapfConfig {
        &self.config
    }

    /// Trains a model from scratch, serially, on the caller's RNG stream.
    pub fn fit<S: TripleSampler + ?Sized, R: Rng>(
        &self,
        data: &Interactions,
        sampler: &mut S,
        rng: &mut R,
    ) -> (ClapfModel, FitReport) {
        // Delegating keeps `fit` and `fit_observed` one monomorphization, so
        // the telemetry overhead bench compares identical machine code.
        self.fit_observed(data, sampler, rng, &mut NoopObserver)
    }

    /// [`fit`](Clapf::fit) under a [`TrainObserver`]: the observer receives
    /// `on_fit_start`, one `on_epoch` per sampler-refresh interval (with
    /// throughput, loss proxy, gradient scale, factor norms and NaN
    /// detection), and `on_fit_end`. Returning
    /// [`Control::Abort`](crate::Control::Abort) from `on_epoch` — or a
    /// non-finite parameter at an epoch edge — stops training early; the
    /// report's `aborted_at` records where.
    ///
    /// Attaching an observer never changes the learned weights: all
    /// instrumentation reads happen at epoch boundaries and the RNG stream
    /// is untouched, so an observed run is bit-identical to [`fit`](Clapf::fit)
    /// (the `observer_leaves_serial_fit_bit_identical` test pins this).
    pub fn fit_observed<S: TripleSampler + ?Sized, R: Rng>(
        &self,
        data: &Interactions,
        sampler: &mut S,
        rng: &mut R,
        observer: &mut dyn TrainObserver,
    ) -> (ClapfModel, FitReport) {
        let opts = FitOptions {
            observer: Some(observer),
            ..FitOptions::default()
        };
        let (mf, report) = train(
            data,
            &mut ClapfStep::new(&self.config, sampler),
            Seed::Stream(rng),
            opts,
        )
        .expect("a fit without checkpoints does no I/O");
        (self.model(mf), report)
    }

    /// Trains from `SmallRng::seed_from_u64(seed)` with everything
    /// [`FitOptions`] offers: an observer, crash-safe checkpoints, a
    /// convergence probe. `config.parallel.threads` Hogwild workers
    /// (Recht et al., NIPS 2011) share the model without locks, each with
    /// its own RNG and, every epoch, a fresh [`fork`](TripleSampler::fork)
    /// of the once-refreshed `sampler` (a sampler that cannot fork trains
    /// serially).
    ///
    /// Determinism contract (pinned by tests):
    ///
    /// * `threads = 1` is **bit-identical** to [`fit`](Clapf::fit) with
    ///   `SmallRng::seed_from_u64(seed)`: same init, same RNG stream, same
    ///   step kernel in the same order. More threads trade bitwise
    ///   reproducibility for throughput (model *quality* is preserved).
    /// * An uninterrupted checkpointed fit is bit-identical to the plain
    ///   one, and an interrupted-and-resumed fit to the uninterrupted one:
    ///   a checkpoint carries the model, the full RNG state and the epoch,
    ///   and rank-aware samplers rebuild their state from the model at the
    ///   next refresh. This holds for `threads = 1`; a Hogwild
    ///   interleaving is not replayable.
    /// * On divergence a checkpointed fit rolls back to its last
    ///   checkpoint with the learning rate times `lr_backoff` (at most
    ///   `max_retries` times, counted in `FitReport::recoveries`); without
    ///   checkpoints it aborts at the epoch edge.
    ///
    /// `threads = 0` resolves to all available cores, mirroring
    /// `EvalConfig::threads`.
    pub fn fit_with<S: TripleSampler + ?Sized>(
        &self,
        data: &Interactions,
        sampler: &mut S,
        seed: u64,
        opts: FitOptions<'_>,
    ) -> Result<(ClapfModel, FitReport), CheckpointError> {
        let (mf, report) = train(
            data,
            &mut ClapfStep::new(&self.config, sampler),
            Seed::Base(seed),
            opts,
        )?;
        Ok((self.model(mf), report))
    }

    fn model(&self, mf: MfModel) -> ClapfModel {
        ClapfModel {
            mf,
            config: self.config,
        }
    }
}

/// One CLAPF SGD step of Sec 4.3 — draw a record, score the triple, apply
/// the Eq. 23 updates — over records completed by the sampler `S` (owned,
/// or borrowed as `&mut S`).
///
/// Construct it directly to train a **custom criterion**
/// `R = c_i·f_ui + c_k·f_uk + c_j·f_uj` through [`train`]
/// ([`with_weights`](ClapfStep::with_weights)) — the extension hook for
/// new smoothed listwise metrics the paper's conclusion invites.
#[derive(Clone, Debug)]
pub struct ClapfStep<S> {
    config: ClapfConfig,
    weights: CriterionWeights,
    sampler: S,
    rates: SgdRates,
    u_old: Vec<f32>,
    grad_u: Vec<f32>,
}

impl<S: TripleSampler> ClapfStep<S> {
    /// The step of the configuration's mode and λ.
    pub fn new(config: &ClapfConfig, sampler: S) -> Self {
        config.validate();
        Self::build(
            config,
            CriterionWeights::from_mode(config.mode, config.lambda),
            sampler,
        )
    }

    /// A step that optimizes `weights` instead of the paper's MAP/MRR
    /// instantiations. The configuration's `mode`/`lambda` only label the
    /// run; everything else (dimension, SGD settings, budgets) applies.
    ///
    /// # Panics
    /// Panics if `weights` is not ranking-consistent (total observed weight
    /// must be positive, unobserved weight negative) — such a criterion
    /// optimizes *against* the implicit-feedback assumption.
    pub fn with_weights(config: &ClapfConfig, weights: CriterionWeights, sampler: S) -> Self {
        assert!(
            weights.is_ranking_consistent(),
            "criterion {weights:?} does not rank observed above unobserved"
        );
        config.validate();
        Self::build(config, weights, sampler)
    }

    fn build(config: &ClapfConfig, weights: CriterionWeights, sampler: S) -> Self {
        ClapfStep {
            config: *config,
            weights,
            sampler,
            rates: SgdRates::scaled(&config.sgd, 1.0),
            u_old: vec![0.0; config.dim],
            grad_u: vec![0.0; config.dim],
        }
    }
}

impl<S: TripleSampler> Step for ClapfStep<S> {
    fn plan(&self, data: &Interactions) -> Plan {
        let cfg = &self.config;
        Plan {
            dim: cfg.dim,
            init: cfg.init,
            iterations: cfg.resolve_iterations(data.n_pairs()),
            epoch_steps: cfg.resolve_refresh(data.n_pairs()),
            threads: cfg.parallel.resolve_threads(),
            chunk: cfg.parallel.resolve_chunk(),
        }
    }

    fn label(&self) -> String {
        format!("CLAPF(λ={:.1})-{}", self.config.lambda, self.config.mode)
    }

    fn sampler(&self) -> &'static str {
        self.sampler.name()
    }

    fn fingerprint(&self, plan: &Plan, seed: u64) -> Vec<(&'static str, String)> {
        let cfg = &self.config;
        vec![
            ("model", self.label()),
            ("dim", cfg.dim.to_string()),
            ("sgd", format!("{:?}", cfg.sgd)),
            ("init", format!("{:?}", cfg.init)),
            ("iterations", plan.iterations.to_string()),
            ("refresh", plan.epoch_steps.to_string()),
            ("sampler", self.sampler.name().to_string()),
            ("seed", seed.to_string()),
            // The score-kernel choice changes per-step rounding, so resuming
            // a scalar-kernel checkpoint under the wide kernel (or vice
            // versa) would splice two different trajectories.
            (
                "kernel",
                if cfg.simd_training { "wide" } else { "scalar" }.to_string(),
            ),
        ]
    }

    fn refresh(&mut self, model: &MfModel) {
        self.sampler.refresh(model);
    }

    fn set_lr_scale(&mut self, scale: f32) {
        self.rates = SgdRates::scaled(&self.config.sgd, scale);
    }

    fn fork(&self) -> Option<Box<dyn Step + Send>> {
        let sampler = self.sampler.fork()?;
        Some(Box::new(ClapfStep {
            config: self.config,
            weights: self.weights,
            sampler,
            rates: self.rates,
            u_old: self.u_old.clone(),
            grad_u: self.grad_u.clone(),
        }))
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

        // The paper's SGD record: a uniform observed pair (u, i) plus the
        // sampler's completion (k, j).
        let probe = tally.start_draw();
        let (u, i) = sample_observed_pair(data, rng);
        let drawn = self.sampler.complete(data, model, u, i, rng);
        tally.end_draw(probe);
        let Some((k, j)) = drawn else {
            tally.skip();
            return;
        };

        // Kernel choice is per-fit, not per-step: the scalar dot (default)
        // preserves historical trajectories bit-for-bit; the wide dot
        // (`simd_training`) reassociates the lane sum for throughput.
        let score: fn(&MfModel, UserId, ItemId) -> f32 = if self.config.simd_training {
            MfModel::score_wide
        } else {
            MfModel::score
        };
        let f_ui = score(model, u, i);
        let f_uk = if k == i { f_ui } else { score(model, u, k) };
        let f_uj = score(model, u, j);
        let r = self.weights.criterion(f_ui, f_uk, f_uj);
        // Eq. 23: every parameter gradient carries the scale 1 − σ(R).
        let g = sigmoid(-r);
        tally.record(r, g);

        let (u_old, grad_u) = (&mut self.u_old, &mut self.grad_u);
        model.copy_user_into(u, u_old);

        let CriterionWeights {
            c_i: ci,
            c_k: ck,
            c_j: cj,
        } = self.weights;

        // ∂R/∂U_u = c_i V_i + c_k V_k + c_j V_j. The saxpy kernel is
        // elementwise (lane t only ever touches slot t), so vectorizing it is
        // bit-identical to the scalar loop it replaced and safe to use
        // unconditionally, wide flag or not.
        grad_u.fill(0.0);
        for (t, c) in [(i, ci), (k, ck), (j, cj)] {
            if c != 0.0 {
                clapf_mf::simd::saxpy(grad_u, c, model.item(t));
            }
        }
        shared.sgd_user(u, p.lr * g, grad_u, p.decay_u);

        // Item updates use the user's pre-update factors; when the user
        // has a single observed item k collapses onto i and the two
        // coefficients merge.
        if i == k {
            shared.sgd_item(i, p.lr * g * (ci + ck), u_old, p.decay_v);
            shared.sgd_bias(i, p.lr, g * (ci + ck), p.decay_b);
        } else {
            shared.sgd_item(i, p.lr * g * ci, u_old, p.decay_v);
            shared.sgd_bias(i, p.lr, g * ci, p.decay_b);
            shared.sgd_item(k, p.lr * g * ck, u_old, p.decay_v);
            shared.sgd_bias(k, p.lr, g * ck, p.decay_b);
        }
        shared.sgd_item(j, p.lr * g * cj, u_old, p.decay_v);
        shared.sgd_bias(j, p.lr, g * cj, p.decay_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckpointConfig, ClapfMode};
    use clapf_data::synthetic::{generate, WorldConfig};
    use clapf_metrics::{evaluate_serial, EvalConfig};
    use clapf_sampling::{DssMode, DssSampler, UniformSampler};
    use clapf_telemetry::{Control, EpochStats, FitMeta, FitSummary};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn observed(observer: &mut dyn TrainObserver) -> FitOptions<'_> {
        FitOptions {
            observer: Some(observer),
            ..FitOptions::default()
        }
    }

    fn checkpointed<'a>(
        ckpt: &'a CheckpointConfig,
        observer: &'a mut dyn TrainObserver,
    ) -> FitOptions<'a> {
        FitOptions {
            observer: Some(observer),
            checkpoint: Some(ckpt),
            probe: None,
        }
    }

    fn world(seed: u64) -> Interactions {
        let cfg = WorldConfig {
            n_users: 50,
            n_items: 80,
            target_pairs: 900,
            affinity_weight: 4.0,
            ..WorldConfig::default()
        };
        generate(&cfg, &mut SmallRng::seed_from_u64(seed)).unwrap()
    }

    fn quick_config(mode: ClapfMode, lambda: f32) -> ClapfConfig {
        let base = match mode {
            ClapfMode::Map => ClapfConfig::map(lambda),
            ClapfMode::Mrr => ClapfConfig::mrr(lambda),
        };
        ClapfConfig {
            dim: 8,
            iterations: 12_000,
            ..base
        }
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = world(1);
        let trainer = Clapf::new(quick_config(ClapfMode::Map, 0.4));
        let fit = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            trainer.fit(&data, &mut UniformSampler, &mut rng).0
        };
        let a = fit(9);
        let b = fit(9);
        let c = fit(10);
        assert_eq!(
            a.mf.score(UserId(3), ItemId(5)),
            b.mf.score(UserId(3), ItemId(5))
        );
        assert_ne!(
            a.mf.score(UserId(3), ItemId(5)),
            c.mf.score(UserId(3), ItemId(5))
        );
    }

    #[test]
    fn report_reflects_run() {
        let data = world(2);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 500,
            ..quick_config(ClapfMode::Mrr, 0.2)
        });
        let mut rng = SmallRng::seed_from_u64(0);
        let (model, report) = trainer.fit(&data, &mut UniformSampler, &mut rng);
        assert_eq!(report.iterations, 500);
        assert_eq!(report.sampler, "Uniform");
        assert!(!report.diverged);
        assert_eq!(model.name(), "CLAPF(λ=0.2)-MRR");
    }

    #[test]
    fn checkpoints_fire_on_cadence() {
        let data = world(3);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 1_000,
            ..quick_config(ClapfMode::Map, 0.3)
        });
        let mut seen = Vec::new();
        let mut probe = |s: usize, m: &MfModel| {
            assert!(!m.has_non_finite());
            seen.push(s);
        };
        let opts = FitOptions {
            probe: Some((250, &mut probe)),
            ..FitOptions::default()
        };
        trainer
            .fit_with(&data, &mut UniformSampler, 1, opts)
            .unwrap();
        assert_eq!(seen, vec![250, 500, 750, 1000, 1000]);
    }

    #[test]
    fn learns_planted_structure_better_than_chance() {
        // Train/test split of a structured world; trained CLAPF must beat
        // the untrained (random-init) model by a wide margin on AUC.
        let data = world(4);
        let mut rng = SmallRng::seed_from_u64(5);
        let split = clapf_data::split::split(
            &data,
            clapf_data::split::SplitStrategy::PerUser,
            0.5,
            &mut rng,
        )
        .unwrap();
        let trainer = Clapf::new(ClapfConfig {
            iterations: 120_000,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let (model, report) = trainer.fit(&split.train, &mut UniformSampler, &mut rng);
        assert!(!report.diverged);

        let scorer = |u: UserId, out: &mut Vec<f32>| model.scores_into(u, out);
        let report = evaluate_serial(&scorer, &split.train, &split.test, &EvalConfig::at_5());
        assert!(report.auc > 0.62, "AUC = {}", report.auc);
        assert!(report.map > 0.05, "MAP = {}", report.map);
    }

    #[test]
    fn dss_sampler_trains_too() {
        let data = world(6);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 4_000,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sampler = DssSampler::dss(DssMode::Map);
        let (model, report) = trainer.fit(&data, &mut sampler, &mut rng);
        assert_eq!(report.sampler, "DSS");
        assert!(!report.diverged);
        assert!(!model.mf.has_non_finite());
    }

    /// 64-bit FNV-1a over the bit pattern of every parameter: user factors,
    /// item factors, item biases.
    fn model_bits_hash(mf: &MfModel) -> u64 {
        let users = (0..mf.n_users()).flat_map(|u| mf.user(UserId(u)));
        let items = (0..mf.n_items()).flat_map(|i| mf.item(ItemId(i)));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in users.chain(items).chain(mf.biases()) {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn dss_fits_match_pinned_fingerprints() {
        // Every DSS draw — factor, rank, tie-break, fallback — feeds the
        // trained parameters, so these hashes pin the sampler's draw order.
        // They were recorded with the original full-sort positive draw.
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(3)).unwrap();
        for (mode, base, want) in [
            (DssMode::Map, ClapfConfig::map(0.4), 0x9197_b5aa_bda4_798f),
            (DssMode::Mrr, ClapfConfig::mrr(0.4), 0xe4ba_237f_767b_a8d1),
        ] {
            let trainer = Clapf::new(ClapfConfig {
                dim: 6,
                iterations: 6_000,
                ..base
            });
            let mut rng = SmallRng::seed_from_u64(11);
            let (model, report) = trainer.fit(&data, &mut DssSampler::dss(mode), &mut rng);
            assert!(!report.diverged, "{mode:?}");
            let got = model_bits_hash(&model.mf);
            assert_eq!(got, want, "{mode:?} fit: {got:#018x}");
        }
    }

    #[test]
    fn long_list_dss_fits_match_pinned_fingerprints() {
        // The tiny world above has no user with a long observed list, so
        // the positive draw never leaves its small-list path there. This
        // world's lists run to several hundred items, which takes the
        // draw through its long-list path on most steps. The hashes were
        // recorded with the full-sort positive draw's `u64` selection.
        let cfg = WorldConfig {
            n_users: 200,
            n_items: 600,
            target_pairs: 20_000,
            ..WorldConfig::default()
        };
        let data = generate(&cfg, &mut SmallRng::seed_from_u64(5)).unwrap();
        let longest = data.users().map(|u| data.items_of(u).len()).max().unwrap();
        assert!(longest >= 300, "longest observed list {longest}");
        for (name, mut sampler, base, want) in [
            (
                "map",
                DssSampler::dss(DssMode::Map),
                ClapfConfig::map(0.4),
                0xc77d_ba98_71fa_5358,
            ),
            (
                "mrr",
                DssSampler::dss(DssMode::Mrr),
                ClapfConfig::mrr(0.4),
                0x6c1d_0e7a_ab95_721e,
            ),
            (
                "positive_only",
                DssSampler::positive_only(DssMode::Map),
                ClapfConfig::map(0.4),
                0xaf4b_d8f8_15c0_255b,
            ),
        ] {
            let trainer = Clapf::new(ClapfConfig {
                dim: 8,
                iterations: 20_000,
                ..base
            });
            let mut rng = SmallRng::seed_from_u64(17);
            let (model, report) = trainer.fit(&data, &mut sampler, &mut rng);
            assert!(!report.diverged, "{name}");
            let got = model_bits_hash(&model.mf);
            assert_eq!(got, want, "{name} fit: {got:#018x}");
        }
    }

    #[test]
    fn lambda_zero_ignores_k_entirely() {
        // With λ = 0 the k coefficient is 0, so CLAPF must coincide with a
        // run where the sampler returns arbitrary k — i.e. behave as BPR.
        let data = world(7);
        let cfg = ClapfConfig {
            iterations: 3_000,
            ..quick_config(ClapfMode::Map, 0.0)
        };
        let a = {
            let mut rng = SmallRng::seed_from_u64(11);
            Clapf::new(cfg).fit(&data, &mut UniformSampler, &mut rng).0
        };
        let b = {
            let mut rng = SmallRng::seed_from_u64(11);
            Clapf::new(ClapfConfig {
                mode: ClapfMode::Mrr,
                ..cfg
            })
            .fit(&data, &mut UniformSampler, &mut rng)
            .0
        };
        // Identical RNG stream + zero-k coefficient in both modes ⇒ same model.
        for u in 0..5u32 {
            for i in 0..5u32 {
                assert_eq!(
                    a.mf.score(UserId(u), ItemId(i)),
                    b.mf.score(UserId(u), ItemId(i))
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn invalid_config_panics_at_construction() {
        Clapf::new(ClapfConfig::map(-0.1));
    }

    #[test]
    fn threads_1_is_bitwise_serial() {
        // fit_with at one worker must reproduce fit exactly: same
        // init, same RNG stream, same kernel, same step order.
        let data = world(12);
        let cfg = ClapfConfig {
            iterations: 6_000,
            ..quick_config(ClapfMode::Map, 0.4)
        };
        let trainer = Clapf::new(cfg);
        let serial = {
            let mut rng = SmallRng::seed_from_u64(42);
            trainer.fit(&data, &mut UniformSampler, &mut rng).0
        };
        let parallel = trainer
            .fit_with(&data, &mut UniformSampler, 42, FitOptions::default())
            .unwrap()
            .0;
        for u in data.users() {
            for i in data.items() {
                assert_eq!(
                    serial.mf.score(u, i).to_bits(),
                    parallel.mf.score(u, i).to_bits(),
                    "score({u:?}, {i:?}) diverged between serial and 1-thread parallel"
                );
            }
        }
    }

    #[test]
    fn threads_1_is_bitwise_serial_with_dss() {
        // The rank-aware sampler has internal state (ranking lists, a
        // geometric position sampler); the clone handed to the single
        // worker must evolve exactly like the serial `&mut` sampler.
        let data = world(13);
        let cfg = ClapfConfig {
            iterations: 3_000,
            ..quick_config(ClapfMode::Map, 0.4)
        };
        let trainer = Clapf::new(cfg);
        let serial = {
            let mut rng = SmallRng::seed_from_u64(8);
            let mut sampler = DssSampler::dss(DssMode::Map);
            trainer.fit(&data, &mut sampler, &mut rng).0
        };
        let parallel = trainer
            .fit_with(
                &data,
                &mut DssSampler::dss(DssMode::Map),
                8,
                FitOptions::default(),
            )
            .unwrap()
            .0;
        for u in data.users() {
            for i in data.items() {
                assert_eq!(
                    serial.mf.score(u, i).to_bits(),
                    parallel.mf.score(u, i).to_bits()
                );
            }
        }
    }

    #[test]
    fn parallel_matches_serial_quality() {
        // Hogwild races perturb individual parameters but must not hurt
        // ranking quality: 4-thread AUC/MAP within a small tolerance of
        // the serial run on the planted-structure world.
        let data = world(4);
        let mut rng = SmallRng::seed_from_u64(5);
        let split = clapf_data::split::split(
            &data,
            clapf_data::split::SplitStrategy::PerUser,
            0.5,
            &mut rng,
        )
        .unwrap();
        let cfg = ClapfConfig {
            iterations: 120_000,
            ..quick_config(ClapfMode::Map, 0.4)
        };
        let eval = |model: &ClapfModel| {
            let scorer = |u: UserId, out: &mut Vec<f32>| model.scores_into(u, out);
            evaluate_serial(&scorer, &split.train, &split.test, &EvalConfig::at_5())
        };

        let serial = {
            let mut rng = SmallRng::seed_from_u64(42);
            Clapf::new(cfg)
                .fit(&split.train, &mut UniformSampler, &mut rng)
                .0
        };
        let trainer = Clapf::new(ClapfConfig {
            parallel: crate::ParallelConfig {
                threads: 4,
                chunk_size: 64,
            },
            ..cfg
        });
        let (par, report) = trainer
            .fit_with(&split.train, &mut UniformSampler, 42, FitOptions::default())
            .unwrap();
        assert!(!report.diverged);

        let s = eval(&serial);
        let p = eval(&par);
        assert!(
            (s.auc - p.auc).abs() < 0.02,
            "serial AUC {} vs parallel AUC {}",
            s.auc,
            p.auc
        );
        assert!(
            (s.map - p.map).abs() < 0.05,
            "serial MAP {} vs parallel MAP {}",
            s.map,
            p.map
        );
    }

    #[test]
    fn dss_refresh_under_threads_stays_finite() {
        // Stress the epoch fan-out: many workers, a rank-aware sampler
        // that rebuilds per-epoch ranking lists, tiny chunks so every
        // epoch sees heavy counter contention. Must not deadlock, panic,
        // or blow up the parameters.
        let data = world(14);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 10_000,
            refresh_every: 500,
            parallel: crate::ParallelConfig {
                threads: 8,
                chunk_size: 16,
            },
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let (model, report) = trainer
            .fit_with(
                &data,
                &mut DssSampler::dss(DssMode::Map),
                3,
                FitOptions::default(),
            )
            .unwrap();
        assert_eq!(report.iterations, 10_000);
        assert_eq!(report.sampler, "DSS");
        assert!(!report.diverged);
        assert!(!model.mf.has_non_finite());
    }

    #[test]
    fn fan_out_refreshes_the_lead_once_per_epoch() {
        // Workers start every epoch from copies of the refreshed lead
        // sampler instead of refreshing their own: one refresh per epoch,
        // whatever the thread count.
        let data = world(15);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 4_000,
            refresh_every: 1_000,
            parallel: crate::ParallelConfig {
                threads: 4,
                chunk_size: 64,
            },
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let stats = clapf_sampling::DssStats::new();
        let mut sampler = DssSampler::dss(DssMode::Map);
        sampler.attach_stats(stats.clone());
        let (_, report) = trainer
            .fit_with(&data, &mut sampler, 3, FitOptions::default())
            .unwrap();
        assert_eq!(report.epochs.len(), 4);
        assert_eq!(stats.refreshes.get(), 4);
    }

    #[test]
    fn custom_weights_reproduce_the_mode_path() {
        // A ClapfStep::with_weights of the MAP weights must produce the exact same
        // parameters as the standard fit (same RNG stream, same loop).
        let data = world(8);
        let cfg = ClapfConfig {
            iterations: 3_000,
            ..quick_config(ClapfMode::Map, 0.4)
        };
        let trainer = Clapf::new(cfg);
        let standard = {
            let mut rng = SmallRng::seed_from_u64(4);
            trainer.fit(&data, &mut UniformSampler, &mut rng).0
        };
        let custom = {
            let mut rng = SmallRng::seed_from_u64(4);
            let weights = crate::objective::CriterionWeights::from_mode(ClapfMode::Map, 0.4);
            train(
                &data,
                &mut ClapfStep::with_weights(trainer.config(), weights, &mut UniformSampler),
                Seed::Stream(&mut rng),
                FitOptions::default(),
            )
            .unwrap()
            .0
        };
        for u in 0..5u32 {
            for i in 0..5u32 {
                assert_eq!(
                    standard.mf.score(UserId(u), ItemId(i)),
                    custom.score(UserId(u), ItemId(i))
                );
            }
        }
    }

    #[test]
    fn custom_weights_train_a_novel_instantiation() {
        // An "AUC-leaning" custom criterion: weight both observed items
        // equally against the negative.
        let data = world(9);
        let weights = crate::objective::CriterionWeights {
            c_i: 0.5,
            c_k: 0.5,
            c_j: -1.0,
        };
        let trainer = Clapf::new(ClapfConfig {
            iterations: 8_000,
            ..quick_config(ClapfMode::Map, 0.0)
        });
        let mut rng = SmallRng::seed_from_u64(5);
        let (model, report) = train(
            &data,
            &mut ClapfStep::with_weights(trainer.config(), weights, &mut UniformSampler),
            Seed::Stream(&mut rng),
            FitOptions::default(),
        )
        .unwrap();
        assert!(!report.diverged);
        assert!(!model.has_non_finite());
        // It learns *something*: observed items outrank random unobserved
        // ones on average.
        let mut obs = 0.0f64;
        let mut unobs = 0.0f64;
        let mut n_obs = 0usize;
        let mut n_unobs = 0usize;
        for u in data.users() {
            for i in data.items() {
                if data.contains(u, i) {
                    obs += model.score(u, i) as f64;
                    n_obs += 1;
                } else {
                    unobs += model.score(u, i) as f64;
                    n_unobs += 1;
                }
            }
        }
        assert!(obs / n_obs as f64 > unobs / n_unobs as f64);
    }

    /// An enabled observer that records everything it is told.
    #[derive(Default)]
    struct Recording {
        meta: Option<FitMeta>,
        epochs: Vec<EpochStats>,
        divergences: Vec<usize>,
        summary: Option<FitSummary>,
    }

    impl TrainObserver for Recording {
        fn on_fit_start(&mut self, meta: &FitMeta) {
            self.meta = Some(meta.clone());
        }
        fn on_epoch(&mut self, stats: &EpochStats) -> Control {
            self.epochs.push(stats.clone());
            Control::Continue
        }
        fn on_divergence(&mut self, step: usize) {
            self.divergences.push(step);
        }
        fn on_fit_end(&mut self, summary: &FitSummary) {
            self.summary = Some(summary.clone());
        }
    }

    fn assert_same_scores(a: &ClapfModel, b: &ClapfModel, data: &Interactions, what: &str) {
        for u in data.users() {
            for i in data.items() {
                assert_eq!(
                    a.mf.score(u, i).to_bits(),
                    b.mf.score(u, i).to_bits(),
                    "score({u:?}, {i:?}) diverged: {what}"
                );
            }
        }
    }

    #[test]
    fn observer_leaves_serial_fit_bit_identical() {
        // Attaching a fully enabled observer must not perturb the learned
        // weights: all instrumentation is read-only and off the RNG stream.
        let data = world(20);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 6_000,
            refresh_every: 1_500,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let plain = {
            let mut rng = SmallRng::seed_from_u64(21);
            let mut sampler = DssSampler::dss(DssMode::Map);
            trainer.fit(&data, &mut sampler, &mut rng).0
        };
        let mut obs = Recording::default();
        let observed = {
            let mut rng = SmallRng::seed_from_u64(21);
            let mut sampler = DssSampler::dss(DssMode::Map);
            trainer
                .fit_observed(&data, &mut sampler, &mut rng, &mut obs)
                .0
        };
        assert_same_scores(&plain, &observed, &data, "serial observed vs unobserved");
        assert_eq!(obs.epochs.len(), 4);
        assert!(obs.summary.is_some());
    }

    #[test]
    fn observer_leaves_parallel_fit_bit_identical() {
        // Same contract on the parallel path at threads = 1, which is itself
        // pinned bitwise to the serial path.
        let data = world(22);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 4_000,
            refresh_every: 1_000,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let plain = trainer
            .fit_with(&data, &mut UniformSampler, 77, FitOptions::default())
            .unwrap()
            .0;
        let mut obs = Recording::default();
        let observed = trainer
            .fit_with(&data, &mut UniformSampler, 77, observed(&mut obs))
            .unwrap()
            .0;
        assert_same_scores(&plain, &observed, &data, "parallel observed vs unobserved");
        assert_eq!(obs.epochs.len(), 4);
        assert_eq!(obs.meta.as_ref().unwrap().threads, 1);
    }

    #[test]
    fn observed_epochs_carry_real_statistics() {
        let data = world(23);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 5_000,
            refresh_every: 2_000,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let mut obs = Recording::default();
        let mut rng = SmallRng::seed_from_u64(3);
        let (_, report) = trainer.fit_observed(&data, &mut UniformSampler, &mut rng, &mut obs);

        let meta = obs.meta.expect("fit_start fired");
        assert_eq!(meta.iterations, 5_000);
        assert_eq!(meta.n_pairs, data.n_pairs());

        // 5000 steps / 2000 refresh = epochs of 2000, 2000, 1000.
        assert_eq!(obs.epochs.len(), 3);
        assert_eq!(
            obs.epochs.iter().map(|e| e.steps).collect::<Vec<_>>(),
            vec![2_000, 2_000, 1_000]
        );
        assert_eq!(obs.epochs.last().unwrap().steps_total, 5_000);
        for e in &obs.epochs {
            assert!(e.loss.is_finite() && e.loss > 0.0, "loss = {}", e.loss);
            assert!((0.0..=1.0).contains(&e.grad_scale), "g = {}", e.grad_scale);
            assert!(e.user_norm.is_finite() && e.user_norm > 0.0);
            assert!(e.item_norm.is_finite() && e.item_norm > 0.0);
            assert!(!e.non_finite);
            assert!(e.triples_per_sec > 0.0);
        }
        // The report carries the same epochs the observer saw.
        assert_eq!(report.epochs, obs.epochs);
        assert_eq!(report.aborted_at, None);

        let summary = obs.summary.expect("fit_end fired");
        assert_eq!(summary.steps, 5_000);
        assert!(!summary.diverged);
    }

    #[test]
    fn unobserved_report_still_carries_epoch_timing() {
        // Satellite contract: FitReport exposes per-epoch durations even
        // with the default no-op observer, so callers stop re-deriving them.
        let data = world(24);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 3_000,
            refresh_every: 1_000,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let mut rng = SmallRng::seed_from_u64(9);
        let (_, report) = trainer.fit(&data, &mut UniformSampler, &mut rng);
        assert_eq!(report.epochs.len(), 3);
        let summed: Duration = report.epochs.iter().map(|e| e.elapsed).sum();
        assert!(summed <= report.elapsed);
        for e in &report.epochs {
            assert_eq!(e.steps, 1_000);
            assert!(e.loss.is_nan(), "no-op observer must not pay for loss");
        }
    }

    #[test]
    fn observer_abort_stops_serial_training_early() {
        struct AbortFirst;
        impl TrainObserver for AbortFirst {
            fn on_epoch(&mut self, _: &EpochStats) -> Control {
                Control::Abort
            }
        }
        let data = world(25);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 9_000,
            refresh_every: 1_000,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let mut rng = SmallRng::seed_from_u64(2);
        let (_, report) =
            trainer.fit_observed(&data, &mut UniformSampler, &mut rng, &mut AbortFirst);
        assert_eq!(report.iterations, 1_000);
        assert_eq!(report.aborted_at, Some(1_000));
        assert_eq!(report.epochs.len(), 1);
    }

    #[test]
    fn observer_abort_stops_parallel_training_early() {
        struct AbortAfter(usize);
        impl TrainObserver for AbortAfter {
            fn on_epoch(&mut self, stats: &EpochStats) -> Control {
                if stats.epoch + 1 >= self.0 {
                    Control::Abort
                } else {
                    Control::Continue
                }
            }
        }
        let data = world(26);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 8_000,
            refresh_every: 1_000,
            parallel: crate::ParallelConfig {
                threads: 4,
                chunk_size: 64,
            },
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let (model, report) = trainer
            .fit_with(&data, &mut UniformSampler, 5, observed(&mut AbortAfter(2)))
            .unwrap();
        // Abort decided after epoch 1's stats, published at the next epoch
        // edge: 2 full epochs ran.
        assert_eq!(report.iterations, 2_000);
        assert_eq!(report.aborted_at, Some(2_000));
        assert_eq!(report.epochs.len(), 2);
        assert!(!model.mf.has_non_finite());
    }

    #[test]
    fn divergence_is_detected_and_aborts() {
        // A blow-up learning rate sends the parameters non-finite within
        // the first epochs; the enabled observer must catch it at an epoch
        // boundary and abort instead of burning the whole step budget.
        let data = world(27);
        let mut cfg = ClapfConfig {
            iterations: 50_000,
            refresh_every: 1_000,
            ..quick_config(ClapfMode::Map, 0.4)
        };
        cfg.sgd.learning_rate = 1e5;
        let trainer = Clapf::new(cfg);
        let mut obs = Recording::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let (_, report) = trainer.fit_observed(&data, &mut UniformSampler, &mut rng, &mut obs);
        assert!(report.diverged);
        assert_eq!(obs.divergences.len(), 1, "one divergence callback");
        let at = report.aborted_at.expect("diverged run must abort early");
        assert!(at < 50_000, "aborted at {at}");
        assert!(report.epochs.last().unwrap().non_finite);
        assert_eq!(obs.summary.unwrap().aborted_at, Some(at));
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clapf-trainer-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Aborts (as if killed) once `limit` epochs have completed.
    struct AbortAfterEpochs(usize);
    impl TrainObserver for AbortAfterEpochs {
        fn enabled(&self) -> bool {
            false
        }
        fn on_epoch(&mut self, stats: &EpochStats) -> Control {
            if stats.epoch + 1 >= self.0 {
                Control::Abort
            } else {
                Control::Continue
            }
        }
    }

    #[test]
    fn resumable_uninterrupted_matches_fit_bitwise() {
        let _guard = clapf_faults::exclusive();
        let data = world(30);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 6_000,
            refresh_every: 1_500,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let plain = {
            let mut rng = SmallRng::seed_from_u64(31);
            let mut sampler = DssSampler::dss(DssMode::Map);
            trainer.fit(&data, &mut sampler, &mut rng).0
        };
        let dir = ckpt_dir("uninterrupted");
        let (resumable, report) = trainer
            .fit_with(
                &data,
                &mut DssSampler::dss(DssMode::Map),
                31,
                checkpointed(&CheckpointConfig::new(&dir), &mut NoopObserver),
            )
            .unwrap();
        assert_same_scores(&plain, &resumable, &data, "resumable vs fit");
        assert_eq!(report.resumed_from, None);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.iterations, 6_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_after_interrupt_is_bit_identical() {
        let _guard = clapf_faults::exclusive();
        // The tentpole contract: interrupt a serial fit at an epoch edge,
        // resume from the checkpoint, and land on the exact bits an
        // uninterrupted run produces.
        let data = world(31);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 6_000,
            refresh_every: 1_500,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let uninterrupted = {
            let mut rng = SmallRng::seed_from_u64(77);
            let mut sampler = DssSampler::dss(DssMode::Map);
            trainer.fit(&data, &mut sampler, &mut rng).0
        };

        let dir = ckpt_dir("interrupt");
        let ckpt = CheckpointConfig::new(&dir);
        // First run "crashes" after two of the four epochs.
        let (_, first) = trainer
            .fit_with(
                &data,
                &mut DssSampler::dss(DssMode::Map),
                77,
                checkpointed(&ckpt, &mut AbortAfterEpochs(2)),
            )
            .unwrap();
        assert_eq!(first.aborted_at, Some(3_000));

        let (resumed, report) = trainer
            .fit_with(
                &data,
                &mut DssSampler::dss(DssMode::Map),
                77,
                checkpointed(&ckpt, &mut NoopObserver),
            )
            .unwrap();
        assert!(report.resumed_from.is_some());
        assert!(report.resumed_from.unwrap() >= 1, "resumed mid-run");
        assert_same_scores(&uninterrupted, &resumed, &data, "resumed vs uninterrupted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_false_restarts_from_scratch() {
        let _guard = clapf_faults::exclusive();
        let data = world(32);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 3_000,
            refresh_every: 1_000,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let dir = ckpt_dir("fresh");
        let ckpt = CheckpointConfig::new(&dir);
        let (a, _) = trainer
            .fit_with(
                &data,
                &mut UniformSampler,
                5,
                checkpointed(&ckpt, &mut NoopObserver),
            )
            .unwrap();
        let fresh = CheckpointConfig {
            resume: false,
            ..ckpt.clone()
        };
        let (b, report) = trainer
            .fit_with(
                &data,
                &mut UniformSampler,
                5,
                checkpointed(&fresh, &mut NoopObserver),
            )
            .unwrap();
        assert_eq!(report.resumed_from, None);
        assert_same_scores(&a, &b, &data, "fresh restart is a full deterministic rerun");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn divergence_recovery_rolls_back_and_completes() {
        let _guard = clapf_faults::exclusive();
        // A blow-up learning rate diverges; the resumable path must roll
        // back to the last checkpoint, shrink the rate, and finish the run
        // finite instead of aborting. The aggressive backoff turns the
        // absurd 1e5 rate into a sane one in a single retry.
        let data = world(33);
        let mut cfg = ClapfConfig {
            iterations: 8_000,
            refresh_every: 1_000,
            ..quick_config(ClapfMode::Map, 0.4)
        };
        cfg.sgd.learning_rate = 1e5;
        let trainer = Clapf::new(cfg);
        let dir = ckpt_dir("recovery");
        let ckpt = CheckpointConfig {
            lr_backoff: 1e-6,
            max_retries: 2,
            ..CheckpointConfig::new(&dir)
        };
        let (model, report) = trainer
            .fit_with(
                &data,
                &mut UniformSampler,
                3,
                checkpointed(&ckpt, &mut NoopObserver),
            )
            .unwrap();
        assert!(report.recoveries >= 1, "recovered at least once");
        assert!(!report.diverged, "recovery must end finite");
        assert_eq!(report.aborted_at, None);
        assert_eq!(report.iterations, 8_000);
        assert!(!model.mf.has_non_finite());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn divergence_without_retry_budget_aborts_like_before() {
        let _guard = clapf_faults::exclusive();
        let data = world(34);
        let mut cfg = ClapfConfig {
            iterations: 20_000,
            refresh_every: 1_000,
            ..quick_config(ClapfMode::Map, 0.4)
        };
        cfg.sgd.learning_rate = 1e5;
        let trainer = Clapf::new(cfg);
        let dir = ckpt_dir("no-retries");
        let ckpt = CheckpointConfig {
            max_retries: 0,
            ..CheckpointConfig::new(&dir)
        };
        let (_, report) = trainer
            .fit_with(
                &data,
                &mut UniformSampler,
                3,
                checkpointed(&ckpt, &mut NoopObserver),
            )
            .unwrap();
        assert!(report.diverged);
        assert_eq!(report.recoveries, 0);
        assert!(report.aborted_at.expect("aborted") < 20_000);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_different_config_is_rejected() {
        let _guard = clapf_faults::exclusive();
        let data = world(35);
        let dir = ckpt_dir("mismatch");
        let ckpt = CheckpointConfig::new(&dir);
        let mk = |lambda: f32| {
            Clapf::new(ClapfConfig {
                iterations: 2_000,
                refresh_every: 1_000,
                ..quick_config(ClapfMode::Map, lambda)
            })
        };
        mk(0.4)
            .fit_with(
                &data,
                &mut UniformSampler,
                1,
                checkpointed(&ckpt, &mut NoopObserver),
            )
            .unwrap();
        let err = mk(0.3)
            .fit_with(
                &data,
                &mut UniformSampler,
                1,
                checkpointed(&ckpt, &mut NoopObserver),
            )
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checkpoint_mid_run_resumes_bit_identical() {
        // Crash *during* a checkpoint write (torn tmp file): the run dies
        // with an I/O error, but the directory still holds the previous
        // good checkpoint, and resuming lands on the uninterrupted bits.
        let _guard = clapf_faults::exclusive();
        let data = world(36);
        let trainer = Clapf::new(ClapfConfig {
            iterations: 6_000,
            refresh_every: 1_500,
            ..quick_config(ClapfMode::Map, 0.4)
        });
        let uninterrupted = {
            let mut rng = SmallRng::seed_from_u64(9);
            trainer.fit(&data, &mut UniformSampler, &mut rng).0
        };

        let dir = ckpt_dir("torn-mid-run");
        let ckpt = CheckpointConfig::new(&dir);
        // Saves fire at epochs 0 (init), 1, 2, …; tear the third one.
        clapf_faults::arm_nth(
            "checkpoint.save.write",
            clapf_faults::Fault::Torn { keep: 64 },
            2,
            Some(1),
        );
        let err = trainer
            .fit_with(
                &data,
                &mut UniformSampler,
                9,
                checkpointed(&ckpt, &mut NoopObserver),
            )
            .unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
        assert!(clapf_faults::hits("checkpoint.save.write") >= 3);
        clapf_faults::reset();

        let (resumed, report) = trainer
            .fit_with(
                &data,
                &mut UniformSampler,
                9,
                checkpointed(&ckpt, &mut NoopObserver),
            )
            .unwrap();
        assert_eq!(report.resumed_from, Some(1), "epoch-2 save was torn");
        assert_same_scores(&uninterrupted, &resumed, &data, "resume after torn save");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "does not rank observed above unobserved")]
    fn inconsistent_weights_are_rejected() {
        let data = world(10);
        let weights = crate::objective::CriterionWeights {
            c_i: -1.0,
            c_k: 0.0,
            c_j: 1.0,
        };
        let trainer = Clapf::new(quick_config(ClapfMode::Map, 0.0));
        let mut rng = SmallRng::seed_from_u64(6);
        let _ = train(
            &data,
            &mut ClapfStep::with_weights(trainer.config(), weights, &mut UniformSampler),
            Seed::Stream(&mut rng),
            FitOptions::default(),
        )
        .unwrap();
    }
}
