//! The factor-model parameter container and its SGD kernels.
//!
//! The dense-f32 arithmetic lives in [`crate::simd`]; this module only
//! decides *which* kernel each entry point uses. [`MfModel::score`] stays on
//! the scalar kernel (its exact operation order is what default training
//! trajectories are pinned to), while the bulk inference paths
//! ([`MfModel::scores_for_user`], [`MfModel::scores_for_users`]) use the
//! wide kernels.

use crate::image::{ImageReader, ImageWriter};
use crate::simd::{self, dot_bias, dot_bias_wide};
use clapf_data::{ItemId, UserId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Initialization strategy for factor matrices.
///
/// The paper initializes `U_u, V_i, b_i` following Pan et al. (AAAI'12),
/// i.e. small centered uniform noise; that is [`Init::SmallUniform`] with
/// `scale = 0.01`, the default across the workspace.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Init {
    /// `(rand − 0.5) · scale` per entry.
    SmallUniform {
        /// Width multiplier of the centered uniform noise.
        scale: f32,
    },
    /// Centered Gaussian with the given standard deviation.
    Gaussian {
        /// Standard deviation of each entry.
        std: f32,
    },
    /// All parameters zero (useful for tests and for bias-only models).
    Zeros,
}

impl Default for Init {
    fn default() -> Self {
        Init::SmallUniform { scale: 0.01 }
    }
}

impl Init {
    fn sample<R: Rng>(self, rng: &mut R) -> f32 {
        match self {
            Init::SmallUniform { scale } => (rng.gen::<f32>() - 0.5) * scale,
            Init::Gaussian { std } => {
                let u1: f32 = rng.gen::<f32>().max(f32::MIN_POSITIVE);
                let u2: f32 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos() * std
            }
            Init::Zeros => 0.0,
        }
    }
}

/// Learning-rate and regularization bundle shared by the SGD-trained models.
///
/// Field names mirror the paper: `α_u` regularizes user factors, `α_v` item
/// factors and `β_v` item biases; `γ` is the learning rate (Eq. 22).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate `γ`.
    pub learning_rate: f32,
    /// User-factor regularization `α_u`.
    pub reg_user: f32,
    /// Item-factor regularization `α_v`.
    pub reg_item: f32,
    /// Item-bias regularization `β_v`.
    pub reg_bias: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        // Selected on validation NDCG@5 over the synthetic worlds (the
        // paper tunes its grid per dataset the same way); the hotter rate
        // compensates for the small-uniform initialization.
        SgdConfig {
            learning_rate: 0.05,
            reg_user: 0.002,
            reg_item: 0.002,
            reg_bias: 0.002,
        }
    }
}

/// Latent-factor model `f_ui = U_u · V_i + b_i`.
///
/// Parameters are stored as row-major `f32` blocks, one row of `dim` floats
/// per user/item, which keeps a whole embedding on one or two cache lines
/// for the paper's `d = 20`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MfModel {
    n_users: u32,
    n_items: u32,
    dim: usize,
    user_factors: Vec<f32>,
    item_factors: Vec<f32>,
    item_bias: Vec<f32>,
}

impl MfModel {
    /// Creates a model with the given dimensions and initialization.
    pub fn new<R: Rng>(n_users: u32, n_items: u32, dim: usize, init: Init, rng: &mut R) -> Self {
        assert!(dim > 0, "latent dimension must be positive");
        let nu = n_users as usize;
        let ni = n_items as usize;
        MfModel {
            n_users,
            n_items,
            dim,
            user_factors: (0..nu * dim).map(|_| init.sample(rng)).collect(),
            item_factors: (0..ni * dim).map(|_| init.sample(rng)).collect(),
            item_bias: (0..ni).map(|_| init.sample(rng)).collect(),
        }
    }

    /// Number of users.
    #[inline]
    pub fn n_users(&self) -> u32 {
        self.n_users
    }

    /// Number of items.
    #[inline]
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Latent dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The latent factor row of user `u`.
    #[inline]
    pub fn user(&self, u: UserId) -> &[f32] {
        let s = u.index() * self.dim;
        &self.user_factors[s..s + self.dim]
    }

    /// Mutable latent factor row of user `u`.
    #[inline]
    pub fn user_mut(&mut self, u: UserId) -> &mut [f32] {
        let s = u.index() * self.dim;
        &mut self.user_factors[s..s + self.dim]
    }

    /// The latent factor row of item `i`.
    #[inline]
    pub fn item(&self, i: ItemId) -> &[f32] {
        let s = i.index() * self.dim;
        &self.item_factors[s..s + self.dim]
    }

    /// Mutable latent factor row of item `i`.
    #[inline]
    pub fn item_mut(&mut self, i: ItemId) -> &mut [f32] {
        let s = i.index() * self.dim;
        &mut self.item_factors[s..s + self.dim]
    }

    /// The rank column of factor `q` over `items`: `out[t]` becomes
    /// [`simd::rank_bits`] of `V_{items[t], q}` (negated when `negate`),
    /// whose unsigned order is the factor order (descending when
    /// `descending`). One gather per item through
    /// [`simd::gather_rank_bits`]; the DSS positive draw ranks a user's
    /// observed items by these words.
    ///
    /// # Panics
    /// Panics if `q ≥ dim` or an item is out of range.
    pub fn item_rank_bits(
        &self,
        q: usize,
        items: &[ItemId],
        negate: bool,
        descending: bool,
        out: &mut Vec<u32>,
    ) {
        simd::gather_rank_bits(&self.item_factors, self.dim, q, items, negate, descending, out);
    }

    /// Bias of item `i`.
    #[inline]
    pub fn bias(&self, i: ItemId) -> f32 {
        self.item_bias[i.index()]
    }

    /// Mutable bias of item `i`.
    #[inline]
    pub fn bias_mut(&mut self, i: ItemId) -> &mut f32 {
        &mut self.item_bias[i.index()]
    }

    /// All item biases, indexable by `ItemId::index`.
    #[inline]
    pub fn biases(&self) -> &[f32] {
        &self.item_bias
    }

    /// Predicted relevance `f_ui = U_u · V_i + b_i`.
    ///
    /// Uses the scalar [`dot_bias`] kernel on purpose: this is the scoring
    /// path inside `sgd_step` and the samplers, and its exact operation
    /// order is what keeps default training trajectories bit-identical
    /// across releases. The trainer's opt-in SIMD mode goes through
    /// [`score_wide`](MfModel::score_wide) instead.
    #[inline]
    pub fn score(&self, u: UserId, i: ItemId) -> f32 {
        dot_bias(self.user(u), self.item(i), self.item_bias[i.index()])
    }

    /// Predicted relevance via the wide (8-lane) kernel — the same value as
    /// [`score`](MfModel::score) up to f32 summation order, and exactly the
    /// per-pair arithmetic of [`scores_for_user`](MfModel::scores_for_user).
    /// The trainer uses it when the `simd_training` config flag is set.
    #[inline]
    pub fn score_wide(&self, u: UserId, i: ItemId) -> f32 {
        dot_bias_wide(self.user(u), self.item(i), self.item_bias[i.index()])
    }

    /// Writes the scores of user `u` against every item into `out`
    /// (resized to `n_items`). One pass over the item table with the wide
    /// [`dot_bias_wide`] kernel, no allocation when `out` has capacity.
    /// This is the kernel behind every full-ranking evaluation; blocks of
    /// users go through the faster
    /// [`scores_for_users`](MfModel::scores_for_users).
    pub fn scores_for_user(&self, u: UserId, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.n_items as usize);
        let uf = self.user(u);
        for (vf, &b) in self.item_factors.chunks_exact(self.dim).zip(&self.item_bias) {
            out.push(dot_bias_wide(uf, vf, b));
        }
    }

    /// Cache-blocked batch-scoring kernel: scores every item for a whole
    /// block of users, `outs[b]` receiving the scores of `users[b]` (each
    /// resized to `n_items`).
    ///
    /// The item table — the part that outgrows cache first (`n_items · d`
    /// floats) — is cut into tiles sized to stay L2-resident; each tile is
    /// swept once per user in the block before the next tile streams in, so
    /// item rows are read from memory once per block instead of once per
    /// user. Scores are produced by the same [`dot_bias_wide`] kernel as
    /// [`scores_for_user`](MfModel::scores_for_user), and each `(u, i)`
    /// score is an independent dot product, so the results are bit-identical
    /// to per-user scoring.
    pub fn scores_for_users(&self, users: &[UserId], outs: &mut [Vec<f32>]) {
        assert_eq!(
            users.len(),
            outs.len(),
            "one output buffer per user in the block"
        );
        let ni = self.n_items as usize;
        for out in outs.iter_mut() {
            out.clear();
            out.resize(ni, 0.0);
        }
        simd::blocked_scores(
            &self.user_factors,
            &self.item_factors,
            &self.item_bias,
            self.dim,
            users,
            outs,
        );
    }

    /// The pre-wide batch sweep, kept as the scalar-kernel reference: same
    /// item-major traversal the batch kernel used before the wide kernels
    /// landed, scoring through the scalar [`dot_bias`]. The scale bench
    /// measures the wide [`scores_for_users`](MfModel::scores_for_users)
    /// against this path; it is not used on any production route.
    pub fn scores_for_users_scalar(&self, users: &[UserId], outs: &mut [Vec<f32>]) {
        assert_eq!(
            users.len(),
            outs.len(),
            "one output buffer per user in the block"
        );
        let ni = self.n_items as usize;
        for out in outs.iter_mut() {
            out.clear();
            out.resize(ni, 0.0);
        }
        for (vi, (vf, &b)) in self
            .item_factors
            .chunks_exact(self.dim)
            .zip(&self.item_bias)
            .enumerate()
        {
            for (out, &u) in outs.iter_mut().zip(users) {
                out[vi] = dot_bias(self.user(u), vf, b);
            }
        }
    }

    /// Copies the factor row of item `i` into `buf` (length `dim`).
    /// Convenience for SGD kernels that must read several rows while
    /// mutating others.
    #[inline]
    pub fn copy_item_into(&self, i: ItemId, buf: &mut [f32]) {
        buf.copy_from_slice(self.item(i));
    }

    /// Copies the factor row of user `u` into `buf` (length `dim`).
    #[inline]
    pub fn copy_user_into(&self, u: UserId, buf: &mut [f32]) {
        buf.copy_from_slice(self.user(u));
    }

    /// SGD step on a user row: `U_u += step · grad − lr·reg · U_u`.
    ///
    /// `grad` must have length `dim`. The regularization term uses the same
    /// `lr` folded into `step` by the caller; the decay is applied
    /// explicitly so the call site reads like Eq. (22). Runs through the
    /// elementwise [`simd::axpy_update`] kernel, which is bit-identical to
    /// the scalar loop it replaced (no cross-element reassociation).
    #[inline]
    pub fn sgd_user(&mut self, u: UserId, step: f32, grad: &[f32], decay: f32) {
        simd::axpy_update(self.user_mut(u), grad, step, decay);
    }

    /// SGD step on an item row: `V_i += step · grad − decay · V_i`.
    #[inline]
    pub fn sgd_item(&mut self, i: ItemId, step: f32, grad: &[f32], decay: f32) {
        simd::axpy_update(self.item_mut(i), grad, step, decay);
    }

    /// SGD step on an item bias: `b_i += step · grad − decay · b_i`.
    #[inline]
    pub fn sgd_bias(&mut self, i: ItemId, step: f32, grad: f32, decay: f32) {
        let b = &mut self.item_bias[i.index()];
        *b += step * grad - decay * *b;
    }

    /// Raw mutable pointers to the three parameter blocks (user factors,
    /// item factors, item biases), for the [`crate::SharedMfModel`] Hogwild
    /// view. The pointers target the heap buffers, which never move or
    /// reallocate after construction (training only overwrites in place).
    pub(crate) fn raw_params(&mut self) -> (*mut f32, *mut f32, *mut f32) {
        (
            self.user_factors.as_mut_ptr(),
            self.item_factors.as_mut_ptr(),
            self.item_bias.as_mut_ptr(),
        )
    }

    /// Squared Frobenius norm of all parameters (for regularization audits
    /// and divergence tests).
    pub fn params_sq_norm(&self) -> f64 {
        let f = |v: &[f32]| v.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
        f(&self.user_factors) + f(&self.item_factors) + f(&self.item_bias)
    }

    /// True if any parameter is non-finite (training blew up).
    pub fn has_non_finite(&self) -> bool {
        self.user_factors
            .iter()
            .chain(&self.item_factors)
            .chain(&self.item_bias)
            .any(|x| !x.is_finite())
    }

    /// Mean L2 norm of the user factor rows — the telemetry layer's
    /// embedding-health snapshot (a collapsing or exploding mean norm flags
    /// a bad learning rate long before AUC does).
    pub fn mean_user_norm(&self) -> f64 {
        mean_row_norm(&self.user_factors, self.n_users as usize, self.dim)
    }

    /// Mean L2 norm of the item factor rows.
    pub fn mean_item_norm(&self) -> f64 {
        mean_row_norm(&self.item_factors, self.n_items as usize, self.dim)
    }

    /// Structural integrity check for models that crossed a trust boundary
    /// (deserialized from disk, received over the network). The serde derive
    /// fills fields independently, so a corrupt document can claim
    /// `n_users = 10` while shipping five factor rows — every accessor
    /// would then panic on a slice out of range. Returns a description of
    /// the first inconsistency instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.dim == 0 {
            return Err("latent dimension is zero".into());
        }
        let want_u = (self.n_users as usize).checked_mul(self.dim);
        if want_u != Some(self.user_factors.len()) {
            return Err(format!(
                "user factor block has {} floats, expected {} users × dim {}",
                self.user_factors.len(),
                self.n_users,
                self.dim
            ));
        }
        let want_i = (self.n_items as usize).checked_mul(self.dim);
        if want_i != Some(self.item_factors.len()) {
            return Err(format!(
                "item factor block has {} floats, expected {} items × dim {}",
                self.item_factors.len(),
                self.n_items,
                self.dim
            ));
        }
        if self.item_bias.len() != self.n_items as usize {
            return Err(format!(
                "item bias block has {} floats, expected {}",
                self.item_bias.len(),
                self.n_items
            ));
        }
        if self.has_non_finite() {
            return Err("model contains non-finite parameters".into());
        }
        Ok(())
    }
}

impl MfModel {
    /// Writes the model's block of a model image: `n_users`, `n_items`,
    /// `dim` and a reserved word (`u32` each), then the user factors, item
    /// factors and item biases as raw `f32` arrays (see [`crate::image`]).
    pub(crate) fn write_tables(&self, w: &mut ImageWriter) {
        w.u32(self.n_users);
        w.u32(self.n_items);
        w.u32(u32::try_from(self.dim).expect("latent dimension fits in u32"));
        w.u32(0);
        w.f32s(&self.user_factors);
        w.f32s(&self.item_factors);
        w.f32s(&self.item_bias);
    }

    /// Reads the block [`write_tables`](Self::write_tables) wrote. The
    /// table sizes follow from the dims, so only [`validate`](Self::validate)'s
    /// value checks (non-zero `dim`, finite parameters) remain for the caller.
    pub(crate) fn read_tables(r: &mut ImageReader) -> Result<MfModel, String> {
        let (n_users, n_items, dim) = (r.u32()?, r.u32()?, r.u32()? as usize);
        if r.u32()? != 0 {
            return Err("non-zero reserved word in the model header".into());
        }
        let rows = |n: u32| {
            (n as usize)
                .checked_mul(dim)
                .ok_or_else(|| format!("{n} rows × dim {dim} overflows"))
        };
        Ok(MfModel {
            n_users,
            n_items,
            dim,
            user_factors: r.f32s(rows(n_users)?, "user factors")?,
            item_factors: r.f32s(rows(n_items)?, "item factors")?,
            item_bias: r.f32s(n_items as usize, "item biases")?,
        })
    }
}

fn mean_row_norm(flat: &[f32], rows: usize, dim: usize) -> f64 {
    let mut acc = 0.0f64;
    for row in flat.chunks_exact(dim) {
        acc += row.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt();
    }
    acc / (rows.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model(dim: usize) -> MfModel {
        let mut rng = SmallRng::seed_from_u64(1);
        MfModel::new(4, 6, dim, Init::default(), &mut rng)
    }

    #[test]
    fn dimensions_are_exposed() {
        let m = model(8);
        assert_eq!(m.n_users(), 4);
        assert_eq!(m.n_items(), 6);
        assert_eq!(m.dim(), 8);
        assert_eq!(m.user(UserId(0)).len(), 8);
        assert_eq!(m.item(ItemId(5)).len(), 8);
    }

    #[test]
    fn score_matches_manual_dot() {
        let mut m = model(3);
        m.user_mut(UserId(1)).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.item_mut(ItemId(2)).copy_from_slice(&[0.5, -1.0, 2.0]);
        *m.bias_mut(ItemId(2)) = 0.25;
        let expected = 1.0 * 0.5 - 2.0 + 3.0 * 2.0 + 0.25;
        assert!((m.score(UserId(1), ItemId(2)) - expected).abs() < 1e-6);
    }

    #[test]
    fn scores_for_user_matches_score() {
        let m = model(5);
        let mut out = Vec::new();
        m.scores_for_user(UserId(2), &mut out);
        assert_eq!(out.len(), 6);
        for (i, &s) in out.iter().enumerate() {
            assert!((s - m.score(UserId(2), ItemId(i as u32))).abs() < 1e-6);
        }
    }

    #[test]
    fn batch_scores_match_per_user_bitwise() {
        let mut rng = SmallRng::seed_from_u64(9);
        // dim = 7 exercises the non-multiple-of-4 tail of the dot kernel.
        let m = MfModel::new(10, 37, 7, Init::SmallUniform { scale: 0.5 }, &mut rng);
        let users: Vec<UserId> = [0u32, 3, 3, 9, 5].iter().map(|&u| UserId(u)).collect();
        let mut outs: Vec<Vec<f32>> = vec![Vec::new(); users.len()];
        m.scores_for_users(&users, &mut outs);
        let mut single = Vec::new();
        for (b, &u) in users.iter().enumerate() {
            m.scores_for_user(u, &mut single);
            assert_eq!(outs[b].len(), 37);
            for i in 0..37 {
                assert_eq!(
                    outs[b][i].to_bits(),
                    single[i].to_bits(),
                    "user {u:?} item {i}"
                );
            }
        }
    }

    #[test]
    fn scalar_batch_reference_matches_scalar_score_bitwise() {
        let mut rng = SmallRng::seed_from_u64(21);
        let m = MfModel::new(6, 29, 7, Init::SmallUniform { scale: 0.5 }, &mut rng);
        let users = [UserId(0), UserId(5), UserId(2)];
        let mut outs: Vec<Vec<f32>> = vec![Vec::new(); users.len()];
        m.scores_for_users_scalar(&users, &mut outs);
        for (b, &u) in users.iter().enumerate() {
            for i in 0..29u32 {
                assert_eq!(
                    outs[b][i as usize].to_bits(),
                    m.score(u, ItemId(i)).to_bits()
                );
            }
        }
    }

    #[test]
    fn wide_score_agrees_with_scalar_score() {
        let mut rng = SmallRng::seed_from_u64(22);
        let m = MfModel::new(4, 9, 20, Init::SmallUniform { scale: 0.5 }, &mut rng);
        for i in 0..9u32 {
            let s = m.score(UserId(1), ItemId(i));
            let w = m.score_wide(UserId(1), ItemId(i));
            assert!((s - w).abs() < 1e-5, "item {i}: {s} vs {w}");
        }
    }

    #[test]
    fn batch_scores_empty_block_is_ok() {
        let m = model(4);
        let mut outs: Vec<Vec<f32>> = Vec::new();
        m.scores_for_users(&[], &mut outs);
    }

    #[test]
    #[should_panic(expected = "one output buffer per user")]
    fn batch_scores_reject_mismatched_buffers() {
        let m = model(4);
        let mut outs: Vec<Vec<f32>> = vec![Vec::new()];
        m.scores_for_users(&[UserId(0), UserId(1)], &mut outs);
    }

    #[test]
    fn small_uniform_init_is_small_and_centered() {
        let mut rng = SmallRng::seed_from_u64(3);
        let m = MfModel::new(200, 200, 10, Init::SmallUniform { scale: 0.01 }, &mut rng);
        let mean: f32 = m.user_factors.iter().sum::<f32>() / m.user_factors.len() as f32;
        assert!(mean.abs() < 1e-3, "mean = {mean}");
        assert!(m.user_factors.iter().all(|x| x.abs() <= 0.005 + 1e-9));
    }

    #[test]
    fn gaussian_init_has_requested_spread() {
        let mut rng = SmallRng::seed_from_u64(4);
        let m = MfModel::new(300, 300, 10, Init::Gaussian { std: 0.1 }, &mut rng);
        let n = m.item_factors.len() as f32;
        let var: f32 = m.item_factors.iter().map(|x| x * x).sum::<f32>() / n;
        assert!((var.sqrt() - 0.1).abs() < 0.01, "std = {}", var.sqrt());
    }

    #[test]
    fn zeros_init_scores_zero() {
        let mut rng = SmallRng::seed_from_u64(5);
        let m = MfModel::new(2, 2, 4, Init::Zeros, &mut rng);
        assert_eq!(m.score(UserId(0), ItemId(1)), 0.0);
        assert_eq!(m.params_sq_norm(), 0.0);
    }

    #[test]
    fn sgd_user_moves_toward_gradient() {
        let mut m = model(2);
        m.user_mut(UserId(0)).copy_from_slice(&[0.0, 0.0]);
        m.sgd_user(UserId(0), 0.5, &[1.0, -2.0], 0.0);
        assert_eq!(m.user(UserId(0)), &[0.5, -1.0]);
    }

    #[test]
    fn sgd_decay_shrinks_weights() {
        let mut m = model(2);
        m.item_mut(ItemId(0)).copy_from_slice(&[1.0, 1.0]);
        m.sgd_item(ItemId(0), 0.0, &[0.0, 0.0], 0.1);
        assert_eq!(m.item(ItemId(0)), &[0.9, 0.9]);
    }

    #[test]
    fn sgd_bias_update() {
        let mut m = model(2);
        *m.bias_mut(ItemId(3)) = 1.0;
        m.sgd_bias(ItemId(3), 0.1, 2.0, 0.5);
        assert!((m.bias(ItemId(3)) - (1.0 + 0.2 - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = model(2);
        assert!(!m.has_non_finite());
        m.user_mut(UserId(0))[0] = f32::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "latent dimension")]
    fn zero_dim_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        MfModel::new(1, 1, 0, Init::Zeros, &mut rng);
    }

    #[test]
    fn validate_accepts_fresh_and_rejects_corrupt() {
        let mut m = model(3);
        assert!(m.validate().is_ok());
        // A deserialized document can disagree about block sizes.
        m.user_factors.truncate(1);
        let err = m.validate().unwrap_err();
        assert!(err.contains("user factor"), "{err}");

        let mut m = model(3);
        m.item_bias.push(0.0);
        let err = m.validate().unwrap_err();
        assert!(err.contains("bias"), "{err}");

        let mut m = model(3);
        m.item_mut(ItemId(0))[0] = f32::INFINITY;
        let err = m.validate().unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }
}
