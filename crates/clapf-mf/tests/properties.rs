//! Property-based tests for the matrix-factorization substrate.

use clapf_data::{ItemId, UserId};
use clapf_mf::linalg::SquareMatrix;
use clapf_mf::{Init, MfModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

proptest! {
    /// f_ui is bilinear: scaling the user row scales the interaction part
    /// of the score (the bias is additive).
    #[test]
    fn score_is_bilinear_in_user(seed in 0u64..500, scale in 0.1f32..4.0) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = MfModel::new(3, 4, 6, Init::Gaussian { std: 0.5 }, &mut rng);
        let u = UserId(1);
        let i = ItemId(2);
        let base = m.score(u, i) - m.bias(i);
        for w in m.user_mut(u) {
            *w *= scale;
        }
        let scaled = m.score(u, i) - m.bias(i);
        prop_assert!((scaled - base * scale).abs() < 1e-3 * (1.0 + base.abs()),
            "base {base}, scaled {scaled}, scale {scale}");
    }

    /// Pure decay (zero gradient) shrinks the parameter norm monotonically.
    #[test]
    fn decay_contracts(seed in 0u64..500, decay in 0.001f32..0.2) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = MfModel::new(4, 4, 5, Init::Gaussian { std: 0.3 }, &mut rng);
        let zeros = vec![0.0f32; 5];
        let before = m.params_sq_norm();
        for u in 0..4 {
            m.sgd_user(UserId(u), 0.0, &zeros, decay);
        }
        for i in 0..4 {
            m.sgd_item(ItemId(i), 0.0, &zeros, decay);
            m.sgd_bias(ItemId(i), 0.0, 0.0, decay);
        }
        let after = m.params_sq_norm();
        prop_assert!(after <= before + 1e-9, "{before} -> {after}");
    }

    /// An SGD step in the gradient direction with positive step increases
    /// the dot product with that gradient (first-order ascent property).
    #[test]
    fn sgd_step_ascends(seed in 0u64..500, step in 0.001f32..0.5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = MfModel::new(1, 1, 8, Init::Gaussian { std: 0.2 }, &mut rng);
        let grad: Vec<f32> = (0..8).map(|k| ((k * 7 + 3) % 5) as f32 - 2.0).collect();
        let dot_before: f32 = m.user(UserId(0)).iter().zip(&grad).map(|(a, b)| a * b).sum();
        m.sgd_user(UserId(0), step, &grad, 0.0);
        let dot_after: f32 = m.user(UserId(0)).iter().zip(&grad).map(|(a, b)| a * b).sum();
        let grad_norm: f32 = grad.iter().map(|g| g * g).sum();
        prop_assert!((dot_after - dot_before - step * grad_norm).abs() < 1e-3);
    }

    /// scores_for_user always agrees with per-pair score.
    #[test]
    fn bulk_scores_agree(seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = MfModel::new(5, 9, 4, Init::Gaussian { std: 1.0 }, &mut rng);
        let mut out = Vec::new();
        for u in 0..5u32 {
            m.scores_for_user(UserId(u), &mut out);
            prop_assert_eq!(out.len(), 9);
            for i in 0..9u32 {
                prop_assert!((out[i as usize] - m.score(UserId(u), ItemId(i))).abs() < 1e-6);
            }
        }
    }

    /// Cholesky solve inverts the matrix-vector product for random SPD
    /// systems.
    #[test]
    fn cholesky_round_trip(
        seed in 0u64..500,
        n in 1usize..8,
        ridge in 0.01f64..10.0,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        use rand::Rng;
        let mut a = SquareMatrix::zeros(n);
        for i in 0..n {
            a[(i, i)] = ridge;
        }
        for _ in 0..2 * n {
            let x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
            a.add_outer(&x, rng.gen::<f64>() + 0.1);
        }
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        let mut b: Vec<f64> = (0..n)
            .map(|r| (0..n).map(|c| a[(r, c)] * x_true[c]).sum())
            .collect();
        a.cholesky_solve_into(&mut b).unwrap();
        for (got, want) in b.iter().zip(&x_true) {
            prop_assert!((got - want).abs() < 1e-6 * (1.0 + want.abs()), "{got} vs {want}");
        }
    }
}
