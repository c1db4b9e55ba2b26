//! Behavior of `ClapfConfig::simd_training` (the wide-kernel training
//! opt-in): off by default and bit-reproducible, on-demand and still
//! learning, and — because the kernel choice is per-fit, not per-thread —
//! single-worker parallel training stays bit-identical to serial either way.

use clapf_core::{
    CheckpointConfig, CheckpointError, Clapf, ClapfConfig, ClapfModel, FitOptions, Recommender,
};
use clapf_data::split::{split, Split, SplitStrategy};
use clapf_data::synthetic::{generate, WorldConfig};
use clapf_data::Interactions;
use clapf_metrics::{evaluate_serial, EvalConfig};
use clapf_sampling::UniformSampler;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn world(seed: u64) -> Interactions {
    let mut rng = SmallRng::seed_from_u64(seed);
    generate(&WorldConfig::tiny(), &mut rng).unwrap()
}

fn split_world(seed: u64) -> Split {
    let data = world(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5);
    split(&data, SplitStrategy::PerUser, 0.5, &mut rng).unwrap()
}

fn quick(simd_training: bool) -> ClapfConfig {
    ClapfConfig {
        dim: 12, // a wide-kernel tail: 8 + 4
        iterations: 8_000,
        simd_training,
        ..ClapfConfig::map(0.4)
    }
}

fn fit_serial(cfg: ClapfConfig, data: &Interactions, seed: u64) -> ClapfModel {
    let mut rng = SmallRng::seed_from_u64(seed);
    Clapf::new(cfg).fit(data, &mut UniformSampler, &mut rng).0
}

fn assert_bitwise_equal(a: &ClapfModel, b: &ClapfModel, data: &Interactions) {
    for u in data.users() {
        for i in data.items() {
            assert_eq!(
                a.mf.score(u, i).to_bits(),
                b.mf.score(u, i).to_bits(),
                "score({u:?}, {i:?}) diverged"
            );
        }
    }
}

/// The wide-kernel fit must stay finite and actually learn: its ranking
/// quality on the planted-structure world clears the same bar the scalar
/// fit does.
#[test]
fn wide_kernel_training_learns() {
    let sp = split_world(31);
    let cfg = ClapfConfig {
        iterations: 120_000,
        ..quick(true)
    };
    let model = fit_serial(cfg, &sp.train, 7);
    assert!(!model.mf.has_non_finite());
    let report =
        evaluate_serial(&model as &dyn Recommender, &sp.train, &sp.test, &EvalConfig::at_5());
    assert!(
        report.auc > 0.62,
        "wide-kernel fit failed to learn: AUC {}",
        report.auc
    );
}

/// Scalar and wide fits follow *different* trajectories (the wide dot
/// reassociates, so rounding differs step by step) but land at comparable
/// quality — the flag is a throughput knob, not a statistics knob.
#[test]
fn wide_and_scalar_fits_have_comparable_quality() {
    let sp = split_world(32);
    let iters = ClapfConfig {
        iterations: 120_000,
        ..quick(false)
    };
    let scalar = fit_serial(iters, &sp.train, 5);
    let wide = fit_serial(
        ClapfConfig {
            simd_training: true,
            ..iters
        },
        &sp.train,
        5,
    );
    let cfg = EvalConfig::at_5();
    let rs = evaluate_serial(&scalar as &dyn Recommender, &sp.train, &sp.test, &cfg);
    let rw = evaluate_serial(&wide as &dyn Recommender, &sp.train, &sp.test, &cfg);
    assert!(
        (rs.auc - rw.auc).abs() < 0.05,
        "scalar AUC {} vs wide AUC {}",
        rs.auc,
        rw.auc
    );
}

/// Same seed + same flag ⇒ same model, to the bit, flag on or off. The
/// wide kernel reassociates relative to the *scalar* kernel, but it is
/// still deterministic with itself.
#[test]
fn each_kernel_is_self_reproducible() {
    let data = world(33);
    for flag in [false, true] {
        let a = fit_serial(quick(flag), &data, 11);
        let b = fit_serial(quick(flag), &data, 11);
        assert_bitwise_equal(&a, &b, &data);
    }
}

/// `fit_with` at one worker is bit-identical to `fit` with the wide
/// kernel enabled too — the kernel is chosen once per fit from the config,
/// so thread count and kernel choice are orthogonal.
#[test]
fn threads_1_is_bitwise_serial_with_wide_kernel() {
    let data = world(34);
    let cfg = quick(true);
    let serial = fit_serial(cfg, &data, 42);
    let parallel = Clapf::new(cfg)
        .fit_with(&data, &mut UniformSampler, 42, FitOptions::default())
        .unwrap()
        .0;
    assert_bitwise_equal(&serial, &parallel, &data);
}

/// The kernel is part of a checkpoint's fingerprint: a wide-kernel
/// checkpoint resumes under the wide kernel to the uninterrupted fit's
/// weights, and refuses a scalar-kernel resume instead of splicing two
/// trajectories.
#[test]
fn a_checkpoint_resumes_only_under_the_kernel_it_trained_with() {
    let data = world(35);
    let dir = std::env::temp_dir().join(format!("clapf-simd-ckpt-{}", std::process::id()));
    let ckpt = CheckpointConfig {
        resume: false,
        ..CheckpointConfig::new(&dir)
    };
    let fit = |cfg, ckpt| {
        let opts = FitOptions {
            checkpoint: Some(ckpt),
            ..FitOptions::default()
        };
        Clapf::new(cfg).fit_with(&data, &mut UniformSampler, 3, opts)
    };
    let (wide, _) = fit(quick(true), &ckpt).unwrap();
    let resume = CheckpointConfig {
        resume: true,
        ..ckpt.clone()
    };
    let (resumed, _) = fit(quick(true), &resume).unwrap();
    assert_bitwise_equal(&wide, &resumed, &data);
    let err = fit(quick(false), &resume).unwrap_err();
    assert!(matches!(err, CheckpointError::Mismatch { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
