//! The Table 2 "time" column: per-epoch training cost of each method.
//!
//! The paper's claims are about ordering — CLAPF ≈ BPR ≪ CLiMF, DSS adds
//! only amortized overhead — which these benches reproduce on the ML100K
//! stand-in.

use clapf_baselines::{Bpr, BprConfig, Climf, ClimfConfig, Mpr, MprConfig, Wmf, WmfConfig};
use clapf_core::{Clapf, ClapfConfig, FitOptions, ParallelConfig};
use clapf_mf::SgdConfig;
use clapf_sampling::{DssMode, DssSampler, UniformSampler};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;

/// One "epoch" = |P| SGD steps for the sampling methods.
fn bench_train(c: &mut Criterion) {
    let data = bench::fixture::ml100k_standin();
    let steps = data.n_pairs();
    let mut group = c.benchmark_group("train_epoch");
    group.sample_size(10);

    group.bench_function("bpr", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let model = Bpr {
                config: BprConfig {
                    dim: 20,
                    iterations: steps,
                    ..BprConfig::default()
                },
            }
            .fit(&data, &mut rng);
            black_box(model.model.params_sq_norm())
        })
    });

    group.bench_function("mpr", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let model = Mpr {
                config: MprConfig {
                    dim: 20,
                    iterations: steps,
                    ..MprConfig::default()
                },
            }
            .fit(&data, &mut rng);
            black_box(model.model.params_sq_norm())
        })
    });

    group.bench_function("clapf_map_uniform", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let trainer = Clapf::new(ClapfConfig {
                dim: 20,
                iterations: steps,
                sgd: SgdConfig::default(),
                ..ClapfConfig::map(0.4)
            });
            let (model, _) = trainer.fit(&data, &mut UniformSampler, &mut rng);
            black_box(model.mf.params_sq_norm())
        })
    });

    group.bench_function("clapf_map_dss", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let trainer = Clapf::new(ClapfConfig {
                dim: 20,
                iterations: steps,
                ..ClapfConfig::map(0.4)
            });
            let mut sampler = DssSampler::dss(DssMode::Map);
            let (model, _) = trainer.fit(&data, &mut sampler, &mut rng);
            black_box(model.mf.params_sq_norm())
        })
    });

    // Hogwild scaling: the same CLAPF epoch with 1/2/4/8 lock-free workers.
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(&format!("clapf_par{threads}"), |b| {
            b.iter(|| {
                let trainer = Clapf::new(ClapfConfig {
                    dim: 20,
                    iterations: steps,
                    parallel: ParallelConfig {
                        threads,
                        chunk_size: 0,
                    },
                    ..ClapfConfig::map(0.4)
                });
                let (model, _) = trainer
                    .fit_with(&data, &mut UniformSampler, 2, FitOptions::default())
                    .expect("a fit without checkpoints does no I/O");
                black_box(model.mf.params_sq_norm())
            })
        });
    }

    group.bench_function("climf", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let model = Climf {
                config: ClimfConfig {
                    dim: 20,
                    epochs: 1,
                    ..ClimfConfig::default()
                },
            }
            .fit(&data, &mut rng);
            black_box(model.model.params_sq_norm())
        })
    });

    group.bench_function("wmf_sweep", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(2);
            let model = Wmf {
                config: WmfConfig {
                    dim: 20,
                    sweeps: 1,
                    ..WmfConfig::default()
                },
            }
            .fit(&data, &mut rng);
            black_box(model.model.params_sq_norm())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_train);
criterion_main!(benches);
