//! The non-neural baselines of the paper's evaluation (Sec 6.3).
//!
//! * [`PopRank`] — rank items by training popularity.
//! * [`RandomWalk`] — preference of reachable users, propagated over the
//!   user–item bipartite graph.
//! * [`Wmf`] — Weighted Matrix Factorization (Hu, Koren & Volinsky 2008), the
//!   pointwise baseline, trained by ALS.
//! * [`Bpr`] — Bayesian Personalized Ranking (Rendle et al. 2009), the
//!   seminal pairwise baseline.
//! * [`Mpr`] — Multiple Pairwise Ranking (Yu et al. 2018), the
//!   state-of-the-art pairwise baseline CLAPF borrows its multi-pair
//!   formulation from.
//! * [`Climf`] — Collaborative Less-is-More Filtering (Shi et al. 2012), the
//!   listwise baseline that maximizes smoothed MRR over the observed items.
//!
//! All factor models share the `clapf-mf` substrate and return
//! [`clapf_core::FactorRecommender`], so the harness treats them uniformly.
//! The SGD ones (BPR, MPR) are [`clapf_core::Step`]s trained by the same
//! driver as CLAPF, [`clapf_core::train`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bpr;
mod climf;
mod mpr;
mod poprank;
mod randomwalk;
mod wmf;

pub use bpr::{Bpr, BprConfig};
pub use climf::{Climf, ClimfConfig};
pub use mpr::{Mpr, MprConfig};
pub use poprank::{PopRank, PopRankModel};
pub use randomwalk::{RandomWalk, RandomWalkConfig, RandomWalkModel};
pub use wmf::{Wmf, WmfConfig};

/// Option sets the SGD baselines' tests share.
#[cfg(test)]
mod testing {
    use clapf_core::{CheckpointConfig, FitOptions, TrainObserver};

    pub fn observed(observer: &mut dyn TrainObserver) -> FitOptions<'_> {
        FitOptions {
            observer: Some(observer),
            ..FitOptions::default()
        }
    }

    pub fn checkpointed<'a>(
        ckpt: &'a CheckpointConfig,
        observer: &'a mut dyn TrainObserver,
    ) -> FitOptions<'a> {
        FitOptions {
            observer: Some(observer),
            checkpoint: Some(ckpt),
            probe: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_core::{Clapf, ClapfConfig, FitOptions, FitReport, ParallelConfig};
    use clapf_data::synthetic::{generate, WorldConfig};
    use clapf_mf::SgdConfig;
    use clapf_sampling::{DssMode, DssSampler, UniformSampler};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn checkpoint_fingerprints_are_stable() {
        // Existing checkpoint directories must keep resuming: every model's
        // fingerprint string is pinned verbatim.
        use clapf_core::checkpoint::{latest, CheckpointConfig, CheckpointError};
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(3)).unwrap();
        let fingerprint = |tag: &str, fit: &dyn Fn(FitOptions<'_>)| {
            let dir = std::env::temp_dir()
                .join(format!("clapf-fingerprint-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            fit(FitOptions {
                checkpoint: Some(&CheckpointConfig::new(&dir)),
                ..FitOptions::default()
            });
            let found = match latest(&dir, "") {
                Err(CheckpointError::Mismatch { found, .. }) => found,
                other => panic!("{tag}: expected a fingerprint mismatch, got {other:?}"),
            };
            std::fs::remove_dir_all(&dir).ok();
            found
        };
        let sgd = "sgd=SgdConfig { learning_rate: 0.05, reg_user: 0.002, reg_item: 0.002, \
                   reg_bias: 0.002 };init=SmallUniform { scale: 0.01 };iterations=2000";
        let clapf = Clapf::new(ClapfConfig {
            dim: 4,
            iterations: 2_000,
            ..ClapfConfig::mrr(0.25)
        });
        assert_eq!(
            fingerprint("clapf", &|opts| {
                clapf.fit_with(&data, &mut UniformSampler, 5, opts).unwrap();
            }),
            format!(
                "model=CLAPF(λ=0.2)-MRR;dim=4;{sgd};refresh=1200;sampler=Uniform;seed=5;\
                 kernel=scalar;data=60x120:1200"
            )
        );
        let bpr = Bpr {
            config: BprConfig {
                dim: 4,
                iterations: 2_000,
                ..BprConfig::default()
            },
        };
        assert_eq!(
            fingerprint("bpr", &|opts| {
                bpr.fit_with(&data, 5, opts).unwrap();
            }),
            format!("model=BPR;dim=4;{sgd};epoch=1200;sampler=UniformNegative;seed=5;data=60x120:1200")
        );
        let mpr = Mpr {
            config: MprConfig {
                dim: 4,
                lambda: 0.3,
                iterations: 2_000,
                ..MprConfig::default()
            },
        };
        assert_eq!(
            fingerprint("mpr", &|opts| {
                mpr.fit_with(&data, 5, opts).unwrap();
            }),
            format!(
                "model=MPR;dim=4;lambda=0.3;uncertain=0.5;{sgd};epoch=1200;\
                 sampler=PopularityPools;seed=5;data=60x120:1200"
            )
        );
    }

    #[test]
    fn every_sgd_trainer_stops_at_the_first_epoch_edge_after_diverging() {
        // One divergence rule on every path, observed or not, whatever the
        // sampler: an exploding learning rate goes non-finite within the
        // first epoch, and the driver stops right at that epoch's edge. The
        // DSS draws rank live factor values, so they must keep drawing (not
        // panic) once those values are NaN.
        let data = generate(&WorldConfig::tiny(), &mut SmallRng::seed_from_u64(5)).unwrap();
        let sgd = SgdConfig {
            learning_rate: 1e5,
            ..SgdConfig::default()
        };
        // Twenty epochs of |P| steps for every trainer.
        let iterations = 20 * data.n_pairs();
        let parallel = |threads| ParallelConfig {
            threads,
            chunk_size: 64,
        };
        let clapf = |threads, base| {
            Clapf::new(ClapfConfig {
                dim: 6,
                sgd,
                iterations,
                parallel: parallel(threads),
                ..base
            })
        };
        let serial_dss = |base, mode| {
            clapf(1, base)
                .fit(
                    &data,
                    &mut DssSampler::dss(mode),
                    &mut SmallRng::seed_from_u64(1),
                )
                .1
        };
        let cases: [(&str, FitReport); 6] = [
            (
                "serial CLAPF",
                clapf(1, ClapfConfig::map(0.4))
                    .fit(&data, &mut UniformSampler, &mut SmallRng::seed_from_u64(1))
                    .1,
            ),
            (
                "2-thread CLAPF",
                clapf(2, ClapfConfig::map(0.4))
                    .fit_with(&data, &mut UniformSampler, 1, FitOptions::default())
                    .unwrap()
                    .1,
            ),
            (
                "serial CLAPF-MAP with DSS",
                serial_dss(ClapfConfig::map(0.4), DssMode::Map),
            ),
            (
                "serial CLAPF-MRR with DSS",
                serial_dss(ClapfConfig::mrr(0.4), DssMode::Mrr),
            ),
            (
                "BPR",
                Bpr {
                    config: BprConfig {
                        dim: 6,
                        sgd,
                        iterations,
                        ..BprConfig::default()
                    },
                }
                .fit_with(&data, 1, FitOptions::default())
                .unwrap()
                .1,
            ),
            (
                "MPR",
                Mpr {
                    config: MprConfig {
                        dim: 6,
                        sgd,
                        iterations,
                        ..MprConfig::default()
                    },
                }
                .fit_with(&data, 1, FitOptions::default())
                .unwrap()
                .1,
            ),
        ];
        for (name, report) in cases {
            assert!(report.diverged, "{name} diverged");
            assert_eq!(report.aborted_at, Some(data.n_pairs()), "{name} aborted");
            assert_eq!(report.iterations, data.n_pairs(), "{name} steps");
            assert_eq!(report.epochs.len(), 1, "{name} epochs");
            assert!(report.epochs[0].non_finite, "{name} flagged the epoch");
        }
    }
}
