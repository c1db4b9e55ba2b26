//! CLAPF configuration.

use clapf_mf::{Init, SgdConfig};
use serde::Serialize;

/// Which rank-biased measure the CLAPF instantiation is derived from.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub enum ClapfMode {
    /// CLAPF-MAP (Eq. 16): listwise pair `k ≻ i`.
    Map,
    /// CLAPF-MRR (Eq. 19): listwise pair `i ≻ k`.
    Mrr,
}

impl std::fmt::Display for ClapfMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClapfMode::Map => write!(f, "MAP"),
            ClapfMode::Mrr => write!(f, "MRR"),
        }
    }
}

/// Settings for Hogwild-style multi-threaded training (see
/// `Clapf::fit_with`).
///
/// The defaults keep training serial; parallel SGD is opt-in because its
/// lock-free updates make runs non-reproducible across thread interleavings
/// (except `threads = 1`, which is bit-identical to the serial path).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize)]
pub struct ParallelConfig {
    /// Worker threads; `0` resolves to all available cores (the same
    /// convention as `EvalConfig::threads`), `1` reproduces the serial
    /// trainer bit-for-bit.
    pub threads: usize,
    /// SGD steps a worker claims from the shared epoch counter per grab;
    /// `0` selects the default of 1024. Smaller chunks balance better,
    /// larger chunks touch the counter less.
    pub chunk_size: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            threads: 1,
            chunk_size: 0,
        }
    }
}

impl ParallelConfig {
    /// Resolves the worker count (`0` → all available cores).
    pub fn resolve_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Resolves the work-chunk size (`0` → 1024 steps).
    pub fn resolve_chunk(&self) -> usize {
        if self.chunk_size == 0 {
            1024
        } else {
            self.chunk_size
        }
    }
}

/// Hyper-parameters of a CLAPF run (Sec 4.2/4.3 and the grid of Sec 6.3).
#[derive(Copy, Clone, Debug, Serialize)]
pub struct ClapfConfig {
    /// Instantiation (MAP or MRR).
    pub mode: ClapfMode,
    /// Tradeoff `λ ∈ [0, 1]` between the listwise and the pairwise pair;
    /// `λ = 0` reduces the criterion to BPR's (a step then differs from a
    /// BPR step only in the weight decay it still applies to `V_k`, `b_k`).
    pub lambda: f32,
    /// Number of latent factors `d` (20 in the paper).
    pub dim: usize,
    /// Learning rate and regularization.
    pub sgd: SgdConfig,
    /// Total SGD steps `T`. `0` selects the automatic budget of
    /// `100 · |P|` steps (≈ 100 epochs), capped at 8 million.
    pub iterations: usize,
    /// Parameter initialization.
    pub init: Init,
    /// Sampler refresh cadence in SGD steps; `0` refreshes once per epoch
    /// (`|P|` steps), the amortization the paper borrows from AoBPR/DNS.
    pub refresh_every: usize,
    /// Multi-threaded training settings used by `Clapf::fit_with`.
    pub parallel: ParallelConfig,
}

impl ClapfConfig {
    /// CLAPF-MAP with the paper's defaults (`d = 20`).
    pub fn map(lambda: f32) -> Self {
        ClapfConfig {
            mode: ClapfMode::Map,
            lambda,
            dim: 20,
            sgd: SgdConfig::default(),
            iterations: 0,
            init: Init::default(),
            refresh_every: 0,
            parallel: ParallelConfig::default(),
        }
    }

    /// CLAPF-MRR with the paper's defaults.
    pub fn mrr(lambda: f32) -> Self {
        ClapfConfig {
            mode: ClapfMode::Mrr,
            ..Self::map(lambda)
        }
    }

    /// Resolves the step budget for a dataset with `n_pairs` training pairs.
    pub fn resolve_iterations(&self, n_pairs: usize) -> usize {
        crate::Plan::budget(self.iterations, n_pairs)
    }

    /// Resolves the sampler refresh cadence for a dataset with `n_pairs`
    /// training pairs.
    pub fn resolve_refresh(&self, n_pairs: usize) -> usize {
        if self.refresh_every > 0 {
            self.refresh_every
        } else {
            n_pairs.max(1)
        }
    }

    /// Validates the configuration, panicking with a clear message on
    /// nonsensical values. Called by the trainer.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.lambda),
            "lambda must be in [0, 1], got {}",
            self.lambda
        );
        assert!(self.dim > 0, "dim must be positive");
        assert!(
            self.sgd.learning_rate > 0.0,
            "learning rate must be positive"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_mode() {
        assert_eq!(ClapfConfig::map(0.4).mode, ClapfMode::Map);
        assert_eq!(ClapfConfig::mrr(0.2).mode, ClapfMode::Mrr);
        assert_eq!(ClapfConfig::map(0.4).dim, 20);
    }

    #[test]
    fn iteration_auto_budget() {
        let c = ClapfConfig::map(0.5);
        assert_eq!(c.resolve_iterations(1_000), 100_000);
        assert_eq!(c.resolve_iterations(1_000_000), 8_000_000);
        let explicit = ClapfConfig {
            iterations: 777,
            ..c
        };
        assert_eq!(explicit.resolve_iterations(1_000), 777);
    }

    #[test]
    fn refresh_auto_is_one_epoch() {
        let c = ClapfConfig::map(0.5);
        assert_eq!(c.resolve_refresh(500), 500);
        let explicit = ClapfConfig {
            refresh_every: 64,
            ..c
        };
        assert_eq!(explicit.resolve_refresh(500), 64);
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn bad_lambda_rejected() {
        ClapfConfig::map(1.5).validate();
    }

    #[test]
    fn parallel_defaults_are_serial() {
        let p = ParallelConfig::default();
        assert_eq!(p.threads, 1);
        assert_eq!(p.resolve_threads(), 1);
        assert_eq!(p.resolve_chunk(), 1024);
        assert_eq!(ClapfConfig::map(0.4).parallel, p);
    }

    #[test]
    fn parallel_zero_threads_means_all_cores() {
        let p = ParallelConfig {
            threads: 0,
            chunk_size: 256,
        };
        assert!(p.resolve_threads() >= 1);
        assert_eq!(p.resolve_chunk(), 256);
    }

    #[test]
    fn display_of_modes() {
        assert_eq!(ClapfMode::Map.to_string(), "MAP");
        assert_eq!(ClapfMode::Mrr.to_string(), "MRR");
    }
}
