//! CLAPF — Collaborative List-and-Pairwise Filtering (the paper's
//! contribution).
//!
//! The framework joins a *listwise* ranking pair (two observed items) with a
//! *pairwise* ranking pair (an observed and an unobserved item) in a single
//! logistic objective (Sec 4.2):
//!
//! * **CLAPF-MAP** maximizes
//!   `Σ ln σ(λ(f_uk − f_ui) + (1 − λ)(f_ui − f_uj))` — derived from a
//!   differentiable lower bound of Mean Average Precision (Sec 4.1),
//! * **CLAPF-MRR** maximizes
//!   `Σ ln σ(λ(f_ui − f_uk) + (1 − λ)(f_ui − f_uj))` — derived from the
//!   CLiMF lower bound of Mean Reciprocal Rank.
//!
//! At `λ = 0` both reduce to BPR's criterion: one CLAPF step applies the BPR
//! update to `U_u`, `V_i`, `V_j` and their biases, and only weight-decays the
//! second observed item `k` (its gradient coefficient is 0).
//!
//! Crate layout:
//!
//! * [`objective`] — numerically stable sigmoid/log-sigmoid, the smoothed
//!   AP/RR values (Eqs. 6 & 9) and their lower bounds (Eqs. 7 & 12), and the
//!   CLAPF criterion `R_{≻u}` (Eqs. 16 & 19).
//! * [`Clapf`] / [`ClapfConfig`] — the SGD trainer (Sec 4.3) with pluggable
//!   [`clapf_sampling::TripleSampler`]; its update is [`ClapfStep`].
//! * [`train`] / [`Step`] — the one SGD driver every factor model (CLAPF,
//!   BPR, MPR) trains through: epochs, observation, checkpoints and resume,
//!   divergence handling and the Hogwild fan-out.
//! * [`Recommender`] — the model-agnostic scoring/recommendation trait every
//!   model in the workspace implements, plus [`FactorRecommender`], the
//!   shared wrapper for plain matrix-factorization models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod config;
mod driver;
pub mod objective;
mod recommender;
mod trainer;

pub use checkpoint::{Checkpoint, CheckpointConfig, CheckpointError};
pub use config::{ClapfConfig, ClapfMode, ParallelConfig};
pub use driver::{train, FitOptions, FitReport, Plan, Seed, SgdRates, Step, StepTally};
pub use recommender::{FactorRecommender, Recommender};
pub use trainer::{Clapf, ClapfModel, ClapfStep};

// Observer vocabulary, re-exported so trainer callers need not name the
// telemetry crate for the common attach-an-observer case.
pub use clapf_telemetry::{Control, EpochStats, FitMeta, FitSummary, NoopObserver, TrainObserver};
