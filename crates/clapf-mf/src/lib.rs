//! Matrix-factorization substrate shared by every factor model in the
//! workspace (BPR, MPR, CLiMF, WMF and CLAPF itself).
//!
//! The paper's predictor is `f_ui = U_u · V_i + b_i` with `d` latent factors
//! (Sec 3.1). This crate owns:
//!
//! * [`MfModel`] — the parameter container (user factors, item factors, item
//!   biases) with score kernels and SGD update helpers,
//! * [`Init`] — initialization strategies (the paper follows Pan et al.'s
//!   small-uniform initialization),
//! * [`linalg`] — a tiny dense linear-algebra module (symmetric matrices and
//!   Cholesky solves) used by the WMF/ALS baseline,
//! * [`SgdConfig`] — the shared learning-rate/regularization bundle,
//! * [`image`] — the binary model image that bundles and checkpoints are
//!   saved as,
//! * [`SharedMfModel`] — the lock-free shared view that Hogwild-style
//!   parallel trainers mutate from many threads at once,
//! * [`simd`] — the wide-f32 score/update kernels (portable 8-lane
//!   reference plus a runtime-dispatched AVX2 path) behind every dense hot
//!   loop; the `simd` cargo feature (default on) gates the arch path, and
//!   disabling it leaves the always-compiled portable kernels.
//!
//! Unsafe code is denied crate-wide and allowed only inside the audited
//! [`shared`](SharedMfModel) and [`simd`] modules; every other module is
//! safe Rust.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod linalg;
mod model;
mod scorer;
mod shared;
pub mod simd;

pub use model::{Init, MfModel, SgdConfig};
pub use shared::SharedMfModel;
pub use simd::{arch_dispatch_active, dot, dot_bias, dot_bias_wide, dot_wide};
