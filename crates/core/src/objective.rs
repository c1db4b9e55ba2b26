//! The smoothed objectives of the paper, with numerically careful
//! implementations.
//!
//! Everything here operates on the *observed-item score vector* of one user
//! (`f_ui` for `i ∈ I_u⁺`), which is all the listwise objectives of Sec 3.3
//! and 4.1 depend on.

/// Logistic sigmoid `σ(x) = 1 / (1 + e^{-x})`, stable on both tails.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `ln σ(x) = −softplus(−x)`, stable for large |x| (never returns −inf for
/// finite input).
#[inline]
pub fn ln_sigmoid(x: f64) -> f64 {
    // softplus(t) = ln(1 + e^t) = max(t, 0) + ln(1 + e^{-|t|})
    let t = -x;
    let sp = t.max(0.0) + (-t.abs()).exp().ln_1p();
    -sp
}

/// The smoothed Average Precision of Eq. (9), restricted to the observed
/// items (every `Y` is 1):
/// `AP_u = (1/n⁺) Σ_i σ(f_i) Σ_k σ(f_k − f_i)`.
///
/// Both sums run over all observed items, including `k = i` (where
/// `σ(0) = ½`), exactly as the equation is written.
pub fn smoothed_ap(observed_scores: &[f32]) -> f64 {
    let n = observed_scores.len();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for &fi in observed_scores {
        let inner: f64 = observed_scores
            .iter()
            .map(|&fk| sigmoid(fk - fi) as f64)
            .sum();
        total += sigmoid(fi) as f64 * inner;
    }
    total / n as f64
}

/// The valid MAP lower bound from the Jensen chain of Eq. (11):
/// `(1/n) Σ_i ln σ(f_i) + (1/n²) Σ_{i,k} ln σ(f_k − f_i) ≤ ln(AP_u)`.
///
/// Note a subtlety in the paper's derivation: its *last* step replaces the
/// `1/n` coefficient on the first sum by `1/n²`, which is only a lower bound
/// for non-negative summands — `ln σ ≤ 0`, so that step flips. The chain up
/// to the penultimate line (this function) is a true lower bound (our
/// property tests verify it numerically); the *optimized* objective
/// [`map_objective`] (Eq. 12) is unaffected because constants are dropped
/// before optimization anyway — only the relative weighting of the two sums
/// differs by the factor `n`.
pub fn map_lower_bound(observed_scores: &[f32]) -> f64 {
    let n = observed_scores.len();
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let mut singles = 0.0f64;
    let mut pairs = 0.0f64;
    for &fi in observed_scores {
        singles += ln_sigmoid(fi as f64);
        for &fk in observed_scores {
            pairs += ln_sigmoid((fk - fi) as f64);
        }
    }
    singles / nf + pairs / (nf * nf)
}

/// The smoothed Reciprocal Rank of Eq. (6), restricted to observed items:
/// `RR_u = Σ_i σ(f_i) Π_k (1 − σ(f_k − f_i))`.
pub fn smoothed_rr(observed_scores: &[f32]) -> f64 {
    let mut total = 0.0f64;
    for &fi in observed_scores {
        let mut prod = 1.0f64;
        for &fk in observed_scores {
            prod *= 1.0 - sigmoid(fk - fi) as f64;
        }
        total += sigmoid(fi) as f64 * prod;
    }
    total
}

/// The CLiMF/MRR objective of Eq. (7):
/// `Σ_i ln σ(f_i) + Σ_{i,k} ln σ(f_i − f_k)`.
pub fn mrr_objective(observed_scores: &[f32]) -> f64 {
    let mut total = 0.0f64;
    for &fi in observed_scores {
        total += ln_sigmoid(fi as f64);
        for &fk in observed_scores {
            total += ln_sigmoid((fi - fk) as f64);
        }
    }
    total
}

/// The MAP objective of Eq. (12) (the quantity CLAPF-MAP is derived from,
/// constants dropped): `Σ_i ln σ(f_i) + Σ_{i,k} ln σ(f_k − f_i)`.
pub fn map_objective(observed_scores: &[f32]) -> f64 {
    let mut total = 0.0f64;
    for &fi in observed_scores {
        total += ln_sigmoid(fi as f64);
        for &fk in observed_scores {
            total += ln_sigmoid((fk - fi) as f64);
        }
    }
    total
}

/// The CLAPF ranking criterion `R_{≻u}` for one sampled record
/// (Eq. 16 for MAP, Eq. 19 for MRR).
#[inline]
pub fn clapf_criterion(
    mode: crate::ClapfMode,
    lambda: f32,
    f_ui: f32,
    f_uk: f32,
    f_uj: f32,
) -> f32 {
    match mode {
        crate::ClapfMode::Map => lambda * (f_uk - f_ui) + (1.0 - lambda) * (f_ui - f_uj),
        crate::ClapfMode::Mrr => lambda * (f_ui - f_uk) + (1.0 - lambda) * (f_ui - f_uj),
    }
}

/// The partial derivatives `(∂R/∂f_ui, ∂R/∂f_uk, ∂R/∂f_uj)` of the CLAPF
/// criterion — the per-item coefficients of the SGD step (Sec 4.3).
#[inline]
pub fn clapf_coefficients(mode: crate::ClapfMode, lambda: f32) -> (f32, f32, f32) {
    match mode {
        // R = λ(f_uk − f_ui) + (1−λ)(f_ui − f_uj)
        crate::ClapfMode::Map => (1.0 - 2.0 * lambda, lambda, -(1.0 - lambda)),
        // R = λ(f_ui − f_uk) + (1−λ)(f_ui − f_uj)
        crate::ClapfMode::Mrr => (1.0, -lambda, -(1.0 - lambda)),
    }
}

/// A general CLAPF criterion `R_{≻u} = c_i·f_ui + c_k·f_uk + c_j·f_uj`.
///
/// Both paper instantiations are linear in the three scores, so any new
/// smoothed listwise metric that reduces to ranking pairs over
/// `(i, k) ∈ I_u⁺²` and `(i, j)` fits this shape — the extension hook the
/// paper's conclusion invites ("we encourage more smoothed listwise metrics
/// to be optimized with our CLAPF framework"). Train custom instantiations
/// through [`crate::ClapfStep::with_weights`] and [`crate::train`].
#[derive(Copy, Clone, Debug, PartialEq, serde::Serialize)]
pub struct CriterionWeights {
    /// Coefficient of the anchor observed item's score `f_ui`.
    pub c_i: f32,
    /// Coefficient of the second observed item's score `f_uk`.
    pub c_k: f32,
    /// Coefficient of the unobserved item's score `f_uj`.
    pub c_j: f32,
}

impl CriterionWeights {
    /// The weights of a paper instantiation at tradeoff `lambda`.
    pub fn from_mode(mode: crate::ClapfMode, lambda: f32) -> Self {
        let (c_i, c_k, c_j) = clapf_coefficients(mode, lambda);
        CriterionWeights { c_i, c_k, c_j }
    }

    /// Evaluates `R_{≻u}` on a score triple.
    #[inline]
    pub fn criterion(&self, f_ui: f32, f_uk: f32, f_uj: f32) -> f32 {
        self.c_i * f_ui + self.c_k * f_uk + self.c_j * f_uj
    }

    /// A sound custom criterion should rank observed above unobserved in
    /// aggregate: the total weight on observed scores must be positive and
    /// the unobserved weight negative. Used by the trainer as a sanity
    /// check.
    pub fn is_ranking_consistent(&self) -> bool {
        self.c_i + self.c_k > 0.0 && self.c_j < 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClapfMode;

    #[test]
    fn sigmoid_reference_values() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(2.0) - 0.880797).abs() < 1e-5);
        assert!((sigmoid(-2.0) - 0.119203).abs() < 1e-5);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
    }

    #[test]
    fn sigmoid_symmetry() {
        for x in [-5.0f32, -1.5, 0.0, 0.3, 4.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn ln_sigmoid_is_stable_on_tails() {
        assert!((ln_sigmoid(0.0) - 0.5f64.ln()).abs() < 1e-12);
        assert!((ln_sigmoid(-1000.0) + 1000.0).abs() < 1e-9);
        assert!(ln_sigmoid(1000.0).abs() < 1e-9);
        assert!(ln_sigmoid(-1000.0).is_finite());
    }

    #[test]
    fn ln_sigmoid_matches_naive_in_safe_range() {
        for x in [-10.0f64, -1.0, 0.0, 0.5, 3.0, 10.0] {
            let naive = (1.0 / (1.0 + (-x).exp())).ln();
            assert!((ln_sigmoid(x) - naive).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn smoothed_ap_of_empty_is_zero() {
        assert_eq!(smoothed_ap(&[]), 0.0);
        assert_eq!(map_lower_bound(&[]), 0.0);
    }

    #[test]
    fn smoothed_ap_increases_with_scores() {
        // Raising every observed score raises σ(f_i) while the pairwise
        // differences stay fixed, so the smoothed AP must increase.
        let low = smoothed_ap(&[-1.0, -0.5, 0.0]);
        let high = smoothed_ap(&[1.0, 1.5, 2.0]);
        assert!(high > low);
    }

    #[test]
    fn map_bound_is_below_ln_smoothed_ap() {
        // The Jensen chain of Eq. (11) on a grid of score vectors.
        let cases: Vec<Vec<f32>> = vec![
            vec![0.0],
            vec![0.0, 0.0],
            vec![1.0, -1.0],
            vec![2.0, 0.5, -0.7],
            vec![-3.0, -2.0, -1.0, 0.0, 1.0, 2.0],
            vec![0.01, 0.02, 0.03],
        ];
        for scores in cases {
            let bound = map_lower_bound(&scores);
            let value = smoothed_ap(&scores).ln();
            assert!(
                bound <= value + 1e-6,
                "bound {bound} exceeds ln AP {value} on {scores:?}"
            );
        }
    }

    #[test]
    fn mrr_objective_pairwise_term_is_maximized_at_equality() {
        // In the symmetrized Eq. (7) form, Σ_{i,k} ln σ(f_i − f_k) is largest
        // when all observed scores coincide (each ordered pair then sits at
        // σ(0), the top of ln σ(x) + ln σ(−x)); promoting one item helps only
        // through the first Σ ln σ(f_i) term.
        let bunched = mrr_objective(&[1.0, 1.0, 1.0]);
        let spread = mrr_objective(&[3.0, 0.0, 0.0]);
        assert!(bunched > spread, "bunched {bunched} vs spread {spread}");
        // Raising all scores together strictly improves the objective.
        let raised = mrr_objective(&[2.0, 2.0, 2.0]);
        assert!(raised > bunched);
    }

    #[test]
    fn map_objective_decomposes_like_the_bound() {
        // Same two sums, different constants: objective = n·singles-part of
        // the bound + n²·pairs-part.
        let scores = [0.4f32, -0.2, 1.1];
        let singles: f64 = scores.iter().map(|&x| ln_sigmoid(x as f64)).sum();
        let mut pairs = 0.0f64;
        for &fi in &scores {
            for &fk in &scores {
                pairs += ln_sigmoid((fk - fi) as f64);
            }
        }
        assert!((map_objective(&scores) - (singles + pairs)).abs() < 1e-9);
        let n = scores.len() as f64;
        assert!((map_lower_bound(&scores) - (singles / n + pairs / (n * n))).abs() < 1e-9);
    }

    #[test]
    fn smoothed_rr_is_positive_and_bounded() {
        let v = smoothed_rr(&[0.5, -0.5, 2.0]);
        assert!(v > 0.0);
        // Each term ≤ σ(f_i) ≤ 1, n terms.
        assert!(v <= 3.0);
    }

    #[test]
    fn criterion_at_lambda_zero_is_bpr() {
        for mode in [ClapfMode::Map, ClapfMode::Mrr] {
            let r = clapf_criterion(mode, 0.0, 1.0, -7.0, 0.25);
            assert!((r - (1.0 - 0.25)).abs() < 1e-6, "{mode:?}");
            let (ci, ck, cj) = clapf_coefficients(mode, 0.0);
            assert_eq!((ci, ck, cj), (1.0, 0.0, -1.0));
        }
    }

    #[test]
    fn map_criterion_matches_equation_16() {
        let (l, fi, fk, fj) = (0.4f32, 0.3, 0.9, -0.2);
        let r = clapf_criterion(ClapfMode::Map, l, fi, fk, fj);
        let expected = l * (fk - fi) + (1.0 - l) * (fi - fj);
        assert!((r - expected).abs() < 1e-6);
    }

    #[test]
    fn mrr_criterion_matches_equation_19() {
        let (l, fi, fk, fj) = (0.7f32, 0.3, 0.9, -0.2);
        let r = clapf_criterion(ClapfMode::Mrr, l, fi, fk, fj);
        let expected = l * (fi - fk) + (1.0 - l) * (fi - fj);
        assert!((r - expected).abs() < 1e-6);
    }

    #[test]
    fn coefficients_are_criterion_gradients() {
        // Finite-difference check of ∂R/∂f on both modes.
        let eps = 1e-3f32;
        for mode in [ClapfMode::Map, ClapfMode::Mrr] {
            for lambda in [0.0f32, 0.3, 0.5, 0.8, 1.0] {
                let (fi, fk, fj) = (0.2f32, -0.4, 0.7);
                let (ci, ck, cj) = clapf_coefficients(mode, lambda);
                let base = clapf_criterion(mode, lambda, fi, fk, fj);
                let di = (clapf_criterion(mode, lambda, fi + eps, fk, fj) - base) / eps;
                let dk = (clapf_criterion(mode, lambda, fi, fk + eps, fj) - base) / eps;
                let dj = (clapf_criterion(mode, lambda, fi, fk, fj + eps) - base) / eps;
                assert!((di - ci).abs() < 1e-3, "{mode:?} λ={lambda}");
                assert!((dk - ck).abs() < 1e-3, "{mode:?} λ={lambda}");
                assert!((dj - cj).abs() < 1e-3, "{mode:?} λ={lambda}");
            }
        }
    }
}
