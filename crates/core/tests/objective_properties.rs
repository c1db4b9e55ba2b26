//! Property-based tests of the smoothed objectives (the paper's math).

use clapf_core::objective::{
    clapf_criterion, ln_sigmoid, map_lower_bound, map_objective, mrr_objective, sigmoid,
    smoothed_ap, smoothed_rr,
};
use clapf_core::ClapfMode;
use proptest::prelude::*;

fn arb_scores() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, 1..12)
}

proptest! {
    #[test]
    fn sigmoid_in_open_unit_interval(x in -100.0f32..100.0) {
        let s = sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!(s.is_finite());
    }

    #[test]
    fn sigmoid_monotone(a in -50.0f32..50.0, d in 0.01f32..10.0) {
        prop_assert!(sigmoid(a + d) >= sigmoid(a));
    }

    #[test]
    fn ln_sigmoid_nonpositive_and_finite(x in -1e6f64..1e6) {
        let v = ln_sigmoid(x);
        prop_assert!(v <= 0.0);
        prop_assert!(v.is_finite());
    }

    #[test]
    fn ln_sigmoid_antisymmetric_identity(x in -30.0f64..30.0) {
        // ln σ(x) − ln σ(−x) = x.
        prop_assert!((ln_sigmoid(x) - ln_sigmoid(-x) - x).abs() < 1e-9);
    }

    /// The central theorem of Sec 4.1 (Eq. 11): the derived objective is a
    /// true lower bound of the log of the smoothed AP.
    #[test]
    fn map_lower_bound_holds(scores in arb_scores()) {
        let bound = map_lower_bound(&scores);
        let value = smoothed_ap(&scores).ln();
        prop_assert!(bound <= value + 1e-6, "bound {bound} > ln AP {value}");
    }

    #[test]
    fn smoothed_ap_in_unit_interval(scores in arb_scores()) {
        // Eq. (9) with all-relevant lists: each of the n outer terms is
        // ≤ σ(f_i)·n ≤ n, divided by n ⇒ ≤ n; but with σ ≤ 1 and inner sum
        // ≤ n the whole is ≤ n. The sharper bound used by the paper's
        // discussion: AP_u ≤ n (loose) and ≥ 0.
        let ap = smoothed_ap(&scores);
        prop_assert!(ap >= 0.0);
        prop_assert!(ap <= scores.len() as f64);
    }

    #[test]
    fn smoothed_rr_bounded_by_count(scores in arb_scores()) {
        let rr = smoothed_rr(&scores);
        prop_assert!(rr >= 0.0);
        prop_assert!(rr <= scores.len() as f64);
    }

    #[test]
    fn objectives_are_finite(scores in arb_scores()) {
        prop_assert!(map_objective(&scores).is_finite());
        prop_assert!(mrr_objective(&scores).is_finite());
        prop_assert!(map_objective(&scores) <= 0.0);
        prop_assert!(mrr_objective(&scores) <= 0.0);
    }

    #[test]
    fn criterion_is_linear_in_lambda(
        fi in -5.0f32..5.0,
        fk in -5.0f32..5.0,
        fj in -5.0f32..5.0,
        l in 0.0f32..1.0,
    ) {
        for mode in [ClapfMode::Map, ClapfMode::Mrr] {
            let r0 = clapf_criterion(mode, 0.0, fi, fk, fj);
            let r1 = clapf_criterion(mode, 1.0, fi, fk, fj);
            let rl = clapf_criterion(mode, l, fi, fk, fj);
            prop_assert!((rl - ((1.0 - l) * r0 + l * r1)).abs() < 1e-4);
        }
    }

    #[test]
    fn both_modes_share_the_pairwise_pair(
        fi in -5.0f32..5.0,
        fk in -5.0f32..5.0,
        fj in -5.0f32..5.0,
    ) {
        // At λ = 0 the listwise pair vanishes and both modes reduce to the
        // BPR difference f_ui − f_uj.
        let map0 = clapf_criterion(ClapfMode::Map, 0.0, fi, fk, fj);
        let mrr0 = clapf_criterion(ClapfMode::Mrr, 0.0, fi, fk, fj);
        prop_assert!((map0 - (fi - fj)).abs() < 1e-5);
        prop_assert!((mrr0 - (fi - fj)).abs() < 1e-5);
    }
}
