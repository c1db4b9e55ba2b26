//! Property-based tests for metric invariants.

use clapf_data::{InteractionsBuilder, ItemId, UserId};
use clapf_metrics::{
    auc, average_precision, evaluate_serial, evaluate_serial_naive, f1, ndcg_at_k,
    one_call_at_k, precision_at_k, rank_all, recall_at_k, reciprocal_rank, top_k_into,
    EvalConfig, RankedList,
};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_scores_and_relevant() -> impl Strategy<Value = (Vec<f32>, HashSet<u32>)> {
    (2usize..60).prop_flat_map(|m| {
        (
            proptest::collection::vec(-100.0f32..100.0, m),
            proptest::collection::hash_set(0..m as u32, 0..m),
        )
    })
}

proptest! {
    #[test]
    fn metrics_are_in_unit_interval((scores, relset) in arb_scores_and_relevant(), k in 1usize..25) {
        let ranked = rank_all(&scores, |_| true);
        let n_rel = relset.len();
        let relevant = |i: ItemId| relset.contains(&i.0);
        for v in [
            precision_at_k(&ranked, k, relevant),
            recall_at_k(&ranked, k, n_rel, relevant),
            one_call_at_k(&ranked, k, relevant),
            ndcg_at_k(&ranked, k, n_rel, relevant),
            average_precision(&ranked, n_rel, relevant),
            reciprocal_rank(&ranked, relevant),
            auc(&ranked, relevant),
        ] {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v), "metric out of range: {v}");
        }
    }

    #[test]
    fn recall_is_monotone_in_k((scores, relset) in arb_scores_and_relevant()) {
        let ranked = rank_all(&scores, |_| true);
        let n_rel = relset.len();
        let relevant = |i: ItemId| relset.contains(&i.0);
        let mut prev = 0.0;
        for k in 1..scores.len() {
            let r = recall_at_k(&ranked, k, n_rel, relevant);
            prop_assert!(r + 1e-12 >= prev, "recall decreased at k={k}");
            prev = r;
        }
    }

    #[test]
    fn one_call_is_monotone_in_k((scores, relset) in arb_scores_and_relevant()) {
        let ranked = rank_all(&scores, |_| true);
        let relevant = |i: ItemId| relset.contains(&i.0);
        let mut prev = 0.0;
        for k in 1..scores.len() {
            let c = one_call_at_k(&ranked, k, relevant);
            prop_assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn full_recall_at_m((scores, relset) in arb_scores_and_relevant()) {
        prop_assume!(!relset.is_empty());
        let ranked = rank_all(&scores, |_| true);
        let relevant = |i: ItemId| relset.contains(&i.0);
        let r = recall_at_k(&ranked, scores.len(), relset.len(), relevant);
        prop_assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_relevant_makes_ap_equal_rr(
        scores in proptest::collection::vec(-100.0f32..100.0, 2..60),
        pick in 0usize..1000,
    ) {
        // With exactly one relevant item, AP's only term is 1/rank — the
        // definition of RR — so the two metrics must coincide.
        let the_item = (pick % scores.len()) as u32;
        let ranked = rank_all(&scores, |_| true);
        let relevant = |i: ItemId| i.0 == the_item;
        let ap = average_precision(&ranked, 1, relevant);
        let rr = reciprocal_rank(&ranked, relevant);
        prop_assert!((ap - rr).abs() < 1e-12);
    }

    #[test]
    fn f1_bounded_by_min(p in 0.0f64..1.0, r in 0.0f64..1.0) {
        let v = f1(p, r);
        prop_assert!(v <= p.max(r) + 1e-12);
        prop_assert!(v <= 2.0 * p.min(r) + 1e-12);
    }

    #[test]
    fn top_k_is_prefix_of_full((scores, _) in arb_scores_and_relevant(), k in 1usize..30) {
        let full = rank_all(&scores, |_| true);
        let mut top = Vec::new();
        top_k_into(&scores, k, |_| true, &mut top);
        prop_assert_eq!(&top[..], &full.items[..k.min(scores.len())]);
    }

    #[test]
    fn ranking_is_a_permutation((scores, _) in arb_scores_and_relevant()) {
        let ranked = rank_all(&scores, |_| true);
        let mut seen: Vec<u32> = ranked.items.iter().map(|i| i.0).collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..scores.len() as u32).collect();
        prop_assert_eq!(seen, expect);
    }

    #[test]
    fn sortfree_evaluator_equals_naive_exactly(
        n_users in 2u32..8,
        n_items in 6u32..30,
        seed in 0u64..u64::MAX,
    ) {
        // Random score matrices quantized to a handful of levels, so ties —
        // including ties straddling the top-k boundary — occur constantly,
        // plus random train/test membership. The sort-free engine must
        // reproduce the retained full-sort evaluator *bit for bit* (exact
        // `==` on every f64 in the report, not approximate).
        let cells = (n_users * n_items) as usize;
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64* — cheap deterministic stream for roles and scores.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let roles: Vec<u8> = (0..cells).map(|_| (next() % 4) as u8).collect();
        let scores: Vec<f32> = (0..cells).map(|_| (next() % 5) as f32 * 0.5).collect();
        let mut tr = InteractionsBuilder::new(n_users, n_items);
        let mut te = InteractionsBuilder::new(n_users, n_items);
        let mut any_train = false;
        let mut any_test = false;
        for u in 0..n_users {
            for i in 0..n_items {
                match roles[(u * n_items + i) as usize] {
                    1 => {
                        tr.push(UserId(u), ItemId(i)).unwrap();
                        any_train = true;
                    }
                    2 => {
                        te.push(UserId(u), ItemId(i)).unwrap();
                        any_test = true;
                    }
                    _ => {}
                }
            }
        }
        prop_assume!(any_train && any_test);
        let (train, test) = (tr.build().unwrap(), te.build().unwrap());
        let scorer = move |u: UserId, out: &mut Vec<f32>| {
            out.clear();
            out.extend_from_slice(
                &scores[(u.0 * n_items) as usize..((u.0 + 1) * n_items) as usize],
            );
        };
        let config = EvalConfig {
            ks: vec![1, 3, 5, 10],
            ..EvalConfig::default()
        };
        let fast = evaluate_serial(&scorer, &train, &test, &config);
        let naive = evaluate_serial_naive(&scorer, &train, &test, &config);
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn auc_of_reversed_ranking_is_complement((scores, relset) in arb_scores_and_relevant()) {
        prop_assume!(!relset.is_empty() && relset.len() < scores.len());
        let ranked = rank_all(&scores, |_| true);
        let relevant = |i: ItemId| relset.contains(&i.0);
        let fwd = auc(&ranked, relevant);
        let rev = RankedList { items: ranked.items.iter().rev().copied().collect() };
        let bwd = auc(&rev, relevant);
        prop_assert!((fwd + bwd - 1.0).abs() < 1e-9, "fwd={fwd} bwd={bwd}");
    }
}
