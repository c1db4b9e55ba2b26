//! Turning per-item scores into ranked candidate lists.

use clapf_data::ItemId;

/// A user's candidate items ranked by descending predicted score.
///
/// `positions` maps each position (0-based) to the item at that rank;
/// relevance lookups are the caller's business. Ties are broken by ascending
/// item id so that rankings — and therefore every metric in the workspace —
/// are deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RankedList {
    /// Items from best (index 0) to worst.
    pub items: Vec<ItemId>,
}

impl RankedList {
    /// Number of ranked candidates.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Exact ranks of a user's relevant items, computed by counting instead of
/// sorting.
///
/// Every metric the evaluator reports depends on the candidate ranking only
/// through (a) the exact 1-based ranks of the relevant items and (b) the
/// top-`max(ks)` prefix, so a full `O(m log m)` sort of the candidate set is
/// wasted work. This pass computes the ranks in `O(m log r + r log r)` for
/// `m` candidates and `r` relevant items: each candidate counts itself
/// against the (tiny, sorted) relevant set via binary search, and a
/// difference array turns the per-candidate counts into ranks.
///
/// The induced ranking is *identical* to [`rank_all`]'s — descending score
/// with ascending-id tie-break — so metrics computed from these ranks are
/// bit-for-bit equal to metrics computed from the sorted list.
///
/// Buffers are reused across calls; one `CountingRanks` per evaluation
/// worker means no per-user allocation after warm-up.
#[derive(Clone, Debug, Default)]
pub struct CountingRanks {
    /// Relevant candidates in rank order: (score, id), best first.
    keyed: Vec<(f32, ItemId)>,
    /// `above[p]` counts candidates whose first outranked relevant item is
    /// `keyed[p]` (difference-array form of the per-relevant counts).
    above: Vec<usize>,
    /// 1-based ranks of the relevant candidates, ascending.
    ranks: Vec<usize>,
    n_candidates: usize,
}

impl CountingRanks {
    /// An empty instance (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the ranks of the `relevant` items among the candidates of
    /// `scores`, plus the candidate count. Relevant items that are not
    /// candidates are dropped, exactly as a sort-based ranking would omit
    /// them. Scores must be finite.
    pub fn compute<F: Fn(ItemId) -> bool>(
        &mut self,
        scores: &[f32],
        is_candidate: F,
        relevant: &[ItemId],
    ) {
        self.keyed.clear();
        for &r in relevant {
            if is_candidate(r) {
                debug_assert!(scores[r.index()].is_finite(), "scores must be finite");
                self.keyed.push((scores[r.index()], r));
            }
        }
        // Rank order: descending score, ascending id (the rank_all order).
        self.keyed.sort_unstable_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("scores must be finite")
                .then(a.1.cmp(&b.1))
        });
        let nr = self.keyed.len();
        self.above.clear();
        self.above.resize(nr + 1, 0);
        let mut n_candidates = 0usize;
        for (idx, &s) in scores.iter().enumerate() {
            let i = ItemId(idx as u32);
            if !is_candidate(i) {
                continue;
            }
            n_candidates += 1;
            // A candidate outranks keyed[p] iff its (score, id) key is
            // strictly better; along the rank-ordered keyed list that
            // predicate is monotone, so the first outranked position is a
            // partition point. The candidate then sits above keyed[p..].
            let p = self
                .keyed
                .partition_point(|&(rs, rid)| !(s > rs || (s == rs && i < rid)));
            self.above[p] += 1;
        }
        // rank(keyed[j]) = 1 + #candidates outranking it
        //                = 1 + Σ_{p ≤ j} above[p]  (a relevant candidate
        // never counts itself: its own partition point is j + 1).
        self.ranks.clear();
        let mut cum = 0usize;
        for j in 0..nr {
            cum += self.above[j];
            self.ranks.push(cum + 1);
        }
        self.n_candidates = n_candidates;
    }

    /// 1-based ranks of the relevant candidates, strictly ascending.
    #[inline]
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Number of candidate items in the ranking.
    #[inline]
    pub fn n_candidates(&self) -> usize {
        self.n_candidates
    }
}

/// Ranks every candidate item by descending `scores[item]`.
///
/// `is_candidate(i)` filters the universe: evaluation passes
/// "not observed in training", so test items and truly unobserved items
/// compete while training items are excluded, exactly as in the paper.
pub fn rank_all<F: Fn(ItemId) -> bool>(scores: &[f32], is_candidate: F) -> RankedList {
    let mut items: Vec<ItemId> = (0..scores.len() as u32)
        .map(ItemId)
        .filter(|&i| is_candidate(i))
        .collect();
    items.sort_unstable_by(|&a, &b| {
        let sa = scores[a.index()];
        let sb = scores[b.index()];
        sb.partial_cmp(&sa)
            .expect("scores must be finite")
            .then(a.cmp(&b))
    });
    RankedList { items }
}

/// The top `k` candidates by descending score (ties by ascending item id)
/// into a caller-owned buffer, so per-user prefix computation in the
/// evaluation loop does not allocate after warm-up.
///
/// Single pass with `items` doubling as a bounded binary max-heap (ordered
/// by "worse", so the root is the current k-th best): each candidate pays
/// one threshold comparison in the common reject case, `O(log k)` only on
/// the rare improvement. This replaced materialize-then-`select_nth`, which
/// cost more than the score sweep itself on the serve miss path (~65µs vs
/// ~18µs per user at 5k items, k = 10).
///
/// `is_candidate` is called exactly once per item id, in ascending id
/// order — a stateful filter (e.g. a merge-walk over a sorted exclusion
/// list) may rely on that.
pub fn top_k_into<F: FnMut(ItemId) -> bool>(
    scores: &[f32],
    k: usize,
    mut is_candidate: F,
    items: &mut Vec<ItemId>,
) {
    items.clear();
    if k == 0 {
        return;
    }
    // Strict total order "a ranks after b" in (score desc, item id asc);
    // ids are unique, so exactly one of worse(a, b) / worse(b, a) holds.
    let worse = |a: ItemId, b: ItemId| {
        let sa = scores[a.index()];
        let sb = scores[b.index()];
        match sa.partial_cmp(&sb).expect("scores must be finite") {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => a > b,
        }
    };
    for i in (0..scores.len() as u32).map(ItemId) {
        if !is_candidate(i) {
            continue;
        }
        if items.len() < k {
            items.push(i);
            let mut c = items.len() - 1;
            while c > 0 {
                let p = (c - 1) / 2;
                if worse(items[c], items[p]) {
                    items.swap(c, p);
                    c = p;
                } else {
                    break;
                }
            }
        } else if worse(i, items[0]) {
            // Not better than the current k-th best: the hot path.
        } else {
            items[0] = i;
            let mut p = 0usize;
            loop {
                let l = 2 * p + 1;
                if l >= items.len() {
                    break;
                }
                let r = l + 1;
                let c = if r < items.len() && worse(items[r], items[l]) {
                    r
                } else {
                    l
                };
                if worse(items[c], items[p]) {
                    items.swap(p, c);
                    p = c;
                } else {
                    break;
                }
            }
        }
    }
    // Heap order → ranked order.
    items.sort_unstable_by(|&a, &b| {
        let sa = scores[a.index()];
        let sb = scores[b.index()];
        sb.partial_cmp(&sa)
            .expect("scores must be finite")
            .then(a.cmp(&b))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_all_orders_by_score_desc() {
        let scores = vec![0.1, 0.9, 0.5, 0.7];
        let r = rank_all(&scores, |_| true);
        assert_eq!(r.items, vec![ItemId(1), ItemId(3), ItemId(2), ItemId(0)]);
    }

    #[test]
    fn ties_break_by_item_id() {
        let scores = vec![0.5, 0.5, 0.5];
        let r = rank_all(&scores, |_| true);
        assert_eq!(r.items, vec![ItemId(0), ItemId(1), ItemId(2)]);
    }

    #[test]
    fn candidate_filter_excludes() {
        let scores = vec![0.9, 0.8, 0.7];
        let r = rank_all(&scores, |i| i != ItemId(0));
        assert_eq!(r.items, vec![ItemId(1), ItemId(2)]);
    }

    #[test]
    fn top_k_matches_full_ranking_prefix() {
        let scores: Vec<f32> = (0..50).map(|i| ((i * 37) % 50) as f32).collect();
        let full = rank_all(&scores, |_| true);
        let mut top = Vec::new();
        for k in [1, 3, 10, 49, 50, 80] {
            top_k_into(&scores, k, |_| true, &mut top);
            assert_eq!(&top[..], &full.items[..k.min(50)], "k = {k}");
        }
    }

    #[test]
    fn top_k_heap_matches_full_sort_with_ties_and_filter() {
        // Heavy ties (5 score levels over 200 items) + a filter, across
        // every interesting k: the bounded-heap selection must agree with
        // the full sort exactly, including id tie-breaks at the boundary.
        let scores: Vec<f32> = (0..200).map(|i| ((i * 7) % 5) as f32).collect();
        let odd_only = |i: ItemId| i.0 % 2 == 1;
        let full = rank_all(&scores, odd_only);
        let mut items = Vec::new();
        for k in [1, 2, 5, 39, 40, 99, 100, 101, 250] {
            top_k_into(&scores, k, odd_only, &mut items);
            assert_eq!(&items[..], &full.items[..k.min(full.len())], "k = {k}");
        }
    }

    #[test]
    fn top_k_zero_is_empty() {
        let mut top = vec![ItemId(9)];
        top_k_into(&[1.0, 2.0], 0, |_| true, &mut top);
        assert!(top.is_empty(), "the buffer is cleared");
    }

    #[test]
    fn top_k_with_all_filtered_is_empty() {
        let mut top = Vec::new();
        top_k_into(&[1.0, 2.0], 3, |_| false, &mut top);
        assert!(top.is_empty());
    }

    /// Reference: ranks via the full sort.
    fn sorted_ranks<F: Fn(ItemId) -> bool + Copy>(
        scores: &[f32],
        is_candidate: F,
        relevant: &[ItemId],
    ) -> Vec<usize> {
        let full = rank_all(scores, is_candidate);
        let mut r: Vec<usize> = relevant
            .iter()
            .filter_map(|&i| full.items.iter().position(|&x| x == i).map(|p| p + 1))
            .collect();
        r.sort_unstable();
        r
    }

    #[test]
    fn counting_ranks_match_full_sort() {
        let scores: Vec<f32> = (0..40).map(|i| ((i * 37) % 23) as f32).collect();
        let relevant: Vec<ItemId> = [2u32, 7, 11, 23, 39].iter().map(|&i| ItemId(i)).collect();
        let mut c = CountingRanks::new();
        c.compute(&scores, |_| true, &relevant);
        assert_eq!(c.ranks(), &sorted_ranks(&scores, |_| true, &relevant)[..]);
        assert_eq!(c.n_candidates(), 40);
    }

    #[test]
    fn counting_ranks_handle_ties_by_id() {
        // Heavy ties: three score levels only.
        let scores: Vec<f32> = (0..30).map(|i| (i % 3) as f32).collect();
        let relevant: Vec<ItemId> = (0..30).step_by(4).map(ItemId).collect();
        let mut c = CountingRanks::new();
        c.compute(&scores, |_| true, &relevant);
        assert_eq!(c.ranks(), &sorted_ranks(&scores, |_| true, &relevant)[..]);
    }

    #[test]
    fn counting_ranks_respect_candidate_filter() {
        let scores: Vec<f32> = vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.0];
        let evens_only = |i: ItemId| i.0 % 2 == 0;
        let relevant = [ItemId(1), ItemId(2), ItemId(5)];
        let mut c = CountingRanks::new();
        c.compute(&scores, evens_only, &relevant);
        // Items 1 and 5 are not candidates → dropped; among candidates
        // {0, 2, 4} the relevant item 2 ranks second.
        assert_eq!(c.ranks(), &[2]);
        assert_eq!(c.n_candidates(), 3);
    }

    #[test]
    fn counting_ranks_empty_relevant() {
        let mut c = CountingRanks::new();
        c.compute(&[1.0, 2.0, 3.0], |_| true, &[]);
        assert!(c.ranks().is_empty());
        assert_eq!(c.n_candidates(), 3);
    }

    #[test]
    fn counting_ranks_reuse_buffers() {
        let scores: Vec<f32> = (0..20).map(|i| (i % 5) as f32).collect();
        let relevant = [ItemId(3), ItemId(9)];
        let mut c = CountingRanks::new();
        c.compute(&scores, |_| true, &relevant);
        let first: Vec<usize> = c.ranks().to_vec();
        c.compute(&scores, |_| true, &relevant);
        assert_eq!(c.ranks(), &first[..]);
    }
}
