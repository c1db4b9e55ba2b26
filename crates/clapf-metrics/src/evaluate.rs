//! The full-ranking evaluation loop of the paper.

use crate::{
    auc, auc_at_ranks, average_precision, average_precision_at_ranks, f1, ndcg_at_k,
    one_call_at_k, precision_at_k, rank_all, recall_at_k, reciprocal_rank,
    reciprocal_rank_at_ranks, top_k_from_scores, CountingRanks, EvalStats, RankedList,
};
use clapf_data::{Interactions, UserId};
use clapf_telemetry::{per_sec, timed};
use serde::Serialize;
use std::collections::BTreeMap;

/// Users scored per [`BulkScorer::scores_into_batch`] call in the evaluation
/// loops: large enough that a blocked scoring kernel streams its item table
/// through cache once per block, small enough that the per-user score
/// buffers (`BATCH · n_items · 4` bytes) stay modest.
pub(crate) const SCORE_BATCH: usize = 32;

/// Anything that can score every item for a user in one call.
///
/// Implemented by all models in the workspace (via the `Recommender` trait in
/// `clapf-core`) and by plain closures, which keeps this crate free of model
/// dependencies:
///
/// ```
/// use clapf_data::UserId;
/// use clapf_metrics::BulkScorer;
///
/// let popularity = vec![5.0_f32, 2.0, 9.0];
/// let scorer = |_u: UserId, out: &mut Vec<f32>| {
///     out.clear();
///     out.extend_from_slice(&popularity);
/// };
/// let mut buf = Vec::new();
/// scorer.scores_into(UserId(0), &mut buf);
/// assert_eq!(buf.len(), 3);
/// ```
pub trait BulkScorer: Sync {
    /// Writes a score for every item id `0..n_items` into `out`.
    fn scores_into(&self, u: UserId, out: &mut Vec<f32>);

    /// Scores a whole block of users, `out[b]` receiving the scores of
    /// `users[b]`. The default falls back to per-user [`scores_into`]
    /// (`BulkScorer::scores_into`) calls via [`score_block_serially`];
    /// factor models override it with a blocked kernel that streams the
    /// item table through cache once per block instead of once per user.
    /// Implementations must produce exactly the scores `scores_into` would.
    fn scores_into_batch(&self, users: &[UserId], out: &mut [Vec<f32>]) {
        score_block_serially(|u, buf| self.scores_into(u, buf), users, out);
    }
}

/// Scores `out[b] ← per_user(users[b])` one user at a time.
///
/// This is the single fallback body behind every `scores_into_batch`
/// default in the workspace — this trait's and the `Recommender` trait's in
/// `clapf-core` — so the "a batch is exactly a per-user loop" contract has
/// one definition rather than a copy per trait.
pub fn score_block_serially<F: FnMut(UserId, &mut Vec<f32>)>(
    mut per_user: F,
    users: &[UserId],
    out: &mut [Vec<f32>],
) {
    debug_assert_eq!(users.len(), out.len());
    for (&u, buf) in users.iter().zip(out.iter_mut()) {
        per_user(u, buf);
    }
}

impl<F: Fn(UserId, &mut Vec<f32>) + Sync> BulkScorer for F {
    fn scores_into(&self, u: UserId, out: &mut Vec<f32>) {
        self(u, out)
    }
}

/// Evaluation configuration: which cutoffs to report.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Top-k cutoffs (the paper uses {3, 5, 10, 15, 20}).
    pub ks: Vec<usize>,
    /// Number of worker threads (0 = all available cores).
    pub threads: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            ks: vec![3, 5, 10, 15, 20],
            threads: 0,
        }
    }
}

impl EvalConfig {
    /// A configuration reporting only the paper's headline cutoff `k = 5`.
    pub fn at_5() -> Self {
        EvalConfig {
            ks: vec![5],
            threads: 0,
        }
    }
}

/// Averaged top-k metrics at one cutoff.
#[derive(Copy, Clone, Debug, Default, Serialize, PartialEq)]
pub struct TopKMetrics {
    /// Mean `Precision@k`.
    pub precision: f64,
    /// Mean `Recall@k`.
    pub recall: f64,
    /// Mean per-user `F1@k`.
    pub f1: f64,
    /// Mean `1-Call@k`.
    pub one_call: f64,
    /// Mean `NDCG@k`.
    pub ndcg: f64,
}

/// Metrics averaged over all evaluable users (users with ≥ 1 test item).
#[derive(Clone, Debug, Serialize, PartialEq)]
pub struct EvalReport {
    /// Top-k metrics per cutoff.
    pub topk: BTreeMap<usize, TopKMetrics>,
    /// Mean Average Precision over the full ranking.
    pub map: f64,
    /// Mean Reciprocal Rank over the full ranking.
    pub mrr: f64,
    /// Mean AUC over the full ranking.
    pub auc: f64,
    /// Number of users that entered the averages.
    pub n_users: usize,
}

impl EvalReport {
    /// Convenience accessor: `NDCG@k`, panicking if `k` was not evaluated.
    pub fn ndcg_at(&self, k: usize) -> f64 {
        self.topk[&k].ndcg
    }

}

#[derive(Clone, Default)]
struct Sums {
    topk: Vec<TopKMetrics>, // parallel to ks
    map: f64,
    mrr: f64,
    auc: f64,
    n: usize,
}

impl Sums {
    fn new(n_ks: usize) -> Self {
        Sums {
            topk: vec![TopKMetrics::default(); n_ks],
            ..Sums::default()
        }
    }

    fn merge(&mut self, other: &Sums) {
        for (a, b) in self.topk.iter_mut().zip(&other.topk) {
            a.precision += b.precision;
            a.recall += b.recall;
            a.f1 += b.f1;
            a.one_call += b.one_call;
            a.ndcg += b.ndcg;
        }
        self.map += other.map;
        self.mrr += other.mrr;
        self.auc += other.auc;
        self.n += other.n;
    }
}

/// Per-worker scratch of the sort-free engine: the counting-rank pass, the
/// reusable top-`max(ks)` prefix, and the score-block buffers. One instance
/// per evaluation worker keeps the whole loop allocation-free after warm-up.
struct EngineScratch {
    counting: CountingRanks,
    prefix: RankedList,
    pending: Vec<UserId>,
    score_bufs: Vec<Vec<f32>>,
}

impl EngineScratch {
    fn new() -> Self {
        EngineScratch {
            counting: CountingRanks::new(),
            prefix: RankedList { items: Vec::new() },
            pending: Vec::with_capacity(SCORE_BATCH),
            score_bufs: (0..SCORE_BATCH).map(|_| Vec::new()).collect(),
        }
    }
}

/// Sort-free per-user evaluation from precomputed scores.
///
/// The full `O(m log m)` candidate sort of [`rank_all`] is replaced by
/// (a) one `O(m)` counting pass yielding the exact ranks of the user's test
/// items and (b) the `O(m) + O(k log k)` top-`max(ks)` prefix: the top-k
/// metric family reads the prefix, MAP/MRR/AUC read the ranks, and both are
/// bit-identical to their sorted-list counterparts (same deterministic
/// descending-score, ascending-id order).
#[allow(clippy::too_many_arguments)]
fn eval_user_sortfree(
    scores: &[f32],
    train: &Interactions,
    test: &Interactions,
    u: UserId,
    ks: &[usize],
    scratch: &mut EngineScratch,
    sums: &mut Sums,
    stats: Option<&EvalStats>,
) {
    let relevant_items = test.items_of(u);
    debug_assert!(!relevant_items.is_empty());
    debug_assert_eq!(scores.len(), train.n_items() as usize);
    let is_candidate = |i| !train.contains(u, i);
    scratch.counting.compute(scores, is_candidate, relevant_items);
    if let Some(s) = stats {
        // The counting pass hands over the exact 1-based ranks for free.
        s.users.inc();
        for &rank in scratch.counting.ranks() {
            s.relevant_ranks.record(rank as f64);
        }
    }
    let max_k = ks.iter().copied().max().unwrap_or(0);
    // The prefix is the *recommendation list*: the same helper the online
    // server and `clapf recommend` use, so offline top-k metrics score
    // exactly the lists the serving layer returns.
    top_k_from_scores(scores, train, u, max_k, &mut scratch.prefix.items);
    let n_rel = relevant_items.len();
    let relevant = |i| relevant_items.binary_search(&i).is_ok();
    for (slot, &k) in ks.iter().enumerate() {
        let p = precision_at_k(&scratch.prefix, k, relevant);
        let r = recall_at_k(&scratch.prefix, k, n_rel, relevant);
        let t = &mut sums.topk[slot];
        t.precision += p;
        t.recall += r;
        t.f1 += f1(p, r);
        t.one_call += one_call_at_k(&scratch.prefix, k, relevant);
        t.ndcg += ndcg_at_k(&scratch.prefix, k, n_rel, relevant);
    }
    sums.map += average_precision_at_ranks(scratch.counting.ranks(), n_rel);
    sums.mrr += reciprocal_rank_at_ranks(scratch.counting.ranks());
    sums.auc += auc_at_ranks(scratch.counting.ranks(), scratch.counting.n_candidates());
    sums.n += 1;
}

/// Runs the sort-free engine over a range of users: evaluable users are
/// gathered into blocks of [`SCORE_BATCH`], scored with one
/// [`BulkScorer::scores_into_batch`] call, then evaluated in order — so the
/// accumulation order (and therefore every reported average) is identical
/// to scoring one user at a time.
fn eval_users_blocked<S: BulkScorer + ?Sized>(
    scorer: &S,
    train: &Interactions,
    test: &Interactions,
    users: impl Iterator<Item = UserId>,
    ks: &[usize],
    stats: Option<&EvalStats>,
) -> Sums {
    let mut sums = Sums::new(ks.len());
    let mut scratch = EngineScratch::new();
    for u in users {
        if test.items_of(u).is_empty() {
            continue;
        }
        scratch.pending.push(u);
        if scratch.pending.len() == SCORE_BATCH {
            flush_block(scorer, train, test, ks, &mut scratch, &mut sums, stats);
        }
    }
    flush_block(scorer, train, test, ks, &mut scratch, &mut sums, stats);
    sums
}

#[allow(clippy::too_many_arguments)]
fn flush_block<S: BulkScorer + ?Sized>(
    scorer: &S,
    train: &Interactions,
    test: &Interactions,
    ks: &[usize],
    scratch: &mut EngineScratch,
    sums: &mut Sums,
    stats: Option<&EvalStats>,
) {
    if scratch.pending.is_empty() {
        return;
    }
    let n = scratch.pending.len();
    scorer.scores_into_batch(&scratch.pending, &mut scratch.score_bufs[..n]);
    // Move the block buffers aside so the per-user pass can borrow scratch
    // mutably; swapped back below, preserving their capacity.
    let mut bufs = std::mem::take(&mut scratch.score_bufs);
    let mut pending = std::mem::take(&mut scratch.pending);
    for (&u, scores) in pending.iter().zip(&bufs) {
        eval_user_sortfree(scores, train, test, u, ks, scratch, sums, stats);
    }
    pending.clear();
    scratch.score_bufs = std::mem::take(&mut bufs);
    scratch.pending = pending;
}

/// The retained naive per-user evaluation: score, sort every candidate with
/// [`rank_all`], walk the list. Kept as the differential-testing and
/// benchmarking reference for the sort-free engine (see
/// [`evaluate_serial_naive`]); not used on any hot path.
fn eval_user_naive<S: BulkScorer + ?Sized>(
    scorer: &S,
    train: &Interactions,
    test: &Interactions,
    u: UserId,
    ks: &[usize],
    scores: &mut Vec<f32>,
    sums: &mut Sums,
) {
    let relevant_items = test.items_of(u);
    if relevant_items.is_empty() {
        return;
    }
    scorer.scores_into(u, scores);
    debug_assert_eq!(scores.len(), train.n_items() as usize);
    // Rank all items unobserved in training (test items are candidates).
    let ranked = rank_all(scores, |i| !train.contains(u, i));
    let n_rel = relevant_items.len();
    let relevant = |i| relevant_items.binary_search(&i).is_ok();
    for (slot, &k) in ks.iter().enumerate() {
        let p = precision_at_k(&ranked, k, relevant);
        let r = recall_at_k(&ranked, k, n_rel, relevant);
        let t = &mut sums.topk[slot];
        t.precision += p;
        t.recall += r;
        t.f1 += f1(p, r);
        t.one_call += one_call_at_k(&ranked, k, relevant);
        t.ndcg += ndcg_at_k(&ranked, k, n_rel, relevant);
    }
    sums.map += average_precision(&ranked, n_rel, relevant);
    sums.mrr += reciprocal_rank(&ranked, relevant);
    sums.auc += auc(&ranked, relevant);
    sums.n += 1;
}

fn finalize(mut sums: Sums, ks: &[usize]) -> EvalReport {
    let n = sums.n.max(1) as f64;
    for t in &mut sums.topk {
        t.precision /= n;
        t.recall /= n;
        t.f1 /= n;
        t.one_call /= n;
        t.ndcg /= n;
    }
    EvalReport {
        topk: ks.iter().copied().zip(sums.topk).collect(),
        map: sums.map / n,
        mrr: sums.mrr / n,
        auc: sums.auc / n,
        n_users: sums.n,
    }
}

/// Evaluates `scorer` against `test`, excluding `train` pairs from the
/// candidate set, single-threaded, via the sort-free ranking engine.
pub fn evaluate_serial<S: BulkScorer + ?Sized>(
    scorer: &S,
    train: &Interactions,
    test: &Interactions,
    config: &EvalConfig,
) -> EvalReport {
    evaluate_serial_instrumented(scorer, train, test, config, None)
}

/// [`evaluate_serial`] with optional telemetry: when `stats` is `Some`, the
/// engine records every relevant item's exact rank (from the counting pass,
/// at no extra ranking cost), the user count, and the run's wall time and
/// throughput. The reported metrics are identical either way.
pub fn evaluate_serial_instrumented<S: BulkScorer + ?Sized>(
    scorer: &S,
    train: &Interactions,
    test: &Interactions,
    config: &EvalConfig,
    stats: Option<&EvalStats>,
) -> EvalReport {
    let (sums, elapsed) = timed(|| {
        eval_users_blocked(scorer, train, test, test.users(), &config.ks, stats)
    });
    if let Some(s) = stats {
        s.eval_secs.set(elapsed.as_secs_f64());
        s.users_per_sec.set(per_sec(sums.n, elapsed));
    }
    finalize(sums, &config.ks)
}

/// The pre-engine evaluator: per-user scoring and a full `O(m log m)`
/// candidate sort. Retained as the differential-testing reference — the
/// `sortfree_evaluator_matches_naive_exactly` proptest pins the engine to
/// this path bit-for-bit — and as the baseline of the `eval_full_ranking`
/// bench and `scripts/bench_eval.sh`. A `log m` factor slower per user than
/// [`evaluate_serial`] and unbatched; do not use it for real evaluation.
pub fn evaluate_serial_naive<S: BulkScorer + ?Sized>(
    scorer: &S,
    train: &Interactions,
    test: &Interactions,
    config: &EvalConfig,
) -> EvalReport {
    let mut sums = Sums::new(config.ks.len());
    let mut scores = Vec::new();
    for u in test.users() {
        eval_user_naive(scorer, train, test, u, &config.ks, &mut scores, &mut sums);
    }
    finalize(sums, &config.ks)
}

/// Evaluates `scorer` against `test` in parallel over users.
///
/// Per-thread partial sums are merged in thread order, so the result is
/// deterministic for a fixed thread count (and equal to
/// [`evaluate_serial`] up to floating-point association).
pub fn evaluate<S: BulkScorer + ?Sized>(
    scorer: &S,
    train: &Interactions,
    test: &Interactions,
    config: &EvalConfig,
) -> EvalReport {
    evaluate_instrumented(scorer, train, test, config, None)
}

/// [`evaluate`] with optional telemetry; see
/// [`evaluate_serial_instrumented`]. The stats primitives are lock-free, so
/// the parallel workers record into them concurrently and the merged counts
/// are exact.
pub fn evaluate_instrumented<S: BulkScorer + ?Sized>(
    scorer: &S,
    train: &Interactions,
    test: &Interactions,
    config: &EvalConfig,
    stats: Option<&EvalStats>,
) -> EvalReport {
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.threads
    };
    let n_users = test.n_users() as usize;
    if threads <= 1 || n_users < 2 * threads {
        return evaluate_serial_instrumented(scorer, train, test, config, stats);
    }
    let chunk = n_users.div_ceil(threads);
    let (partials, elapsed) = timed(|| {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let ks = &config.ks;
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n_users);
                handles.push(scope.spawn(move || {
                    let users = (lo..hi).map(|uid| UserId(uid as u32));
                    eval_users_blocked(scorer, train, test, users, ks, stats)
                }));
            }
            let mut total = Sums::new(config.ks.len());
            for h in handles {
                total.merge(&h.join().expect("evaluation worker panicked"));
            }
            total
        })
    });
    if let Some(s) = stats {
        s.eval_secs.set(elapsed.as_secs_f64());
        s.users_per_sec.set(per_sec(partials.n, elapsed));
    }
    finalize(partials, &config.ks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapf_data::{InteractionsBuilder, ItemId};

    /// 2 users, 4 items. Train: u0→{0}, u1→{1}. Test: u0→{1,2}, u1→{3}.
    fn fixture() -> (Interactions, Interactions) {
        let mut tr = InteractionsBuilder::new(2, 4);
        tr.push(UserId(0), ItemId(0)).unwrap();
        tr.push(UserId(1), ItemId(1)).unwrap();
        let mut te = InteractionsBuilder::new(2, 4);
        te.push(UserId(0), ItemId(1)).unwrap();
        te.push(UserId(0), ItemId(2)).unwrap();
        te.push(UserId(1), ItemId(3)).unwrap();
        (tr.build().unwrap(), te.build().unwrap())
    }

    /// Oracle scorer: gives test items the best scores.
    fn oracle(test: Interactions) -> impl Fn(UserId, &mut Vec<f32>) + Sync {
        move |u: UserId, out: &mut Vec<f32>| {
            out.clear();
            for i in 0..test.n_items() {
                out.push(if test.contains(u, ItemId(i)) { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn oracle_scorer_is_perfect() {
        let (train, test) = fixture();
        let scorer = oracle(test.clone());
        let report = evaluate_serial(&scorer, &train, &test, &EvalConfig::default());
        assert_eq!(report.n_users, 2);
        assert!((report.map - 1.0).abs() < 1e-12);
        assert!((report.mrr - 1.0).abs() < 1e-12);
        assert!((report.auc - 1.0).abs() < 1e-12);
        assert!((report.topk[&3].recall - 1.0).abs() < 1e-12);
        assert!((report.topk[&3].ndcg - 1.0).abs() < 1e-12);
        assert!((report.topk[&3].one_call - 1.0).abs() < 1e-12);
    }

    #[test]
    fn anti_oracle_scorer_is_terrible() {
        let (train, test) = fixture();
        let test2 = test.clone();
        let scorer = move |u: UserId, out: &mut Vec<f32>| {
            out.clear();
            for i in 0..test2.n_items() {
                out.push(if test2.contains(u, ItemId(i)) { -1.0 } else { 0.0 });
            }
        };
        let report = evaluate_serial(&scorer, &train, &test, &EvalConfig::default());
        assert!(report.auc < 1e-12);
        assert!(report.mrr < 1.0);
    }

    #[test]
    fn train_items_are_excluded_from_candidates() {
        let (train, test) = fixture();
        // Score the *train* item of each user highest; if it were a candidate
        // it would displace test items and lower precision@1.
        let train2 = train.clone();
        let scorer = move |u: UserId, out: &mut Vec<f32>| {
            out.clear();
            for i in 0..train2.n_items() {
                out.push(if train2.contains(u, ItemId(i)) {
                    10.0
                } else if test.contains(u, ItemId(i)) {
                    1.0
                } else {
                    0.0
                });
            }
        };
        let (_, test) = fixture();
        let cfg = EvalConfig {
            ks: vec![1],
            threads: 1,
        };
        let report = evaluate_serial(&scorer, &train, &test, &cfg);
        assert!((report.topk[&1].precision - 1.0).abs() < 1e-12);
    }

    #[test]
    fn users_without_test_items_are_skipped() {
        let mut tr = InteractionsBuilder::new(3, 3);
        tr.push(UserId(0), ItemId(0)).unwrap();
        tr.push(UserId(2), ItemId(2)).unwrap();
        let mut te = InteractionsBuilder::new(3, 3);
        te.push(UserId(0), ItemId(1)).unwrap();
        let train = tr.build().unwrap();
        let test = te.build().unwrap();
        let scorer = |_u: UserId, out: &mut Vec<f32>| {
            out.clear();
            out.extend_from_slice(&[0.0, 0.0, 0.0]);
        };
        let report = evaluate_serial(&scorer, &train, &test, &EvalConfig::default());
        assert_eq!(report.n_users, 1);
    }

    #[test]
    fn sortfree_engine_matches_naive_bitwise() {
        // Hashed scores with deliberate ties (mod 7 collapses many values).
        let mut tr = InteractionsBuilder::new(50, 64);
        let mut te = InteractionsBuilder::new(50, 64);
        for u in 0..50u32 {
            for i in 0..64u32 {
                match (u.wrapping_mul(17).wrapping_add(i * 3)) % 6 {
                    0 => tr.push(UserId(u), ItemId(i)).unwrap(),
                    1 => te.push(UserId(u), ItemId(i)).unwrap(),
                    _ => {}
                }
            }
        }
        let train = tr.build().unwrap();
        let test = te.build().unwrap();
        let scorer = |u: UserId, out: &mut Vec<f32>| {
            out.clear();
            for i in 0..64u32 {
                out.push(((u.0 * 13 + i * 29) % 7) as f32);
            }
        };
        let cfg = EvalConfig::default();
        let fast = evaluate_serial(&scorer, &train, &test, &cfg);
        let naive = evaluate_serial_naive(&scorer, &train, &test, &cfg);
        assert_eq!(fast, naive); // exact equality, not approximate
    }

    #[test]
    fn parallel_matches_serial() {
        // Bigger synthetic fixture so the parallel path engages.
        let mut tr = InteractionsBuilder::new(64, 40);
        let mut te = InteractionsBuilder::new(64, 40);
        for u in 0..64u32 {
            for i in 0..40u32 {
                match (u.wrapping_mul(31).wrapping_add(i * 7)) % 5 {
                    0 => tr.push(UserId(u), ItemId(i)).unwrap(),
                    1 => te.push(UserId(u), ItemId(i)).unwrap(),
                    _ => {}
                }
            }
        }
        let train = tr.build().unwrap();
        let test = te.build().unwrap();
        let scorer = |u: UserId, out: &mut Vec<f32>| {
            out.clear();
            for i in 0..40u32 {
                out.push(((u.0 * 13 + i * 29) % 17) as f32);
            }
        };
        let serial = evaluate_serial(&scorer, &train, &test, &EvalConfig::default());
        let cfg = EvalConfig {
            ks: vec![3, 5, 10, 15, 20],
            threads: 4,
        };
        let parallel = evaluate(&scorer, &train, &test, &cfg);
        assert_eq!(serial.n_users, parallel.n_users);
        assert!((serial.map - parallel.map).abs() < 1e-9);
        assert!((serial.auc - parallel.auc).abs() < 1e-9);
        for k in [3, 5, 10, 15, 20] {
            assert!((serial.topk[&k].ndcg - parallel.topk[&k].ndcg).abs() < 1e-9);
        }
    }

    #[test]
    fn instrumented_eval_matches_and_records_ranks() {
        let (train, test) = fixture();
        let scorer = oracle(test.clone());
        let cfg = EvalConfig::default();
        let plain = evaluate_serial(&scorer, &train, &test, &cfg);
        let stats = crate::EvalStats::new();
        let instrumented =
            evaluate_serial_instrumented(&scorer, &train, &test, &cfg, Some(&stats));
        // Telemetry must not change a single reported number.
        assert_eq!(plain, instrumented);
        assert_eq!(stats.users.get(), 2);
        // 3 test items across the fixture's two users, each with a rank.
        assert_eq!(stats.relevant_ranks.count(), 3);
        // The oracle puts every relevant item at the very top: ranks 1..=2.
        assert!(stats.relevant_ranks.mean() <= 2.0);
        assert!(stats.eval_secs.get() >= 0.0);
        assert!(stats.users_per_sec.get() > 0.0);
    }

    #[test]
    fn parallel_instrumented_counts_are_exact() {
        let mut tr = InteractionsBuilder::new(64, 40);
        let mut te = InteractionsBuilder::new(64, 40);
        for u in 0..64u32 {
            for i in 0..40u32 {
                match (u.wrapping_mul(31).wrapping_add(i * 7)) % 5 {
                    0 => tr.push(UserId(u), ItemId(i)).unwrap(),
                    1 => te.push(UserId(u), ItemId(i)).unwrap(),
                    _ => {}
                }
            }
        }
        let train = tr.build().unwrap();
        let test = te.build().unwrap();
        let scorer = |u: UserId, out: &mut Vec<f32>| {
            out.clear();
            for i in 0..40u32 {
                out.push(((u.0 * 13 + i * 29) % 17) as f32);
            }
        };
        let cfg = EvalConfig {
            ks: vec![5],
            threads: 4,
        };
        let stats = crate::EvalStats::new();
        let report = evaluate_instrumented(&scorer, &train, &test, &cfg, Some(&stats));
        assert_eq!(stats.users.get() as usize, report.n_users);
        assert_eq!(stats.relevant_ranks.count() as usize, test.n_pairs());
    }

    #[test]
    fn accessors_panic_on_missing_k() {
        let (train, test) = fixture();
        let scorer = oracle(test.clone());
        let report = evaluate_serial(&scorer, &train, &test, &EvalConfig::at_5());
        assert!(report.ndcg_at(5) > 0.0);
        let caught = std::panic::catch_unwind(|| report.ndcg_at(99));
        assert!(caught.is_err());
    }
}
