//! Evaluation metrics for implicit-feedback top-k recommendation.
//!
//! Implements every metric the paper reports (Sec 6.2): the top-k family
//! (`Precision@k`, `Recall@k`, `F1@k`, `1-Call@k`, `NDCG@k`) and the
//! rank-biased family (`MAP`, `MRR`) plus `AUC`, which the pairwise methods
//! optimize (Eq. 1).
//!
//! The evaluation protocol follows Sec 6.3 of the paper: for each user, *all*
//! items unobserved in training are ranked by predicted score (no sampled
//! candidate shortcut), the user's test items are the relevant set, and
//! metrics are averaged over the users that have at least one test item.
//!
//! Ranking is *sort-free*: every reported metric depends on the candidate
//! ranking only through the exact ranks of the relevant items (one `O(m)`
//! counting pass, [`CountingRanks`]) and the top-`max(ks)` prefix
//! (`O(m)` selection), so no per-user `O(m log m)` sort is performed. Users
//! are scored in blocks through [`BulkScorer::scores_into_batch`] so factor
//! models stream their item table through cache once per block. The
//! pre-engine sorting evaluator is retained as [`evaluate_serial_naive`]
//! for differential tests and benchmarks; the engine is bit-identical to it.
//!
//! Evaluation over users is embarrassingly parallel; [`evaluate`] fans out
//! over `std::thread::scope` workers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod evaluate;
mod ranked;
mod rankmetrics;
mod recommend;
mod stats;
mod topk;

pub use aggregate::{paired_t_test, Aggregate, PairedComparison};
pub use evaluate::{
    evaluate, evaluate_instrumented, evaluate_serial, evaluate_serial_instrumented,
    evaluate_serial_naive, score_block_serially, BulkScorer, EvalConfig, EvalReport, TopKMetrics,
};
pub use stats::EvalStats;
pub use ranked::{rank_all, top_k_into, CountingRanks, RankedList};
pub use recommend::{top_k_for_user, top_k_for_user_into, top_k_from_scores};
pub use rankmetrics::{
    auc, auc_at_ranks, average_precision, average_precision_at_ranks, reciprocal_rank,
    reciprocal_rank_at_ranks,
};
pub use topk::{dcg_at_k, f1, ndcg_at_k, one_call_at_k, precision_at_k, recall_at_k};
