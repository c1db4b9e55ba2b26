//! Micro-bench for the serve miss-path compute floor: per-user cost of
//! `scores_into_batch` + `top_k_from_scores` at the serve_load fast scale
//! (5k items, dim 32, k 10), across batch sizes. This is the ceiling on
//! uncached QPS before any transport overhead — useful for telling "the
//! kernel is slow" apart from "the server is slow" when serve_load moves.
use bench::fixture::Fixture;
use clapf_metrics::BulkScorer;
use std::time::Instant;

fn main() {
    let [] = bench::parse_own(&[]);
    let fixture = Fixture::new(2000, 5000, 32);
    let loaded = fixture.ratings();
    let model = fixture.model(&loaded, 7);
    for batch in [1usize, 4, 16, 32] {
        let users: Vec<clapf_data::UserId> =
            (0..batch as u32).map(clapf_data::UserId).collect();
        let mut bufs: Vec<Vec<f32>> = (0..batch).map(|_| Vec::new()).collect();
        let iters = 2000 / batch;
        let t = Instant::now();
        for _ in 0..iters {
            model.scores_into_batch(&users, &mut bufs);
        }
        let score_us = t.elapsed().as_secs_f64() * 1e6 / (iters * batch) as f64;
        let mut items = Vec::new();
        let t = Instant::now();
        for _ in 0..iters {
            for b in &bufs {
                clapf_metrics::top_k_from_scores(
                    b,
                    &loaded.interactions,
                    clapf_data::UserId(0),
                    10,
                    &mut items,
                );
            }
        }
        let topk_us = t.elapsed().as_secs_f64() * 1e6 / (iters * batch) as f64;
        println!(
            "batch {batch:>2}: score {score_us:.1} us/user, topk {topk_us:.1} us/user, \
             total {:.1} us/user -> {:.0} users/sec",
            score_us + topk_us,
            1e6 / (score_us + topk_us)
        );
    }
}
