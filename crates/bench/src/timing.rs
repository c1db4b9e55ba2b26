//! The one timing loop the overhead legs share: every lane runs once per
//! round, rounds interleave the lanes (rotating which goes first), and a
//! lane's overhead is the median over rounds of its time paired with the
//! baseline's in the same round.
//!
//! Pairing cancels load drift that lasts longer than a round — the
//! multi-second swings a shared host shows — because both lanes of a pair
//! see it. The median keeps one preempted round from moving the answer,
//! which best-of-N cannot promise: the minimum of a noisy lane is an
//! extreme value, and two extremes differ by as much as the noise.

/// The end-to-end overhead bound instrumentation is held to, in percent.
pub const OVERHEAD_GATE_PCT: f64 = 2.0;

/// Times `rounds` rounds of `lanes`; returns `secs[lane][round]`. Round
/// `r` starts with lane `r % lanes.len()` and walks the rest in order, so
/// no lane always runs first (or right after a given other lane).
pub fn interleave(rounds: usize, lanes: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    let n = lanes.len();
    let mut secs = vec![Vec::with_capacity(rounds); n];
    for round in 0..rounds {
        for j in 0..n {
            let lane = (round + j) % n;
            let t = std::time::Instant::now();
            (lanes[lane])();
            secs[lane].push(t.elapsed().as_secs_f64());
        }
    }
    secs
}

/// The median of `xs` (mean of the middle two for an even count); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How much slower `lane` ran than `base`, in percent: the median over
/// rounds of `lane[r] / base[r]`, minus one. Negative means faster.
pub fn paired_overhead_pct(base: &[f64], lane: &[f64]) -> f64 {
    assert_eq!(base.len(), lane.len(), "lanes ran different round counts");
    let ratios: Vec<f64> = base.iter().zip(lane).map(|(b, l)| l / b).collect();
    (median(&ratios) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Per-round times of a baseline and a lane `slowdown` slower: a
    /// shared ±20% drift per round, then independent ±`noise` jitter per
    /// lane — the spread the old best-of-5 gate read as ±5% swings.
    fn synthetic(seed: u64, rounds: usize, slowdown: f64, noise: f64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let jitter = |rng: &mut SmallRng| 1.0 + rng.gen_range(-noise..noise);
        let (mut base, mut lane) = (Vec::new(), Vec::new());
        for _ in 0..rounds {
            let drift = rng.gen_range(0.8..1.2);
            base.push(0.05 * drift * jitter(&mut rng));
            lane.push(0.05 * (1.0 + slowdown) * drift * jitter(&mut rng));
        }
        (base, lane)
    }

    #[test]
    fn the_gate_fails_a_5pct_slowdown_and_passes_none_under_5pct_noise() {
        for seed in 0..50 {
            let (base, slow) = synthetic(seed, 48, 0.05, 0.05);
            let pct = paired_overhead_pct(&base, &slow);
            assert!(pct > OVERHEAD_GATE_PCT, "seed {seed}: 5% slowdown read {pct:.2}%");
            let (base, same) = synthetic(seed, 48, 0.0, 0.05);
            let pct = paired_overhead_pct(&base, &same);
            assert!(pct <= OVERHEAD_GATE_PCT, "seed {seed}: no slowdown read {pct:.2}%");
        }
    }

    #[test]
    fn shared_drift_cancels_exactly() {
        let base = [1.0, 3.0, 0.5, 2.0];
        let lane: Vec<f64> = base.iter().map(|b| b * 1.1).collect();
        assert!((paired_overhead_pct(&base, &lane) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn interleave_rotates_the_lane_that_goes_first() {
        let order = std::cell::RefCell::new(Vec::new());
        let (mut a, mut b, mut c) = (
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
            || order.borrow_mut().push('c'),
        );
        let secs = interleave(3, &mut [&mut a, &mut b, &mut c]);
        assert_eq!(secs.len(), 3);
        assert!(secs.iter().all(|lane| lane.len() == 3));
        let order: String = order.into_inner().into_iter().collect();
        assert_eq!(order, "abcbcacab");
    }
}
