//! Order statistics for latency samples and run-to-run spreads.

/// A percentile of a sample together with how much data backs it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The value at the requested rank (nearest rank, lower side).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank: a p99 over 1000
    /// samples has 10 beyond it.
    pub beyond: usize,
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending slice by the
/// nearest-rank rule: the smallest value with at least `p·n` samples at or
/// below it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Sorts a sample in place (NaN-free by construction of every caller).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so spreads printed
/// here match the ones an outside checker computes from the same values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n as f64 + 1.0;
    let cut = |i: f64| {
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1.0), cut(3.0))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_samples_has_ten_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&v, 0.99).unwrap();
        assert_eq!(p.value, 990.0);
        assert_eq!(p.samples, 1000);
        assert_eq!(p.beyond, 10);
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
        let one = percentile(&[7.0], 0.99).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&v, 1.0).unwrap().value, 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
