//! The truncated geometric rank distribution used by DSS.
//!
//! "As most of the real-world data follow long-tail distributions, the
//! geometric sampler is adopted to sample from the ranking lists" (Sec 5.1).
//! A draw returns a 0-based rank that concentrates near 0 (the head of the
//! list) and decays exponentially with characteristic length `tail`.

use rand::Rng;
use rand::RngCore;

/// A truncated geometric distribution over ranks `0..len`.
///
/// ```
/// use clapf_sampling::Geometric;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let g = Geometric::with_tail_fraction(100, 0.1); // mass in the top ~10
/// let mut rng = SmallRng::seed_from_u64(7);
/// let r = g.draw(100, &mut rng);
/// assert!(r < 100);
/// ```
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Geometric {
    /// Characteristic decay length, in ranks: the probability of rank `r` is
    /// ∝ `exp(-r / tail)`.
    tail: f64,
    /// `ln q` for `q = exp(-1/tail)`, the inversion constant of every draw,
    /// computed once here rather than per draw.
    ln_q: f64,
}

impl Geometric {
    /// A geometric with characteristic decay length `tail` ranks.
    pub fn new(tail: f64) -> Self {
        // P(rank = r) ∝ exp(-r/tail) ⇒ geometric with q = exp(-1/tail).
        let q = (-1.0 / tail).exp();
        Geometric { tail, ln_q: q.ln() }
    }

    /// A geometric whose mass concentrates in roughly the top `fraction` of
    /// a list of length `len`.
    pub fn with_tail_fraction(len: usize, fraction: f64) -> Self {
        Geometric::new((len as f64 * fraction).max(1.0))
    }

    /// The characteristic decay length, in ranks.
    pub fn tail(&self) -> f64 {
        self.tail
    }

    /// Draws a 0-based rank in `0..len`.
    ///
    /// Draws are made by inversion from the untruncated geometric and
    /// rejected while out of range (with a uniform fallback after a bounded
    /// number of rejections, so pathological parameters cannot spin).
    pub fn draw(&self, len: usize, rng: &mut dyn RngCore) -> usize {
        assert!(len > 0, "cannot draw a rank from an empty list");
        if len == 1 {
            return 0;
        }
        for _ in 0..16 {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let r = (u.ln() / self.ln_q).floor() as usize;
            if r < len {
                return r;
            }
        }
        rng.gen_range(0..len)
    }
}

impl Default for Geometric {
    fn default() -> Self {
        Geometric::new(32.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn draws_are_in_range() {
        let g = Geometric::new(5.0);
        let mut rng = SmallRng::seed_from_u64(1);
        for len in [1usize, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(g.draw(len, &mut rng) < len);
            }
        }
    }

    #[test]
    fn head_gets_more_mass_than_tail() {
        let g = Geometric::new(10.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[g.draw(100, &mut rng)] += 1;
        }
        let head: usize = counts[..10].iter().sum();
        let tail: usize = counts[90..].iter().sum();
        assert!(head > 20 * (tail + 1), "head={head} tail={tail}");
    }

    #[test]
    fn mean_tracks_tail_parameter() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = Geometric::new(8.0);
        let n = 50_000;
        let sum: usize = (0..n).map(|_| g.draw(10_000, &mut rng)).sum();
        let mean = sum as f64 / n as f64;
        // Mean of a geometric with q = e^{-1/8} is q/(1-q) ≈ 7.5.
        assert!((mean - 7.5).abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn tail_fraction_helper_scales() {
        let g = Geometric::with_tail_fraction(1_000, 0.05);
        assert!((g.tail() - 50.0).abs() < 1e-9);
        // Degenerate list lengths clamp to 1.
        let g = Geometric::with_tail_fraction(3, 0.01);
        assert_eq!(g.tail(), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn empty_list_panics() {
        let mut rng = SmallRng::seed_from_u64(4);
        Geometric::default().draw(0, &mut rng);
    }

    #[test]
    fn huge_tail_degrades_to_roughly_uniform() {
        // With tail ≫ len most inversions overflow and the fallback kicks in;
        // the distribution must still cover the whole range.
        let g = Geometric::new(1e9);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen_high = false;
        for _ in 0..500 {
            if g.draw(10, &mut rng) >= 8 {
                seen_high = true;
            }
        }
        assert!(seen_high);
    }
}
