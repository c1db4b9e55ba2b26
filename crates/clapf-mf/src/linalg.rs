//! Minimal dense linear algebra for the WMF/ALS baseline.
//!
//! ALS solves one `d × d` symmetric positive-definite system per user and
//! per item each sweep (`d = 10..20` in the paper), so a plain Cholesky
//! factorization is all the machinery we need — no external BLAS.

use std::fmt;

/// Error raised when a Cholesky factorization fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotPositiveDefinite {
    /// Index of the pivot that was non-positive.
    pub pivot: usize,
}

impl fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is not positive definite (pivot {})", self.pivot)
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// A dense square matrix in row-major `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct SquareMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SquareMatrix {
    /// The zero matrix of order `n`.
    pub fn zeros(n: usize) -> Self {
        SquareMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Order of the matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Adds the symmetric outer product `w · x xᵀ` — the per-observation
    /// update of the ALS normal equations.
    #[inline]
    pub fn add_outer(&mut self, x: &[f64], w: f64) {
        assert_eq!(x.len(), self.n);
        for r in 0..self.n {
            let xr = x[r] * w;
            let row = &mut self.data[r * self.n..(r + 1) * self.n];
            for (c, item) in row.iter_mut().enumerate() {
                *item += xr * x[c];
            }
        }
    }

    /// Solves `A x = b` for symmetric positive-definite `A` via Cholesky,
    /// overwriting `b` with the solution. `A` is consumed (its lower triangle
    /// is overwritten by the factor).
    pub fn cholesky_solve_into(mut self, b: &mut [f64]) -> Result<(), NotPositiveDefinite> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // In-place Cholesky: L such that A = L Lᵀ, stored in the lower triangle.
        for j in 0..n {
            let mut diag = self[(j, j)];
            for k in 0..j {
                let ljk = self[(j, k)];
                diag -= ljk * ljk;
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(NotPositiveDefinite { pivot: j });
            }
            let ljj = diag.sqrt();
            self[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = self[(i, j)];
                for k in 0..j {
                    v -= self[(i, k)] * self[(j, k)];
                }
                self[(i, j)] = v / ljj;
            }
        }
        // Forward substitution: L y = b.
        for i in 0..n {
            let mut v = b[i];
            for k in 0..i {
                v -= self[(i, k)] * b[k];
            }
            b[i] = v / self[(i, i)];
        }
        // Back substitution: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut v = b[i];
            for k in (i + 1)..n {
                v -= self[(k, i)] * b[k];
            }
            b[i] = v / self[(i, i)];
        }
        Ok(())
    }
}

impl std::ops::Index<(usize, usize)> for SquareMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.n + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for SquareMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.n + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The identity scaled by `lambda` (the ridge term of ALS).
    fn scaled_identity(n: usize, lambda: f64) -> SquareMatrix {
        let mut m = SquareMatrix::zeros(n);
        for i in 0..n {
            m[(i, i)] = lambda;
        }
        m
    }

    #[test]
    fn identity_solves_trivially() {
        let a = scaled_identity(3, 1.0);
        let mut b = vec![1.0, 2.0, 3.0];
        a.cholesky_solve_into(&mut b).unwrap();
        assert_eq!(b, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn scaled_identity_divides() {
        let a = scaled_identity(2, 4.0);
        let mut b = vec![8.0, 2.0];
        a.cholesky_solve_into(&mut b).unwrap();
        assert_eq!(b, vec![2.0, 0.5]);
    }

    #[test]
    fn solves_known_spd_system() {
        // A = [[4, 2], [2, 3]], b = [2, 5] → x = [-0.5, 2]
        let mut a = SquareMatrix::zeros(2);
        a[(0, 0)] = 4.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 3.0;
        let mut b = vec![2.0, 5.0];
        a.cholesky_solve_into(&mut b).unwrap();
        assert!((b[0] + 0.5).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn outer_products_build_normal_equations() {
        // A = λI + Σ x xᵀ for x in {e0·2, [1,1]}
        let mut a = scaled_identity(2, 0.5);
        a.add_outer(&[2.0, 0.0], 1.0);
        a.add_outer(&[1.0, 1.0], 3.0);
        assert!((a[(0, 0)] - (0.5 + 4.0 + 3.0)).abs() < 1e-12);
        assert!((a[(0, 1)] - 3.0).abs() < 1e-12);
        assert!((a[(1, 0)] - 3.0).abs() < 1e-12);
        assert!((a[(1, 1)] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn solve_round_trips_through_mul() {
        let mut a = scaled_identity(4, 1.0);
        a.add_outer(&[1.0, 2.0, 3.0, 4.0], 0.5);
        a.add_outer(&[-1.0, 0.5, 0.0, 2.0], 1.5);
        let x_true = vec![0.3, -0.7, 1.1, 0.05];
        let mut b: Vec<f64> = (0..4)
            .map(|r| (0..4).map(|c| a[(r, c)] * x_true[c]).sum())
            .collect();
        a.cholesky_solve_into(&mut b).unwrap();
        for (xi, ti) in b.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn non_spd_is_rejected() {
        let mut a = SquareMatrix::zeros(2);
        a[(0, 0)] = -1.0;
        a[(1, 1)] = 1.0;
        let mut b = vec![1.0, 1.0];
        assert_eq!(
            a.cholesky_solve_into(&mut b),
            Err(NotPositiveDefinite { pivot: 0 })
        );
    }

    #[test]
    fn singular_is_rejected() {
        // Rank-1 matrix without ridge.
        let mut a = SquareMatrix::zeros(2);
        a.add_outer(&[1.0, 1.0], 1.0);
        let mut b = vec![1.0, 1.0];
        assert!(a.cholesky_solve_into(&mut b).is_err());
    }
}
