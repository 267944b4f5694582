//! Small dense `f64` linear algebra used by the Bayesian models: Cholesky
//! factorization and triangular solves. Kept separate from [`crate::tensor`]
//! because posterior updates need double precision to stay well-conditioned.

/// A dense, row-major `f64` square-capable matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct MatF64 {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl MatF64 {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Adds `alpha` to every diagonal element (ridge/jitter).
    pub fn add_diag(&mut self, alpha: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }

    /// Matrix-vector product.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols);
        (0..self.rows)
            .map(|r| {
                self.data[r * self.cols..(r + 1) * self.cols]
                    .iter()
                    .zip(v)
                    .map(|(&a, &b)| a * b)
                    .sum()
            })
            .collect()
    }

    /// `self^T * self` (Gram matrix).
    pub fn gram(&self) -> MatF64 {
        let mut out = MatF64::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for i in 0..self.cols {
                if row[i] == 0.0 {
                    continue;
                }
                for j in 0..self.cols {
                    out[(i, j)] += row[i] * row[j];
                }
            }
        }
        out
    }

    /// Cholesky factorization `self = L L^T` of a symmetric positive-definite
    /// matrix; returns lower-triangular `L`, or `None` if not SPD.
    pub fn cholesky(&self) -> Option<MatF64> {
        assert_eq!(self.rows, self.cols, "cholesky: not square");
        let n = self.rows;
        let mut l = MatF64::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return None;
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Some(l)
    }
}

impl std::ops::Index<(usize, usize)> for MatF64 {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for MatF64 {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Solves `L y = b` for lower-triangular `L` (forward substitution).
pub fn solve_lower(l: &MatF64, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(b.len(), n);
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut s = b[i];
        for j in 0..i {
            s -= l[(i, j)] * y[j];
        }
        y[i] = s / l[(i, i)];
    }
    y
}

/// Solves `L^T x = y` for lower-triangular `L` (backward substitution).
pub fn solve_lower_transpose(l: &MatF64, y: &[f64]) -> Vec<f64> {
    let n = l.rows();
    assert_eq!(y.len(), n);
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = y[i];
        for j in i + 1..n {
            s -= l[(j, i)] * x[j];
        }
        x[i] = s / l[(i, i)];
    }
    x
}

/// Solves `A x = b` for SPD `A` via Cholesky; `None` if `A` is not SPD.
pub fn solve_spd(a: &MatF64, b: &[f64]) -> Option<Vec<f64>> {
    let l = a.cholesky()?;
    Some(solve_lower_transpose(&l, &solve_lower(&l, b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> MatF64 {
        // A = M M^T + I for a fixed M is SPD.
        MatF64::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0])
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd3();
        let l = a.cholesky().expect("spd");
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += l[(i, k)] * l[(j, k)];
                }
                assert!((s - a[(i, j)]).abs() < 1e-10, "LL^T != A at ({i},{j})");
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = MatF64::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn solve_spd_roundtrip() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = solve_spd(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let m = MatF64::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = m.gram();
        for i in 0..3 {
            assert!(g[(i, i)] >= 0.0);
            for j in 0..3 {
                assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
    }
}
