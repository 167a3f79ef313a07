//! Dense row-major matrix of `f64`.
//!
//! Sized for the problems in this workspace: design matrices with a few
//! thousand rows and tens of columns. Simplicity and numerical transparency
//! beat blocked kernels at this scale.

use crate::{MathError, Result};

/// Dense row-major matrix.
///
/// ```
/// use cqm_math::matrix::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix of shape `rows x cols`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "rows must be non-empty");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `data.len() != rows * cols`
    /// and [`MathError::EmptyInput`] if either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(MathError::EmptyInput("matrix dimensions"));
        }
        if data.len() != rows * cols {
            return Err(MathError::DimensionMismatch {
                context: "from_vec buffer length",
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy one column into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(MathError::DimensionMismatch {
                context: "matmul inner dimension",
                expected: self.cols,
                actual: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                // lint: allow(NAN_UNSAFE_CMP) -- exact-zero skip in the sparse-aware inner loop; any other value multiplies through
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `v.len() != self.cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                context: "matvec",
                expected: self.cols,
                actual: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, x)| a * x).sum())
            .collect())
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MathError::DimensionMismatch {
                context: "matrix add shape",
                expected: self.rows * self.cols,
                actual: other.rows * other.cols,
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Matrix {
        debug_assert!(k.is_finite(), "Matrix::scale: non-finite factor {k}");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| k * x).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry; 0 for the (impossible) empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Append a row to the bottom of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if row.len() != self.cols {
            return Err(MathError::DimensionMismatch {
                context: "push_row width",
                expected: self.cols,
                actual: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 2)].to_bits(), 3.0f64.to_bits());
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(MathError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Matrix::from_vec(0, 2, vec![]),
            Err(MathError::EmptyInput(_))
        ));
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)].to_bits(), 6.0f64.to_bits());
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b).unwrap(), Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
        assert!(a.add(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(a.frobenius_norm().to_bits(), 5.0f64.to_bits());
        assert_eq!(a.max_abs().to_bits(), 4.0f64.to_bits());
    }

    #[test]
    fn push_row_grows() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        a.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(a.rows(), 2);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert!(a.push_row(&[1.0]).is_err());
    }

    #[test]
    fn display_renders_all_entries() {
        let s = Matrix::identity(2).to_string();
        assert!(s.contains("1.0000"));
        assert!(s.contains("0.0000"));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(1, 1);
        let _ = a[(1, 0)];
    }
}
