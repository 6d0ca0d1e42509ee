//! Row-major dense `f64` matrix.

use crate::{LinalgError, Result};
use rayon::prelude::*;
use std::ops::{Index, IndexMut};

/// Element count above which matrix multiplication parallelizes over rows.
pub(crate) const PAR_MATMUL_FLOPS: usize = 1 << 20;

/// A dense, row-major matrix of `f64`.
///
/// The layout is a single contiguous `Vec<f64>` of length `rows * cols`;
/// element `(i, j)` lives at index `i * cols + j`. All arithmetic routines
/// check shapes and return [`LinalgError::ShapeMismatch`] on disagreement.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Create a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Mat {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major vector. Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Build from nested row slices. Panics on ragged input.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Mat::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build an `n × n` diagonal matrix from the given diagonal entries.
    pub fn diag(entries: &[f64]) -> Self {
        let n = entries.len();
        let mut m = Mat::zeros(n, n);
        for (i, &v) in entries.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Borrow the backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the backing row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume and return the backing vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Uses an i-k-j loop order for cache friendliness; parallelizes over
    /// rows with rayon when the flop count is large enough to amortize the
    /// fork/join.
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Mat::zeros(m, n);
        let flops = m * k * n;
        let body = |(i, out_row): (usize, &mut [f64])| {
            let a_row = self.row(i);
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = rhs.row(kk);
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        };
        if flops >= PAR_MATMUL_FLOPS {
            out.data
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, row)| body((i, row)));
        } else {
            out.data
                .chunks_mut(n)
                .enumerate()
                .for_each(|(i, row)| body((i, row)));
        }
        Ok(out)
    }

    /// Gram matrix of the rows: `self * selfᵀ` (shape `rows × rows`).
    ///
    /// Bit contract: entry `(i, j)` is the dot product of rows `i` and `j`
    /// summed with plain `+=` of separate products, from `-0.0`, in
    /// ascending column order — exactly as `Iterator::sum` would — and
    /// `(j, i)` holds the same bits. How the entries are grouped into
    /// tiles is free, and does not show in the result.
    ///
    /// Only the upper triangle is computed, in tiles of two rows against
    /// up to eight rows: each pass over the columns runs up to sixteen
    /// independent sums side by side, so their add latencies overlap, and
    /// shares every row load among them. Tiles fan out across threads
    /// above the matmul flop threshold; each computes whole entries, so the
    /// bits do not depend on the thread count.
    pub fn gram_rows(&self) -> Mat {
        let m = self.rows;
        let rows: Vec<&[f64]> = (0..m).map(|i| self.row(i)).collect();
        let tiles: Vec<(usize, usize)> = (0..m)
            .step_by(2)
            .flat_map(|i0| (i0..m).step_by(GRAM_TILE).map(move |j0| (i0, j0)))
            .collect();
        // One kernel per tile width keeps each one's sums in registers.
        let tile = |t: usize| {
            let (i0, j0) = tiles[t];
            match m - j0 {
                1 | 2 => gram_tile::<2>(&rows, i0, j0),
                3 | 4 => gram_tile::<4>(&rows, i0, j0),
                5 | 6 => gram_tile::<6>(&rows, i0, j0),
                _ => gram_tile::<GRAM_TILE>(&rows, i0, j0),
            }
        };
        let sums: Vec<[[f64; GRAM_TILE]; 2]> = if m * m * self.cols / 2 >= PAR_MATMUL_FLOPS {
            (0..tiles.len()).into_par_iter().map(tile).collect()
        } else {
            (0..tiles.len()).map(tile).collect()
        };
        let mut g = Mat::zeros(m, m);
        for (&(i0, j0), tile_sums) in tiles.iter().zip(&sums) {
            for (i, row_sums) in (i0..m.min(i0 + 2)).zip(tile_sums) {
                for (j, &v) in (j0..m.min(j0 + GRAM_TILE)).zip(row_sums) {
                    if j >= i {
                        g[(i, j)] = v;
                        g[(j, i)] = v;
                    }
                }
            }
        }
        g
    }

    /// Gram matrix of the columns: `selfᵀ * self` (shape `cols × cols`).
    ///
    /// Entry `(i, j)` sums `self[(r, i)] * self[(r, j)]` in ascending row
    /// order from `-0.0`, so it is bit-identical to
    /// `self.transpose().gram_rows()` without the transposed copy.
    pub fn gram_cols(&self) -> Mat {
        let n = self.cols;
        let mut g = Mat::full(n, n, -0.0);
        for r in self.data.chunks_exact(n.max(1)) {
            for (i, &a) in r.iter().enumerate() {
                for (s, &b) in g.data[i * n + i..(i + 1) * n].iter_mut().zip(&r[i..]) {
                    *s += a * b;
                }
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                g[(j, i)] = g[(i, j)];
            }
        }
        g
    }

    /// Elementwise sum `self + rhs`.
    pub fn add(&self, rhs: &Mat) -> Result<Mat> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Mat) -> Result<Mat> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise combination of two equally shaped matrices.
    pub fn zip_with(
        &self,
        rhs: &Mat,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Mat> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiply every element by a scalar, returning a new matrix.
    pub fn scale(&self, s: f64) -> Mat {
        let data = self.data.iter().map(|&v| v * s).collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += alpha * rhs` (axpy).
    pub fn axpy(&mut self, alpha: f64, rhs: &Mat) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Apply `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Outer product of two vectors: `u vᵀ` (shape `u.len() × v.len()`).
    pub fn outer(u: &[f64], v: &[f64]) -> Mat {
        let mut m = Mat::zeros(u.len(), v.len());
        for (i, &a) in u.iter().enumerate() {
            for (j, &b) in v.iter().enumerate() {
                m[(i, j)] = a * b;
            }
        }
        m
    }

    /// Reserve room for `rows` more [`push_row`](Mat::push_row) calls.
    pub fn reserve_rows(&mut self, rows: usize) {
        self.data.reserve(rows * self.cols);
    }

    /// Append one row in place. Panics if `row.len()` is not the column
    /// count.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "Mat::push_row: row length");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Maximum absolute element, 0.0 for empty matrices.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Mean of each column, as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut sums = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(i)) {
                *s += v;
            }
        }
        let n = self.rows as f64;
        sums.iter_mut().for_each(|s| *s /= n);
        sums
    }

    /// Minimum of each column, as a vector of length `cols`.
    pub fn col_mins(&self) -> Vec<f64> {
        let mut mins = vec![f64::INFINITY; self.cols];
        for i in 0..self.rows {
            for (m, &v) in mins.iter_mut().zip(self.row(i)) {
                if v < *m {
                    *m = v;
                }
            }
        }
        mins
    }

    /// Median of each column (the lower median for even row counts): the
    /// element a stable sort of the column puts there, found by
    /// [`select_stable`].
    pub fn col_medians(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut col = Vec::with_capacity(self.rows);
        (0..self.cols)
            .map(|j| {
                col.clear();
                col.extend((0..self.rows).map(|i| self[(i, j)]));
                select_stable(&mut col, (self.rows - 1) / 2)
            })
            .collect()
    }
}

/// Rows of the second operand in one tile of [`Mat::gram_rows`]: with the
/// two rows of the first, sixteen sums in flight. Wider tiles (2 × 10,
/// 2 × 12) measured slower on x86-64.
const GRAM_TILE: usize = 8;

/// The dot products of rows `i0` and `i0 + 1` with rows `j0 .. j0 + C`,
/// each summed with `+=` from `-0.0` in ascending column order. Lanes past
/// the last row repeat it; the caller drops them, and the entries below
/// the diagonal.
#[inline(always)]
fn gram_tile<const C: usize>(rows: &[&[f64]], i0: usize, j0: usize) -> [[f64; GRAM_TILE]; 2] {
    let (last, n) = (rows.len() - 1, rows[0].len());
    let x: [&[f64]; 2] = std::array::from_fn(|r| &rows[(i0 + r).min(last)][..n]);
    let y: [&[f64]; C] = std::array::from_fn(|l| &rows[(j0 + l).min(last)][..n]);
    let mut acc = [[-0.0f64; C]; 2];
    for c in 0..n {
        for (sums, xr) in acc.iter_mut().zip(&x) {
            let a = xr[c];
            for (s, yl) in sums.iter_mut().zip(&y) {
                *s += a * yl[c];
            }
        }
    }
    let mut out = [[0.0; GRAM_TILE]; 2];
    for (o, sums) in out.iter_mut().zip(&acc) {
        o[..C].copy_from_slice(sums);
    }
    out
}

/// The element a stable ascending sort of `values` (by `partial_cmp`) puts
/// at index `k`, bit for bit, found by selection in linear time. `values`
/// is left in an unspecified order. Panics if `k` is out of range or a
/// comparison meets a NaN.
///
/// Values that compare equal have equal bits, except `0.0` and `-0.0`: a
/// stable sort leaves the zeros, which follow the negatives, in input
/// order, while selection may return any of them. So a `k` that lands
/// among the zeros is answered from the input order.
pub fn select_stable(values: &mut [f64], k: usize) -> f64 {
    let below = values.iter().filter(|&&v| v < 0.0).count();
    if let Some(&zero) = k
        .checked_sub(below)
        .and_then(|z| values.iter().filter(|&&v| v == 0.0).nth(z))
    {
        return zero;
    }
    *values
        .select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("no NaN in a median"))
        .1
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_eye() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Mat::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_ragged_panics() {
        Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_known() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = Mat::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 7.0]]);
        let i = Mat::eye(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn gram_rows_matches_explicit() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let g = a.gram_rows();
        let explicit = a.matmul(&a.transpose()).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gram_cols_is_the_transposed_gram_rows() {
        let data = (0..37 * 6)
            .map(|k| ((k * 7919) % 101) as f64 / 7.0 - 6.5)
            .collect();
        let a = Mat::from_vec(37, 6, data);
        let (got, want) = (a.gram_cols(), a.transpose().gram_rows());
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn add_sub_axpy() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, -1.0]]);
        assert_eq!(a.add(&b).unwrap(), Mat::from_rows(&[&[4.0, 1.0]]));
        assert_eq!(a.sub(&b).unwrap(), Mat::from_rows(&[&[-2.0, 3.0]]));
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[7.0, 0.0]]));
    }

    #[test]
    fn outer_product() {
        let m = Mat::outer(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m, Mat::from_rows(&[&[3.0, 4.0, 5.0], &[6.0, 8.0, 10.0]]));
    }

    #[test]
    fn push_row_appends_in_place() {
        let mut m = Mat::zeros(0, 2);
        m.push_row(&[1.0, 2.0]);
        m.push_row(&[3.0, 4.0]);
        assert_eq!(m, Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn push_row_rejects_a_ragged_row() {
        Mat::zeros(1, 2).push_row(&[1.0]);
    }

    #[test]
    fn col_stats() {
        let m = Mat::from_rows(&[&[1.0, 10.0], &[3.0, 20.0], &[2.0, 60.0]]);
        assert_eq!(m.col_means(), vec![2.0, 30.0]);
        assert_eq!(m.col_mins(), vec![1.0, 10.0]);
        assert_eq!(m.col_medians(), vec![2.0, 20.0]);
    }

    #[test]
    fn max_abs() {
        let m = Mat::from_rows(&[&[1.0, -7.5], &[3.0, 2.0]]);
        assert_eq!(m.max_abs(), 7.5);
        assert_eq!(Mat::zeros(0, 0).max_abs(), 0.0);
    }
}
