use crate::{DenseMatrix, LinalgError};

/// A coordinate-format entry used to assemble sparse matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
    /// Value; duplicate `(row, col)` entries are summed on assembly.
    pub val: f64,
}

impl Triplet {
    /// Creates a new triplet.
    pub fn new(row: usize, col: usize, val: f64) -> Triplet {
        Triplet { row, col, val }
    }
}

/// Compressed sparse row matrix.
///
/// The storage of every conductance matrix in the workspace: the compact
/// thermal model stamps `G` straight into CSR (the matrix is ≈99 % zeros
/// at package scale), `G − i·D` is a copy with its diagonal shifted
/// ([`CsrMatrix::add_scaled_diagonal`]), and the sparse [`Cholesky`]
/// gathers its input from here. It also backs the fine-grid reference
/// thermal solver, whose CG iterations need only [`CsrMatrix::mul_vec_into`].
/// Column indices are strictly ascending within each row.
///
/// [`Cholesky`]: crate::Cholesky
///
/// ```
/// use tecopt_linalg::{CsrMatrix, Triplet};
///
/// # fn main() -> Result<(), tecopt_linalg::LinalgError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[
///     Triplet::new(0, 0, 2.0),
///     Triplet::new(0, 1, -1.0),
///     Triplet::new(1, 0, -1.0),
///     Triplet::new(1, 1, 2.0),
/// ])?;
/// assert_eq!(a.mul_vec(&[1.0, 1.0])?, vec![1.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a CSR matrix from coordinate triplets, summing duplicates.
    ///
    /// The triplets are ordered by `(row, col)` with a stable sort, so the
    /// duplicates of one entry are summed left to right in the order they
    /// were given: `[a, b, c]` stores `(a + b) + c`. That is the order a
    /// dense `+=` stamp loop accumulates in, so a network stamped either way
    /// gives bit-identical values. Sums are stored even when they cancel to
    /// zero: the structure depends only on which positions were stamped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if any index is out of bounds.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[Triplet],
    ) -> Result<CsrMatrix, LinalgError> {
        for t in triplets {
            if t.row >= rows || t.col >= cols {
                return Err(LinalgError::InvalidInput(format!(
                    "triplet ({}, {}) out of bounds for {rows}x{cols}",
                    t.row, t.col
                )));
            }
        }
        // Bucket the entries by row (a stable counting sort), then sort
        // each short row by column with a stable sort.
        let mut start = vec![0usize; rows + 1];
        for t in triplets {
            start[t.row + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut entries = vec![(0usize, 0.0f64); triplets.len()];
        for t in triplets {
            entries[next[t.row]] = (t.col, t.val);
            next[t.row] += 1;
        }
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        for r in 0..rows {
            let row = &mut entries[start[r]..start[r + 1]];
            row.sort_by_key(|&(c, _)| c);
            for &(c, v) in row.iter() {
                // `row_ptr[r] < col_idx.len()` restricts the duplicate check
                // to entries appended for the current row, so an equal
                // column index in a *previous* row cannot absorb this value.
                if row_ptr[r] < col_idx.len() && col_idx.last() == Some(&c) {
                    if let Some(last_v) = values.last_mut() {
                        *last_v += v;
                        continue;
                    }
                }
                col_idx.push(c);
                values.push(v);
            }
            row_ptr[r + 1] = col_idx.len();
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Wraps CSR arrays built outside this crate, after checking in
    /// `O(rows + nnz)` that they are canonical: `row_ptr` has `rows + 1`
    /// entries, starts at 0, never decreases and ends at `col_idx.len()`,
    /// which equals `values.len()`; the columns of each row are strictly
    /// ascending and below `cols`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] naming the first violation.
    pub fn try_from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<CsrMatrix, LinalgError> {
        let invalid = |what: String| Err(LinalgError::InvalidInput(what));
        if row_ptr.len() != rows + 1 {
            return invalid(format!(
                "row_ptr has {} entries for {rows} rows",
                row_ptr.len()
            ));
        }
        if col_idx.len() != values.len() {
            return invalid(format!(
                "{} column indices for {} values",
                col_idx.len(),
                values.len()
            ));
        }
        if row_ptr[0] != 0 || row_ptr[rows] != col_idx.len() {
            return invalid(format!(
                "row_ptr spans {}..{}, not 0..{}",
                row_ptr[0],
                row_ptr[rows],
                col_idx.len()
            ));
        }
        for (r, span) in row_ptr.windows(2).enumerate() {
            if span[0] > span[1] || span[1] > col_idx.len() {
                return invalid(format!("row_ptr is not monotone at row {r}"));
            }
            let row = &col_idx[span[0]..span[1]];
            if row.last().is_some_and(|&c| c >= cols) {
                return invalid(format!("row {r} has a column out of bounds for {cols}"));
            }
            if row.windows(2).any(|w| w[0] >= w[1]) {
                return invalid(format!("columns of row {r} are not strictly ascending"));
            }
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Wraps raw CSR arrays the caller built in canonical form (row
    /// pointers from 0 to `col_idx.len()`, strictly ascending columns per
    /// row, one value per column index).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> CsrMatrix {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Compresses a dense matrix, dropping exact zeros.
    ///
    /// The bridge from the dense entry points ([`crate::FactoredSystem::factor`]
    /// on the CG backend, the dense `λ_m` tests) to the sparse kernels.
    pub fn from_dense(a: &DenseMatrix) -> CsrMatrix {
        let (rows, cols) = (a.rows(), a.cols());
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for r in 0..rows {
            for (c, &v) in a.row(r).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The dense copy of this matrix (unstored entries read as zero).
    ///
    /// For oracles, validation and the dense entry points only: at package
    /// scale the copy is ~100× the size of the CSR storage.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                a[(r, self.col_idx[k])] = self.values[k];
            }
        }
        a
    }

    /// Row pointers: row `r` occupies `row_ptr()[r]..row_ptr()[r + 1]` of
    /// [`CsrMatrix::col_indices`] and [`CsrMatrix::values`].
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index of every stored entry, ascending within each row.
    #[inline]
    pub fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value of every stored entry, aligned with [`CsrMatrix::col_indices`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Offset of the stored diagonal entry `(k, k)` in
    /// [`CsrMatrix::values`], or `None` if it is out of bounds or not
    /// stored.
    pub fn diagonal_offset(&self, k: usize) -> Option<usize> {
        if k >= self.rows || k >= self.cols {
            return None;
        }
        let start = self.row_ptr[k];
        self.col_idx[start..self.row_ptr[k + 1]]
            .binary_search(&k)
            .ok()
            .map(|pos| start + pos)
    }

    /// Adds `scale · diag[k]` to every diagonal entry — the sparse
    /// counterpart of [`DenseMatrix::add_scaled_diagonal`], with the same
    /// arithmetic (`a_kk += scale · d_k`), so both give bit-identical
    /// values. A structurally absent diagonal is inserted when the shift is
    /// nonzero (see [`CsrMatrix::set_diagonal_entry`]).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for a non-square matrix and
    /// [`LinalgError::DimensionMismatch`] if `diag.len() != rows`.
    pub fn add_scaled_diagonal(&mut self, diag: &[f64], scale: f64) -> Result<(), LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        if diag.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: self.rows,
                actual: diag.len(),
            });
        }
        for (k, &d) in diag.iter().enumerate() {
            match self.diagonal_offset(k) {
                Some(slot) => self.values[slot] += scale * d,
                None => self.set_diagonal_entry(k, 0.0 + scale * d)?,
            }
        }
        Ok(())
    }

    /// Sets the diagonal entry `(k, k)`, inserting it if structurally
    /// absent.
    ///
    /// This is the sparse counterpart of
    /// [`DenseMatrix::add_scaled_diagonal`]: the system matrices `G − i·D`
    /// share the sparsity structure of `G` (only diagonal values change with
    /// the current), so per-probe restamping reduces to a handful of these
    /// updates instead of a fresh format conversion.
    ///
    /// A structurally absent diagonal (legal CSR — e.g. a row whose diagonal
    /// conductance cancelled to exactly zero) is **inserted**: the column
    /// index and value slide into row `k` and the tail of `row_ptr` shifts
    /// by one. Earlier revisions rejected this case, which silently stranded
    /// rank-k current updates on such rows. Writing an exact `0.0` into an
    /// absent slot is a no-op (the entry already reads as zero), preserving
    /// [`CsrMatrix::from_dense`] round-trip parity, which never stores
    /// zeros.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidInput`] if `(k, k)` is out of bounds.
    pub fn set_diagonal_entry(&mut self, k: usize, value: f64) -> Result<(), LinalgError> {
        if k >= self.rows || k >= self.cols {
            return Err(LinalgError::InvalidInput(format!(
                "diagonal index {k} out of bounds for {}x{}",
                self.rows, self.cols
            )));
        }
        let start = self.row_ptr[k];
        let end = self.row_ptr[k + 1];
        match self.col_idx[start..end].binary_search(&k) {
            Ok(pos) => {
                self.values[start + pos] = value;
                Ok(())
            }
            Err(pos) => {
                if value == 0.0 {
                    return Ok(());
                }
                self.col_idx.insert(start + pos, k);
                self.values.insert(start + pos, value);
                for p in &mut self.row_ptr[k + 1..] {
                    *p += 1;
                }
                Ok(())
            }
        }
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

    /// Number of stored (structural) nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(r, c)`, zero if not stored.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `c` is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        match self.col_idx[start..end].binary_search(&c) {
            Ok(pos) => self.values[start + pos],
            Err(_) => 0.0,
        }
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        Ok(y)
    }

    /// Matrix-vector product into a caller-provided buffer (no allocation),
    /// for use inside CG iterations.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "input length mismatch");
        assert_eq!(y.len(), self.rows, "output length mismatch");
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yr = acc;
        }
    }

    /// Copy of the main diagonal (zeros where unstored).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|k| self.get(k, k))
            .collect()
    }

    /// Checks structural + numerical symmetry within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                let v = self.values[k];
                if (v - self.get(c, r)).abs() > tol * v.abs().max(1.0) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push(Triplet::new(i, i, 2.0));
            if i > 0 {
                t.push(Triplet::new(i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push(Triplet::new(i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn assembly_and_access() {
        let a = laplacian_1d(4);
        assert_eq!(a.rows(), 4);
        assert_eq!(a.cols(), 4);
        assert_eq!(a.nnz(), 10);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.diagonal(), vec![2.0; 4]);
        assert!(a.is_symmetric(0.0));
    }

    #[test]
    fn duplicates_are_summed() {
        let a = CsrMatrix::from_triplets(
            2,
            2,
            &[
                Triplet::new(0, 0, 1.0),
                Triplet::new(0, 0, 2.5),
                Triplet::new(1, 1, 1.0),
            ],
        )
        .unwrap();
        assert_eq!(a.get(0, 0), 3.5);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn duplicates_are_summed_in_insertion_order() {
        // (1e16 + 1) + (−1e16) = 0: the 1.0 is absorbed by 1e16 before the
        // cancellation, as in a dense `+=` loop from zero; an order that
        // cancels ±1e16 first gives 1.0. The bit-identity of sparse and
        // dense assembly rests on this order. Entry (0, 1) takes the same
        // values in an order whose reversal would also cancel first.
        let t = |c, v| Triplet::new(1 - c, c, v);
        let a = CsrMatrix::from_triplets(
            2,
            2,
            &[
                t(0, 1e16),
                t(1, 1.0),
                Triplet::new(0, 0, 2.0),
                t(0, 1.0),
                t(1, 1e16),
                Triplet::new(1, 1, 3.0),
                t(0, -1e16),
                t(1, -1e16),
            ],
        )
        .unwrap();
        assert_eq!(a.get(1, 0).to_bits(), 0.0_f64.to_bits());
        assert_eq!(a.get(0, 1).to_bits(), 0.0_f64.to_bits());
        // A cancelled sum stays stored: the structure is what was stamped.
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.col_indices(), &[0, 1, 0, 1]);
        assert_eq!(a.row_ptr(), &[0, 2, 4]);
        let mut dense = DenseMatrix::zeros(2, 2);
        for v in [1e16, 1.0, -1e16] {
            dense[(1, 0)] += v;
        }
        for v in [1.0, 1e16, -1e16] {
            dense[(0, 1)] += v;
        }
        assert_eq!(a.to_dense().as_slice()[1..3], dense.as_slice()[1..3]);
    }

    #[test]
    fn to_dense_and_diagonal_offsets() {
        let a = laplacian_1d(3);
        let d = a.to_dense();
        assert_eq!(
            d,
            DenseMatrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]])
                .unwrap()
        );
        assert_eq!(a.diagonal_offset(0), Some(0));
        assert_eq!(a.diagonal_offset(1), Some(3));
        assert_eq!(a.diagonal_offset(3), None);
        let holey = CsrMatrix::from_triplets(2, 2, &[Triplet::new(1, 0, 1.0)]).unwrap();
        assert_eq!(holey.diagonal_offset(1), None);
    }

    #[test]
    fn add_scaled_diagonal_matches_the_dense_arithmetic() {
        let mut a = laplacian_1d(4);
        let mut d = a.to_dense();
        let shift = [0.3, -1.7, 0.0, 2.2];
        a.add_scaled_diagonal(&shift, -0.1).unwrap();
        d.add_scaled_diagonal(&shift, -0.1).unwrap();
        assert_eq!(a.to_dense(), d);
        assert_eq!(a.nnz(), 10);
        // A missing diagonal is inserted only where the shift is nonzero.
        let mut holey = CsrMatrix::from_triplets(2, 2, &[Triplet::new(1, 0, 1.0)]).unwrap();
        holey.add_scaled_diagonal(&[0.0, 2.0], 1.0).unwrap();
        assert_eq!(holey.nnz(), 2);
        assert_eq!(holey.get(1, 1), 2.0);
        assert!(holey.add_scaled_diagonal(&[1.0], 1.0).is_err());
        let mut wide = CsrMatrix::from_triplets(1, 2, &[]).unwrap();
        assert!(matches!(
            wide.add_scaled_diagonal(&[1.0], 1.0),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn out_of_bounds_triplet_rejected() {
        let err = CsrMatrix::from_triplets(2, 2, &[Triplet::new(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput(_)));
    }

    #[test]
    fn checked_parts_accept_canonical_csr() {
        let a = laplacian_1d(4);
        let b = CsrMatrix::try_from_parts(
            4,
            4,
            a.row_ptr().to_vec(),
            a.col_indices().to_vec(),
            a.values().to_vec(),
        )
        .unwrap();
        assert_eq!(a, b);
        let empty = CsrMatrix::try_from_parts(0, 3, vec![0], vec![], vec![]).unwrap();
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn checked_parts_reject_malformed_csr_with_a_typed_error() {
        let parts = |row_ptr: &[usize], col_idx: &[usize], nval: usize| {
            CsrMatrix::try_from_parts(2, 3, row_ptr.to_vec(), col_idx.to_vec(), vec![1.0; nval])
        };
        let cases = [
            ("non-monotone row_ptr", parts(&[0, 3, 2], &[0, 1, 2], 3)),
            ("row_ptr past nnz", parts(&[0, 4, 2], &[0, 1], 2)),
            ("row_ptr not from 0", parts(&[1, 1, 2], &[0, 1], 2)),
            ("row_ptr not to nnz", parts(&[0, 1, 1], &[0, 1], 2)),
            ("unsorted columns", parts(&[0, 2, 2], &[1, 0], 2)),
            ("duplicate columns", parts(&[0, 2, 2], &[1, 1], 2)),
            ("column out of range", parts(&[0, 1, 2], &[0, 3], 2)),
            ("row_ptr length", parts(&[0, 2], &[0, 1], 2)),
            ("values length", parts(&[0, 1, 2], &[0, 1], 3)),
        ];
        for (what, result) in cases {
            assert!(
                matches!(result, Err(LinalgError::InvalidInput(_))),
                "{what}: {result:?}"
            );
        }
    }

    #[test]
    fn mul_vec_matches_dense() {
        let a = laplacian_1d(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = a.mul_vec(&x).unwrap();
        assert_eq!(y, vec![0.0, 0.0, 0.0, 0.0, 6.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn asymmetric_detected() {
        let a =
            CsrMatrix::from_triplets(2, 2, &[Triplet::new(0, 1, 1.0), Triplet::new(1, 0, -1.0)])
                .unwrap();
        assert!(!a.is_symmetric(1e-12));
    }

    #[test]
    fn from_dense_round_trips() {
        let a = DenseMatrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]])
            .unwrap();
        let s = CsrMatrix::from_dense(&a);
        assert_eq!(s.nnz(), 7);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(s.get(r, c), a[(r, c)]);
            }
        }
    }

    #[test]
    fn set_diagonal_entry_updates_in_place() {
        let mut a = laplacian_1d(4);
        a.set_diagonal_entry(2, 7.5).unwrap();
        assert_eq!(a.get(2, 2), 7.5);
        assert_eq!(a.get(1, 1), 2.0);
        assert_eq!(a.nnz(), 10);
        assert!(a.set_diagonal_entry(9, 1.0).is_err());
    }

    #[test]
    fn set_diagonal_entry_inserts_structurally_absent_diagonal() {
        // Regression: a structurally absent diagonal used to be rejected,
        // silently stranding rank-k current updates on rows whose diagonal
        // conductance cancelled to exact zero. It must now be inserted.
        let mut b = CsrMatrix::from_triplets(
            3,
            3,
            &[
                Triplet::new(0, 0, 1.0),
                Triplet::new(1, 0, 1.0),
                Triplet::new(1, 2, 4.0),
                Triplet::new(2, 2, 2.0),
            ],
        )
        .unwrap();
        assert_eq!(b.get(1, 1), 0.0);
        b.set_diagonal_entry(1, 5.0).unwrap();
        assert_eq!(b.get(1, 1), 5.0);
        // Neighbors in the row and every other entry survive the insert.
        assert_eq!(b.get(1, 0), 1.0);
        assert_eq!(b.get(1, 2), 4.0);
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(b.get(2, 2), 2.0);
        assert_eq!(b.nnz(), 5);
        // The patched matrix round-trips through mul_vec consistently.
        assert_eq!(b.mul_vec(&[1.0, 1.0, 1.0]).unwrap(), vec![1.0, 10.0, 2.0]);
        // Writing exact zero into an absent slot is a storage no-op.
        let mut c = CsrMatrix::from_triplets(2, 2, &[Triplet::new(0, 0, 1.0)]).unwrap();
        c.set_diagonal_entry(1, 0.0).unwrap();
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(1, 1), 0.0);
    }

    #[test]
    fn duplicate_columns_across_rows_not_merged() {
        // Regression for the duplicate-accumulation guard: row 1 starts with
        // the same column index row 0 ended with; the values must stay
        // separate entries.
        let a = CsrMatrix::from_triplets(2, 2, &[Triplet::new(0, 1, 3.0), Triplet::new(1, 1, 4.0)])
            .unwrap();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 1), 3.0);
        assert_eq!(a.get(1, 1), 4.0);
    }

    #[test]
    fn empty_rows_handled() {
        let a = CsrMatrix::from_triplets(3, 3, &[Triplet::new(2, 2, 1.0)]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]).unwrap(), vec![0.0, 0.0, 1.0]);
    }
}
