//! Bit-packed matrices over GF(2) with row-reduction routines.

use crate::BitVec;
use std::fmt;

/// A dense matrix over GF(2), stored as one [`BitVec`] per row.
///
/// Used for flow-group membership in the ZX verifier and for counting
/// independent Pauli strings.
///
/// # Examples
///
/// ```
/// use gf2::BitMat;
///
/// let m = BitMat::identity(4);
/// assert_eq!(m.rank(), 4);
/// assert!(m.get(2, 2));
/// assert!(!m.get(2, 3));
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BitMat {
    rows: usize,
    cols: usize,
    data: Vec<BitVec>,
}

impl BitMat {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        BitMat {
            rows,
            cols,
            data: vec![BitVec::zeros(cols); rows],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = BitMat::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Builds a matrix from rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: Vec<BitVec>) -> Self {
        let cols = rows.first().map_or(0, BitVec::len);
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        BitMat {
            rows: rows.len(),
            cols,
            data: rows,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Reads entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.data[r].get(c)
    }

    /// Writes entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        self.data[r].set(c, value);
    }

    /// Borrows row `r`.
    pub fn row(&self, r: usize) -> &BitVec {
        &self.data[r]
    }

    /// Iterates over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, BitVec> {
        self.data.iter()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from `ncols` (unless the matrix is empty).
    pub fn push_row(&mut self, row: BitVec) {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        assert_eq!(row.len(), self.cols, "row length mismatch");
        self.data.push(row);
        self.rows += 1;
    }

    /// XORs row `src` into row `dst` (`dst += src`).
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either is out of range.
    pub fn xor_row(&mut self, dst: usize, src: usize) {
        assert_ne!(dst, src, "xor_row with src == dst");
        let (a, b) = if dst < src {
            let (lo, hi) = self.data.split_at_mut(src);
            (&mut lo[dst], &hi[0])
        } else {
            let (lo, hi) = self.data.split_at_mut(dst);
            (&mut hi[0], &lo[src])
        };
        *a ^= b;
    }

    /// Swaps two rows.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        self.data.swap(a, b);
    }

    /// In-place Gaussian elimination to **reduced row echelon form**,
    /// processing columns left-to-right. Returns the list of pivot
    /// columns (one per nonzero row, in order).
    pub fn row_reduce(&mut self) -> Vec<usize> {
        self.row_reduce_cols(&(0..self.cols).collect::<Vec<_>>())
    }

    /// Row reduction using the given column priority order.
    ///
    /// Columns earlier in `col_order` are eliminated first. This is how
    /// the ZX flow derivation pushes support off internal qubits: put the
    /// internal columns first and the rows whose pivots land there are
    /// the ones that cannot be cleaned.
    ///
    /// Returns pivot columns in elimination order.
    pub fn row_reduce_cols(&mut self, col_order: &[usize]) -> Vec<usize> {
        let mut pivots = Vec::new();
        let mut next_row = 0;
        for &c in col_order {
            if next_row >= self.rows {
                break;
            }
            let Some(pivot_row) = (next_row..self.rows).find(|&r| self.get(r, c)) else {
                continue;
            };
            self.swap_rows(next_row, pivot_row);
            for r in 0..self.rows {
                if r != next_row && self.get(r, c) {
                    self.xor_row(r, next_row);
                }
            }
            pivots.push(c);
            next_row += 1;
        }
        pivots
    }

    /// Rank of the matrix (does not modify `self`).
    pub fn rank(&self) -> usize {
        let mut m = self.clone();
        m.row_reduce().len()
    }

    /// Tests whether `v` lies in the row space (does not modify `self`).
    pub fn row_space_contains(&self, v: &BitVec) -> bool {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        let mut m = self.clone();
        m.push_row(v.clone());
        m.rank() == self.rank()
    }
}

impl fmt::Debug for BitMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "BitMat {}x{} [", self.rows, self.cols)?;
        for row in &self.data {
            writeln!(f, "  {row}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: &[&str]) -> BitMat {
        BitMat::from_rows(
            rows.iter()
                .map(|r| BitVec::from_bools(r.chars().map(|ch| ch == '1')))
                .collect(),
        )
    }

    #[test]
    fn identity_rank() {
        assert_eq!(BitMat::identity(7).rank(), 7);
    }

    #[test]
    fn rank_of_dependent_rows() {
        let m = mat(&["110", "011", "101"]);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn row_reduce_gives_rref() {
        let mut m = mat(&["110", "011", "101"]);
        let pivots = m.row_reduce();
        assert_eq!(pivots, vec![0, 1]);
        // RREF: 101 / 011 / 000
        assert_eq!(m.row(0).to_string(), "101");
        assert_eq!(m.row(1).to_string(), "011");
        assert!(m.row(2).is_zero());
    }

    #[test]
    fn row_reduce_custom_order_prioritizes_columns() {
        let mut m = mat(&["110", "011"]);
        let pivots = m.row_reduce_cols(&[2, 1, 0]);
        assert_eq!(pivots, vec![2, 1]);
        // pivot of first processed column (2) appears exactly once
        assert_eq!((0..2).filter(|&r| m.get(r, 2)).count(), 1);
    }

    #[test]
    fn row_space_membership() {
        let m = mat(&["110", "011"]);
        assert!(m.row_space_contains(&BitVec::from_bools([true, false, true])));
        assert!(!m.row_space_contains(&BitVec::from_bools([true, false, false])));
    }

    #[test]
    fn push_row_onto_empty() {
        let mut m = BitMat::default();
        m.push_row(BitVec::from_bools([true, true]));
        assert_eq!((m.nrows(), m.ncols()), (1, 2));
    }

    #[test]
    fn xor_row_adds() {
        let mut m = mat(&["110", "011"]);
        m.xor_row(0, 1);
        assert_eq!(m.row(0).to_string(), "101");
    }
}
