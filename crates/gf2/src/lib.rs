//! Dense linear algebra over GF(2).
//!
//! This crate provides the bit-packed vectors ([`BitVec`]) and matrices
//! ([`BitMat`]) that the rest of the workspace builds on: Pauli strings
//! store their X/Z supports as `BitVec`s, the stabilizer tableau is a
//! `BitMat`, and the ZX flow derivation reduces stabilizer groups with
//! [`BitMat::row_reduce`].
//!
//! # Examples
//!
//! ```
//! use gf2::BitMat;
//!
//! let mut m = BitMat::zeros(3, 3);
//! m.set(0, 0, true); m.set(0, 1, true);
//! m.set(1, 1, true); m.set(1, 2, true);
//! m.set(2, 0, true); m.set(2, 2, true);
//! // rows are linearly dependent: r0 + r1 = r2
//! assert_eq!(m.rank(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod bitmat;
mod bitvec;

pub use bitmat::BitMat;
pub use bitvec::BitVec;

/// Number of bits per storage word.
pub(crate) const WORD_BITS: usize = 64;

/// Computes the number of `u64` words needed to store `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}
