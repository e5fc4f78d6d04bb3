//! Bit-packed vectors over GF(2).

use crate::{words_for, WORD_BITS};
use std::fmt;
use std::ops::{BitAndAssign, BitXorAssign};

/// A fixed-length vector over GF(2), packed into `u64` words.
///
/// The length is fixed at construction; all arithmetic requires equal
/// lengths. Unused high bits of the last word are kept zero (a crate
/// invariant relied upon by [`BitVec::count_ones`] and equality).
///
/// # Examples
///
/// ```
/// use gf2::BitVec;
///
/// let mut v = BitVec::zeros(100);
/// v.set(3, true);
/// v.set(99, true);
/// assert_eq!(v.count_ones(), 2);
/// assert!(v.get(99));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; words_for(len)],
        }
    }

    /// Creates a vector from an iterator of booleans.
    ///
    /// ```
    /// use gf2::BitVec;
    /// let v = BitVec::from_bools([true, false, true]);
    /// assert_eq!(v.to_string(), "101");
    /// ```
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut v = BitVec::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            v.set(i, *b);
        }
        v
    }

    /// Number of bits in the vector.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        assert!(
            idx < self.len,
            "bit index {idx} out of range (len {})",
            self.len
        );
        (self.words[idx / WORD_BITS] >> (idx % WORD_BITS)) & 1 != 0
    }

    /// Writes the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(
            idx < self.len,
            "bit index {idx} out of range (len {})",
            self.len
        );
        let mask = 1u64 << (idx % WORD_BITS);
        if value {
            self.words[idx / WORD_BITS] |= mask;
        } else {
            self.words[idx / WORD_BITS] &= !mask;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Parity (XOR) of the AND with another vector: `⟨self, other⟩` over GF(2).
    ///
    /// This is the symplectic building block used for Pauli commutation.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "dot of unequal lengths");
        let mut acc = 0u64;
        for (a, b) in self.words.iter().zip(&other.words) {
            acc ^= a & b;
        }
        acc.count_ones() % 2 == 1
    }

    /// Iterates over the indices of set bits in increasing order.
    ///
    /// ```
    /// use gf2::BitVec;
    /// let v = BitVec::from_bools([false, true, false, true]);
    /// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![1, 3]);
    /// ```
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            vec: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Masks off any bits beyond `len` in the last word.
    fn fixup_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    /// In-place GF(2) addition.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        assert_eq!(self.len, rhs.len, "xor of unequal lengths");
        for (a, b) in self.words.iter_mut().zip(&rhs.words) {
            *a ^= b;
        }
    }
}

impl BitAndAssign<&BitVec> for BitVec {
    /// In-place bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    fn bitand_assign(&mut self, rhs: &BitVec) {
        assert_eq!(self.len, rhs.len, "and of unequal lengths");
        for (a, b) in self.words.iter_mut().zip(&rhs.words) {
            *a &= b;
        }
        self.fixup_tail();
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            f.write_str(if self.get(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec({self})")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        BitVec::from_bools(iter)
    }
}

/// Iterator over set-bit indices, created by [`BitVec::iter_ones`].
pub struct IterOnes<'a> {
    vec: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_are_zero() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(v.is_zero());
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = BitVec::zeros(200);
        for i in [0, 1, 63, 64, 65, 127, 128, 199] {
            v.set(i, true);
            assert!(v.get(i), "bit {i}");
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    fn xor_adds() {
        let a = BitVec::from_bools([true, true, false, false]);
        let b = BitVec::from_bools([true, false, true, false]);
        let mut c = a.clone();
        c ^= &b;
        assert_eq!(c.to_string(), "0110");
    }

    #[test]
    fn and_masks_tail() {
        let mut a = BitVec::from_bools([true; 65]);
        let b = BitVec::from_bools([true; 65]);
        a &= &b;
        assert_eq!(a.count_ones(), 65);
    }

    #[test]
    fn dot_is_symplectic_parity() {
        let a = BitVec::from_bools([true, true, true, false]);
        let b = BitVec::from_bools([true, true, false, true]);
        assert!(!a.dot(&b)); // overlap of 2 bits → even
        let c = BitVec::from_bools([true, false, false, false]);
        assert!(a.dot(&c));
    }

    #[test]
    fn iter_ones_in_order() {
        let mut v = BitVec::zeros(300);
        let idxs = [2usize, 63, 64, 150, 299];
        for &i in &idxs {
            v.set(i, true);
        }
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), idxs);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn display_and_collect() {
        let v: BitVec = [true, false, true, true].into_iter().collect();
        assert_eq!(format!("{v}"), "1011");
        assert_eq!(format!("{v:?}"), "BitVec(1011)");
    }
}
