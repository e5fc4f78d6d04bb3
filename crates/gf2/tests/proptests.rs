//! Property-based tests for GF(2) linear algebra invariants.

use gf2::{BitMat, BitVec};
use proptest::prelude::*;

fn arb_bitvec(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(BitVec::from_bools)
}

fn arb_bitmat(rows: usize, cols: usize) -> impl Strategy<Value = BitMat> {
    proptest::collection::vec(arb_bitvec(cols), rows).prop_map(BitMat::from_rows)
}

proptest! {
    #[test]
    fn xor_is_involution(a in arb_bitvec(97), b in arb_bitvec(97)) {
        let mut c = a.clone();
        c ^= &b;
        c ^= &b;
        prop_assert_eq!(c, a);
    }

    #[test]
    fn dot_is_bilinear(a in arb_bitvec(80), b in arb_bitvec(80), c in arb_bitvec(80)) {
        let mut bc = b.clone();
        bc ^= &c;
        prop_assert_eq!(a.dot(&bc), a.dot(&b) ^ a.dot(&c));
    }

    #[test]
    fn count_ones_matches_iter(a in arb_bitvec(130)) {
        prop_assert_eq!(a.count_ones(), a.iter_ones().count());
    }

    #[test]
    fn rank_le_dims(m in arb_bitmat(6, 9)) {
        let r = m.rank();
        prop_assert!(r <= 6);
        prop_assert!(r <= 9);
    }

    #[test]
    fn row_reduce_preserves_row_space(m in arb_bitmat(5, 8)) {
        let mut reduced = m.clone();
        reduced.row_reduce();
        // every original row is in the reduced row space and vice versa
        for r in m.iter() {
            prop_assert!(reduced.row_space_contains(r));
        }
        for r in reduced.iter() {
            if !r.is_zero() {
                prop_assert!(m.row_space_contains(r));
            }
        }
    }
}
