//! Property-based tests for Pauli-string algebra.

use pauli::{Pauli, PauliString, Phase};
use proptest::prelude::*;

fn arb_pauli() -> impl Strategy<Value = Pauli> {
    prop_oneof![
        Just(Pauli::I),
        Just(Pauli::X),
        Just(Pauli::Y),
        Just(Pauli::Z)
    ]
}

fn arb_string(n: usize) -> impl Strategy<Value = PauliString> {
    (proptest::collection::vec(arb_pauli(), n), 0u8..4).prop_map(|(ps, phase)| {
        let mut s = PauliString::identity(ps.len()).with_phase(Phase::new(phase));
        for (i, p) in ps.into_iter().enumerate() {
            s.set(i, p);
        }
        s
    })
}

proptest! {
    #[test]
    fn mul_is_associative(a in arb_string(10), b in arb_string(10), c in arb_string(10)) {
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn squares_are_scalar(a in arb_string(12)) {
        let sq = a.mul(&a);
        prop_assert!(sq.is_identity());
        // (i^k P)² = i^{2k} P² = ±1: real phase.
        prop_assert!(sq.phase().is_real());
    }

    #[test]
    fn commutation_matches_product_order(a in arb_string(8), b in arb_string(8)) {
        let ab = a.mul(&b);
        let ba = b.mul(&a);
        prop_assert!(ab.same_letters(&ba));
        let same_sign = ab.phase() == ba.phase();
        prop_assert_eq!(same_sign, a.commutes_with(&b));
    }

    #[test]
    fn parse_display_roundtrip(a in arb_string(9)) {
        let text = a.to_string();
        let back: PauliString = text.parse().unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn weight_bounds(a in arb_string(16)) {
        prop_assert!(a.weight() <= 16);
        prop_assert_eq!(a.weight(), a.iter().filter(|&p| p != Pauli::I).count());
    }

    #[test]
    fn serde_roundtrip(a in arb_string(7)) {
        let json = serde_json::to_string(&a).unwrap();
        let back: PauliString = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, a);
    }
}
