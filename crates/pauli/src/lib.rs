//! Pauli operators, Pauli strings, and stabilizer-flow utilities.
//!
//! A lattice-surgery subroutine (LaS) is specified functionally by a set
//! of *stabilizer flows* written as Pauli strings over its ports (paper
//! Fig. 2b). This crate provides the string algebra those specs and the
//! verification substrates (`las-tableau`, `las-zx`) are built from:
//! bit-packed [`PauliString`]s with phase tracking, commutation via the
//! symplectic form, parsing/printing in the paper's `.XYZ` notation, and
//! consistency checks for flow sets.
//!
//! # Examples
//!
//! ```
//! use pauli::PauliString;
//!
//! let xx: PauliString = "XX".parse()?;
//! let zz: PauliString = "ZZ".parse()?;
//! assert!(xx.commutes_with(&zz));
//! let yy = xx.mul(&zz);
//! assert_eq!(yy.to_string(), "-YY");
//! # Ok::<(), pauli::ParsePauliError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod phase;
mod string;

pub use phase::Phase;
pub use string::{ParsePauliError, PauliString};

use std::fmt;

/// A single-qubit Pauli operator.
///
/// ```
/// use pauli::Pauli;
/// let (p, phase) = Pauli::X.mul(Pauli::Z);
/// assert_eq!(p, Pauli::Y);
/// assert_eq!(phase.exponent(), 3); // XZ = -iY
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Pauli {
    /// Identity.
    #[default]
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// The (x, z) symplectic bits of this Pauli.
    #[inline]
    pub fn xz(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Reconstructs a Pauli from its (x, z) bits.
    #[inline]
    pub fn from_xz(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Whether this Pauli commutes with `other`.
    #[inline]
    pub fn commutes_with(self, other: Pauli) -> bool {
        let (x1, z1) = self.xz();
        let (x2, z2) = other.xz();
        !((x1 & z2) ^ (z1 & x2))
    }

    /// Multiplies two Paulis, returning the resulting Pauli and the
    /// phase `i^k` such that `self * other = i^k * result` with `result`
    /// Hermitian (I, X, Y or Z).
    #[allow(clippy::should_implement_trait)] // returns (Pauli, Phase), not Self
    pub fn mul(self, other: Pauli) -> (Pauli, Phase) {
        let (x1, z1) = self.xz();
        let (x2, z2) = other.xz();
        let result = Pauli::from_xz(x1 ^ x2, z1 ^ z2);
        let k = match (self, other) {
            (Pauli::X, Pauli::Y) | (Pauli::Y, Pauli::Z) | (Pauli::Z, Pauli::X) => 1,
            (Pauli::Y, Pauli::X) | (Pauli::Z, Pauli::Y) | (Pauli::X, Pauli::Z) => 3,
            _ => 0,
        };
        (result, Phase::new(k))
    }

    /// Parses one character: `.`, `_` or `I` for identity, `X`/`Y`/`Z`
    /// (case-insensitive).
    pub fn from_char(c: char) -> Option<Pauli> {
        match c {
            '.' | '_' | 'I' | 'i' => Some(Pauli::I),
            'X' | 'x' => Some(Pauli::X),
            'Y' | 'y' => Some(Pauli::Y),
            'Z' | 'z' => Some(Pauli::Z),
            _ => None,
        }
    }

    /// The paper's display character (`.` for identity).
    pub fn to_char(self) -> char {
        match self {
            Pauli::I => '.',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Checks that every pair of strings in `set` commutes (under the flat
/// symplectic form over ports).
///
/// For a valid LaS specification this must hold: a flow `P → Q` written
/// flat as `P ⊗ Q` commutes with `P' ⊗ Q'` exactly when the commutation
/// structure is preserved by the subroutine: `Q` and `Q'` commute
/// exactly when `P` and `P'` do.
///
/// ```
/// use pauli::{all_commute, PauliString};
/// let flows: Vec<PauliString> = ["Z.Z.", ".ZZZ", "X.XX", ".X.X"]
///     .iter().map(|s| s.parse().unwrap()).collect();
/// assert!(all_commute(&flows)); // the CNOT's four flows
/// ```
pub fn all_commute(set: &[PauliString]) -> bool {
    for (i, a) in set.iter().enumerate() {
        for b in &set[i + 1..] {
            if !a.commutes_with(b) {
                return false;
            }
        }
    }
    true
}

/// Returns the number of independent strings in `set` (rank of the
/// symplectic bit matrix, ignoring phases).
pub fn independent_count(set: &[PauliString]) -> usize {
    if set.is_empty() {
        return 0;
    }
    let n = set[0].len();
    let mut m = gf2::BitMat::zeros(set.len(), 2 * n);
    for (r, p) in set.iter().enumerate() {
        for c in p.xs().iter_ones() {
            m.set(r, c, true);
        }
        for c in p.zs().iter_ones() {
            m.set(r, n + c, true);
        }
    }
    m.rank()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauli_mul_table() {
        use Pauli::*;
        assert_eq!(X.mul(X), (I, Phase::new(0)));
        assert_eq!(X.mul(Y).0, Z);
        assert_eq!(Y.mul(Z).0, X);
        assert_eq!(Z.mul(X).0, Y);
        assert_eq!(X.mul(Y).1, Phase::new(1)); // XY = iZ
        assert_eq!(Y.mul(X).1, Phase::new(3)); // YX = -iZ
        assert_eq!(I.mul(Z), (Z, Phase::new(0)));
    }

    #[test]
    fn commutation_table() {
        use Pauli::*;
        assert!(X.commutes_with(X));
        assert!(!X.commutes_with(Z));
        assert!(!Y.commutes_with(Z));
        assert!(I.commutes_with(Y));
    }

    #[test]
    fn xz_roundtrip() {
        for p in [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
            let (x, z) = p.xz();
            assert_eq!(Pauli::from_xz(x, z), p);
        }
    }

    #[test]
    fn char_roundtrip() {
        for p in [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
            assert_eq!(Pauli::from_char(p.to_char()), Some(p));
        }
        assert_eq!(Pauli::from_char('q'), None);
    }

    #[test]
    fn cnot_flows_commute() {
        let flows: Vec<PauliString> = ["Z.Z.", ".ZZZ", "X.XX", ".X.X"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(all_commute(&flows));
        assert_eq!(independent_count(&flows), 4);
    }

    #[test]
    fn anticommuting_pair_detected() {
        let set: Vec<PauliString> = vec!["XI".parse().unwrap(), "ZI".parse().unwrap()];
        assert!(!all_commute(&set));
    }

    #[test]
    fn dependent_set_has_lower_rank() {
        let a: PauliString = "XX".parse().unwrap();
        let b: PauliString = "ZZ".parse().unwrap();
        let c = a.mul(&b);
        assert_eq!(independent_count(&[a, b, c]), 2);
    }
}
