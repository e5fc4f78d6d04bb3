//! Bit-packed multi-qubit Pauli strings.

use crate::{Pauli, Phase};
use gf2::BitVec;
use std::fmt;
use std::str::FromStr;

/// A Pauli string: a phase times a tensor product of single-qubit
/// Paulis, stored as bit-packed X/Z support vectors.
///
/// The represented operator is `i^phase · ⊗_q W_q` where each `W_q` is
/// the Hermitian Pauli determined by the bits `(xs[q], zs[q])`.
///
/// Strings parse and print in the paper's notation: `.` (or `I`) for
/// identity, with an optional leading sign (`-`, `+`, `i`, `-i`):
///
/// ```
/// use pauli::PauliString;
/// let p: PauliString = "-X.ZY".parse()?;
/// assert_eq!(p.len(), 4);
/// assert_eq!(p.weight(), 3);
/// assert_eq!(p.to_string(), "-X.ZY");
/// # Ok::<(), pauli::ParsePauliError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PauliString {
    xs: BitVec,
    zs: BitVec,
    phase: Phase,
}

/// Error returned when parsing a [`PauliString`] fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePauliError {
    offending: String,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pauli string syntax: {:?}", self.offending)
    }
}

impl std::error::Error for ParsePauliError {}

impl PauliString {
    /// The identity string on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            xs: BitVec::zeros(n),
            zs: BitVec::zeros(n),
            phase: Phase::ONE,
        }
    }

    /// A string with a single non-identity Pauli at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n`.
    pub fn single(n: usize, idx: usize, p: Pauli) -> Self {
        let mut s = PauliString::identity(n);
        s.set(idx, p);
        s
    }

    /// Number of qubits.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the string acts on zero qubits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The Pauli at position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn get(&self, idx: usize) -> Pauli {
        Pauli::from_xz(self.xs.get(idx), self.zs.get(idx))
    }

    /// Sets the Pauli at position `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    pub fn set(&mut self, idx: usize, p: Pauli) {
        let (x, z) = p.xz();
        self.xs.set(idx, x);
        self.zs.set(idx, z);
    }

    /// The global phase `i^k`.
    #[inline]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Replaces the global phase.
    pub fn with_phase(mut self, phase: Phase) -> Self {
        self.phase = phase;
        self
    }

    /// Multiplies the string by `-1` in place.
    ///
    /// ```
    /// use pauli::PauliString;
    /// let mut p: PauliString = "XZ".parse().unwrap();
    /// p.negate();
    /// assert_eq!(p.to_string(), "-XZ");
    /// ```
    pub fn negate(&mut self) {
        self.phase = -self.phase;
    }

    /// The X support bits.
    pub fn xs(&self) -> &BitVec {
        &self.xs
    }

    /// The Z support bits.
    pub fn zs(&self) -> &BitVec {
        &self.zs
    }

    /// Number of non-identity positions.
    pub fn weight(&self) -> usize {
        let mut support = self.xs.clone();
        support ^= &self.zs;
        let mut both = self.xs.clone();
        both &= &self.zs;
        support.count_ones() + both.count_ones()
    }

    /// Whether every position is identity (phase ignored).
    pub fn is_identity(&self) -> bool {
        self.xs.is_zero() && self.zs.is_zero()
    }

    /// Whether this string commutes with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        !(self.xs.dot(&other.zs) ^ self.zs.dot(&other.xs))
    }

    /// Multiplies two strings, tracking the phase.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn mul(&self, other: &PauliString) -> PauliString {
        assert_eq!(self.len(), other.len(), "length mismatch in mul");
        let mut phase = self.phase + other.phase;
        for q in 0..self.len() {
            let (_, k) = self.get(q).mul(other.get(q));
            phase += k;
        }
        let mut xs = self.xs.clone();
        xs ^= &other.xs;
        let mut zs = self.zs.clone();
        zs ^= &other.zs;
        PauliString { xs, zs, phase }
    }

    /// Restriction of the string to the given positions (phase kept).
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range.
    pub fn restrict(&self, positions: &[usize]) -> PauliString {
        let mut out = PauliString::identity(positions.len()).with_phase(self.phase);
        for (new_q, &old_q) in positions.iter().enumerate() {
            out.set(new_q, self.get(old_q));
        }
        out
    }

    /// Whether the X/Z supports equal `other`'s (phases ignored).
    pub fn same_letters(&self, other: &PauliString) -> bool {
        self.xs == other.xs && self.zs == other.zs
    }

    /// Iterates over the per-position Paulis.
    pub fn iter(&self) -> impl Iterator<Item = Pauli> + '_ {
        (0..self.len()).map(|q| self.get(q))
    }
}

impl FromStr for PauliString {
    type Err = ParsePauliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePauliError {
            offending: s.to_string(),
        };
        let (phase, body) = if let Some(rest) = s.strip_prefix("-i") {
            (Phase::MINUS_I, rest)
        } else if let Some(rest) = s.strip_prefix("+i") {
            (Phase::I, rest)
        } else if let Some(rest) = s.strip_prefix('-') {
            (Phase::MINUS_ONE, rest)
        } else if let Some(rest) = s.strip_prefix('+') {
            (Phase::ONE, rest)
        } else {
            (Phase::ONE, s)
        };
        if body.is_empty() {
            return Err(err());
        }
        let mut paulis = Vec::with_capacity(body.len());
        for c in body.chars() {
            paulis.push(Pauli::from_char(c).ok_or_else(err)?);
        }
        let mut out = PauliString::identity(paulis.len()).with_phase(phase);
        for (q, p) in paulis.into_iter().enumerate() {
            out.set(q, p);
        }
        Ok(out)
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.phase {
            Phase::ONE => {}
            p => write!(f, "{p}")?,
        }
        for q in 0..self.len() {
            write!(f, "{}", self.get(q))?;
        }
        Ok(())
    }
}

impl fmt::Debug for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PauliString({self})")
    }
}

impl serde::Serialize for PauliString {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> serde::Deserialize<'de> for PauliString {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn parse_display_roundtrip() {
        for s in ["XYZ.", "-ZZ", "+iX.", "-iYYY", "...."] {
            let p = ps(s);
            let expected = s
                .strip_prefix('+')
                .filter(|r| !r.starts_with('i'))
                .unwrap_or(s);
            assert_eq!(p.to_string(), expected);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("XQZ".parse::<PauliString>().is_err());
        assert!("".parse::<PauliString>().is_err());
        assert!("-".parse::<PauliString>().is_err());
    }

    #[test]
    fn weight_counts_non_identity() {
        assert_eq!(ps(".X.YZ").weight(), 3);
        assert_eq!(ps("....").weight(), 0);
        assert_eq!(ps("YYYY").weight(), 4);
    }

    #[test]
    fn mul_xx_zz_gives_minus_yy() {
        let r = ps("XX").mul(&ps("ZZ"));
        assert_eq!(r.to_string(), "-YY");
    }

    #[test]
    fn mul_is_associative_on_samples() {
        let a = ps("XZY.");
        let b = ps(".YXZ");
        let c = ps("ZZXX");
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn self_product_is_identity() {
        let a = ps("XYZY");
        let sq = a.mul(&a);
        assert!(sq.is_identity());
        assert_eq!(sq.phase(), Phase::ONE);
    }

    #[test]
    fn commutation_via_symplectic() {
        assert!(ps("XX").commutes_with(&ps("ZZ")));
        assert!(!ps("X.").commutes_with(&ps("Z.")));
        assert!(ps("XZ").commutes_with(&ps("ZX")));
    }

    #[test]
    fn restrict_picks_positions() {
        let p = ps("XYZ");
        assert_eq!(p.restrict(&[2, 0]).to_string(), "ZX");
    }

    #[test]
    fn anticommuting_products_differ_by_sign() {
        let x = ps("X");
        let z = ps("Z");
        let xz = x.mul(&z);
        let zx = z.mul(&x);
        assert!(xz.same_letters(&zx));
        assert_eq!(xz.phase() + zx.phase().inverse(), Phase::MINUS_ONE);
    }

    #[test]
    fn single_constructor() {
        let p = PauliString::single(4, 2, Pauli::Y);
        assert_eq!(p.to_string(), "..Y.");
    }

    #[test]
    fn serde_roundtrip() {
        let p = ps("-XZ.Y");
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, "\"-XZ.Y\"");
        let back: PauliString = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
