//! The textual `.lasre` format: serialization of solved designs.
//!
//! The paper's synthesizer emits "all the variable assignments
//! [constituting] our textual LaS representation, LaSre" (Sec. IV).
//! Here that is a JSON document bundling the spec, the variable
//! assignment (as a compact bit string), and the post-processing
//! results (K colors and domain walls) so a design can be re-loaded,
//! re-validated and re-verified without re-solving.

use crate::design::LasDesign;
use crate::geom::Coord;
use crate::spec::LasSpec;
use crate::vars::VarTable;
use serde_json::{json, Fields, ToJson, Value};

/// Error when loading a `.lasre` document.
#[derive(Debug)]
pub enum LasreError {
    /// Underlying JSON problem.
    Json(serde_json::Error),
    /// The value string length does not match the spec's variable count.
    LengthMismatch { expected: usize, got: usize },
    /// The value string contains a character other than `0`/`1`.
    BadBit(char),
    /// The embedded spec fails validation.
    Spec(crate::spec::SpecError),
    /// The stored K colors or domain walls differ from the re-inferred ones.
    KColorMismatch,
    /// The values give a K pipe end two colors at this cube.
    KColorConflict(Coord),
}

impl std::fmt::Display for LasreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LasreError::Json(e) => write!(f, "lasre json error: {e}"),
            LasreError::LengthMismatch { expected, got } => {
                write!(f, "lasre value string has {got} bits, expected {expected}")
            }
            LasreError::BadBit(c) => write!(f, "lasre value string contains {c:?}"),
            LasreError::Spec(e) => write!(f, "lasre spec invalid: {e}"),
            LasreError::KColorMismatch => write!(f, "lasre K colors contradict its values"),
            LasreError::KColorConflict(c) => {
                write!(f, "lasre values give conflicting K colors at {c}")
            }
        }
    }
}

impl std::error::Error for LasreError {}

impl From<serde_json::Error> for LasreError {
    fn from(e: serde_json::Error) -> Self {
        LasreError::Json(e)
    }
}

/// A design's K colors as sorted `[i, j, k, lower, upper]` rows, and
/// its sorted domain walls, in their JSON form.
fn k_colors_and_walls(design: &LasDesign) -> Result<(Value, Value), Coord> {
    let colors = design.k_colors()?;
    let rows = colors
        .iter()
        .map(|(c, &(lo, hi))| json!([c.i, c.j, c.k, lo, hi]));
    let walls = colors.iter().filter(|(_, (lo, hi))| lo != hi);
    Ok((
        Value::Array(rows.collect()),
        Value::Array(walls.map(|(c, _)| c.to_json()).collect()),
    ))
}

/// Serializes a design to the `.lasre` JSON format. A design whose K
/// colors conflict (see [`LasDesign::k_colors`]) is stored without any.
#[expect(clippy::expect_used, reason = "printing JSON never fails")]
pub fn to_lasre(design: &LasDesign) -> String {
    // One character per variable, `'0'`/`'1'`, in `VarTable` order.
    let values: String = design
        .values()
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    let (k_colors, domain_walls) =
        k_colors_and_walls(design).unwrap_or_else(|_| (json!([]), json!([])));
    let doc = json!({
        "spec": design.spec().to_json(),
        "values": values,
        "k_colors": k_colors,
        "domain_walls": domain_walls,
        "verified": design.verified(),
    });
    serde_json::to_string_pretty(&doc).expect("lasre serializes")
}

/// Loads a design from the `.lasre` JSON format, re-deriving its K
/// colors and cross-checking them against the stored ones.
///
/// # Errors
///
/// Returns [`LasreError`] on malformed documents, including values that
/// give a K pipe conflicting colors.
pub fn from_lasre(text: &str) -> Result<LasDesign, LasreError> {
    let mut doc = Fields::of(serde_json::from_str(text)?, "LasreDoc")?;
    let spec: LasSpec = doc.take("spec")?;
    let bits: String = doc.take("values")?;
    let stored: (Value, Value) = (doc.take("k_colors")?, doc.take("domain_walls")?);
    let verified: bool = doc.take("verified")?;
    spec.validate().map_err(LasreError::Spec)?;
    let table = VarTable::new(spec.bounds(), spec.nstab());
    if bits.len() != table.num_total() {
        return Err(LasreError::LengthMismatch {
            expected: table.num_total(),
            got: bits.len(),
        });
    }
    let mut values = Vec::with_capacity(bits.len());
    for c in bits.chars() {
        match c {
            '0' => values.push(false),
            '1' => values.push(true),
            other => return Err(LasreError::BadBit(other)),
        }
    }
    let mut design = LasDesign::new(spec, values);
    let derived = k_colors_and_walls(&design).map_err(LasreError::KColorConflict)?;
    if derived != stored {
        return Err(LasreError::KColorMismatch);
    }
    design.set_verified(verified);
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::cnot_design;

    #[test]
    fn lasre_roundtrip() {
        let mut d = cnot_design();
        d.set_verified(true);
        let text = to_lasre(&d);
        let back = from_lasre(&text).unwrap();
        assert_eq!(back.values(), d.values());
        assert_eq!(back.spec(), d.spec());
        assert!(back.verified());
    }

    #[test]
    fn rejects_wrong_length() {
        let d = cnot_design();
        let text = to_lasre(&d);
        let broken = text.replace(&"0".repeat(40), &"0".repeat(39));
        assert!(matches!(
            from_lasre(&broken),
            Err(LasreError::LengthMismatch { .. }) | Err(LasreError::Json(_))
        ));
    }

    #[test]
    fn rejects_bad_bits() {
        let d = cnot_design();
        let mut text = to_lasre(&d);
        // Corrupt the first bit of the values string.
        let idx = text.find("\"values\": \"").unwrap() + "\"values\": \"".len();
        text.replace_range(idx..idx + 1, "x");
        assert!(matches!(from_lasre(&text), Err(LasreError::BadBit('x'))));
    }

    #[test]
    fn rejects_tampered_k_colors() {
        let d = cnot_design();
        let mut doc = to_lasre(&d);
        let start = doc.find("\"k_colors\"").unwrap();
        let end = doc.find("\"domain_walls\"").unwrap();
        doc.replace_range(start..end, "\"k_colors\": [[9, 9, 9, true, true]],\n  ");
        assert!(matches!(from_lasre(&doc), Err(LasreError::KColorMismatch)));
    }

    #[test]
    fn document_is_stable_json() {
        let d = cnot_design();
        let a = to_lasre(&d);
        let b = to_lasre(&from_lasre(&a).unwrap());
        assert_eq!(a, b, "serialization must be deterministic");
    }
}
