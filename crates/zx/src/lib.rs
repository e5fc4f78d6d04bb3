//! ZX-calculus diagrams and stabilizer-flow derivation.
//!
//! This crate substitutes the paper's use of *Stim ZX* (contribution 4,
//! verification): it represents ZX diagrams with Clifford phases
//! (multiples of π/2), derives the stabilizer flows a diagram implements
//! by simulating spider gadgets on a stabilizer tableau and contracting
//! edges with forced Bell measurements, and checks a LaS specification's
//! stabilizers against the derived flow group (up to sign — the paper
//! tracks signs off-chip via Pauli frame corrections).
//!
//! # Examples
//!
//! ```
//! use zx::{Diagram, SpiderKind};
//!
//! // The CNOT as a ZX diagram: Z-spider on the control wire, X-spider
//! // on the target wire, connected by an internal edge (paper Fig. 5d).
//! let mut d = Diagram::new();
//! let cin = d.add_boundary();
//! let tin = d.add_boundary();
//! let cout = d.add_boundary();
//! let tout = d.add_boundary();
//! let zc = d.add_spider(SpiderKind::Z, 0);
//! let xt = d.add_spider(SpiderKind::X, 0);
//! d.add_edge(cin, zc);
//! d.add_edge(zc, cout);
//! d.add_edge(tin, xt);
//! d.add_edge(xt, tout);
//! d.add_edge(zc, xt);
//!
//! let flows = d.stabilizer_flows().unwrap();
//! // ports in order (cin, tin, cout, tout): IZ -> ZZ is a CNOT flow
//! assert!(flows.contains_letters(&".ZZZ".parse().unwrap()));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

mod diagram;
mod flows;

pub use diagram::{Diagram, EdgeId, NodeId, SpiderKind};
pub use flows::{FlowGroup, ZxError};
