//! ZX diagram data structure.

use std::fmt;

/// Identifies a node in a [`Diagram`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Identifies an edge in a [`Diagram`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EdgeId(pub(crate) usize);

/// The species of a node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpiderKind {
    /// Z-spider (copies in the computational basis).
    Z,
    /// X-spider (copies in the Hadamard basis).
    X,
    /// An open leg of the diagram (an input/output port).
    Boundary,
}

#[derive(Clone, Debug)]
pub(crate) struct Node {
    pub kind: SpiderKind,
    /// Phase in units of π/2 (0..4); only Clifford phases are supported.
    pub quarters: u8,
}

#[derive(Clone, Debug)]
pub(crate) struct Edge {
    pub a: NodeId,
    pub b: NodeId,
    /// Whether the wire carries a Hadamard box (a domain wall in the
    /// lattice-surgery picture).
    pub hadamard: bool,
}

/// An undirected ZX diagram with Clifford phases (multiples of π/2) and
/// optional Hadamard edges.
///
/// Boundary nodes are ordered by insertion; that order is the qubit
/// order of the derived stabilizer flows.
///
/// ```
/// use zx::{Diagram, SpiderKind};
/// let mut d = Diagram::new();
/// let b_in = d.add_boundary();
/// let b_out = d.add_boundary();
/// let s = d.add_spider(SpiderKind::Z, 0);
/// d.add_edge(b_in, s);
/// d.add_edge(s, b_out);
/// // A 2-legged phase-0 spider is the identity wire: flows XX and ZZ.
/// let flows = d.stabilizer_flows().unwrap();
/// assert!(flows.contains_letters(&"XX".parse().unwrap()));
/// assert!(flows.contains_letters(&"ZZ".parse().unwrap()));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Diagram {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
}

impl Diagram {
    /// Creates an empty diagram.
    pub fn new() -> Diagram {
        Diagram::default()
    }

    /// Adds a boundary (open leg); boundaries are ordered by insertion.
    pub fn add_boundary(&mut self) -> NodeId {
        self.add_node(SpiderKind::Boundary, 0)
    }

    /// Adds a spider with a phase of `quarters · π/2`.
    ///
    /// # Panics
    ///
    /// Panics if asked for a `Boundary` (use [`Diagram::add_boundary`])
    /// or a phase outside `0..4`.
    pub fn add_spider(&mut self, kind: SpiderKind, quarters: u8) -> NodeId {
        assert!(
            kind != SpiderKind::Boundary,
            "use add_boundary for boundaries"
        );
        assert!(quarters < 4, "phase must be in quarter turns 0..4");
        self.add_node(kind, quarters)
    }

    fn add_node(&mut self, kind: SpiderKind, quarters: u8) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { kind, quarters });
        id
    }

    /// Adds a plain edge.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        self.add_edge_inner(a, b, false)
    }

    /// Adds a Hadamard edge.
    pub fn add_h_edge(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        self.add_edge_inner(a, b, true)
    }

    fn add_edge_inner(&mut self, a: NodeId, b: NodeId, hadamard: bool) -> EdgeId {
        assert!(
            a.0 < self.nodes.len() && b.0 < self.nodes.len(),
            "edge endpoints must exist"
        );
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { a, b, hadamard });
        id
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> SpiderKind {
        self.nodes[n.0].kind
    }

    /// The phase of a node, in quarter turns.
    pub fn phase_quarters(&self, n: NodeId) -> u8 {
        self.nodes[n.0].quarters
    }

    /// Boundary nodes in insertion order.
    pub fn boundaries(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|&n| self.nodes[n.0].kind == SpiderKind::Boundary)
            .collect()
    }

    /// Edges incident to `n` (self-loops appear twice).
    pub fn incident_edges(&self, n: NodeId) -> Vec<EdgeId> {
        let mut out = Vec::new();
        for (i, e) in self.edges.iter().enumerate() {
            if e.a == n {
                out.push(EdgeId(i));
            }
            if e.b == n {
                out.push(EdgeId(i));
            }
        }
        out
    }

    /// Degree of `n` (self-loops count twice).
    pub fn degree(&self, n: NodeId) -> usize {
        self.incident_edges(n).len()
    }

    /// The endpoints and Hadamard flag of an edge.
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, bool) {
        let edge = &self.edges[e.0];
        (edge.a, edge.b, edge.hadamard)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Non-boundary spiders.
    pub fn spiders(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|&n| self.nodes[n.0].kind != SpiderKind::Boundary)
            .collect()
    }
}

impl fmt::Display for Diagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "zx diagram: {} nodes, {} edges",
            self.num_nodes(),
            self.num_edges()
        )?;
        for (i, n) in self.nodes.iter().enumerate() {
            let kind = match n.kind {
                SpiderKind::Z => "Z",
                SpiderKind::X => "X",
                SpiderKind::Boundary => "∂",
            };
            writeln!(f, "  n{i}: {kind}({}π/2)", n.quarters)?;
        }
        for e in &self.edges {
            let h = if e.hadamard { " [H]" } else { "" };
            writeln!(f, "  n{} — n{}{h}", e.a.0, e.b.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut d = Diagram::new();
        let b = d.add_boundary();
        let s = d.add_spider(SpiderKind::X, 2);
        let e = d.add_edge(b, s);
        assert_eq!(d.kind(s), SpiderKind::X);
        assert_eq!(d.phase_quarters(s), 2);
        assert_eq!(d.degree(s), 1);
        assert_eq!(d.edge(e), (b, s, false));
        assert_eq!(d.boundaries(), vec![b]);
        assert_eq!(d.spiders(), vec![s]);
    }

    #[test]
    fn h_edge_flag() {
        let mut d = Diagram::new();
        let a = d.add_boundary();
        let b = d.add_boundary();
        let e = d.add_h_edge(a, b);
        assert!(d.edge(e).2);
    }

    #[test]
    fn self_loop_counts_twice() {
        let mut d = Diagram::new();
        let s = d.add_spider(SpiderKind::Z, 0);
        d.add_edge(s, s);
        assert_eq!(d.degree(s), 2);
    }

    #[test]
    #[should_panic(expected = "phase must be")]
    fn rejects_bad_phase() {
        Diagram::new().add_spider(SpiderKind::Z, 4);
    }

    #[test]
    fn display_lists_everything() {
        let mut d = Diagram::new();
        let b = d.add_boundary();
        let s = d.add_spider(SpiderKind::Z, 1);
        d.add_h_edge(b, s);
        let text = d.to_string();
        assert!(text.contains("∂"));
        assert!(text.contains("[H]"));
    }
}
