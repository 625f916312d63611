//! Summary statistics of an external knowledge source graph.

use std::fmt;

use crate::graph::Ekg;

/// Structural summary of an [`Ekg`], used by ingestion reports and the
/// benchmark harness to describe generated worlds.
#[derive(Debug, Clone, PartialEq)]
pub struct EkgStats {
    /// Number of concepts.
    pub concepts: usize,
    /// Number of subsumption edges.
    pub edges: usize,
    /// Number of leaf concepts (no children).
    pub leaves: usize,
    /// Number of concepts with more than one parent.
    pub multi_parent: usize,
    /// Maximum depth below the root.
    pub max_depth: u32,
    /// Mean depth over all concepts.
    pub mean_depth: f64,
}

impl EkgStats {
    /// Compute the statistics of `ekg`.
    pub fn compute(ekg: &Ekg) -> Self {
        let concepts = ekg.len();
        let mut leaves = 0usize;
        let mut multi_parent = 0usize;
        let mut max_depth = 0u32;
        let mut depth_sum = 0u64;
        for c in ekg.concepts() {
            if ekg.children(c).is_empty() {
                leaves += 1;
            }
            if ekg.parents(c).len() > 1 {
                multi_parent += 1;
            }
            let d = ekg.depth(c);
            max_depth = max_depth.max(d);
            depth_sum += u64::from(d);
        }
        Self {
            concepts,
            edges: ekg.edge_count(),
            leaves,
            multi_parent,
            max_depth,
            mean_depth: if concepts == 0 { 0.0 } else { depth_sum as f64 / concepts as f64 },
        }
    }
}

impl fmt::Display for EkgStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} concepts, {} edges, {} leaves, {} multi-parent, depth max {} / mean {:.2}",
            self.concepts,
            self.edges,
            self.leaves,
            self.multi_parent,
            self.max_depth,
            self.mean_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EkgBuilder;

    #[test]
    fn stats_of_small_graph() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let a = b.concept("a");
        let bb = b.concept("b");
        let c = b.concept("c");
        b.is_a(a, root);
        b.is_a(bb, root);
        b.is_a(c, a);
        b.is_a(c, bb);
        let g = b.build().unwrap();
        let s = EkgStats::compute(&g);
        assert_eq!(s.concepts, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.leaves, 1);
        assert_eq!(s.multi_parent, 1);
        assert_eq!(s.max_depth, 2);
    }

    #[test]
    fn display_is_single_line() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let a = b.concept("a");
        b.is_a(a, root);
        let g = b.build().unwrap();
        let line = EkgStats::compute(&g).to_string();
        assert!(line.contains("2 concepts"));
        assert!(!line.contains('\n'));
    }
}
