//! Summary statistics of an external knowledge source graph.

use std::fmt;

use crate::graph::Ekg;

/// Structural summary of an [`Ekg`], used by ingestion reports and the
/// benchmark harness to describe generated worlds.
#[derive(Debug, Clone, PartialEq)]
pub struct EkgStats {
    /// Number of concepts.
    pub concepts: usize,
    /// Number of edges (native + shortcut).
    pub edges: usize,
    /// Number of ingestion-added shortcut edges.
    pub shortcuts: usize,
    /// Number of leaf concepts (no children).
    pub leaves: usize,
    /// Number of concepts with more than one native parent.
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
            if ekg.native_parents(c).count() > 1 {
                multi_parent += 1;
            }
            let d = ekg.depth(c);
            max_depth = max_depth.max(d);
            depth_sum += u64::from(d);
        }
        Self {
            concepts,
            edges: ekg.edge_count(),
            shortcuts: ekg.shortcut_count(),
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
            "{} concepts, {} edges ({} shortcuts), {} leaves, {} multi-parent, \
             depth max {} / mean {:.2}",
            self.concepts,
            self.edges,
            self.shortcuts,
            self.leaves,
            self.multi_parent,
            self.max_depth,
            self.mean_depth
        )
    }
}

/// Render `ekg` in Graphviz DOT format (native edges solid, shortcut edges
/// dashed and annotated with their original distance). For graphs above
/// `max_nodes` only the first `max_nodes` concepts in id order are shown —
/// DOT rendering of a full terminology is not useful anyway.
pub fn to_dot(ekg: &Ekg, max_nodes: usize) -> String {
    let mut out = String::from("digraph ekg {\n  rankdir=BT;\n  node [shape=box];\n");
    let shown: Vec<_> = ekg.concepts().take(max_nodes).collect();
    let visible: std::collections::HashSet<_> = shown.iter().copied().collect();
    for &c in &shown {
        out.push_str(&format!("  n{} [label=\"{}\"];\n", c.raw(), ekg.name(c).replace('"', "'")));
    }
    for &c in &shown {
        for e in ekg.parents(c).iter() {
            if !visible.contains(&e.to) {
                continue;
            }
            if e.shortcut {
                out.push_str(&format!(
                    "  n{} -> n{} [style=dashed, label=\"d={}\"];\n",
                    c.raw(),
                    e.to.raw(),
                    e.weight
                ));
            } else {
                out.push_str(&format!("  n{} -> n{};\n", c.raw(), e.to.raw()));
            }
        }
    }
    out.push_str("}\n");
    out
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
        let mut g = b.build().unwrap();
        let s = EkgStats::compute(&g);
        assert_eq!(s.concepts, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.shortcuts, 0);
        assert_eq!(s.leaves, 1);
        assert_eq!(s.multi_parent, 1);
        assert_eq!(s.max_depth, 2);

        g.add_shortcut(c, root, 2).unwrap();
        let s = EkgStats::compute(&g);
        assert_eq!(s.edges, 5);
        assert_eq!(s.shortcuts, 1);
        // Shortcuts do not create multi-*native*-parent concepts.
        assert_eq!(s.multi_parent, 1);
    }

    #[test]
    fn dot_renders_nodes_and_edge_styles() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let a = b.concept("kidney disease");
        let c = b.concept("chronic kidney disease");
        let d = b.concept("ckd stage 1");
        b.is_a(a, root);
        b.is_a(c, a);
        b.is_a(d, c);
        let mut g = b.build().unwrap();
        g.add_shortcut(d, a, 2).unwrap();
        let dot = to_dot(&g, 100);
        assert!(dot.starts_with("digraph ekg {"));
        assert!(dot.contains("label=\"kidney disease\""));
        assert!(dot.contains("style=dashed, label=\"d=2\""), "{dot}");
        assert_eq!(dot.matches(" -> ").count(), 4);
        // Truncation keeps the output well-formed.
        let small = to_dot(&g, 2);
        assert!(small.ends_with("}\n"));
        assert!(small.matches("label=").count() <= 3);
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
