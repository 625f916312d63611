//! The §5.1 shortcut overlay and the candidate scan that reads it.
//!
//! Algorithm 1 (lines 19–23, Figure 5) adds shortcut edges for one reason:
//! so that Algorithm 2's radius counts fewer hops. Each shortcut carries
//! its original path length, so no semantic distance changes; everything
//! but the hop count reads the native graph. The shortcuts therefore live
//! beside the graph as a validated list ([`Shortcuts`]), and the scan
//! reads them through one CSR table ([`Adjacency`]) built from the graph
//! and the list.

use medkb_types::{ExtConceptId, Id, MedKbError, Result};

use crate::graph::{EdgeColumns, Ekg};
use crate::reach::ReachabilityIndex;

/// One §5.1 shortcut: `(descendant, ancestor, original distance)`.
pub type Shortcut = (ExtConceptId, ExtConceptId, u32);

/// The §5.1 shortcuts of one world over its native graph: the validated
/// list and the candidate scan's [`Adjacency`], built once from both.
///
/// Two overlays are equal when their lists are: the table is a function of
/// the graph and the list.
#[derive(Debug, Clone)]
pub struct Shortcuts {
    list: Vec<Shortcut>,
    adjacency: Adjacency,
}

impl PartialEq for Shortcuts {
    fn eq(&self, other: &Self) -> bool {
        self.list == other.list
    }
}

impl Eq for Shortcuts {}

impl Shortcuts {
    /// Validate `list` against `ekg` and build the scan table. `reach`
    /// must be the closure of `ekg`.
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] if an end is not a concept of `ekg`,
    /// an ancestor is not a strict ancestor of its descendant (which would
    /// let a scan hop across the hierarchy), a distance is below 2, or a
    /// shortcut parallels a native parent edge or repeats.
    pub fn new(ekg: &Ekg, reach: &ReachabilityIndex, list: Vec<Shortcut>) -> Result<Self> {
        let n = ekg.len();
        for &(desc, anc, distance) in &list {
            if desc.as_usize() >= n || anc.as_usize() >= n {
                return Err(MedKbError::invalid(format!(
                    "shortcut end out of range ({n} concepts)"
                )));
            }
            if !reach.is_ancestor(anc, desc) {
                return Err(MedKbError::invalid(format!(
                    "shortcut target {:?} is not an ancestor of {:?}",
                    ekg.name(anc),
                    ekg.name(desc)
                )));
            }
            if distance < 2 {
                return Err(MedKbError::invalid(
                    "shortcut must span a path of at least 2 hops".to_string(),
                ));
            }
        }
        let adjacency = Adjacency::build(ekg, &list)?;
        Ok(Self { list, adjacency })
    }

    /// The shortcuts in list order.
    pub fn list(&self) -> &[Shortcut] {
        &self.list
    }

    /// Number of shortcuts.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The table the candidate scan walks.
    pub fn adjacency(&self) -> &Adjacency {
        &self.adjacency
    }
}

/// The hop adjacency of a graph and its shortcuts as one contiguous table
/// (CSR): each concept's parents, its shortcut ancestors, its children and
/// its shortcut descendants, the shortcuts in list order.
///
/// A scan over the graph's columns and the list would touch four offset
/// tables and four target arrays per concept; at 350k concepts reading
/// just the graph's two columns made candidate enumeration ~20% slower
/// than this one table (1.4 M ids, 7.1 MB).
#[derive(Debug, Clone)]
pub struct Adjacency {
    offsets: Vec<u32>,
    neighbors: Vec<ExtConceptId>,
}

impl Adjacency {
    /// Build the table over `ekg` and `list`, whose ends are in range.
    ///
    /// # Errors
    /// [`MedKbError::InvalidArgument`] if a shortcut parallels a parent
    /// edge or an earlier shortcut.
    ///
    /// # Panics
    /// If the table would hold `u32::MAX` or more ids.
    fn build(ekg: &Ekg, list: &[Shortcut]) -> Result<Self> {
        let n = ekg.len();
        let ups = EdgeColumns::grouped(n, list.iter().map(|&(desc, anc, _)| (desc, anc)));
        let downs = EdgeColumns::grouped(n, list.iter().map(|&(desc, anc, _)| (anc, desc)));
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut neighbors = Vec::with_capacity(2 * (ekg.edge_count() + list.len()));
        for c in ekg.concepts() {
            let start = neighbors.len();
            neighbors.extend_from_slice(ekg.parents(c));
            let native = neighbors.len();
            neighbors.extend_from_slice(ups.row(c));
            // Each shortcut must be new to the up list it joins.
            let row = &neighbors[start..];
            if let Some(j) = (native - start..row.len()).find(|&j| row[..j].contains(&row[j])) {
                return Err(MedKbError::invalid(format!(
                    "edge {:?} -> {:?} already exists",
                    ekg.name(c),
                    ekg.name(row[j])
                )));
            }
            neighbors.extend_from_slice(ekg.children(c));
            neighbors.extend_from_slice(downs.row(c));
            offsets.push(u32::try_from(neighbors.len()).expect("adjacency exceeds u32 offsets"));
        }
        Ok(Self { offsets, neighbors })
    }

    /// Number of concepts the table covers.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `concept`'s row, in table order.
    fn neighbors(&self, concept: ExtConceptId) -> &[ExtConceptId] {
        let i = concept.as_usize();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Incremental ring-by-ring BFS over an [`Adjacency`].
///
/// Algorithm 2's dynamic radius growth asks for radius `r`, then `r+1`, …
/// until enough flagged instances are reachable. The scan keeps its
/// discovery list alive between calls, and that list is also its queue:
/// each ring is expanded from the slice the previous ring appended, so an
/// increment pays only for the newly reached ring. Discovery order is
/// identical to a fresh [`Ekg::neighborhood`] call at the same radius.
#[derive(Debug)]
pub struct NeighborhoodScan<'a> {
    adjacency: &'a Adjacency,
    seen: Vec<bool>,
    /// Discovery order with the start first; `order[ring..]` is the
    /// outermost ring (hop == `radius`), the next one to expand.
    order: Vec<(ExtConceptId, u32)>,
    ring: usize,
    radius: u32,
}

impl<'a> NeighborhoodScan<'a> {
    /// A scan rooted at `start`, with nothing expanded yet (radius 0).
    pub fn new(adjacency: &'a Adjacency, start: ExtConceptId) -> Self {
        let mut seen = vec![false; adjacency.len()];
        seen[start.as_usize()] = true;
        Self { adjacency, seen, order: vec![(start, 0)], ring: 0, radius: 0 }
    }

    /// Largest radius expanded so far.
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Grow the scan until every concept within `radius` hops has been
    /// discovered, returning the full discovery list. No-op when `radius`
    /// does not exceed the current radius.
    pub fn expand_to(&mut self, radius: u32) -> &[(ExtConceptId, u32)] {
        self.expand_with(radius, |_, _| {});
        self.discovered()
    }

    /// [`NeighborhoodScan::expand_to`], handing each newly discovered
    /// concept and its hop count to `visit` as it is discovered, in
    /// discovery order. The relaxer's flag check runs here, in the same
    /// pass as the `seen` probe.
    pub fn expand_with(&mut self, radius: u32, mut visit: impl FnMut(ExtConceptId, u32)) {
        let adjacency = self.adjacency;
        while self.radius < radius && self.ring < self.order.len() {
            let (lo, hi) = (self.ring, self.order.len());
            let h = self.radius + 1;
            for at in lo..hi {
                for &n in adjacency.neighbors(self.order[at].0) {
                    let seen = &mut self.seen[n.as_usize()];
                    if !*seen {
                        *seen = true;
                        self.order.push((n, h));
                        visit(n, h);
                    }
                }
            }
            self.ring = hi;
            self.radius = h;
        }
        self.radius = self.radius.max(radius);
    }

    /// Everything discovered so far (start excluded), in BFS order.
    pub fn discovered(&self) -> &[(ExtConceptId, u32)] {
        &self.order[1..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::diamond;

    fn id_of(g: &Ekg, name: &str) -> ExtConceptId {
        g.lookup_name(name)[0]
    }

    fn overlay(g: &Ekg, list: Vec<Shortcut>) -> Result<Shortcuts> {
        Shortcuts::new(g, &ReachabilityIndex::build(g), list)
    }

    #[test]
    fn adjacency_lists_parents_then_children_with_shortcuts() {
        let g = diamond();
        let (a, c, d, root) = (id_of(&g, "a"), id_of(&g, "c"), id_of(&g, "d"), g.root());
        let shortcuts = overlay(&g, vec![(d, root, 3), (c, root, 2), (d, a, 2)]).unwrap();
        let adj = shortcuts.adjacency();
        assert_eq!(adj.len(), g.len());
        for x in g.concepts() {
            let ups = shortcuts.list().iter().filter(|s| s.0 == x).map(|s| s.1);
            let downs = shortcuts.list().iter().filter(|s| s.1 == x).map(|s| s.0);
            let want: Vec<ExtConceptId> = g
                .parents(x)
                .iter()
                .copied()
                .chain(ups)
                .chain(g.children(x).iter().copied())
                .chain(downs)
                .collect();
            assert_eq!(adj.neighbors(x), &want[..], "{x:?}");
        }
        assert_eq!(adj.neighbors(root)[2..], [d, c], "shortcut descendants in list order");
        // The scan reaches a shortcut's far end in one hop, discovers in
        // the oracle's order, and a scan that has run out of graph still
        // reports the radius it was asked.
        let mut scan = NeighborhoodScan::new(adj, d);
        assert!(scan.expand_to(1).contains(&(root, 1)));
        assert_eq!(scan.expand_to(9), &g.neighborhood(d, 9, shortcuts.list())[..]);
        assert_eq!(scan.radius(), 9);
        // Without the overlay, the root is three native hops up.
        assert!(!g.neighborhood(d, 1, &[]).iter().any(|&(x, _)| x == root));
        assert!(g.neighborhood(d, 3, &[]).contains(&(root, 3)));
    }

    #[test]
    fn shortcuts_must_join_a_descendant_to_a_strict_ancestor_two_or_more_hops_up() {
        let g = diamond();
        let (a, b, c, d, root) =
            (id_of(&g, "a"), id_of(&g, "b"), id_of(&g, "c"), id_of(&g, "d"), g.root());
        let past = ExtConceptId::from_usize(g.len());
        for (list, want) in [
            (vec![(a, b, 2)], "not an ancestor"),
            (vec![(root, d, 2)], "not an ancestor"),
            (vec![(d, d, 2)], "not an ancestor"),
            (vec![(d, a, 1)], "at least 2 hops"),
            (vec![(past, root, 2)], "out of range"),
            (vec![(d, past, 2)], "out of range"),
            (vec![(d, c, 2)], "already exists"),
            (vec![(d, root, 3), (c, root, 2), (d, root, 3)], "already exists"),
        ] {
            match overlay(&g, list.clone()) {
                Err(MedKbError::InvalidArgument { detail }) => {
                    assert!(detail.contains(want), "{list:?}: {detail}")
                }
                other => panic!("{list:?}: expected {want:?}, got {other:?}"),
            }
        }
        let ok = overlay(&g, vec![(d, root, 3), (d, a, 2)]).unwrap();
        assert_eq!((ok.len(), ok.is_empty()), (2, false));
        assert_eq!(ok, overlay(&g, ok.list().to_vec()).unwrap());
        assert!(overlay(&g, Vec::new()).unwrap().is_empty());
    }
}
