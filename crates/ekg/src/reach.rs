//! Hybrid subsumption-reachability index: DFS interval labels plus sparse
//! per-concept exception sets.
//!
//! The previous implementation materialized every concept's ancestor set as
//! a dense bitset row — `|V|²/8` bytes, ~15 GB at SNOMED's 350k concepts.
//! That closure is preserved below as [`DenseReachability`] (the
//! differential reference), but the serving index is now a hybrid
//! (DESIGN.md §14):
//!
//! * A **spanning tree** over the native `is_a` edges (each concept's tree
//!   parent is its *deepest* native parent, ties broken by smallest id — the
//!   deepest parent maximizes the ancestor coverage of the tree path).
//! * **DFS interval labels** `tin/tout` over that tree: `a` is a *tree*
//!   ancestor of `d` iff `tin[a] < tin[d] ≤ tout[a]` — two integer
//!   comparisons, no memory indirection beyond the label arrays.
//! * A per-concept **exception set** `exc(c) = ancestors(c) \
//!   tree_ancestors(c)`: the ancestors only reachable through non-tree
//!   (multi-parent) edges. Sets are stored in one shared CSR pool — a
//!   single-native-parent concept provably has *exactly* its tree parent's
//!   exception set (see the lemma at [`ReachabilityIndex::build`]) and
//!   shares the pooled entry, so the pool holds roughly one distinct set
//!   per multi-parent concept.
//! * Each pooled set is probed **by density**: its sorted `u32` member list
//!   is binary-searched while `4·|exc|` bytes is below the `n/8`-byte bitset
//!   row; above that it also gets a packed bitset row in one shared word
//!   arena — so no set's probe structure costs more than a dense row, and
//!   the common near-tree case costs a few words.
//!
//! The result is `O(|V| + Σ|exc|)` memory instead of `O(|V|²)` bits, with
//! `is_ancestor` still O(1) for the tree-like majority of a SNOMED-shaped
//! DAG and `O(log |exc|)` worst case. Every query is bit-identical to the
//! dense closure — pinned by the tests below and by the 240-world
//! differential sweep in `medkb-fuzz`.

use medkb_types::{ExtConceptId, Id};

use crate::graph::Ekg;

/// Pool index of the shared empty exception set.
const EMPTY_SET: u32 = 0;

/// `bit_row` entry of a sparse set, which has no bitset row.
const SPARSE: u32 = u32::MAX;

/// Hybrid interval + exception-set reachability index.
///
/// Its first six columns are the store's `reach` section, in section order
/// (DESIGN.md §14.2): [`ReachabilityIndex::columns`] lends them to the
/// encoder and [`ReachabilityIndex::from_columns`] adopts decoded ones.
/// The probe bitsets are derived from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachabilityIndex {
    /// DFS preorder entry index of each concept in the spanning tree.
    tin: Vec<u32>,
    /// Largest preorder index in each concept's subtree (inclusive); the
    /// subtree occupies the contiguous preorder range `tin..=tout`, so
    /// `tout - tin` is the strict tree-descendant count.
    tout: Vec<u32>,
    /// Depth in the spanning tree (root = 0) — the strict tree-ancestor
    /// count.
    tree_depth: Vec<u32>,
    /// Pool index of each concept's exception set.
    exc: Vec<u32>,
    /// Pooled set `s` is `set_members[set_offsets[s]..set_offsets[s + 1]]`;
    /// set 0 is always the empty set.
    set_offsets: Vec<u32>,
    /// Every pooled set's members, each set sorted ascending (the
    /// canonical, serialized form).
    set_members: Vec<u32>,
    /// Per pooled set: its row in `bits`, or [`SPARSE`]. A set carries a
    /// bitset when that is smaller than its list (`4·len > n/8` bytes ⇔
    /// `len > n/32`).
    bit_row: Vec<u32>,
    /// The dense sets' bitsets, `n.div_ceil(64)` words each, in pool order.
    bits: Vec<u64>,
}

impl ReachabilityIndex {
    /// Build the hybrid index for `ekg`'s closure (§5.1 shortcuts join a
    /// concept to an ancestor it already has, so they add no reachability).
    ///
    /// Exception sets are computed parents-first over the topological
    /// order, using the invariant `ancestors(p) = tree_ancestors(p) ∪
    /// exc(p)`:
    ///
    /// * **Lemma (span sharing).** `exc(c) ⊇ exc(tp)` for `c`'s tree parent
    ///   `tp`: any `x ∈ exc(tp)` is an ancestor of `tp` (hence of `c`) and
    ///   not a tree ancestor of `tp`; since `c`'s tree ancestors are
    ///   exactly `{tp} ∪ tree_ancestors(tp)` and `x ∉` that set, `x ∈
    ///   exc(c)`. When `tp` is `c`'s *only* native parent the converse
    ///   holds too (`ancestors(c) = {tp} ∪ ancestors(tp)`), so `exc(c) =
    ///   exc(tp)` exactly and the pooled set is shared without copying.
    /// * A multi-parent concept unions in, for every extra native parent
    ///   `q`: `{q} ∪ tree_ancestors(q) ∪ exc(q)`, keeping the elements
    ///   that are not tree ancestors of `c` (interval test).
    pub fn build(ekg: &Ekg) -> Self {
        Self::build_inner(ekg, None)
    }

    /// Rebuild the index for a delta-mutated `ekg`, reusing this (pre-delta)
    /// index's exception member lists for every concept outside the `dirty`
    /// cone (DESIGN.md §15).
    ///
    /// `dirty` must contain every concept whose ancestor set, native parent
    /// set, or depth may have changed — for an edge delta on child `u` that
    /// is `{u} ∪ descendants(u)`, for a freshly added concept the concept
    /// itself. The cone is downward-closed by construction, so every
    /// concept outside it provably keeps its exact exception member list
    /// (its ancestors and its whole tree-parent chain are untouched); the
    /// repair replays the builder's pool assembly over the new topological
    /// order, recomputing the expensive ancestor-walk only for cone
    /// members. The result is bit-identical to [`ReachabilityIndex::build`]
    /// on the mutated graph — pinned by the delta differential sweep.
    ///
    /// Callers should fall back to a full [`ReachabilityIndex::build`] when
    /// the cone covers most of the graph (the delta engine applies a
    /// dirtiness threshold and counts fallbacks in obs).
    pub fn repair(
        &self,
        ekg: &Ekg,
        dirty: &std::collections::HashSet<ExtConceptId>,
    ) -> Self {
        Self::build_inner(ekg, Some((self, dirty)))
    }

    fn build_inner(
        ekg: &Ekg,
        cache: Option<(&Self, &std::collections::HashSet<ExtConceptId>)>,
    ) -> Self {
        let n = ekg.len();
        let root = ekg.root().as_usize();

        // Spanning tree: deepest native parent, ties to the smallest id.
        let mut tree_parent: Vec<u32> = vec![u32::MAX; n];
        for c in ekg.concepts() {
            let ci = c.as_usize();
            if ci == root {
                continue;
            }
            let mut best: Option<(u32, u32)> = None;
            for &p in ekg.parents(c) {
                let key = (ekg.depth(p), p.as_u32());
                best = Some(match best {
                    None => key,
                    // Deeper wins; equal depth → smaller id wins.
                    Some(b) => {
                        if key.0 > b.0 || (key.0 == b.0 && key.1 < b.1) {
                            key
                        } else {
                            b
                        }
                    }
                });
            }
            tree_parent[ci] = best.expect("non-root concept has a native parent").1;
        }

        // Children lists in id order → deterministic preorder.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (c, &p) in tree_parent.iter().enumerate() {
            if p != u32::MAX {
                children[p as usize].push(c as u32);
            }
        }

        // Iterative DFS: preorder tin, inclusive tout, tree depth.
        let mut tin = vec![0u32; n];
        let mut tout = vec![0u32; n];
        let mut tree_depth = vec![0u32; n];
        let mut next = 0u32;
        // (node, child cursor)
        let mut stack: Vec<(u32, usize)> = vec![(root as u32, 0)];
        tin[root] = 0;
        next += 1;
        while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
            let kids = &children[node as usize];
            if *cursor < kids.len() {
                let child = kids[*cursor];
                *cursor += 1;
                tin[child as usize] = next;
                tree_depth[child as usize] = tree_depth[node as usize] + 1;
                next += 1;
                stack.push((child, 0));
            } else {
                tout[node as usize] = next - 1;
                stack.pop();
            }
        }
        debug_assert_eq!(next as usize, n, "spanning tree must cover every concept");

        // Exception sets, parents-first, appended to one CSR pool.
        let mut set_offsets: Vec<u32> = vec![0, 0];
        let mut set_members: Vec<u32> = Vec::new();
        let mut exc: Vec<u32> = vec![EMPTY_SET; n];
        let contains_interval = |tin: &[u32], tout: &[u32], a: usize, d: usize| {
            tin[a] <= tin[d] && tin[d] <= tout[a]
        };
        let mut scratch: Vec<u32> = Vec::new();
        for &c in ekg.topo_children_first().iter().rev() {
            let ci = c.as_usize();
            if ci == root {
                continue;
            }
            let tp = tree_parent[ci] as usize;
            let mut extra = false;
            // A cached member list is valid whenever the concept existed
            // before the delta and sits outside the dirty cone: its
            // ancestor set and tree-parent chain are untouched, so its
            // exception *set* is unchanged even though the interval labels
            // shifted. The pool assembly below only compares member lists,
            // so reusing the old list reproduces the fresh build exactly.
            let cached: Option<&[u32]> = cache.and_then(|(old, dirty)| {
                (ci < old.tin.len() && !dirty.contains(&c)).then(|| old.members(old.exc[ci]))
            });
            scratch.clear();
            for &q in ekg.parents(c) {
                let qi = q.as_usize();
                if qi == tp {
                    continue;
                }
                extra = true;
                if cached.is_some() {
                    continue;
                }
                // {q} ∪ tree_ancestors(q) ∪ exc(q), minus tree ancestors
                // of c (exactly the ids whose interval contains c).
                let mut walk = qi;
                loop {
                    if !contains_interval(&tin, &tout, walk, ci) {
                        scratch.push(walk as u32);
                    }
                    let p = tree_parent[walk];
                    if p == u32::MAX {
                        break;
                    }
                    walk = p as usize;
                }
                for &m in pooled(&set_offsets, &set_members, exc[qi]) {
                    if !contains_interval(&tin, &tout, m as usize, ci) {
                        scratch.push(m);
                    }
                }
            }
            if !extra {
                // Single native parent: exc(c) = exc(tp), share the entry.
                exc[ci] = exc[tp];
                continue;
            }
            if let Some(members) = cached {
                scratch.extend_from_slice(members);
            } else {
                scratch.extend_from_slice(pooled(&set_offsets, &set_members, exc[tp]));
                scratch.sort_unstable();
                scratch.dedup();
            }
            if scratch == pooled(&set_offsets, &set_members, exc[tp]) {
                // Every extra-parent contribution was already a tree
                // ancestor (or inherited) — reuse the parent's entry.
                exc[ci] = exc[tp];
            } else {
                set_members.extend_from_slice(&scratch);
                exc[ci] = (set_offsets.len() - 1) as u32;
                set_offsets.push(set_members.len() as u32);
            }
        }

        // The pool grew by doubling: give the slack back, so a built index
        // holds no more than a decoded one.
        set_members.shrink_to_fit();
        set_offsets.shrink_to_fit();
        Self::from_columns([tin, tout, tree_depth, exc, set_offsets, set_members])
    }

    /// The six stored columns in section order: `tin`, `tout`,
    /// `tree_depth`, `exc`, `set_offsets`, `set_members`.
    pub fn columns(&self) -> [&[u32]; 6] {
        [&self.tin, &self.tout, &self.tree_depth, &self.exc, &self.set_offsets, &self.set_members]
    }

    /// Adopt the six stored columns, in [`ReachabilityIndex::columns`]
    /// order, as they are, and derive the dense sets' bitsets. The
    /// representation choice is a function of each set's size and `n`, so
    /// a reopened index equals the one that was saved. The store's decoder
    /// checks what it hands over (DESIGN.md §14.2).
    pub fn from_columns(columns: [Vec<u32>; 6]) -> Self {
        let [tin, tout, tree_depth, exc, set_offsets, set_members] = columns;
        let n = tin.len();
        let words = n.div_ceil(64);
        let sets = set_offsets.len().saturating_sub(1);
        let mut bit_row = Vec::with_capacity(sets);
        let mut bits: Vec<u64> = Vec::new();
        for s in 0..sets as u32 {
            let members = pooled(&set_offsets, &set_members, s);
            if members.len() <= n / 32 {
                bit_row.push(SPARSE);
                continue;
            }
            bit_row.push((bits.len() / words) as u32);
            let row = bits.len();
            bits.resize(row + words, 0);
            for &m in members {
                bits[row + m as usize / 64] |= 1 << (m % 64);
            }
        }
        Self { tin, tout, tree_depth, exc, set_offsets, set_members, bit_row, bits }
    }

    /// Members of pooled set `s`, ascending.
    #[inline]
    fn members(&self, s: u32) -> &[u32] {
        pooled(&self.set_offsets, &self.set_members, s)
    }

    /// Whether pooled set `s` holds `id`: a binary search of a sparse set's
    /// list, or one bit of a dense set's row.
    #[inline]
    fn set_contains(&self, s: u32, id: u32) -> bool {
        match self.bit_row[s as usize] {
            SPARSE => self.members(s).binary_search(&id).is_ok(),
            row => {
                let at = row as usize * self.tin.len().div_ceil(64) + id as usize / 64;
                self.bits[at] & (1 << (id % 64)) != 0
            }
        }
    }

    /// Whether `anc` is a strict ancestor of `desc`.
    // The relax scan's bounds probe this per candidate and query ancestor.
    #[inline(always)]
    pub fn is_ancestor(&self, anc: ExtConceptId, desc: ExtConceptId) -> bool {
        if anc == desc {
            return false;
        }
        let a = anc.as_usize();
        let d = desc.as_usize();
        if self.tin[a] <= self.tin[d] && self.tin[d] <= self.tout[a] {
            return true;
        }
        self.set_contains(self.exc[d], anc.as_u32())
    }

    /// Number of strict ancestors of `desc`: tree ancestors (= tree depth)
    /// plus exceptions (disjoint by construction).
    pub fn ancestor_count(&self, desc: ExtConceptId) -> usize {
        let d = desc.as_usize();
        self.tree_depth[d] as usize + self.members(self.exc[d]).len()
    }

    /// Strict-descendant count for every concept (indexed by concept id).
    ///
    /// Tree descendants are the interval width `tout - tin`; each
    /// (descendant, exception-ancestor) pair adds one more. Counts are
    /// exact integers, so any IC derived from them is bit-identical to the
    /// dense closure's value.
    pub fn descendant_counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> =
            self.tout.iter().zip(&self.tin).map(|(&o, &i)| u64::from(o - i)).collect();
        for &s in &self.exc {
            for &m in self.members(s) {
                counts[m as usize] += 1;
            }
        }
        counts
    }

    /// Approximate resident footprint in bytes: the four per-concept label
    /// arrays plus every pooled exception set (lists and bitsets).
    pub fn memory_bytes(&self) -> usize {
        self.tin.len() * 16 + self.set_members.len() * 4 + self.bits.len() * 8
    }

    /// The dense closure's footprint at this concept count — what the
    /// pre-hybrid `|V|²`-bit representation would occupy. Benchmarks report
    /// the hybrid/dense ratio against this at scales where the dense build
    /// is no longer feasible.
    pub fn dense_equivalent_bytes(&self) -> usize {
        let n = self.tin.len();
        n * n.div_ceil(64) * 8
    }

    /// Number of distinct pooled exception sets (including the shared
    /// empty set) — the hybrid's sparsity diagnostic.
    pub fn exception_set_count(&self) -> usize {
        self.set_offsets.len() - 1
    }
}

/// Set `s` of the CSR pool `offsets` / `members`.
#[inline]
fn pooled<'a>(offsets: &[u32], members: &'a [u32], s: u32) -> &'a [u32] {
    &members[offsets[s as usize] as usize..offsets[s as usize + 1] as usize]
}

/// The original dense transitive-closure bitset — `|V|²/8` bytes, one
/// ancestor-set row per concept. Kept as the differential reference the
/// hybrid index is pinned against (fuzz sweep + the tests below); infeasible
/// at SNOMED scale and no longer used on any serving path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseReachability {
    /// `words_per_row` u64 words per concept; bit `a` of row `d` set iff
    /// `a` is a strict ancestor of `d`.
    bits: Vec<u64>,
    words_per_row: usize,
    n: usize,
}

impl DenseReachability {
    /// Build the dense closure for `ekg`.
    pub fn build(ekg: &Ekg) -> Self {
        let n = ekg.len();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; n * words_per_row];
        // Ancestors flow downward, so iterate parents-first (reverse of
        // the children-first topo order): ancestors(c) = ⋃_p ({p} ∪
        // ancestors(p)).
        let mut acc = vec![0u64; words_per_row];
        for &c in ekg.topo_children_first().iter().rev() {
            acc.fill(0);
            for &parent in ekg.parents(c) {
                let p = parent.as_usize();
                let src = &bits[p * words_per_row..(p + 1) * words_per_row];
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a |= s;
                }
                acc[p / 64] |= 1 << (p % 64);
            }
            let row = c.as_usize();
            bits[row * words_per_row..(row + 1) * words_per_row].copy_from_slice(&acc);
        }
        Self { bits, words_per_row, n }
    }

    /// Whether `anc` is a strict ancestor of `desc`.
    pub fn is_ancestor(&self, anc: ExtConceptId, desc: ExtConceptId) -> bool {
        if anc == desc {
            return false;
        }
        let row = desc.as_usize();
        let a = anc.as_usize();
        debug_assert!(row < self.n && a < self.n);
        self.bits[row * self.words_per_row + a / 64] & (1 << (a % 64)) != 0
    }

    /// Number of strict ancestors of `desc`.
    pub fn ancestor_count(&self, desc: ExtConceptId) -> usize {
        let row = desc.as_usize();
        self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Strict-descendant count for every concept (indexed by concept id).
    pub fn descendant_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.n];
        for row in 0..self.n {
            let words = &self.bits[row * self.words_per_row..(row + 1) * self.words_per_row];
            for (wi, &word) in words.iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let b = w.trailing_zeros() as usize;
                    counts[wi * 64 + b] += 1;
                    w &= w - 1;
                }
            }
        }
        counts
    }

    /// Approximate memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EkgBuilder;

    fn diamond() -> Ekg {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let a = b.concept("a");
        let bb = b.concept("b");
        let c = b.concept("c");
        let d = b.concept("d");
        b.is_a(a, root);
        b.is_a(bb, root);
        b.is_a(c, a);
        b.is_a(c, bb);
        b.is_a(d, c);
        b.build().unwrap()
    }

    /// Every probe of the hybrid index must equal the dense closure and
    /// the graph walk — the contract the whole PR rests on.
    fn assert_matches_dense(g: &Ekg) {
        let hybrid = ReachabilityIndex::build(g);
        let dense = DenseReachability::build(g);
        for anc in g.concepts() {
            for desc in g.concepts() {
                assert_eq!(
                    hybrid.is_ancestor(anc, desc),
                    dense.is_ancestor(anc, desc),
                    "{:?} vs {:?}",
                    g.name(anc),
                    g.name(desc)
                );
            }
        }
        for c in g.concepts() {
            assert_eq!(hybrid.ancestor_count(c), dense.ancestor_count(c), "{:?}", g.name(c));
        }
        assert_eq!(hybrid.descendant_counts(), dense.descendant_counts());
    }

    #[test]
    fn matches_walking_implementation() {
        let g = diamond();
        let idx = ReachabilityIndex::build(&g);
        for anc in g.concepts() {
            for desc in g.concepts() {
                assert_eq!(
                    idx.is_ancestor(anc, desc),
                    g.is_ancestor(anc, desc),
                    "{:?} vs {:?}",
                    g.name(anc),
                    g.name(desc)
                );
            }
        }
    }

    #[test]
    fn hybrid_matches_dense_on_every_shape() {
        for g in [diamond(), wide_random(), chain(100), singleton()] {
            assert_matches_dense(&g);
        }
    }

    #[test]
    fn ancestor_counts() {
        let g = diamond();
        let idx = ReachabilityIndex::build(&g);
        let d = g.lookup_name("d")[0];
        assert_eq!(idx.ancestor_count(d), 4); // c, a, b, root
        assert_eq!(idx.ancestor_count(g.root()), 0);
    }

    #[test]
    fn self_is_not_ancestor() {
        let g = diamond();
        let idx = ReachabilityIndex::build(&g);
        for c in g.concepts() {
            assert!(!idx.is_ancestor(c, c));
        }
    }

    #[test]
    fn descendant_counts_match_graph_walk() {
        for g in [diamond(), wide_random()] {
            let idx = ReachabilityIndex::build(&g);
            let counts = idx.descendant_counts();
            for c in g.concepts() {
                assert_eq!(
                    counts[c.as_usize()],
                    g.descendants(c).len() as u64,
                    "{:?}",
                    g.name(c)
                );
            }
        }
    }

    #[test]
    fn columns_round_trip_is_bit_identical() {
        for g in [diamond(), wide_random(), chain(100), singleton()] {
            let idx = ReachabilityIndex::build(&g);
            let back = ReachabilityIndex::from_columns(idx.columns().map(<[u32]>::to_vec));
            assert_eq!(back, idx);
        }
    }

    #[test]
    fn exception_sets_are_shared_down_single_parent_chains() {
        // diamond: only c is multi-parent; d (single child of c) must
        // share c's pooled set, so the pool holds empty + one entry.
        let g = diamond();
        let idx = ReachabilityIndex::build(&g);
        assert_eq!(idx.exception_set_count(), 2);
    }

    #[test]
    fn hybrid_footprint_beats_dense_on_tree_like_graphs() {
        let g = chain(500);
        let hybrid = ReachabilityIndex::build(&g);
        let dense = DenseReachability::build(&g);
        assert!(
            hybrid.memory_bytes() * 2 < dense.memory_bytes(),
            "hybrid {} vs dense {}",
            hybrid.memory_bytes(),
            dense.memory_bytes()
        );
        assert_eq!(hybrid.dense_equivalent_bytes(), dense.memory_bytes());
    }

    /// A 150-concept multi-parent DAG (crosses word boundaries, has deep
    /// and wide levels) built from a deterministic recurrence.
    fn wide_random() -> Ekg {
        let mut b = EkgBuilder::new();
        let mut ids = vec![b.concept("c0")];
        for i in 1..150usize {
            let c = b.concept(&format!("c{i}"));
            // One guaranteed parent plus a distinct pseudo-random second one.
            let p1 = (i * 7 + 3) % i;
            b.is_a(c, ids[p1]);
            if i > 4 {
                let p2 = (i * 13 + 1) % (i - 2);
                if p2 != p1 {
                    b.is_a(c, ids[p2]);
                }
            }
            ids.push(c);
        }
        b.build().unwrap()
    }

    fn chain(len: usize) -> Ekg {
        let mut b = EkgBuilder::new();
        let mut prev = b.concept("n0");
        for i in 1..len {
            let c = b.concept(&format!("n{i}"));
            b.is_a(c, prev);
            prev = c;
        }
        b.build().unwrap()
    }

    fn singleton() -> Ekg {
        let mut b = EkgBuilder::new();
        b.concept("only");
        b.build().unwrap()
    }

    /// Delta repair: for every edge/concept mutation, repairing the
    /// pre-mutation index over the dirty cone must be bit-identical to a
    /// fresh build on the mutated graph.
    #[test]
    fn repair_matches_fresh_build() {
        use std::collections::HashSet;
        let cone = |g: &Ekg, u: ExtConceptId| -> HashSet<ExtConceptId> {
            let mut cone = g.descendants(u);
            cone.insert(u);
            cone
        };

        // Edge addition on a multi-parent lattice.
        let mut g = wide_random();
        let before = ReachabilityIndex::build(&g);
        let child = g.lookup_name("c149")[0];
        let parent = g.lookup_name("c50")[0];
        g.add_is_a(child, parent).unwrap();
        g.rebuild_derived().unwrap();
        let repaired = before.repair(&g, &cone(&g, child));
        assert_eq!(repaired, ReachabilityIndex::build(&g), "edge add");

        // Edge removal (c is multi-parent in the diamond).
        let mut g = diamond();
        let before = ReachabilityIndex::build(&g);
        let c = g.lookup_name("c")[0];
        let a = g.lookup_name("a")[0];
        g.remove_is_a(c, a).unwrap();
        g.rebuild_derived().unwrap();
        let repaired = before.repair(&g, &cone(&g, c));
        assert_eq!(repaired, ReachabilityIndex::build(&g), "edge remove");

        // Concept addition (index must grow).
        let mut g = wide_random();
        let before = ReachabilityIndex::build(&g);
        let p1 = g.lookup_name("c7")[0];
        let p2 = g.lookup_name("c11")[0];
        let fresh = g.add_concept("fresh", &[], &[p1, p2]).unwrap();
        g.rebuild_derived().unwrap();
        let repaired = before.repair(&g, &HashSet::from([fresh]));
        assert_eq!(repaired, ReachabilityIndex::build(&g), "concept add");
    }

    #[test]
    fn scales_past_one_bitset_word() {
        // 100 concepts in a chain crosses the 64-bit word boundary.
        let g = chain(100);
        let idx = ReachabilityIndex::build(&g);
        let first = g.lookup_name("n0")[0];
        let last = g.lookup_name("n99")[0];
        let mid = g.lookup_name("n70")[0];
        assert!(idx.is_ancestor(first, last));
        assert!(idx.is_ancestor(mid, last));
        assert!(!idx.is_ancestor(last, first));
        assert_eq!(idx.ancestor_count(last), 99);
    }
}
