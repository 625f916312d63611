//! Least common subsumer computation.
//!
//! §2.3 footnote 1: *"A LCS of two concepts always exists in the external
//! knowledge source. When multiple LCSs exist, we choose the one with the
//! shortest path to the pair of concepts. If multiple LCSs have equal
//! distance to the pair of concepts, we use the average IC of these LCSs
//! for the similarity measure."*
//!
//! [`LcsOutcome`] therefore carries the full set of equidistant,
//! shortest-path LCS concepts; the similarity layer averages their IC.

use medkb_types::ExtConceptId;

use crate::graph::{Ekg, UpwardDistances, UpwardScratch};
use crate::reach::ReachabilityIndex;

/// Result of a least-common-subsumer query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LcsOutcome {
    /// The minimal common subsumers at the minimal total distance. Never
    /// empty (the root subsumes everything). Sorted by id for determinism.
    pub concepts: Vec<ExtConceptId>,
    /// Hop distance from the first query concept up to the LCS level.
    pub dist_a: u32,
    /// Hop distance from the second query concept up to the LCS level.
    pub dist_b: u32,
}

impl LcsOutcome {
    /// Total path length through the LCS.
    pub fn total_distance(&self) -> u32 {
        self.dist_a + self.dist_b
    }
}

/// Compute the LCS set of `a` and `b` per the paper's footnote-1 rule.
///
/// `a == b` yields the concept itself at distance zero. The result's
/// `dist_a`/`dist_b` are the upward distances to the *chosen* LCS level
/// (all returned concepts share the same total distance; among equal totals
/// the split minimizing `dist_a` is reported for determinism).
pub fn lcs(ekg: &Ekg, a: ExtConceptId, b: ExtConceptId) -> LcsOutcome {
    if a == b {
        return LcsOutcome { concepts: vec![a], dist_a: 0, dist_b: 0 };
    }
    let mut up_a = ekg.upward_distances(a);
    let mut up_b = ekg.upward_distances(b);
    // A concept can subsume the other directly.
    up_a.insert(a, 0);
    up_b.insert(b, 0);

    // Common subsumers with their total distance.
    let mut best_total = u32::MAX;
    let mut candidates: Vec<(ExtConceptId, u32, u32)> = Vec::new();
    for (&c, &da) in &up_a {
        if let Some(&db) = up_b.get(&c) {
            let total = da + db;
            if total < best_total {
                best_total = total;
                candidates.clear();
            }
            if total == best_total {
                candidates.push((c, da, db));
            }
        }
    }
    debug_assert!(!candidates.is_empty(), "root must subsume everything");

    // Among the minimal-distance common subsumers, drop any that is a strict
    // ancestor of another candidate: those are not *least*.
    let keep: Vec<(ExtConceptId, u32, u32)> = candidates
        .iter()
        .filter(|(c, _, _)| {
            !candidates.iter().any(|(d, _, _)| d != c && ekg.is_ancestor(*c, *d))
        })
        .copied()
        .collect();
    let chosen = if keep.is_empty() { candidates } else { keep };

    let mut concepts: Vec<ExtConceptId> = chosen.iter().map(|&(c, _, _)| c).collect();
    concepts.sort_unstable();
    concepts.dedup();
    // Deterministic, direction-symmetric split: the smallest-id LCS's
    // distances (so `lcs(a, b)` and `lcs(b, a)` describe the same physical
    // path, just reversed).
    let (_, da, db) = chosen.iter().copied().min_by_key(|&(c, _, _)| c).unwrap();
    LcsOutcome { concepts, dist_a: da, dist_b: db }
}

/// [`lcs`] with the first concept's upward distances precomputed and the
/// minimality pruning answered by a [`ReachabilityIndex`] bit probe.
///
/// This is the query-scoped fast path: the relaxation engine computes
/// `up_q = ekg.upward_distances_from(query)` once, then scores every
/// candidate against it — one small candidate-side upward search per pair
/// instead of two, and no per-pair ancestor BFS during pruning. Produces
/// outcomes identical to `lcs(ekg, up_q.source(), b)`.
pub fn lcs_with_upward(
    ekg: &Ekg,
    reach: &ReachabilityIndex,
    up_q: &UpwardDistances,
    b: ExtConceptId,
) -> LcsOutcome {
    let mut scratch = UpwardScratch::new();
    lcs_with_upward_scratch(ekg, reach, up_q, b, &mut scratch)
}

/// [`lcs_with_upward`] with the candidate-side search run in caller-owned
/// scratch storage — the allocation-free hot path the query-scoped scorer
/// loops over. Outcomes are identical to `lcs(ekg, up_q.source(), b)`.
pub fn lcs_with_upward_scratch(
    ekg: &Ekg,
    reach: &ReachabilityIndex,
    up_q: &UpwardDistances,
    b: ExtConceptId,
    scratch: &mut UpwardScratch,
) -> LcsOutcome {
    let a = up_q.source();
    if a == b {
        return LcsOutcome { concepts: vec![a], dist_a: 0, dist_b: 0 };
    }
    ekg.upward_distances_into(b, scratch);

    // Common subsumers with their total distance: iterate the (small)
    // candidate side — `b` itself plus its reached ancestors — and probe
    // the dense query-side table.
    let mut best_total = u32::MAX;
    let mut candidates: Vec<(ExtConceptId, u32, u32)> = Vec::new();
    let b_side =
        std::iter::once((b, 0u32)).chain(scratch.reached().iter().map(|&c| {
            (c, scratch.distance(c).expect("reached ancestors carry a distance"))
        }));
    for (c, db) in b_side {
        if let Some(da) = up_q.get(c) {
            let total = da + db;
            if total < best_total {
                best_total = total;
                candidates.clear();
            }
            if total == best_total {
                candidates.push((c, da, db));
            }
        }
    }
    debug_assert!(!candidates.is_empty(), "root must subsume everything");

    // Same footnote-1 minimality pruning as `lcs`, via the bitset closure.
    let keep: Vec<(ExtConceptId, u32, u32)> = candidates
        .iter()
        .filter(|(c, _, _)| {
            !candidates.iter().any(|(d, _, _)| d != c && reach.is_ancestor(*c, *d))
        })
        .copied()
        .collect();
    let chosen = if keep.is_empty() { candidates } else { keep };

    let mut concepts: Vec<ExtConceptId> = chosen.iter().map(|&(c, _, _)| c).collect();
    concepts.sort_unstable();
    concepts.dedup();
    let (_, da, db) = chosen.iter().copied().min_by_key(|&(c, _, _)| c).unwrap();
    LcsOutcome { concepts, dist_a: da, dist_b: db }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EkgBuilder;
    use std::collections::HashMap;

    /// root
    /// ├── finding
    /// │   ├── pain ── headache, throatpain
    /// │   └── infection ── pneumonia
    /// └── drug
    fn taxonomy() -> (Ekg, HashMap<&'static str, ExtConceptId>) {
        let mut b = EkgBuilder::new();
        let names =
            ["root", "finding", "pain", "headache", "throatpain", "infection", "pneumonia", "drug"];
        let ids: HashMap<&str, ExtConceptId> =
            names.iter().map(|&n| (n, b.concept(n))).collect();
        b.is_a(ids["finding"], ids["root"]);
        b.is_a(ids["drug"], ids["root"]);
        b.is_a(ids["pain"], ids["finding"]);
        b.is_a(ids["infection"], ids["finding"]);
        b.is_a(ids["headache"], ids["pain"]);
        b.is_a(ids["throatpain"], ids["pain"]);
        b.is_a(ids["pneumonia"], ids["infection"]);
        (b.build().unwrap(), ids)
    }

    #[test]
    fn lcs_of_identical_concept_is_itself() {
        let (g, ids) = taxonomy();
        let out = lcs(&g, ids["pain"], ids["pain"]);
        assert_eq!(out.concepts, vec![ids["pain"]]);
        assert_eq!(out.total_distance(), 0);
    }

    #[test]
    fn lcs_of_siblings_is_parent() {
        let (g, ids) = taxonomy();
        let out = lcs(&g, ids["headache"], ids["throatpain"]);
        assert_eq!(out.concepts, vec![ids["pain"]]);
        assert_eq!((out.dist_a, out.dist_b), (1, 1));
    }

    #[test]
    fn lcs_of_ancestor_descendant_is_the_ancestor() {
        let (g, ids) = taxonomy();
        let out = lcs(&g, ids["headache"], ids["finding"]);
        assert_eq!(out.concepts, vec![ids["finding"]]);
        assert_eq!(out.total_distance(), 2);
        // Symmetric case.
        let out = lcs(&g, ids["finding"], ids["headache"]);
        assert_eq!(out.concepts, vec![ids["finding"]]);
    }

    #[test]
    fn lcs_across_branches_is_deeper_common_ancestor() {
        let (g, ids) = taxonomy();
        let out = lcs(&g, ids["headache"], ids["pneumonia"]);
        assert_eq!(out.concepts, vec![ids["finding"]]);
        assert_eq!(out.total_distance(), 4);
        let out = lcs(&g, ids["headache"], ids["drug"]);
        assert_eq!(out.concepts, vec![g.root()]);
    }

    #[test]
    fn multiple_equidistant_lcs_all_reported() {
        // Two parents shared by both children: x and y are both minimal
        // common subsumers of c and d at equal distance.
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let x = b.concept("x");
        let y = b.concept("y");
        let c = b.concept("c");
        let d = b.concept("d");
        for p in [x, y] {
            b.is_a(p, root);
            b.is_a(c, p);
            b.is_a(d, p);
        }
        let g = b.build().unwrap();
        let out = lcs(&g, c, d);
        let mut expect = vec![x, y];
        expect.sort_unstable();
        assert_eq!(out.concepts, expect);
        assert_eq!((out.dist_a, out.dist_b), (1, 1));
    }

    #[test]
    fn non_least_candidates_are_pruned() {
        // c, d share parent p; p's parent q is also common but not least.
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let q = b.concept("q");
        let p = b.concept("p");
        let c = b.concept("c");
        let d = b.concept("d");
        b.is_a(q, root);
        b.is_a(p, q);
        b.is_a(c, p);
        b.is_a(d, p);
        // Extra direct edges make q equidistant-looking? No: q is at
        // distance 2+2, p at 1+1, so distance already prefers p. Add direct
        // child edges c->q, d->q so q is also at 1+1.
        b.is_a(c, q);
        b.is_a(d, q);
        let g = b.build().unwrap();
        let out = lcs(&g, c, d);
        // p and q both at total distance 2, but q is a strict ancestor of p,
        // hence not least.
        assert_eq!(out.concepts, vec![p]);
    }

    #[test]
    fn with_upward_matches_plain_lcs_on_taxonomy() {
        let (g, ids) = taxonomy();
        let reach = ReachabilityIndex::build(&g);
        for &a in ids.values() {
            let up_a = g.upward_distances_from(a);
            for &b in ids.values() {
                assert_eq!(
                    lcs_with_upward(&g, &reach, &up_a, b),
                    lcs(&g, a, b),
                    "{:?} vs {:?}",
                    g.name(a),
                    g.name(b)
                );
            }
        }
    }

    #[test]
    fn with_upward_prunes_non_least_candidates() {
        // Same construction as `non_least_candidates_are_pruned`.
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let q = b.concept("q");
        let p = b.concept("p");
        let c = b.concept("c");
        let d = b.concept("d");
        b.is_a(q, root);
        b.is_a(p, q);
        b.is_a(c, p);
        b.is_a(d, p);
        b.is_a(c, q);
        b.is_a(d, q);
        let g = b.build().unwrap();
        let reach = ReachabilityIndex::build(&g);
        let up_c = g.upward_distances_from(c);
        let out = lcs_with_upward(&g, &reach, &up_c, d);
        assert_eq!(out.concepts, vec![p]);
        assert_eq!(out, lcs(&g, c, d));
    }
}
