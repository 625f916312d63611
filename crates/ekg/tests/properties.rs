//! Property tests over randomly generated rooted DAGs.
//!
//! The strategy builds graphs that are valid by construction (node 0 is the
//! root; every later node picks at least one parent among earlier nodes),
//! then checks the structural invariants every Ekg consumer relies on.

use std::collections::{HashMap, HashSet};

use medkb_ekg::lcs::{lcs, lcs_with_upward_scratch};
use medkb_ekg::path::path_between;
use medkb_ekg::{Ekg, EkgBuilder, NeighborhoodScan, ReachabilityIndex, Shortcuts, UpwardScratch};
use medkb_types::ExtConceptId;
use proptest::prelude::*;

/// `parents[i]` (for node i+1) = distinct parent picks among nodes 0..=i.
fn dag_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(any::<proptest::sample::Index>(), 1..3), 1..40)
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, picks)| {
                    let mut parents: Vec<usize> =
                        picks.into_iter().map(|p| p.index(i + 1)).collect();
                    parents.sort_unstable();
                    parents.dedup();
                    parents
                })
                .collect()
        })
}

fn build(parent_lists: &[Vec<usize>]) -> Ekg {
    let mut b = EkgBuilder::new();
    let mut ids: Vec<ExtConceptId> = vec![b.concept("n0")];
    for (i, parents) in parent_lists.iter().enumerate() {
        let c = b.concept(&format!("n{}", i + 1));
        for &p in parents {
            b.is_a(c, ids[p]);
        }
        ids.push(c);
    }
    b.build().expect("construction is valid by strategy")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_topo_order_children_before_parents(parents in dag_strategy()) {
        let g = build(&parents);
        let pos: HashMap<ExtConceptId, usize> =
            g.topo_children_first().iter().enumerate().map(|(i, &c)| (c, i)).collect();
        for c in g.concepts() {
            for p in g.parents(c) {
                prop_assert!(pos[&c] < pos[p]);
            }
        }
        prop_assert_eq!(*g.topo_children_first().last().unwrap(), g.root());
    }

    #[test]
    fn prop_depth_consistent_with_parents(parents in dag_strategy()) {
        let g = build(&parents);
        prop_assert_eq!(g.depth(g.root()), 0);
        for c in g.concepts() {
            if c == g.root() { continue; }
            let min_parent_depth =
                g.parents(c).iter().map(|&p| g.depth(p)).min().unwrap();
            prop_assert_eq!(g.depth(c), min_parent_depth + 1);
        }
    }

    #[test]
    fn prop_reachability_index_matches_walks(parents in dag_strategy()) {
        let g = build(&parents);
        let idx = ReachabilityIndex::build(&g);
        for a in g.concepts() {
            for d in g.concepts() {
                prop_assert_eq!(idx.is_ancestor(a, d), g.is_ancestor(a, d));
            }
        }
    }

    #[test]
    fn prop_upward_distances_cover_exactly_the_ancestors(parents in dag_strategy()) {
        let g = build(&parents);
        for c in g.concepts() {
            let dist = g.upward_distances(c);
            let anc = g.ancestors(c);
            let keys: HashSet<ExtConceptId> = dist.keys().copied().collect();
            prop_assert_eq!(&keys, &anc);
            for (&a, &d) in &dist {
                prop_assert!(d >= 1);
                // Distance to an ancestor is at most the depth gap's
                // worst case: the chain through any path.
                prop_assert!(d as usize <= g.len());
                let _ = a;
            }
        }
    }

    #[test]
    fn prop_lcs_concept_set_is_symmetric(parents in dag_strategy()) {
        let g = build(&parents);
        let nodes: Vec<ExtConceptId> = g.concepts().collect();
        for (i, &a) in nodes.iter().enumerate().step_by(3) {
            for &b in nodes.iter().skip(i).step_by(5) {
                let ab = lcs(&g, a, b);
                let ba = lcs(&g, b, a);
                prop_assert_eq!(&ab.concepts, &ba.concepts);
                prop_assert_eq!(ab.total_distance(), ba.total_distance());
                // Every LCS member subsumes (or equals) both endpoints.
                for &c in &ab.concepts {
                    prop_assert!(c == a || g.is_ancestor(c, a));
                    prop_assert!(c == b || g.is_ancestor(c, b));
                }
            }
        }
    }

    #[test]
    fn prop_path_weight_in_unit_interval(parents in dag_strategy()) {
        let g = build(&parents);
        let nodes: Vec<ExtConceptId> = g.concepts().collect();
        for (i, &a) in nodes.iter().enumerate().step_by(4) {
            for &b in nodes.iter().skip(i + 1).step_by(4) {
                let (path, _) = path_between(&g, a, b);
                let w = path.weight(0.9, 1.0);
                prop_assert!((0.0..=1.0).contains(&w), "{w}");
                // Reversing the endpoints reverses the shape.
                let (rev, _) = path_between(&g, b, a);
                prop_assert_eq!(path.reversed(), rev);
            }
        }
    }

    #[test]
    fn prop_neighborhood_monotone_in_radius(parents in dag_strategy()) {
        let g = build(&parents);
        let c = g.concepts().last().unwrap();
        let mut prev: HashSet<ExtConceptId> = HashSet::new();
        for r in 1..=4u32 {
            let cur: HashSet<ExtConceptId> =
                g.neighborhood(c, r, &[]).into_iter().map(|(n, _)| n).collect();
            prop_assert!(prev.is_subset(&cur), "radius {r} lost nodes");
            for (n, hops) in g.neighborhood(c, r, &[]) {
                prop_assert!(hops >= 1 && hops <= r);
                prop_assert_ne!(n, c);
            }
            prev = cur;
        }
    }

    #[test]
    fn prop_lcs_with_upward_matches_lcs(parents in dag_strategy()) {
        // The query-scoped fast path (precomputed query-side distances,
        // bitset minimality pruning, reused candidate-side scratch) must be
        // indistinguishable from the per-pair reference on any DAG. One
        // scratch is deliberately reused across every pair to exercise the
        // epoch-stamping invalidation.
        let g = build(&parents);
        let reach = ReachabilityIndex::build(&g);
        let mut scratch = UpwardScratch::new();
        let nodes: Vec<ExtConceptId> = g.concepts().collect();
        for &a in nodes.iter().step_by(2) {
            let up_a = g.upward_distances_from(a);
            prop_assert_eq!(up_a.source(), a);
            for &b in &nodes {
                let fast = lcs_with_upward_scratch(&g, &reach, &up_a, b, &mut scratch);
                prop_assert_eq!(fast, lcs(&g, a, b), "lcs({a:?}, {b:?})");
            }
        }
    }

    #[test]
    fn prop_upward_distances_from_matches_hashmap_dijkstra(parents in dag_strategy()) {
        let g = build(&parents);
        for c in g.concepts() {
            let dense = g.upward_distances_from(c);
            let sparse = g.upward_distances(c);
            prop_assert_eq!(dense.len(), sparse.len());
            prop_assert_eq!(dense.get(c), Some(0));
            for (a, d) in dense.iter() {
                prop_assert_eq!(sparse.get(&a).copied(), Some(d));
            }
        }
    }

    #[test]
    fn prop_incremental_scan_matches_fresh_neighborhood(parents in dag_strategy()) {
        // Growing one scan radius-by-radius must reproduce, prefix by
        // prefix, what a fresh full scan at each radius returns — the
        // invariant dynamic-radius growth relies on. Every ancestor two or
        // more hops up gets a shortcut, so the scan crosses both kinds of
        // edge in both directions.
        let g = build(&parents);
        let batch: Vec<(ExtConceptId, ExtConceptId, u32)> = g
            .concepts()
            .flat_map(|c| {
                let mut up: Vec<(ExtConceptId, u32)> = g.upward_distances(c).into_iter().collect();
                up.sort_unstable();
                up.into_iter().filter(|&(_, d)| d >= 2).map(move |(a, d)| (c, a, d))
            })
            .collect();
        let shortcuts = Shortcuts::new(&g, &ReachabilityIndex::build(&g), batch).unwrap();
        let start = g.concepts().last().unwrap();
        let mut scan = NeighborhoodScan::new(shortcuts.adjacency(), start);
        for r in 1..=5u32 {
            scan.expand_to(r);
            prop_assert_eq!(scan.radius(), r);
            prop_assert_eq!(scan.discovered(), &g.neighborhood(start, r, shortcuts.list())[..]);
        }
    }

    #[test]
    fn prop_a_shortcut_is_one_hop_over_the_overlay(parents in dag_strategy()) {
        let g = build(&parents);
        // Find a (descendant, ancestor) pair at distance >= 2 and shortcut it.
        let mut target = None;
        'outer: for c in g.concepts() {
            for (a, d) in g.upward_distances(c) {
                if d >= 2 {
                    target = Some((c, a, d));
                    break 'outer;
                }
            }
        }
        if let Some((c, a, d)) = target {
            let shortcuts = Shortcuts::new(&g, &ReachabilityIndex::build(&g), vec![(c, a, d)]);
            let list = shortcuts.unwrap().list().to_vec();
            prop_assert!(g.neighborhood(c, 1, &list).iter().any(|&(n, _)| n == a));
            prop_assert!(!g.neighborhood(c, 1, &[]).iter().any(|&(n, _)| n == a));
        }
    }
}
