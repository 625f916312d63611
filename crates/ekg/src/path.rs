//! Direction-tagged paths between external concepts, and the Eq. 4 path
//! weight.
//!
//! §5.2: generalizing a query term loses information, specializing does
//! not (as much). The weight of the path between concepts `A` and `B` is
//!
//! ```text
//! p_{A,B} = Π_i  w_i ^ (D - i),        i = 1..D
//! ```
//!
//! where `D` is the path length and `w_i` the weight of the i-th edge
//! *starting from `A`* — `w_gen` (default 0.9) for a generalization (an
//! upward, child→parent step) and `w_spec` (default 1.0) for a
//! specialization. The exponent `D - i` makes early generalizations count
//! the most, reproducing Figure 6: from "pneumonia" to "lower respiratory
//! tract infection" (3 ups then 1 down) `p = 0.9^3 · 0.9^2 · 0.9^1 · w^0 =
//! 0.9^6`, while the reverse direction (1 up, 3 downs) costs only `0.9^3`.
//!
//! Paths always run through the least common subsumer, so they are a block
//! of generalizations followed by a block of specializations, each step one
//! native edge.

use medkb_types::ExtConceptId;

use crate::graph::Ekg;
use crate::lcs::{lcs, LcsOutcome};

/// Direction of one unit step along a concept path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Child → parent: towards more general concepts.
    Generalization,
    /// Parent → child: towards more specific concepts.
    Specialization,
}

/// The shape of the (shortest, LCS-routed) path from a source concept to a
/// target concept: `ups` unit generalization steps followed by `downs` unit
/// specialization steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSummary {
    /// Unit generalization steps from the source up to the LCS.
    pub ups: u32,
    /// Unit specialization steps from the LCS down to the target.
    pub downs: u32,
}

impl PathSummary {
    /// Total unit length `D`.
    pub fn len(&self) -> u32 {
        self.ups + self.downs
    }

    /// Whether source and target coincide.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unit step directions from source to target.
    pub fn directions(&self) -> impl Iterator<Item = Direction> {
        std::iter::repeat_n(Direction::Generalization, self.ups as usize)
            .chain(std::iter::repeat_n(Direction::Specialization, self.downs as usize))
    }

    /// Eq. 4 path weight under the given direction weights.
    pub fn weight(&self, w_gen: f64, w_spec: f64) -> f64 {
        weight_for_sequence(self.directions(), w_gen, w_spec)
    }

    /// The same path seen from the other endpoint.
    pub fn reversed(&self) -> Self {
        Self { ups: self.downs, downs: self.ups }
    }
}

/// Eq. 4 over an explicit direction sequence.
pub fn weight_for_sequence(
    directions: impl IntoIterator<Item = Direction>,
    w_gen: f64,
    w_spec: f64,
) -> f64 {
    let dirs: Vec<Direction> = directions.into_iter().collect();
    let d = dirs.len() as i32;
    dirs.iter()
        .enumerate()
        .map(|(idx, dir)| {
            let w = match dir {
                Direction::Generalization => w_gen,
                Direction::Specialization => w_spec,
            };
            // i is 1-based in the paper; exponent D - i.
            w.powi(d - (idx as i32 + 1))
        })
        .product()
}

/// The LCS-routed path from `a` (the query-term side) to `b`, together with
/// the LCS outcome it was derived from.
pub fn path_between(ekg: &Ekg, a: ExtConceptId, b: ExtConceptId) -> (PathSummary, LcsOutcome) {
    let out = lcs(ekg, a, b);
    (PathSummary { ups: out.dist_a, downs: out.dist_b }, out)
}

/// Reconstruct one concrete shortest concept chain `a → … → lcs → … → b`
/// (inclusive of the endpoints), following shortest upward routes on both
/// sides: `dist_a + dist_b + 1` concepts, one per step of the Eq. 4 path.
/// Explanation surfaces render this as the "why" of a relaxation answer.
pub fn concrete_path(ekg: &Ekg, a: ExtConceptId, b: ExtConceptId) -> Vec<ExtConceptId> {
    if a == b {
        return vec![a];
    }
    let out = lcs(ekg, a, b);
    let lcs_node = out.concepts[0];
    let mut up_side = climb(ekg, a, lcs_node);
    let mut down_side = climb(ekg, b, lcs_node);
    down_side.pop(); // the LCS appears once
    down_side.reverse();
    up_side.append(&mut down_side);
    up_side
}

/// Greedy shortest climb from `from` up to `target` (inclusive), each step
/// to the parent nearest `target`, ties to the smaller id.
fn climb(ekg: &Ekg, from: ExtConceptId, target: ExtConceptId) -> Vec<ExtConceptId> {
    // One downward search from the target answers every "how far is this
    // parent from the target" probe of the walk (the down lists mirror the
    // up lists, so these are exactly the upward distances to `target`).
    let mut below = crate::graph::UpwardScratch::new();
    ekg.downward_distances_into(target, &mut below);
    let mut chain = vec![from];
    let mut cur = from;
    while cur != target {
        let next = ekg
            .parents(cur)
            .iter()
            .filter_map(|&p| Some((below.distance(p)?, p)))
            .min();
        match next {
            Some((_, p)) => {
                chain.push(p);
                cur = p;
            }
            None => break, // target unreachable (not an ancestor): stop
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EkgBuilder;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn empty_path_weight_is_one() {
        let p = PathSummary { ups: 0, downs: 0 };
        assert!(close(p.weight(0.9, 1.0), 1.0));
    }

    #[test]
    fn figure6_forward_path() {
        // Pneumonia -> LRTI: 3 generalizations then 1 specialization.
        let p = PathSummary { ups: 3, downs: 1 };
        // 0.9^(4-1) * 0.9^(4-2) * 0.9^(4-3) * 1^(4-4) = 0.9^6
        assert!(close(p.weight(0.9, 1.0), 0.9f64.powi(6)));
    }

    #[test]
    fn figure6_reverse_path() {
        // LRTI -> pneumonia: 1 generalization then 3 specializations.
        let p = PathSummary { ups: 1, downs: 3 };
        // 0.9^(4-1) * 1^2 * 1^1 * 1^0 = 0.9^3
        assert!(close(p.weight(0.9, 1.0), 0.9f64.powi(3)));
        assert_eq!(p.reversed(), PathSummary { ups: 3, downs: 1 });
    }

    #[test]
    fn early_generalization_penalized_more() {
        // Same multiset of directions, different order: gen-first loses.
        let gen_first = [Direction::Generalization, Direction::Specialization];
        let spec_first = [Direction::Specialization, Direction::Generalization];
        let a = weight_for_sequence(gen_first, 0.9, 1.0);
        let b = weight_for_sequence(spec_first, 0.9, 1.0);
        assert!(a < b, "{a} should be < {b}");
    }

    #[test]
    fn last_edge_contributes_nothing() {
        // Exponent D - D = 0 on the final edge per Eq. 4.
        let p = PathSummary { ups: 1, downs: 0 };
        assert!(close(p.weight(0.5, 1.0), 1.0));
    }

    #[test]
    fn specialization_only_path_costs_nothing_at_unit_weight() {
        let p = PathSummary { ups: 0, downs: 5 };
        assert!(close(p.weight(0.9, 1.0), 1.0));
    }

    #[test]
    fn directions_order_is_ups_then_downs() {
        let p = PathSummary { ups: 2, downs: 1 };
        let dirs: Vec<_> = p.directions().collect();
        assert_eq!(
            dirs,
            vec![
                Direction::Generalization,
                Direction::Generalization,
                Direction::Specialization
            ]
        );
    }

    #[test]
    fn path_between_uses_lcs_distances() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let finding = b.concept("finding");
        let pain = b.concept("pain");
        let headache = b.concept("headache");
        b.is_a(finding, root);
        b.is_a(pain, finding);
        b.is_a(headache, pain);
        let g = b.build().unwrap();
        let (p, out) = path_between(&g, headache, finding);
        assert_eq!(p, PathSummary { ups: 2, downs: 0 });
        assert_eq!(out.concepts, vec![finding]);
        let (p, _) = path_between(&g, finding, headache);
        assert_eq!(p, PathSummary { ups: 0, downs: 2 });
    }

    #[test]
    fn concrete_path_runs_through_the_lcs() {
        let mut b = EkgBuilder::new();
        let root = b.concept("root");
        let finding = b.concept("finding");
        let pain = b.concept("pain");
        let headache = b.concept("headache");
        let throat = b.concept("throat pain");
        b.is_a(finding, root);
        b.is_a(pain, finding);
        b.is_a(headache, pain);
        b.is_a(throat, pain);
        let g = b.build().unwrap();
        let path = concrete_path(&g, headache, throat);
        assert_eq!(path, vec![headache, pain, throat]);
        assert_eq!(concrete_path(&g, headache, headache), vec![headache]);
        // Ancestor-descendant: a straight chain.
        assert_eq!(concrete_path(&g, headache, finding), vec![headache, pain, finding]);
        assert_eq!(concrete_path(&g, finding, headache), vec![finding, pain, headache]);
    }

    #[test]
    fn weight_monotone_in_w_gen() {
        let p = PathSummary { ups: 3, downs: 2 };
        let w1 = p.weight(0.8, 1.0);
        let w2 = p.weight(0.9, 1.0);
        let w3 = p.weight(1.0, 1.0);
        assert!(w1 < w2 && w2 < w3);
        assert!(close(w3, 1.0));
    }
}
