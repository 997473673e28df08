//! The constrained cost `κ[I, X]` (Section 6.1, Lemma 6.2).
//!
//! The Lawler–Murty procedure reduces ranked enumeration to optimization
//! under *inclusion* and *exclusion* constraints over minimal separators.
//! The paper compiles the constraints into the cost function: a
//! triangulation that violates them gets cost `∞`, and the resulting cost is
//! still a split-monotone bag cost, so the same dynamic program optimizes
//! it.
//!
//! The satisfaction relation follows the paper's block-aware definition:
//! a (partial) triangulation `H` satisfies `[I, X]` iff for every constraint
//! separator `U ⊆ V(H)`, `U` is a clique of `H` exactly when `U ∈ I`.
//! Constraints that are not yet fully inside `V(H)` are ignored at that
//! level and re-checked higher up, which is what keeps the compiled cost
//! split monotone.
//!
//! Inside the dynamic program the check needs no bags: the assembled bags
//! of a candidate form a tree decomposition of its block, so a constraint
//! is a clique exactly when a single bag contains it (Helly's property),
//! and that bag is `Ω` unless the constraint lies inside one child block,
//! where the child's own check already decided it.
//!
//! That rule is stated once, over bits, by [`violates`]: bit `k` of each
//! word stands for constraint `k` (the inclusions first, then the
//! exclusions). It has two callers, which differ only in where the bits
//! come from. [`min_triangulation_in`](crate::min_triangulation_in) takes
//! the ranked engines' `[I, X]` directly and compiles it once per solve
//! into bit masks per block and per PMC, so its candidate loop tests no
//! vertex sets. [`Constrained`] is the public [`BagCost`] form of
//! `κ[I, X]`, for callers that want a constrained cost as a value; its
//! `combine` derives the same bits by subset tests on every call.

use super::{BagCost, CandidateBag, ChildSolution, CostValue};
use mtr_graph::{Graph, VertexSet};

/// A set of inclusion/exclusion constraints over minimal separators.
#[derive(Clone, Debug, Default)]
pub struct Constraints {
    /// Separators that must be cliques of (i.e. minimal separators of) the
    /// triangulation.
    pub include: Vec<VertexSet>,
    /// Separators that must *not* be cliques of the triangulation.
    pub exclude: Vec<VertexSet>,
}

impl Constraints {
    /// The empty constraint set (satisfied by every triangulation).
    pub fn none() -> Self {
        Constraints::default()
    }

    /// Creates a constraint set from inclusion and exclusion lists.
    pub fn new(include: Vec<VertexSet>, exclude: Vec<VertexSet>) -> Self {
        Constraints { include, exclude }
    }

    /// `true` when there are no constraints at all.
    pub fn is_empty(&self) -> bool {
        self.include.is_empty() && self.exclude.is_empty()
    }

    /// Checks whether the triangulation given by `bags` over `g[scope]`
    /// satisfies the constraints (only constraints fully inside `scope` are
    /// checked).
    pub fn satisfied_by_bags(&self, g: &Graph, scope: &VertexSet, bags: &[VertexSet]) -> bool {
        let clique_in = |u: &VertexSet| is_clique_in_triangulation(g, bags, u);
        for u in &self.include {
            if u.is_subset_of(scope) && !clique_in(u) {
                return false;
            }
        }
        for u in &self.exclude {
            if u.is_subset_of(scope) && clique_in(u) {
                return false;
            }
        }
        true
    }

    /// Whether one dynamic-program candidate — `Ω` chosen for the block
    /// `scope`, over the child solutions `children` — violates the
    /// constraints: the rule of [`violates`], one constraint at a time, with
    /// its bit derived by subset tests.
    pub(crate) fn violated_by(
        &self,
        scope: &VertexSet,
        omega: &VertexSet,
        children: &[ChildSolution<'_>],
    ) -> bool {
        let include = self.include.iter().map(|u| (1, u));
        let exclude = self.exclude.iter().map(|u| (0, u));
        include.chain(exclude).any(|(included, u)| {
            if !u.is_subset_of(scope) {
                return false;
            }
            let mut word = CandidateWord {
                scope: 1,
                ..CandidateWord::default()
            };
            if u.is_subset_of(omega) {
                word.omega = 1;
            } else if let Some(c) = children.iter().find(|c| u.is_subset_of(c.vertices)) {
                if c.cost.is_finite() {
                    word.decided = 1;
                } else if c.bags.iter().any(|b| u.is_subset_of(b)) {
                    word.bagged = 1;
                }
            }
            violates(included, 1 - included, word)
        })
    }

    /// Checks whether a *complete* triangulation `h` of `g` satisfies the
    /// constraints, in the sense of line 12 of the enumeration algorithm:
    /// every inclusion separator is a clique of `h` and every exclusion
    /// separator is not.
    pub fn satisfied_by_graph(&self, h: &Graph) -> bool {
        self.include.iter().all(|u| h.is_clique(u)) && self.exclude.iter().all(|u| !h.is_clique(u))
    }
}

/// Up to 64 constraints of one dynamic-program candidate (`Ω` chosen for a
/// block, over its child solutions), one bit per constraint.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CandidateWord {
    /// Constraints inside the block's scope `S ∪ C`.
    pub scope: u64,
    /// Constraints inside `Ω`.
    pub omega: u64,
    /// Constraints inside a child block of finite cost: that child's own
    /// check decided them.
    pub decided: u64,
    /// Constraints outside `Ω`, inside a child block of infinite cost, that
    /// one of the child's bags contains.
    pub bagged: u64,
}

/// The `κ[I, X]` rule for one candidate: `true` when an inclusion
/// constraint in scope is not a clique of the assembled triangulation, or
/// an exclusion constraint is. A constraint in scope is a clique iff it lies
/// in `Ω` or in a bag of the infinite child containing it; one inside a
/// finite child is left to that child.
pub(crate) fn violates(include: u64, exclude: u64, w: CandidateWord) -> bool {
    let clique = (w.scope & w.omega) | w.bagged;
    let open = w.scope & !w.omega & !w.decided & !w.bagged;
    include & open != 0 || exclude & clique != 0
}

/// `true` iff `u` is a clique of the triangulation `g ∪ ⋃ K_bag`: every pair
/// of `u` is either a `g`-edge or contained together in some bag.
fn is_clique_in_triangulation(g: &Graph, bags: &[VertexSet], u: &VertexSet) -> bool {
    // Fast path: a set inside a single bag is certainly a clique.
    if bags.iter().any(|b| u.is_subset_of(b)) {
        return true;
    }
    let members = u.to_vec();
    for (i, &x) in members.iter().enumerate() {
        for &y in &members[i + 1..] {
            if g.has_edge(x, y) {
                continue;
            }
            if !bags.iter().any(|b| b.contains(x) && b.contains(y)) {
                return false;
            }
        }
    }
    true
}

/// The compiled cost `κ[I, X]`: the wrapped cost when the constraints are
/// satisfied, `∞` otherwise.
///
/// This is the public cost form of the constraints, for callers that want
/// a constrained cost as a value. The ranked engines pass their
/// constraints to [`min_triangulation_in`](crate::min_triangulation_in)
/// instead, which enforces the same rule from precompiled bit masks and
/// returns the same optimum, bit for bit.
pub struct Constrained<'a, K: BagCost + ?Sized> {
    inner: &'a K,
    constraints: &'a Constraints,
}

impl<'a, K: BagCost + ?Sized> Constrained<'a, K> {
    /// Wraps `inner` with the given constraints.
    pub fn new(inner: &'a K, constraints: &'a Constraints) -> Self {
        Constrained { inner, constraints }
    }
}

impl<K: BagCost + ?Sized> BagCost for Constrained<'_, K> {
    fn name(&self) -> String {
        format!(
            "{}[{} include, {} exclude]",
            self.inner.name(),
            self.constraints.include.len(),
            self.constraints.exclude.len()
        )
    }

    fn cost_of_bags(&self, g: &Graph, scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        if !self.constraints.satisfied_by_bags(g, scope, bags) {
            return CostValue::INFINITE;
        }
        self.inner.cost_of_bags(g, scope, bags)
    }

    fn combine(
        &self,
        g: &Graph,
        scope: &VertexSet,
        omega: CandidateBag<'_>,
        children: &[ChildSolution<'_>],
    ) -> CostValue {
        // A bag-free inner cost propagates an infinite child (the
        // `combine_reads_bags` contract), so the constraints need no check.
        if !self.inner.combine_reads_bags() && children.iter().any(|c| c.cost.is_infinite()) {
            return CostValue::INFINITE;
        }
        // The assembled bags — Ω plus every child's bags — form a tree
        // decomposition of the block, so by Helly's property a constraint
        // `U ⊆ scope` is a clique iff some bag contains it. A bag of child i
        // lies in V_i, and Ω ∩ V_i = S_i, V_i ∩ V_j ⊆ S_i: so if `U ⊆ V_i`,
        // its status is the one child i already checked (the child's cost is
        // finite only if it held), or, for an infinite child of a
        // bag-reading cost, read from its bags; otherwise `U` is a clique
        // iff `U ⊆ Ω`.
        if self
            .constraints
            .violated_by(scope, omega.vertices, children)
        {
            return CostValue::INFINITE;
        }
        self.inner.combine(g, scope, omega, children)
    }

    fn combine_reads_bags(&self) -> bool {
        self.inner.combine_reads_bags()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{FillIn, Width};
    use mtr_graph::paper_example_graph;

    fn t1_bags() -> Vec<VertexSet> {
        vec![
            VertexSet::from_slice(6, &[0, 3, 4, 5]),
            VertexSet::from_slice(6, &[1, 3, 4, 5]),
            VertexSet::from_slice(6, &[1, 2]),
        ]
    }

    fn t2_bags() -> Vec<VertexSet> {
        vec![
            VertexSet::from_slice(6, &[0, 1, 3]),
            VertexSet::from_slice(6, &[0, 1, 4]),
            VertexSet::from_slice(6, &[0, 1, 5]),
            VertexSet::from_slice(6, &[1, 2]),
        ]
    }

    #[test]
    fn unconstrained_wrapper_is_transparent() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        let none = Constraints::none();
        let wrapped = Constrained::new(&Width, &none);
        assert_eq!(
            wrapped.cost_of_bags(&g, &scope, &t1_bags()),
            Width.cost_of_bags(&g, &scope, &t1_bags())
        );
        assert!(none.is_empty());
    }

    #[test]
    fn include_constraint_forces_separator() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        // Require S1 = {w1,w2,w3} to be a clique: T1 satisfies, T2 does not.
        let cons = Constraints::new(vec![VertexSet::from_slice(6, &[3, 4, 5])], vec![]);
        let wrapped = Constrained::new(&FillIn, &cons);
        assert_eq!(
            wrapped.cost_of_bags(&g, &scope, &t1_bags()),
            CostValue::from_usize(3)
        );
        assert!(wrapped.cost_of_bags(&g, &scope, &t2_bags()).is_infinite());
    }

    #[test]
    fn exclude_constraint_bans_separator() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        // Forbid S2 = {u,v} from being a clique: T2 violates, T1 satisfies.
        let cons = Constraints::new(vec![], vec![VertexSet::from_slice(6, &[0, 1])]);
        let wrapped = Constrained::new(&FillIn, &cons);
        assert!(wrapped.cost_of_bags(&g, &scope, &t1_bags()).is_finite());
        assert!(wrapped.cost_of_bags(&g, &scope, &t2_bags()).is_infinite());
    }

    #[test]
    fn constraints_outside_scope_are_ignored() {
        let g = paper_example_graph();
        // Scope = the block {v, v'}: the constraint on {w1,w2,w3} is not
        // inside it, so the block-level cost stays finite.
        let scope = VertexSet::from_slice(6, &[1, 2]);
        let bags = vec![VertexSet::from_slice(6, &[1, 2])];
        let cons = Constraints::new(vec![VertexSet::from_slice(6, &[3, 4, 5])], vec![]);
        let wrapped = Constrained::new(&Width, &cons);
        assert!(wrapped.cost_of_bags(&g, &scope, &bags).is_finite());
    }

    #[test]
    fn satisfied_by_graph_matches_definition() {
        let g = paper_example_graph();
        let mut h1 = g.clone();
        h1.add_edge(3, 4);
        h1.add_edge(3, 5);
        h1.add_edge(4, 5);
        let mut h2 = g.clone();
        h2.add_edge(0, 1);
        let s1 = VertexSet::from_slice(6, &[3, 4, 5]);
        let s2 = VertexSet::from_slice(6, &[0, 1]);
        let require_s1 = Constraints::new(vec![s1.clone()], vec![]);
        assert!(require_s1.satisfied_by_graph(&h1));
        assert!(!require_s1.satisfied_by_graph(&h2));
        let forbid_s2 = Constraints::new(vec![], vec![s2]);
        assert!(forbid_s2.satisfied_by_graph(&h1));
        assert!(!forbid_s2.satisfied_by_graph(&h2));
        let both = Constraints::new(vec![s1], vec![VertexSet::from_slice(6, &[0, 1])]);
        assert!(both.satisfied_by_graph(&h1));
        assert!(!both.satisfied_by_graph(&h2));
    }

    #[test]
    fn combine_agrees_with_cost_of_bags() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        let child_bags = vec![VertexSet::from_slice(6, &[1, 2])];
        let sep = VertexSet::singleton(6, 1);
        let verts = VertexSet::from_slice(6, &[1, 2]);
        let cons = Constraints::new(
            vec![VertexSet::from_slice(6, &[0, 1])],
            vec![VertexSet::from_slice(6, &[3, 4, 5])],
        );
        let wrapped = Constrained::new(&Width, &cons);
        let child = ChildSolution {
            separator: &sep,
            separator_missing_edges: 0,
            vertices: &verts,
            cost: CostValue::from_usize(1),
            bags: &child_bags,
        };
        // Ω = {u, v, w1} contains {u, v} (include satisfied) and the scope
        // includes {w1,w2,w3}? It does (scope = everything), and the
        // assembled bags do not make it a clique, so exclusion holds too.
        let omega = VertexSet::from_slice(6, &[0, 1, 3]);
        let combined = wrapped.combine(&g, &scope, CandidateBag::new(&g, &omega), &[child]);
        let mut bags = child_bags.clone();
        bags.push(omega);
        assert_eq!(combined, wrapped.cost_of_bags(&g, &scope, &bags));
        assert!(combined.is_finite());
    }
}
