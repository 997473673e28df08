//! Property tests for the cost-function layer: the semantics the ranked
//! enumeration relies on (Section 3 and Lemma 6.2 of the paper), checked
//! empirically over random graphs and over the full set of their minimal
//! triangulations.

mod common;

use common::arbitrary_graph;
use mtr_core::cost::{
    AtomCombine, BagCost, CandidateBag, ChildSolution, Constrained, Constraints, CostValue,
    ExpBagSum, FillIn, WeightedFillIn, WeightedWidth, Width, WidthThenFill,
};
use mtr_core::pool::Scratch;
use mtr_core::{
    all_triangulations_ranked, min_triangulation, min_triangulation_in, Enumerate, Preprocessed,
    Triangulation,
};
use mtr_graph::{Graph, VertexSet};
use proptest::prelude::*;

/// Forces the dynamic program onto its bag path: forwards everything to the
/// wrapped cost but declares that `combine` reads the child bags, so the DP
/// stores a bag list per block and the constraint wrapper gets real bags.
struct ReadsBags<'a>(&'a (dyn BagCost + Sync));

impl BagCost for ReadsBags<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn cost_of_bags(&self, g: &Graph, scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        self.0.cost_of_bags(g, scope, bags)
    }
    fn combine(
        &self,
        g: &Graph,
        scope: &VertexSet,
        omega: CandidateBag<'_>,
        children: &[ChildSolution<'_>],
    ) -> CostValue {
        self.0.combine(g, scope, omega, children)
    }
    fn combine_reads_bags(&self) -> bool {
        true
    }
    fn atom_combine(&self) -> Option<AtomCombine> {
        self.0.atom_combine()
    }
    fn include_lower_bound(&self, g: &Graph, include: &[VertexSet]) -> Option<CostValue> {
        self.0.include_lower_bound(g, include)
    }
    fn label_invariant(&self) -> bool {
        self.0.label_invariant()
    }
}

/// The bit-level identity of a `MinTriang` outcome: cost bits and the
/// triangulation graph.
fn solved(t: Option<Triangulation>) -> Option<(u64, Graph)> {
    t.map(|t| (t.cost.value().to_bits(), t.graph))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Evaluating a cost on the bags of an enumerated triangulation agrees
    /// with the direct definition of that cost on the triangulation graph:
    /// width = largest clique - 1, fill = |E(H)| - |E(G)|, and the weighted
    /// variants with unit weights coincide with bag size / plain fill.
    #[test]
    fn classic_costs_agree_with_direct_definitions(g in arbitrary_graph(3, 7)) {
        let scope = g.vertex_set();
        let unit_vertex_weights = WeightedWidth::new(vec![1.0; g.n() as usize]);
        let unit_edge_costs = WeightedFillIn::new(1.0, Vec::new());
        for t in all_triangulations_ranked(&g, &FillIn) {
            let width = Width.cost_of_bags(&g, &scope, &t.bags);
            prop_assert_eq!(width, CostValue::from_usize(t.width()));
            let fill = FillIn.cost_of_bags(&g, &scope, &t.bags);
            prop_assert_eq!(fill, CostValue::from_usize(t.fill_in(&g)));
            // Unit vertex weights: bag weight = bag size, so the cost is
            // width + 1 (no "-1" in the weighted definition).
            let ww = unit_vertex_weights.cost_of_bags(&g, &scope, &t.bags);
            prop_assert_eq!(ww, CostValue::from_usize(t.width() + 1));
            // Unit edge costs: weighted fill equals plain fill.
            let wf = unit_edge_costs.cost_of_bags(&g, &scope, &t.bags);
            prop_assert_eq!(wf, fill);
        }
    }

    /// `WidthThenFill` realizes the lexicographic (width, fill) order over
    /// the minimal triangulations of a graph.
    #[test]
    fn width_then_fill_is_lexicographic(g in arbitrary_graph(3, 7)) {
        let scope = g.vertex_set();
        let all = all_triangulations_ranked(&g, &FillIn);
        for a in &all {
            for b in &all {
                let ca = WidthThenFill.cost_of_bags(&g, &scope, &a.bags);
                let cb = WidthThenFill.cost_of_bags(&g, &scope, &b.bags);
                let lex_a = (a.width(), a.fill_in(&g));
                let lex_b = (b.width(), b.fill_in(&g));
                if lex_a < lex_b {
                    prop_assert!(ca < cb, "lexicographic order not respected: {lex_a:?} vs {lex_b:?}");
                }
                if lex_a == lex_b {
                    prop_assert_eq!(ca, cb);
                }
            }
        }
    }

    /// Lemma 6.2 semantics: the compiled cost κ[I, X] equals the inner cost
    /// on triangulations satisfying the constraints and ∞ on the others, and
    /// the constrained enumeration returns exactly the satisfying subset in
    /// the same relative order.
    #[test]
    fn constrained_cost_partitions_the_space(g in arbitrary_graph(4, 7)) {
        let pre = Preprocessed::new(&g);
        let all = all_triangulations_ranked(&g, &FillIn);
        prop_assume!(!all.is_empty());
        // Pick the first result's first separator as the include constraint
        // and its second (if any) as the exclude constraint.
        let seps = &all[0].minimal_separators;
        prop_assume!(!seps.is_empty());
        let include = vec![seps[0].clone()];
        let exclude = if seps.len() > 1 { vec![seps[1].clone()] } else { Vec::new() };
        let constraints = Constraints::new(include, exclude);
        let constrained = Constrained::new(&FillIn, &constraints);
        let scope = g.vertex_set();
        // Point-wise semantics.
        for t in &all {
            let value = constrained.cost_of_bags(&g, &scope, &t.bags);
            if constraints.satisfied_by_graph(&t.triangulation) {
                prop_assert_eq!(value, CostValue::from_usize(t.fill_in(&g)));
            } else {
                prop_assert!(value.is_infinite());
            }
        }
        // Enumerating with the compiled cost yields exactly the satisfying
        // triangulations (the infinite-cost ones are suppressed by the
        // enumerator), in non-decreasing fill order.
        let constrained_results = Enumerate::with(&pre).cost(&constrained).run().unwrap().results;
        let expected: Vec<_> = all
            .iter()
            .filter(|t| constraints.satisfied_by_graph(&t.triangulation))
            .collect();
        prop_assert_eq!(constrained_results.len(), expected.len());
        for w in constrained_results.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost);
        }
        for r in &constrained_results {
            prop_assert!(constraints.satisfied_by_graph(&r.triangulation));
        }
    }

    /// Optimizing one cost never beats the dedicated optimum of another
    /// cost: min-width over the fill-ranked stream is ≥ the width optimum,
    /// and vice versa (a cross-consistency check between `MinTriang` runs).
    #[test]
    fn cross_cost_optima_are_consistent(g in arbitrary_graph(3, 8)) {
        let pre = Preprocessed::new(&g);
        let best_width = mtr_core::min_triangulation(&pre, &Width).unwrap();
        let best_fill = mtr_core::min_triangulation(&pre, &FillIn).unwrap();
        prop_assert!(best_width.width() <= best_fill.width());
        prop_assert!(best_fill.fill_in(&g) <= best_width.fill_in(&g));
        // And the lexicographic optimum has the optimal width with the
        // smallest fill among width-optimal triangulations.
        let lex = mtr_core::min_triangulation(&pre, &WidthThenFill).unwrap();
        prop_assert_eq!(lex.width(), best_width.width());
        let min_fill_at_best_width = all_triangulations_ranked(&g, &FillIn)
            .into_iter()
            .filter(|t| t.width() == best_width.width())
            .map(|t| t.fill_in(&g))
            .min()
            .unwrap();
        prop_assert_eq!(lex.fill_in(&g), min_fill_at_best_width);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bag-free `combine` (backpointer-only DP, constraint checks from block
    /// structure, hoisted fill terms) is bit-for-bit the bag path: the same
    /// constrained and unconstrained optimum — cost and triangulation — and
    /// the same top-k ranked stream, for random `I/X` drawn from the
    /// graph's minimal separators.
    #[test]
    fn bag_free_dp_matches_bag_path(
        g in arbitrary_graph(4, 9),
        picks in prop::collection::vec(0u8..6, 16),
    ) {
        let pre = Preprocessed::new(&g);
        let (mut include, mut exclude) = (Vec::new(), Vec::new());
        for (sep, pick) in pre.minimal_separators().iter().zip(picks) {
            match pick {
                0 => include.push(sep.clone()),
                1 => exclude.push(sep.clone()),
                _ => {}
            }
        }
        let constraints = Constraints::new(include, exclude);
        let satisfying: Vec<_> = all_triangulations_ranked(&g, &FillIn)
            .into_iter()
            .filter(|t| constraints.satisfied_by_graph(&t.triangulation))
            .collect();
        let weighted = WeightedWidth::new((0..g.n()).map(|v| 1.0 + f64::from(v % 3)).collect());
        let costs: [&(dyn BagCost + Sync); 4] = [&Width, &FillIn, &ExpBagSum, &weighted];
        for cost in costs {
            let bag_path = ReadsBags(cost);
            prop_assert!(!cost.combine_reads_bags(), "{} reads bags", cost.name());
            prop_assert_eq!(
                solved(min_triangulation(&pre, cost)),
                solved(min_triangulation(&pre, &bag_path))
            );
            let constrained = min_triangulation(&pre, &Constrained::new(cost, &constraints));
            // The exhaustive oracle pins the constrained optimum's cost.
            let oracle = satisfying
                .iter()
                .map(|t| cost.cost_of_bags(&g, &g.vertex_set(), &t.bags))
                .min();
            prop_assert_eq!(constrained.as_ref().map(|t| t.cost), oracle);
            prop_assert_eq!(
                solved(constrained),
                solved(min_triangulation(&pre, &Constrained::new(&bag_path, &constraints)))
            );
            let stream = |k: &(dyn BagCost + Sync)| -> Vec<(u64, Graph)> {
                Enumerate::with(&pre)
                    .cost(k)
                    .max_results(8)
                    .run()
                    .unwrap()
                    .results
                    .into_iter()
                    .map(|r| (r.cost.value().to_bits(), r.triangulation))
                    .collect()
            };
            prop_assert_eq!(stream(cost), stream(&bag_path));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The dynamic program's own enforcement of `[I, X]` (bit masks
    /// compiled from containment rows) is bit for bit the public cost form:
    /// `min_triangulation_in(pre, cost, &[I, X])` equals
    /// `min_triangulation(pre, &Constrained::new(cost, &[I, X]))` — cost bits
    /// and graph, or both `None`. The cases cover more than 64 constraints
    /// (a word boundary), vertex sets that are not minimal separators
    /// (uncached rows, possibly spanning components), a bag-reading cost
    /// (the infinite-child subset rule), and `Constrained` user costs under
    /// the engine's constraints (nesting).
    #[test]
    fn engine_constraints_match_constrained_cost(
        g in arbitrary_graph(4, 9),
        picks in prop::collection::vec(0u8..7, 16),
        loose in prop::collection::vec((0u8..4, 0u32..9, 0u32..9, 0u32..9), 3),
        wide in 0u8..3,
    ) {
        let pre = Preprocessed::new(&g);
        let n = g.n();
        let (mut include, mut exclude) = (Vec::new(), Vec::new());
        let (mut user_include, mut user_exclude) = (Vec::new(), Vec::new());
        for (sep, pick) in pre.minimal_separators().iter().zip(picks) {
            match pick {
                0 => include.push(sep.clone()),
                1 => exclude.push(sep.clone()),
                2 => user_include.push(sep.clone()),
                3 => user_exclude.push(sep.clone()),
                _ => {}
            }
        }
        for (pick, a, b, c) in loose {
            let set = VertexSet::from_slice(n, &[a % n, b % n, c % n]);
            match pick {
                _ if set.len() < 2 => {}
                0 => include.push(set),
                1 => exclude.push(set),
                _ => {}
            }
        }
        let drawn = include.len() + exclude.len();
        if wide == 0 && drawn > 0 {
            let copies = 64 / drawn + 1;
            include = (0..copies).flat_map(|_| include.iter().cloned()).collect();
            exclude = (0..copies).flat_map(|_| exclude.iter().cloned()).collect();
            prop_assert!(include.len() + exclude.len() > 64);
        }
        let constraints = Constraints::new(include, exclude);
        let user = Constraints::new(user_include, user_exclude);
        let user_fill = Constrained::new(&FillIn, &user);
        let user_lex = Constrained::new(&WidthThenFill, &user);
        let costs: [&dyn BagCost; 5] = [&Width, &FillIn, &WidthThenFill, &user_fill, &user_lex];
        let mut scratch = Scratch::default();
        for cost in costs {
            prop_assert_eq!(
                solved(min_triangulation_in(&pre, cost, &constraints, &mut scratch)),
                solved(min_triangulation(&pre, &Constrained::new(cost, &constraints))),
                "{}",
                cost.name()
            );
        }
    }
}

/// A regression case pinning the exact costs of the paper's two
/// triangulations under every shipped cost function.
#[test]
fn paper_example_costs_are_pinned() {
    let g = mtr_graph::paper_example_graph();
    let all = all_triangulations_ranked(&g, &FillIn);
    assert_eq!(all.len(), 2);
    let (h2, h1) = (&all[0], &all[1]); // fill 1 first, fill 3 second
    let scope = g.vertex_set();
    let table: Vec<(&dyn BagCost, f64, f64)> = vec![
        (&Width, 2.0, 3.0),
        (&FillIn, 1.0, 3.0),
        (&WidthThenFill, 15.0, 24.0), // 7*2+1 and 7*3+3
    ];
    for (cost, expected_h2, expected_h1) in table {
        assert_eq!(
            cost.cost_of_bags(&g, &scope, &h2.bags),
            CostValue::finite(expected_h2),
            "{} on H2",
            cost.name()
        );
        assert_eq!(
            cost.cost_of_bags(&g, &scope, &h1.bags),
            CostValue::finite(expected_h1),
            "{} on H1",
            cost.name()
        );
    }
}

/// The `Graph`-level helpers the costs rely on stay consistent on random
/// inputs generated by the workload crate (a cross-crate smoke check).
#[test]
fn workload_graphs_have_consistent_edge_counts() {
    for seed in 0..5 {
        let g = mtr_workloads::random::gnp_connected(25, 0.15, seed);
        let m_from_edges = g.edges().count();
        assert_eq!(m_from_edges, g.m());
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.m());
        let missing = g.missing_edges_in(&g.vertex_set());
        assert_eq!(missing + g.m(), 25 * 24 / 2);
    }
}

/// Sanity on an adversarial shape: a graph that is one big clique minus a
/// perfect matching (dense, many separators of size n-2).
#[test]
fn clique_minus_matching() {
    let n = 8u32;
    let mut g = Graph::complete(n);
    for i in 0..n / 2 {
        g.remove_edge(2 * i, 2 * i + 1);
    }
    let pre = Preprocessed::new(&g);
    let results = Enumerate::with(&pre).cost(&FillIn).run().unwrap().results;
    // Each minimal triangulation adds chords for a subset of the "missing"
    // matching edges; there are 2^(n/2) - ... at least one and all are
    // minimal triangulations of fill ≤ n/2.
    assert!(!results.is_empty());
    for r in &results {
        assert!(mtr_chordal::is_minimal_triangulation(&g, &r.triangulation));
        assert!(r.fill_in(&g) <= (n / 2) as usize);
    }
    // Order is by fill.
    for w in results.windows(2) {
        assert!(w[0].cost <= w[1].cost);
    }
}
