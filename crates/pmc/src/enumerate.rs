//! Enumeration of all potential maximal cliques (Bouchitté–Todinca).
//!
//! The enumeration follows the "one more vertex" scheme of Bouchitté and
//! Todinca (*Listing all potential maximal cliques of a graph*, TCS 2002):
//! vertices are introduced one at a time (`G_1 ⊂ G_2 ⊂ … ⊂ G_n`, each `G_i`
//! induced by the first `i` vertices), and `PMC(G_i)` is computed from
//! `PMC(G_{i-1})`, `MinSep(G_{i-1})` and `MinSep(G_i)`.
//!
//! Soundness is guaranteed by filtering every candidate through the exact
//! polynomial PMC test ([`crate::test::is_potential_maximal_clique`]).
//! For completeness we generate a *superset* of the candidate families of
//! the published theorem:
//!
//! * every `Ω' ∈ PMC(G_{i-1})`, and `Ω' ∪ {a}`;
//! * `S ∪ {a}` for every `S ∈ MinSep(G_i)`;
//! * `S ∪ (T ∩ C)` for `S` ranging over `MinSep(G_i) ∪ MinSep(G_{i-1})`
//!   (with `a ∉ S`), `T ∈ MinSep(G_i)`, and `C` the component of
//!   `G_i \ S` containing the new vertex `a`, as well as the variant using
//!   every full component of `G_i \ S`.
//!
//! The extra variants cost a constant factor and make the generation robust;
//! completeness is additionally cross-validated against the brute-force
//! enumeration by property tests over random graphs (see
//! `tests/pmc_properties.rs` at the workspace root and the unit tests below).

use crate::test::is_potential_maximal_clique;
use mtr_graph::{Graph, VertexSet};
use mtr_separators::enumerate::minimal_separators;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Error returned by [`potential_maximal_cliques_with_deadline`] when the
/// wall-clock budget is exhausted before the enumeration finishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmcDeadlineExceeded {
    /// The budget that was exceeded.
    pub budget: Duration,
}

impl std::fmt::Display for PmcDeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PMC enumeration exceeded its {:?} budget", self.budget)
    }
}

impl std::error::Error for PmcDeadlineExceeded {}

/// Result of a PMC enumeration: the cliques plus the separator sets of every
/// prefix, which the callers (notably the triangulation DP) reuse.
#[derive(Clone, Debug)]
pub struct PmcEnumeration {
    /// All potential maximal cliques of the input graph, sorted.
    pub pmcs: Vec<VertexSet>,
    /// All minimal separators of the input graph, sorted.
    pub minimal_separators: Vec<VertexSet>,
}

/// Enumerates all potential maximal cliques of `g`, along with its minimal
/// separators.
pub fn potential_maximal_cliques(g: &Graph) -> PmcEnumeration {
    potential_maximal_cliques_within(g, None, None).expect("no deadline was set")
}

/// Enumerates all potential maximal cliques of `g`, aborting with an error
/// if the wall-clock `budget` runs out first. Used by the tractability
/// experiments (Figure 5) where the paper classifies graphs by whether the
/// PMC computation finishes within a time limit.
pub fn potential_maximal_cliques_with_deadline(
    g: &Graph,
    budget: Duration,
) -> Result<PmcEnumeration, PmcDeadlineExceeded> {
    potential_maximal_cliques_within(g, None, Some(budget))
}

/// Enumerates the potential maximal cliques of `g` of size at most
/// `max_size`, using only minimal separators of size at most `max_size`
/// during the incremental generation.
///
/// This is the `MinTriangB` variant of the machinery (Section 5.3): when the
/// caller only cares about tree decompositions of width `b`, passing
/// `max_size = b + 1` bounds the work independently of the poly-MS
/// assumption.
pub fn potential_maximal_cliques_bounded(g: &Graph, max_size: usize) -> PmcEnumeration {
    potential_maximal_cliques_within(g, Some(max_size), None).expect("no deadline was set")
}

/// The general form behind the other entry points: the PMCs of size at
/// most `max_size` (as in [`potential_maximal_cliques_bounded`]; all of
/// them when `None`), aborting once the wall-clock `budget` runs out (as in
/// [`potential_maximal_cliques_with_deadline`]; never when `None`).
/// Enumeration sessions pass their optional bound and deadline straight
/// through.
pub fn potential_maximal_cliques_within(
    g: &Graph,
    max_size: Option<usize>,
    budget: Option<Duration>,
) -> Result<PmcEnumeration, PmcDeadlineExceeded> {
    let start = Instant::now();
    let n = g.n();
    if n == 0 {
        return Ok(PmcEnumeration {
            pmcs: Vec::new(),
            minimal_separators: Vec::new(),
        });
    }
    let keep_pmc = |s: &VertexSet| max_size.is_none_or(|m| s.len() <= m);
    let keep_sep = |s: &VertexSet| max_size.is_none_or(|m| s.len() <= m);

    // Separators of the previous prefix, lifted to the current universe.
    let mut prev_seps: Vec<VertexSet> = Vec::new();
    // PMCs of the previous prefix, lifted to the current universe.
    let mut prev_pmcs: Vec<VertexSet> = vec![VertexSet::singleton(n, 0)];
    let mut cur_seps: Vec<VertexSet> = Vec::new();

    for i in 2..=n {
        if let Some(budget) = budget {
            if start.elapsed() > budget {
                return Err(PmcDeadlineExceeded { budget });
            }
        }
        let a = i - 1; // the newly introduced vertex
        let gi = g.induced_prefix(i);
        // Minimal separators of the prefix graph, in the full universe.
        cur_seps = minimal_separators(&gi)
            .into_iter()
            .map(|s| s.resized(n))
            .filter(|s| keep_sep(s))
            .collect();

        let mut candidates: HashSet<VertexSet> = HashSet::new();
        // Family 0: the new vertex on its own (needed when `a` is isolated in
        // the prefix, e.g. while its only neighbors are later vertices).
        candidates.insert(VertexSet::singleton(n, a));
        // Family 1: previous PMCs, with and without the new vertex.
        for omega in &prev_pmcs {
            candidates.insert(omega.clone());
            let mut with_a = omega.clone();
            with_a.insert(a);
            candidates.insert(with_a);
        }
        // Family 2: S ∪ {a} for S ∈ MinSep(G_i).
        for s in &cur_seps {
            let mut cand = s.clone();
            cand.insert(a);
            candidates.insert(cand);
        }
        // Family 3: S ∪ (T ∩ C) for S in MinSep(G_i) ∪ MinSep(G_{i-1}),
        // a ∉ S, T ∈ MinSep(G_i), and C either the component of G_i \ S
        // containing a or any full component of G_i \ S.
        let prefix_universe = VertexSet::from_iter(n, 0..i);
        for s in cur_seps.iter().chain(prev_seps.iter()) {
            if s.contains(a) {
                continue;
            }
            let mut removed = s.clone();
            removed.union_with(&prefix_universe.complement());
            let comps = gi_components(&gi, &removed, n);
            let mut interesting: Vec<&VertexSet> = Vec::new();
            for c in &comps {
                let is_a_comp = c.contains(a);
                let nb = neighborhood_in_prefix(g, c, &prefix_universe);
                let is_full = s.is_subset_of(&nb);
                if is_a_comp || is_full {
                    interesting.push(c);
                }
            }
            for c in interesting {
                let mut pieces: HashSet<VertexSet> = HashSet::new();
                for t in &cur_seps {
                    let piece = t.intersection(c);
                    if !piece.is_empty() {
                        pieces.insert(piece);
                    }
                }
                for piece in pieces {
                    let mut cand = s.clone();
                    cand.union_with(&piece);
                    candidates.insert(cand);
                }
            }
        }

        // Filter candidates through the exact PMC test on the prefix graph.
        let mut next_pmcs: Vec<VertexSet> = Vec::new();
        let mut since_check = 0usize;
        for cand in candidates {
            since_check += 1;
            if since_check.is_multiple_of(256) {
                if let Some(budget) = budget {
                    if start.elapsed() > budget {
                        return Err(PmcDeadlineExceeded { budget });
                    }
                }
            }
            if !keep_pmc(&cand) {
                continue;
            }
            // Candidate must be inside the prefix.
            if !cand.is_subset_of(&prefix_universe) {
                continue;
            }
            let shrunk = restrict_universe(&cand, i);
            if is_potential_maximal_clique(&gi, &shrunk) {
                next_pmcs.push(cand);
            }
        }
        next_pmcs.sort();
        next_pmcs.dedup();
        prev_pmcs = next_pmcs;
        prev_seps = cur_seps.clone();
    }

    // For n == 1 the loop body never runs; the single vertex is the only PMC.
    let minimal_separators = if n == 1 { Vec::new() } else { cur_seps };
    let mut pmcs = prev_pmcs;
    pmcs.sort();
    Ok(PmcEnumeration {
        pmcs,
        minimal_separators,
    })
}

/// Components of the prefix graph `gi` (which has `i ≤ n` vertices) after
/// removing `removed` (given in the full `n`-vertex universe), returned in
/// the full universe.
fn gi_components(gi: &Graph, removed: &VertexSet, n: u32) -> Vec<VertexSet> {
    let removed_small = restrict_universe(removed, gi.n());
    gi.components_excluding(&removed_small)
        .into_iter()
        .map(|c| c.resized(n))
        .collect()
}

/// Neighborhood of `set` within the prefix, computed on the full graph but
/// clipped to the prefix universe.
fn neighborhood_in_prefix(g: &Graph, set: &VertexSet, prefix: &VertexSet) -> VertexSet {
    let mut nb = g.neighborhood_of_set(set);
    nb.intersect_with(prefix);
    nb
}

/// Projects a set in the `n`-vertex universe down to the first `k` vertices.
fn restrict_universe(s: &VertexSet, k: u32) -> VertexSet {
    VertexSet::from_iter(k, s.iter().filter(|&v| v < k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::potential_maximal_cliques_bruteforce;
    use mtr_graph::paper_example_graph;

    fn check_matches_bruteforce(g: &Graph) {
        let fast = potential_maximal_cliques(g);
        let brute = potential_maximal_cliques_bruteforce(g);
        assert_eq!(fast.pmcs, brute, "PMC mismatch on {g:?}");
    }

    #[test]
    fn paper_example_pmcs() {
        let g = paper_example_graph();
        let result = potential_maximal_cliques(&g);
        assert_eq!(result.pmcs.len(), 6);
        assert_eq!(result.minimal_separators.len(), 3);
        check_matches_bruteforce(&g);
    }

    #[test]
    fn small_fixed_graphs_match_bruteforce() {
        let cases: Vec<Graph> = vec![
            Graph::new(1),
            Graph::new(3),
            Graph::from_edges(2, &[(0, 1)]),
            Graph::complete(5),
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]), // C4
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), // C5
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]), // C6
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]), // path
            Graph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)]), // tree
            // K4 minus an edge plus a pendant.
            Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]),
            // Two triangles sharing one vertex.
            Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
            // 3x2 grid.
            Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]),
        ];
        for g in cases {
            check_matches_bruteforce(&g);
        }
    }

    #[test]
    fn disconnected_graph_matches_bruteforce() {
        // Two disjoint paths.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        check_matches_bruteforce(&g);
        // Isolated vertex plus a triangle.
        let g2 = Graph::from_edges(4, &[(1, 2), (2, 3), (1, 3)]);
        check_matches_bruteforce(&g2);
    }

    #[test]
    fn bounded_enumeration_is_a_size_filter() {
        let g = paper_example_graph();
        let all = potential_maximal_cliques(&g);
        for bound in 1..=6 {
            let bounded = potential_maximal_cliques_bounded(&g, bound);
            let expected: Vec<VertexSet> = all
                .pmcs
                .iter()
                .filter(|p| p.len() <= bound)
                .cloned()
                .collect();
            assert_eq!(bounded.pmcs, expected, "bound {bound}");
        }
    }

    #[test]
    fn empty_graph() {
        let result = potential_maximal_cliques(&Graph::new(0));
        assert!(result.pmcs.is_empty());
    }

    #[test]
    fn mildly_dense_graph_matches_bruteforce() {
        // Wheel W5: hub 0 connected to a C5.
        let mut edges = vec![(1u32, 2u32), (2, 3), (3, 4), (4, 5), (5, 1)];
        for v in 1..=5 {
            edges.push((0, v));
        }
        let g = Graph::from_edges(6, &edges);
        check_matches_bruteforce(&g);
    }
}
