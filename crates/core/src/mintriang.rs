//! `MinTriang⟨κ⟩` — computing a minimum-cost minimal triangulation
//! (Section 5, Figure 3 of the paper), generalized Bouchitté–Todinca.
//!
//! The dynamic program processes the full blocks `(S, C)` of the graph in
//! ascending `|S ∪ C|` order. For each block it chooses the potential
//! maximal clique `Ω` with `S ⊂ Ω ⊆ S ∪ C` that minimizes the cost of the
//! triangulation assembled from `Ω` and the previously computed optimal
//! triangulations of the sub-blocks (Equation (1)); the top level picks the
//! best `Ω ∈ PMC(G)` for the whole graph. Any split-monotone bag cost can be
//! plugged in, including the constrained costs `κ[I, X]` used by the ranked
//! enumeration.
//!
//! The expensive part — minimal separators, potential maximal cliques, full
//! blocks, and the combinatorial structure of which PMCs can realize which
//! blocks — does not depend on the cost function, so it is computed once
//! into a [`Preprocessed`] value and shared by every `MinTriang` invocation
//! (exactly the "initialization step" the paper's experiments report).
//! The missing-edge counts of every PMC and every block separator are graph
//! properties too, and are stored there for [`BagCost::combine`].
//!
//! Each invocation keeps only a *backpointer* per block: its optimal cost
//! and the index of its winning candidate. The triangulation is rebuilt
//! once, at the end, by backtracking from the top-level winners and
//! saturating each chosen `Ω`. Bag lists per block are kept only for costs
//! whose [`BagCost::combine_reads_bags`] is `true` (the default `combine`);
//! each is assembled once, from the block's winner. A cost that declares it
//! `false` is handed `bags: &[]` and must propagate an infinite child cost,
//! which is what lets constraint enforcement skip bags entirely.
//!
//! The ranked engines' inclusion/exclusion constraints `[I, X]` (the cost
//! `κ[I, X]` of Lemma 6.2) are enforced by the DP itself, not by a cost
//! wrapper. Each solve compiles them into bit masks, bit `k` standing for
//! constraint `k`: one mask per full block (the constraints inside its
//! scope `S ∪ C`), one per PMC (those inside `Ω`), and one per connected
//! component. The masks are transposed from per-separator *containment
//! rows* — which blocks and which PMCs contain the separator — that
//! [`Preprocessed`] computes on a separator's first use as a constraint
//! and caches, so the unconstrained first solve pays nothing and the
//! memory grows only with the separators actually constrained. A candidate
//! is then priced `∞` by a few word operations per 64 constraints (see
//! [`Constrained`](crate::cost::Constrained), the public cost form of the
//! same rule), with no vertex-set test in the candidate loop. The one
//! exception is a candidate with an infinite child under a cost that reads
//! bags: that child's constraints are decided from its bags, by subset
//! tests.

use crate::cost::{
    violates, BagCost, CandidateBag, CandidateWord, ChildSolution, Constraints, CostValue,
};
use crate::pool::{self, Scratch};
use mtr_chordal::cliques::maximal_cliques_chordal;
use mtr_graph::{Graph, VertexSet};
use mtr_pmc::enumerate::{potential_maximal_cliques, potential_maximal_cliques_bounded};
use mtr_separators::blocks::{full_blocks, Block};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// A minimal triangulation together with its bag structure and cost.
#[derive(Clone, Debug)]
pub struct Triangulation {
    /// The triangulation `H` itself (a chordal supergraph of the input).
    pub graph: Graph,
    /// The maximal cliques of `H` (the bags of its clique trees).
    pub bags: Vec<VertexSet>,
    /// The cost assigned by the bag cost that produced this triangulation.
    pub cost: CostValue,
}

impl Triangulation {
    /// Width of the triangulation: largest bag size minus one.
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Fill-in relative to `g`: number of edges of the triangulation absent
    /// from `g`.
    pub fn fill_in(&self, g: &Graph) -> usize {
        self.graph.m() - g.m()
    }

    /// The fill edges relative to `g`, as a canonical sorted list. Two
    /// minimal triangulations of the same graph are equal iff their fill
    /// sets are equal, so this doubles as an identity key.
    pub fn fill_edges(&self, g: &Graph) -> Vec<(u32, u32)> {
        let mut fill = g.fill_edges_of(&self.graph);
        fill.sort_unstable();
        fill
    }
}

/// One candidate choice of `Ω` for a block (or for the top level): the PMC
/// index plus the indices of the full blocks its components induce.
#[derive(Clone, Debug)]
struct Candidate {
    pmc: usize,
    children: Vec<usize>,
}

/// The cost-independent initialization shared by all `MinTriang` /
/// `RankedTriang` invocations on one graph: minimal separators, potential
/// maximal cliques, full blocks, and the candidate structure of the dynamic
/// program.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    graph: Graph,
    minimal_separators: Vec<VertexSet>,
    pmcs: Vec<VertexSet>,
    /// `graph.missing_edges_in(&pmcs[i])`, cached for [`BagCost::combine`].
    pmc_missing_edges: Vec<usize>,
    blocks: Vec<Block>,
    /// `blocks[i].vertices()`, cached (used as the DP scope of block `i`).
    block_vertices: Vec<VertexSet>,
    /// `graph.missing_edges_in(&blocks[i].separator)`, cached for
    /// [`BagCost::combine`].
    separator_missing_edges: Vec<usize>,
    /// For every full block, the candidate PMCs (with their child blocks).
    block_candidates: Vec<Vec<Candidate>>,
    /// Connected components of the graph.
    components: Vec<VertexSet>,
    /// For every connected component, the top-level candidates.
    top_candidates: Vec<Vec<Candidate>>,
    /// The width bound used during preprocessing, if any.
    width_bound: Option<usize>,
    /// The position of every minimal separator in `minimal_separators`.
    separator_index: HashMap<VertexSet, usize>,
    /// Per minimal separator, its containment row, computed on its first
    /// use as a constraint.
    containment: Vec<OnceLock<Containment>>,
}

/// The full blocks and the PMCs that contain one vertex set: bit `b` of
/// `blocks` is set iff the set lies in `V_b`, bit `p` of `pmcs` iff it lies
/// in the `p`-th PMC.
#[derive(Clone, Debug)]
struct Containment {
    blocks: Vec<u64>,
    pmcs: Vec<u64>,
}

impl Preprocessed {
    /// Full (unbounded) preprocessing of `g`: all minimal separators and all
    /// potential maximal cliques. Polynomial under the poly-MS assumption.
    pub fn new(g: &Graph) -> Self {
        let enumeration = potential_maximal_cliques(g);
        Self::build(g, enumeration.minimal_separators, enumeration.pmcs, None, 1)
    }

    /// Width-bounded preprocessing (`MinTriangB`): only separators of size
    /// `≤ width_bound` and PMCs of size `≤ width_bound + 1` are considered,
    /// which bounds the work without the poly-MS assumption (Section 5.3).
    pub fn new_bounded(g: &Graph, width_bound: usize) -> Self {
        let enumeration = potential_maximal_cliques_bounded(g, width_bound + 1);
        let seps = enumeration
            .minimal_separators
            .into_iter()
            .filter(|s| s.len() <= width_bound)
            .collect();
        Self::build(g, seps, enumeration.pmcs, Some(width_bound), 1)
    }

    /// Builds the candidate structure from precomputed separators and PMCs.
    pub fn from_parts(g: &Graph, minimal_separators: Vec<VertexSet>, pmcs: Vec<VertexSet>) -> Self {
        Self::build(g, minimal_separators, pmcs, None, 1)
    }

    /// Like [`Preprocessed::from_parts`], but for parts produced by a
    /// width-bounded enumeration: separators larger than `width_bound` are
    /// dropped (mirroring [`Preprocessed::new_bounded`]) and the bound is
    /// recorded.
    pub fn from_parts_bounded(
        g: &Graph,
        minimal_separators: Vec<VertexSet>,
        pmcs: Vec<VertexSet>,
        width_bound: usize,
    ) -> Self {
        let seps = minimal_separators
            .into_iter()
            .filter(|s| s.len() <= width_bound)
            .collect();
        Self::build(g, seps, pmcs, Some(width_bound), 1)
    }

    /// The threaded constructor behind the session layer: like
    /// [`Preprocessed::from_parts`] / [`Preprocessed::from_parts_bounded`]
    /// (the bound filter applies when `width_bound` is set), but the
    /// per-block candidate resolution — the embarrassingly parallel part of
    /// the initialization — fans out over `threads` pool workers.
    pub fn from_parts_threaded(
        g: &Graph,
        minimal_separators: Vec<VertexSet>,
        pmcs: Vec<VertexSet>,
        width_bound: Option<usize>,
        threads: usize,
    ) -> Self {
        let seps = match width_bound {
            Some(b) => minimal_separators
                .into_iter()
                .filter(|s| s.len() <= b)
                .collect(),
            None => minimal_separators,
        };
        Self::build(g, seps, pmcs, width_bound, threads)
    }

    fn build(
        g: &Graph,
        minimal_separators: Vec<VertexSet>,
        pmcs: Vec<VertexSet>,
        width_bound: Option<usize>,
        threads: usize,
    ) -> Self {
        let blocks = full_blocks(g, &minimal_separators);
        let block_vertices: Vec<VertexSet> = blocks.iter().map(Block::vertices).collect();
        let pmc_missing_edges = pmcs.iter().map(|p| g.missing_edges_in(p)).collect();
        let separator_missing_edges = blocks
            .iter()
            .map(|b| g.missing_edges_in(&b.separator))
            .collect();
        let block_index: HashMap<Block, usize> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.clone(), i))
            .collect();

        // Candidates per block: PMCs Ω with S ⊂ Ω ⊆ S ∪ C, each with the
        // child blocks induced by the components of (S ∪ C) \ Ω. Blocks are
        // independent of each other, so with `threads > 1` the resolution
        // runs as chunked work-stealing pool tasks.
        let mut scratch = Scratch::default();
        let block_candidates: Vec<Vec<Candidate>> = if threads > 1 && blocks.len() > 1 {
            let chunk = blocks.len().div_ceil(threads * 4).max(1);
            let ranges: Vec<std::ops::Range<usize>> = (0..blocks.len())
                .step_by(chunk)
                .map(|start| start..(start + chunk).min(blocks.len()))
                .collect();
            let chunked: Vec<Vec<Vec<Candidate>>> = pool::scoped(threads, |p| {
                let tasks: Vec<_> = ranges
                    .into_iter()
                    .map(|range| {
                        let blocks = &blocks;
                        let pmcs = &pmcs;
                        let block_index = &block_index;
                        move |scratch: &mut Scratch| {
                            range
                                .map(|bi| {
                                    candidates_for_block(g, &blocks[bi], pmcs, block_index, scratch)
                                })
                                .collect::<Vec<_>>()
                        }
                    })
                    .collect();
                // These tasks run only workspace code (no user cost
                // function), so a panic here is a bug, not tenant input;
                // re-raise it on the calling thread with its message.
                p.run_batch(tasks)
                    .unwrap_or_else(|panic| std::panic::panic_any(panic.message))
            });
            chunked.into_iter().flatten().collect()
        } else {
            blocks
                .iter()
                .map(|b| candidates_for_block(g, b, &pmcs, &block_index, &mut scratch))
                .collect()
        };

        // Top-level candidates per connected component (few components, so
        // this stays sequential).
        let components = g.components();
        let mut top_candidates: Vec<Vec<Candidate>> = Vec::with_capacity(components.len());
        for comp in &components {
            let mut candidates = Vec::new();
            for (pi, omega) in pmcs.iter().enumerate() {
                if omega.is_empty() || !omega.is_subset_of(comp) {
                    continue;
                }
                if let Some(children) =
                    resolve_children(g, comp, omega, &block_index, None, &mut scratch)
                {
                    candidates.push(Candidate { pmc: pi, children });
                }
            }
            top_candidates.push(candidates);
        }

        let separator_index = minimal_separators
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i))
            .collect();
        let containment = minimal_separators.iter().map(|_| OnceLock::new()).collect();
        Preprocessed {
            graph: g.clone(),
            separator_index,
            containment,
            minimal_separators,
            pmcs,
            pmc_missing_edges,
            blocks,
            block_vertices,
            separator_missing_edges,
            block_candidates,
            components,
            top_candidates,
            width_bound,
        }
    }

    /// The graph this preprocessing belongs to.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The minimal separators found during preprocessing.
    pub fn minimal_separators(&self) -> &[VertexSet] {
        &self.minimal_separators
    }

    /// The potential maximal cliques found during preprocessing.
    pub fn pmcs(&self) -> &[VertexSet] {
        &self.pmcs
    }

    /// The full blocks, in the DP processing order.
    pub fn full_blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The width bound used during preprocessing, if any.
    pub fn width_bound(&self) -> Option<usize> {
        self.width_bound
    }

    /// The blocks and PMCs containing `u`: cached for a minimal separator,
    /// computed on the spot for any other set.
    fn containment(&self, u: &VertexSet) -> Cow<'_, Containment> {
        let compute = || Containment {
            blocks: supersets_of(u, &self.block_vertices),
            pmcs: supersets_of(u, &self.pmcs),
        };
        match self.separator_index.get(u) {
            Some(&i) => Cow::Borrowed(self.containment[i].get_or_init(compute)),
            None => Cow::Owned(compute()),
        }
    }
}

/// The bitset of the members of `sets` that contain `u`.
fn supersets_of(u: &VertexSet, sets: &[VertexSet]) -> Vec<u64> {
    let mut bits = vec![0u64; sets.len().div_ceil(64)];
    for (i, s) in sets.iter().enumerate() {
        if u.is_subset_of(s) {
            bits[i / 64] |= 1 << (i % 64);
        }
    }
    bits
}

/// The positions of the set bits of a bitset, in increasing order.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(wi, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                wi * 64 + bit
            })
        })
    })
}

/// The constraints `[I, X]` of one solve, compiled against the block
/// structure. Bit `k` of every mask stands for constraint `k` (the
/// inclusions first, then the exclusions); each mask is `words` words.
struct ConstraintMasks<'c> {
    constraints: &'c Constraints,
    words: usize,
    /// The masks end to end, indexed by mask number: one per full block
    /// (the constraints inside `V_b`), then one per PMC (inside `Ω`), one
    /// per connected component (inside it), and the inclusion and exclusion
    /// masks.
    bits: Vec<u64>,
    pmc_base: usize,
    component_base: usize,
    kind_base: usize,
}

impl<'c> ConstraintMasks<'c> {
    /// Compiles `constraints` into `bits`, a reused buffer, by transposing
    /// the containment row of every constraint.
    fn compile(pre: &Preprocessed, constraints: &'c Constraints, mut bits: Vec<u64>) -> Self {
        let n_include = constraints.include.len();
        let words = (n_include + constraints.exclude.len()).div_ceil(64);
        let pmc_base = pre.blocks.len();
        let component_base = pmc_base + pre.pmcs.len();
        let kind_base = component_base + pre.components.len();
        bits.clear();
        bits.resize((kind_base + 2) * words, 0);
        for (k, u) in constraints
            .include
            .iter()
            .chain(&constraints.exclude)
            .enumerate()
        {
            let (word, bit) = (k / 64, 1u64 << (k % 64));
            let mut set = |mask: usize| bits[mask * words + word] |= bit;
            let rows = pre.containment(u);
            ones(&rows.blocks).for_each(&mut set);
            ones(&rows.pmcs).for_each(|p| set(pmc_base + p));
            for (ci, comp) in pre.components.iter().enumerate() {
                if u.is_subset_of(comp) {
                    set(component_base + ci);
                }
            }
            set(kind_base + usize::from(k >= n_include));
        }
        ConstraintMasks {
            constraints,
            words,
            bits,
            pmc_base,
            component_base,
            kind_base,
        }
    }

    fn word(&self, mask: usize, w: usize) -> u64 {
        self.bits[mask * self.words + w]
    }

    /// The compiled constraints together with scope mask `mask` (a block's,
    /// or `component_base + c`), or `None` when no constraint lies in that
    /// scope and there is nothing to enforce.
    fn in_scope(&self, mask: usize) -> Option<Enforced<'_>> {
        let scope = &self.bits[mask * self.words..(mask + 1) * self.words];
        scope.iter().any(|&w| w != 0).then_some((self, scope))
    }

    /// Whether `cand`, chosen in a scope whose mask is `scope`, violates
    /// the constraints: the rule of [`violates`] with every bit read from
    /// the masks. Every child of `cand` must have a finite cost.
    fn rejects(&self, scope: &[u64], cand: &Candidate) -> bool {
        (0..self.words).any(|w| {
            scope[w] != 0 && {
                let decided = cand
                    .children
                    .iter()
                    .fold(0, |acc, &c| acc | self.word(c, w));
                let word = CandidateWord {
                    scope: scope[w],
                    omega: self.word(self.pmc_base + cand.pmc, w),
                    decided,
                    bagged: 0,
                };
                violates(
                    self.word(self.kind_base, w),
                    self.word(self.kind_base + 1, w),
                    word,
                )
            }
        })
    }
}

/// The compiled constraints of a solve and the mask of one scope's
/// constraints, as [`ConstraintMasks::in_scope`] returns them.
type Enforced<'m> = (&'m ConstraintMasks<'m>, &'m [u64]);

/// Resolves all candidate PMCs of one full block — the unit of work the
/// threaded initialization distributes over the pool.
fn candidates_for_block(
    g: &Graph,
    block: &Block,
    pmcs: &[VertexSet],
    block_index: &HashMap<Block, usize>,
    scratch: &mut Scratch,
) -> Vec<Candidate> {
    let block_vertices = block.vertices();
    let mut candidates = Vec::new();
    for (pi, omega) in pmcs.iter().enumerate() {
        if !block.separator.is_proper_subset_of(omega) || !omega.is_subset_of(&block_vertices) {
            continue;
        }
        if let Some(children) =
            resolve_children(g, &block_vertices, omega, block_index, Some(block), scratch)
        {
            candidates.push(Candidate { pmc: pi, children });
        }
    }
    candidates
}

/// Resolves the child blocks of choosing `omega` inside `scope`: the
/// components of `scope \ omega` with their neighborhoods. Returns `None`
/// when some child block is not a known full block (which, per Theorems 5.3
/// and 5.4, does not happen for genuine PMCs — `None` simply drops the
/// candidate).
fn resolve_children(
    g: &Graph,
    scope: &VertexSet,
    omega: &VertexSet,
    block_index: &HashMap<Block, usize>,
    parent: Option<&Block>,
    scratch: &mut Scratch,
) -> Option<Vec<usize>> {
    let mut rest = scratch.take(scope.universe());
    rest.copy_from(scope);
    rest.difference_with(omega);
    let mut children = Vec::new();
    let mut resolved = true;
    for c in g.components_within(&rest) {
        let sep = g.neighborhood_of_set(&c).intersection(scope);
        let child = Block::new(sep, c);
        if let Some(parent) = parent {
            // Progress check: the child must be strictly smaller than the
            // parent block so the DP's processing order is respected.
            if child.size() >= parent.size() {
                resolved = false;
                break;
            }
        }
        match block_index.get(&child) {
            Some(&idx) => children.push(idx),
            None => {
                resolved = false;
                break;
            }
        }
    }
    scratch.recycle(rest);
    resolved.then_some(children)
}

/// The backpointer of one solved block (or component): its optimal cost
/// and the index of the candidate achieving it.
#[derive(Clone, Copy, Debug)]
struct Winner {
    cost: CostValue,
    candidate: usize,
}

/// Computes a minimum-cost minimal triangulation of the preprocessed graph
/// under the bag cost `cost` (`MinTriang⟨κ⟩(G)`).
///
/// Returns `None` only when the graph admits no triangulation within the
/// preprocessing restrictions — i.e. when a width bound was used and the
/// graph has no minimal triangulation of that width, or when every candidate
/// has infinite cost.
pub fn min_triangulation<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
) -> Option<Triangulation> {
    thread_local! {
        // The arena only pays off when it survives across invocations (the
        // bound on Scratch::recycle keeps it small); a fresh arena per call
        // would be strictly slower than plain clones.
        static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
    }
    SCRATCH.with(|s| min_triangulation_in(pre, cost, &Constraints::none(), &mut s.borrow_mut()))
}

/// [`min_triangulation`] under inclusion/exclusion constraints, with an
/// explicit scratch arena: `MinTriang⟨κ[I, X]⟩(G)` for `κ = cost` and
/// `[I, X] = constraints`, the re-optimization of one Lawler–Murty node.
///
/// On a graph with at least one vertex the result equals
/// [`min_triangulation`] under
/// [`Constrained::new(cost, constraints)`](crate::cost::Constrained), bit
/// for bit; it is `None` when no minimal triangulation satisfies the
/// constraints. The constraints are compiled into bit masks once per call
/// (see the module docs), whose buffer comes from `scratch`.
///
/// For costs that read child bags in [`BagCost::combine`], the dynamic
/// program also assembles one bag list per solved block; those `VertexSet`s
/// are routed through `scratch` so repeated invocations — one per
/// Lawler–Murty node in the ranked engines — stop churning the allocator.
/// The returned [`Triangulation`] owns its sets and does not borrow the
/// scratch.
pub fn min_triangulation_in<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
    constraints: &Constraints,
    scratch: &mut Scratch,
) -> Option<Triangulation> {
    let g = &pre.graph;
    if g.n() == 0 {
        return constraints.satisfied_by_graph(g).then(|| Triangulation {
            graph: Graph::new(0),
            bags: Vec::new(),
            cost: cost.cost_of_bags(g, &VertexSet::empty(0), &[]),
        });
    }
    // A constraint spanning two components is never a clique: an inclusion
    // cannot be met (and an exclusion is met by every triangulation).
    if constraints
        .include
        .iter()
        .any(|u| !pre.components.iter().any(|c| u.is_subset_of(c)))
    {
        return None;
    }
    let masks = (!constraints.is_empty())
        .then(|| ConstraintMasks::compile(pre, constraints, scratch.take_words()));

    // Dynamic program over full blocks in ascending size order, keeping a
    // backpointer per block, plus its bag list when `combine` reads bags.
    let mut winners: Vec<Option<Winner>> = vec![None; pre.blocks.len()];
    let block_bags: Vec<OnceCell<Vec<VertexSet>>> = if cost.combine_reads_bags() {
        (0..pre.blocks.len()).map(|_| OnceCell::new()).collect()
    } else {
        Vec::new()
    };
    let mut children: Vec<ChildSolution<'_>> = Vec::new();
    for bi in 0..pre.blocks.len() {
        let candidates = &pre.block_candidates[bi];
        winners[bi] = best_candidate(
            pre,
            cost,
            &pre.block_vertices[bi],
            candidates,
            masks.as_ref().and_then(|m| m.in_scope(bi)),
            &winners,
            &block_bags,
            &mut children,
        );
        if let (Some(w), Some(slot)) = (winners[bi], block_bags.get(bi)) {
            slot.get_or_init(|| {
                assemble_bags_in(pre, &block_bags, &candidates[w.candidate], scratch)
            });
        }
    }

    // Top level: the best candidate per connected component.
    let chosen: Option<Vec<&Candidate>> = pre
        .components
        .iter()
        .enumerate()
        .map(|(ci, comp)| {
            let candidates = &pre.top_candidates[ci];
            best_candidate(
                pre,
                cost,
                comp,
                candidates,
                masks
                    .as_ref()
                    .and_then(|m| m.in_scope(m.component_base + ci)),
                &winners,
                &block_bags,
                &mut children,
            )
            .filter(|w| w.cost.is_finite())
            .map(|w| &candidates[w.candidate])
        })
        .collect();
    drop(children);
    if let Some(masks) = masks {
        scratch.recycle_words(masks.bits);
    }
    for bag in block_bags
        .into_iter()
        .filter_map(OnceCell::into_inner)
        .flatten()
    {
        scratch.recycle(bag);
    }

    // Materialize the triangulation by backtracking through the winners,
    // saturating every chosen Ω, and canonicalize its bags as the maximal
    // cliques of the chordal graph.
    let mut h = g.clone();
    let mut pending: Vec<usize> = Vec::new();
    for cand in chosen? {
        h.saturate(&pre.pmcs[cand.pmc]);
        pending.extend(&cand.children);
    }
    while let Some(bi) = pending.pop() {
        let w = winners[bi].expect("a chosen candidate's child blocks are solved");
        let cand = &pre.block_candidates[bi][w.candidate];
        h.saturate(&pre.pmcs[cand.pmc]);
        pending.extend(&cand.children);
    }
    let bags = maximal_cliques_chordal(&h)
        .expect("saturating the bags of a block decomposition must give a chordal graph");
    let total_cost = cost.cost_of_bags(g, &g.vertex_set(), &bags);
    if total_cost.is_infinite() {
        return None;
    }
    Some(Triangulation {
        graph: h,
        bags,
        cost: total_cost,
    })
}

/// Prices every candidate in order and returns the first of least cost
/// (strict `<`, so ties keep the earliest), skipping candidates with an
/// unsolved child block; `None` when every candidate was skipped.
/// `enforced` carries the solve's constraints when some lie in `scope`: a
/// candidate that violates them costs `∞`. `children` is a reused buffer.
#[allow(clippy::too_many_arguments)]
fn best_candidate<'a, K: BagCost + ?Sized>(
    pre: &'a Preprocessed,
    cost: &K,
    scope: &VertexSet,
    candidates: &[Candidate],
    enforced: Option<Enforced<'_>>,
    winners: &[Option<Winner>],
    block_bags: &'a [OnceCell<Vec<VertexSet>>],
    children: &mut Vec<ChildSolution<'a>>,
) -> Option<Winner> {
    let reads_bags = cost.combine_reads_bags();
    let mut best: Option<Winner> = None;
    'candidates: for (i, cand) in candidates.iter().enumerate() {
        children.clear();
        let mut infinite_child = false;
        for &ci in &cand.children {
            let Some(child) = winners[ci] else {
                continue 'candidates;
            };
            infinite_child |= child.cost.is_infinite();
            children.push(ChildSolution {
                separator: &pre.blocks[ci].separator,
                separator_missing_edges: pre.separator_missing_edges[ci],
                vertices: &pre.block_vertices[ci],
                cost: child.cost,
                bags: block_bags
                    .get(ci)
                    .and_then(OnceCell::get)
                    .map_or(&[], Vec::as_slice),
            });
        }
        let omega = CandidateBag {
            vertices: &pre.pmcs[cand.pmc],
            missing_edges: pre.pmc_missing_edges[cand.pmc],
        };
        let violated = match enforced {
            None => false,
            // An infinite child's constraints are decided by its bags: a
            // bag-free cost prices the candidate `∞` anyway, a bag-reading
            // one gets the rule from subset tests on those bags.
            Some((masks, _)) if infinite_child => {
                !reads_bags
                    || masks
                        .constraints
                        .violated_by(scope, omega.vertices, children)
            }
            Some((masks, scope_mask)) => masks.rejects(scope_mask, cand),
        };
        let value = if violated {
            CostValue::INFINITE
        } else {
            cost.combine(&pre.graph, scope, omega, children)
        };
        if best.is_none_or(|b| value < b.cost) {
            best = Some(Winner {
                cost: value,
                candidate: i,
            });
        }
    }
    best
}

/// The bag list of a block whose winner is `cand`: copies of the child
/// blocks' bag lists followed by `Ω`, with the backing sets taken from the
/// arena.
fn assemble_bags_in(
    pre: &Preprocessed,
    block_bags: &[OnceCell<Vec<VertexSet>>],
    cand: &Candidate,
    scratch: &mut Scratch,
) -> Vec<VertexSet> {
    let child_bags = |ci: usize| {
        block_bags[ci]
            .get()
            .expect("a winner's child blocks are solved")
            .as_slice()
    };
    let mut bags: Vec<VertexSet> = Vec::with_capacity(
        1 + cand
            .children
            .iter()
            .map(|&ci| child_bags(ci).len())
            .sum::<usize>(),
    );
    for &ci in &cand.children {
        for b in child_bags(ci) {
            let mut copy = scratch.take(b.universe());
            copy.copy_from(b);
            bags.push(copy);
        }
    }
    let omega = &pre.pmcs[cand.pmc];
    let mut top = scratch.take(omega.universe());
    top.copy_from(omega);
    bags.push(top);
    bags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Constrained, Constraints, ExpBagSum, FillIn, Width, WidthThenFill};
    use mtr_chordal::verify::is_minimal_triangulation;
    use mtr_graph::paper_example_graph;

    fn cycle(n: u32) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    #[test]
    fn paper_example_width_and_fill_optima() {
        let g = paper_example_graph();
        let pre = Preprocessed::new(&g);
        assert_eq!(pre.minimal_separators().len(), 3);
        assert_eq!(pre.pmcs().len(), 6);
        assert_eq!(pre.full_blocks().len(), 7);

        // Width: the optimum is H2 (add {u,v}), width 2.
        let by_width = min_triangulation(&pre, &Width).unwrap();
        assert_eq!(by_width.cost, CostValue::from_usize(2));
        assert_eq!(by_width.width(), 2);
        assert!(is_minimal_triangulation(&g, &by_width.graph));

        // Fill-in: the optimum is also H2 with a single fill edge.
        let by_fill = min_triangulation(&pre, &FillIn).unwrap();
        assert_eq!(by_fill.cost, CostValue::from_usize(1));
        assert_eq!(by_fill.fill_in(&g), 1);
        assert!(by_fill.graph.has_edge(0, 1));
        assert!(is_minimal_triangulation(&g, &by_fill.graph));

        // The lexicographic cost agrees with width-first.
        let lex = min_triangulation(&pre, &WidthThenFill).unwrap();
        assert_eq!(lex.width(), 2);
        assert_eq!(lex.fill_in(&g), 1);
    }

    #[test]
    fn chordal_graph_is_returned_unchanged() {
        let path = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let pre = Preprocessed::new(&path);
        let t = min_triangulation(&pre, &FillIn).unwrap();
        assert_eq!(t.graph, path);
        assert_eq!(t.cost, CostValue::ZERO);
        let complete = Graph::complete(5);
        let pre_c = Preprocessed::new(&complete);
        let t_c = min_triangulation(&pre_c, &Width).unwrap();
        assert_eq!(t_c.graph, complete);
        assert_eq!(t_c.cost, CostValue::from_usize(4));
    }

    #[test]
    fn cycles_get_optimal_width_two() {
        for n in 4..9u32 {
            let c = cycle(n);
            let pre = Preprocessed::new(&c);
            let t = min_triangulation(&pre, &Width).unwrap();
            assert_eq!(t.width(), 2, "C{n} has treewidth 2");
            assert!(is_minimal_triangulation(&c, &t.graph));
            let t_fill = min_triangulation(&pre, &FillIn).unwrap();
            assert_eq!(t_fill.fill_in(&c), (n - 3) as usize);
        }
    }

    #[test]
    fn grid_treewidth() {
        // The k x k grid has treewidth k.
        for k in 2..4u32 {
            let idx = |r: u32, c: u32| r * k + c;
            let mut edges = Vec::new();
            for r in 0..k {
                for c in 0..k {
                    if c + 1 < k {
                        edges.push((idx(r, c), idx(r, c + 1)));
                    }
                    if r + 1 < k {
                        edges.push((idx(r, c), idx(r + 1, c)));
                    }
                }
            }
            let g = Graph::from_edges(k * k, &edges);
            let pre = Preprocessed::new(&g);
            let t = min_triangulation(&pre, &Width).unwrap();
            assert_eq!(t.width(), k as usize, "treewidth of the {k}x{k} grid");
            assert!(is_minimal_triangulation(&g, &t.graph));
        }
    }

    #[test]
    fn disconnected_graphs_are_handled_per_component() {
        // A C4 plus a disjoint triangle: optimal width is max(2, 2) = 2 and
        // optimal fill is 1 (one chord in the C4).
        let mut edges = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        edges.extend([(4, 5), (5, 6), (4, 6)]);
        let g = Graph::from_edges(7, &edges);
        let pre = Preprocessed::new(&g);
        let t = min_triangulation(&pre, &FillIn).unwrap();
        assert_eq!(t.fill_in(&g), 1);
        assert!(is_minimal_triangulation(&g, &t.graph));
        let w = min_triangulation(&pre, &Width).unwrap();
        assert_eq!(w.width(), 2);
    }

    #[test]
    fn exp_bag_sum_cost_optimum_is_minimal() {
        let g = paper_example_graph();
        let pre = Preprocessed::new(&g);
        let t = min_triangulation(&pre, &ExpBagSum).unwrap();
        assert!(is_minimal_triangulation(&g, &t.graph));
        // T2's bags (three triangles + one edge) cost 28 < T1's 36.
        assert_eq!(t.cost, CostValue::finite(28.0));
    }

    #[test]
    fn constrained_cost_forces_and_forbids_separators() {
        let g = paper_example_graph();
        let pre = Preprocessed::new(&g);
        let s1 = VertexSet::from_slice(6, &[3, 4, 5]);
        let s2 = VertexSet::from_slice(6, &[0, 1]);

        // Force S1: the only satisfying minimal triangulation is H1.
        let force_s1 = Constraints::new(vec![s1.clone()], vec![]);
        let k = Constrained::new(&FillIn, &force_s1);
        let t = min_triangulation(&pre, &k).unwrap();
        assert_eq!(t.fill_in(&g), 3);
        assert!(force_s1.satisfied_by_graph(&t.graph));

        // Forbid S2: again only H1 remains.
        let forbid_s2 = Constraints::new(vec![], vec![s2.clone()]);
        let k2 = Constrained::new(&FillIn, &forbid_s2);
        let t2 = min_triangulation(&pre, &k2).unwrap();
        assert_eq!(t2.fill_in(&g), 3);

        // Forbidding both S1 and S2 leaves no minimal triangulation at all:
        // every maximal parallel set contains one of them.
        let impossible = Constraints::new(vec![], vec![s1, s2]);
        let k3 = Constrained::new(&FillIn, &impossible);
        assert!(min_triangulation(&pre, &k3).is_none());
    }

    #[test]
    fn bounded_width_preprocessing() {
        let g = paper_example_graph();
        // Width bound 2 admits only H2.
        let pre2 = Preprocessed::new_bounded(&g, 2);
        assert_eq!(pre2.width_bound(), Some(2));
        let t = min_triangulation(&pre2, &FillIn).unwrap();
        assert_eq!(t.width(), 2);
        assert_eq!(t.fill_in(&g), 1);
        // Width bound 1 admits nothing (the graph has treewidth 2).
        let pre1 = Preprocessed::new_bounded(&g, 1);
        assert!(min_triangulation(&pre1, &FillIn).is_none());
        // Width bound 3 admits both; fill optimum is still 1.
        let pre3 = Preprocessed::new_bounded(&g, 3);
        let t3 = min_triangulation(&pre3, &FillIn).unwrap();
        assert_eq!(t3.fill_in(&g), 1);
    }

    #[test]
    fn threaded_preprocessing_matches_sequential() {
        use mtr_pmc::enumerate::potential_maximal_cliques;
        let cases = vec![
            paper_example_graph(),
            cycle(6),
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)]),
        ];
        for g in cases {
            let e = potential_maximal_cliques(&g);
            let sequential =
                Preprocessed::from_parts(&g, e.minimal_separators.clone(), e.pmcs.clone());
            let threaded =
                Preprocessed::from_parts_threaded(&g, e.minimal_separators, e.pmcs, None, 4);
            assert_eq!(sequential.full_blocks().len(), threaded.full_blocks().len());
            for cost in [&Width as &dyn BagCost, &FillIn] {
                let a = min_triangulation(&sequential, cost).unwrap();
                let b = min_triangulation(&threaded, cost).unwrap();
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.graph, b.graph);
            }
        }
        // The bounded filter applies identically through the threaded path.
        let g = paper_example_graph();
        let e = potential_maximal_cliques(&g);
        let bounded =
            Preprocessed::from_parts_threaded(&g, e.minimal_separators, e.pmcs, Some(2), 2);
        assert_eq!(bounded.width_bound(), Some(2));
        let t = min_triangulation(&bounded, &FillIn).unwrap();
        assert_eq!(t.width(), 2);
    }

    #[test]
    fn single_vertices_and_empty_graphs() {
        let empty = Graph::new(0);
        let pre = Preprocessed::new(&empty);
        let t = min_triangulation(&pre, &Width).unwrap();
        assert!(t.bags.is_empty());

        let single = Graph::new(1);
        let pre1 = Preprocessed::new(&single);
        let t1 = min_triangulation(&pre1, &Width).unwrap();
        assert_eq!(t1.bags.len(), 1);
        assert_eq!(t1.width(), 0);

        let isolated = Graph::new(3);
        let pre3 = Preprocessed::new(&isolated);
        let t3 = min_triangulation(&pre3, &FillIn).unwrap();
        assert_eq!(t3.bags.len(), 3);
        assert_eq!(t3.cost, CostValue::ZERO);
    }
}
