//! Parallel ranked enumeration.
//!
//! The paper notes (Section 7.1, footnote 3) that `RankedTriang` can be
//! parallelized for delay reduction by parallelizing its main loop: after a
//! triangulation is popped and printed, the `k` constrained `MinTriang`
//! re-optimizations that split its partition are independent of each other.
//! [`ParallelRankedEnumerator`] implements exactly that on the shared
//! work-stealing [`pool`]: each expansion submits one task per
//! constrained optimization, so a straggler re-optimization never idles the
//! other workers (which a fixed chunking would).
//!
//! The output is identical to the sequential [`RankedEnumerator`](crate::ranked::RankedEnumerator)
//! (same results, same cost order); only the wall-clock delay changes. The
//! cost function must be `Sync` since it is shared across workers.
//!
//! Two ways to run:
//!
//! * [`ParallelRankedEnumerator::new`] keeps the historical constructor:
//!   it spins a scoped pool up per expansion batch — fine for one-shot
//!   iteration;
//! * [`ParallelRankedEnumerator::with_pool`] attaches the enumerator to an
//!   existing [`WorkerPool`], so one set of workers (and their per-worker
//!   scratch) serves the whole session. The [`Enumerate`](crate::Enumerate)
//!   session builder uses this path.

use crate::cancel::CancelFlag;
use crate::cost::{BagCost, Constraints, CostValue};
use crate::mintriang::{min_triangulation_in, Preprocessed, Triangulation};
use crate::pool::{self, Scratch, WorkerPool};
use crate::ranked::{EngineCounters, RankedTriangulation};
use crate::symmetry::{ModuloDedup, OrbitContext};
use mtr_chordal::minimal_separators_from_cliques;
use mtr_graph::VertexSet;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// Mirror of the sequential engine's node state: solved entries carry their
/// exact-cost optimum, deferred entries an admissible lower bound.
enum EntryState {
    Solved(Triangulation),
    Deferred,
}

struct Entry {
    cost: CostValue,
    sequence: u64,
    state: EntryState,
    constraints: Constraints,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.sequence == other.sequence
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .cmp(&self.cost)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

/// How the enumerator executes its expansion batches.
enum Exec<'env, 'p> {
    /// Spin up a scoped pool per batch (the standalone constructor).
    Owned(usize),
    /// Submit to a pool that outlives the enumerator (the session path).
    Pooled(WorkerPool<'env, 'p>),
}

/// Ranked enumerator whose partition re-optimizations run as work-stealing
/// pool tasks.
pub struct ParallelRankedEnumerator<'a, 'p, K: BagCost + Sync + ?Sized> {
    pre: &'a Preprocessed,
    cost: &'a K,
    exec: Exec<'a, 'p>,
    queue: BinaryHeap<Entry>,
    emitted_fills: HashSet<Vec<(u32, u32)>>,
    duplicates_skipped: usize,
    nodes_explored: usize,
    sequence: u64,
    started: bool,
    prune: bool,
    incumbent: Option<CostValue>,
    nodes_deferred: usize,
    cancel: Option<CancelFlag>,
    /// First pool-task failure (panic or injected fault) observed by a
    /// batch: iteration stops and the session layer surfaces it as a
    /// typed error instead of a process-killing unwind.
    failed: Option<String>,
    /// Orbit quotienting (modulo-symmetry mode); see [`crate::symmetry`].
    modulo: Option<ModuloDedup>,
}

impl<'a, 'p, K: BagCost + Sync + ?Sized> ParallelRankedEnumerator<'a, 'p, K> {
    /// Creates the enumerator with the given worker count (clamped to ≥ 1).
    /// Every expansion batch runs on a short-lived scoped pool; prefer
    /// [`ParallelRankedEnumerator::with_pool`] (or the session API) to
    /// reuse one pool across the whole enumeration.
    pub fn new(pre: &'a Preprocessed, cost: &'a K, threads: usize) -> Self {
        Self::with_exec(pre, cost, Exec::Owned(threads.max(1)))
    }

    /// Creates the enumerator on an existing worker pool (see
    /// [`pool::scoped`]); the session layer uses this so one set of workers
    /// serves preprocessing and every expansion batch.
    pub fn with_pool(pre: &'a Preprocessed, cost: &'a K, pool: WorkerPool<'a, 'p>) -> Self {
        Self::with_exec(pre, cost, Exec::Pooled(pool))
    }

    fn with_exec(pre: &'a Preprocessed, cost: &'a K, exec: Exec<'a, 'p>) -> Self {
        ParallelRankedEnumerator {
            pre,
            cost,
            exec,
            queue: BinaryHeap::new(),
            emitted_fills: HashSet::new(),
            duplicates_skipped: 0,
            nodes_explored: 0,
            sequence: 0,
            started: false,
            prune: false,
            incumbent: None,
            nodes_deferred: 0,
            cancel: None,
            failed: None,
            modulo: None,
        }
    }

    /// Enables incumbent-bounded Lawler pruning, optionally seeded with the
    /// cost of a known (e.g. heuristic) minimal triangulation. Identical
    /// semantics to [`crate::ranked::RankedEnumerator::with_pruning`]: the
    /// output sequence is unchanged, only re-optimizations that cannot affect
    /// the emitted prefix are deferred.
    pub fn with_pruning(mut self, incumbent: Option<CostValue>) -> Self {
        debug_assert!(!self.started, "enable pruning before iterating");
        self.prune = true;
        self.incumbent = incumbent;
        self
    }

    /// Binds a cooperative cancellation flag: once raised (from any
    /// thread), the iterator returns `None` at its next demand boundary —
    /// between expansion batches, never inside one — leaving the emitted
    /// sequence a valid ranked prefix.
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Quotients the stream by the automorphism group; identical semantics
    /// to [`crate::ranked::RankedState::enable_modulo_symmetry`].
    pub fn with_modulo_symmetry(mut self, ctx: Arc<OrbitContext>) -> Self {
        debug_assert!(!self.started, "configure symmetry before iterating");
        self.modulo = Some(ModuloDedup::new(ctx));
        self
    }

    /// The engine's work counters so far; identical semantics to
    /// [`crate::ranked::RankedState::counters`], except that
    /// `arena_bytes_reused` is always `0`: the scratch lives in the pool's
    /// workers, so the pool reports it.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            queue_depth: self.queue.len(),
            nodes_explored: self.nodes_explored,
            duplicates_skipped: self.duplicates_skipped,
            nodes_pruned: self.nodes_deferred,
            incumbent: self.incumbent,
            arena_bytes_reused: 0,
            orbits_merged: self.modulo.as_ref().map_or(0, |m| m.merged),
        }
    }

    /// The message of the pool-task panic (or injected `pool.task` fault)
    /// that aborted iteration, if one did. Once set, [`Iterator::next`]
    /// keeps returning `None`: the emitted prefix stays a valid ranked
    /// prefix, but the session must report the failure rather than
    /// exhaustion.
    pub fn failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// Solves `MinTriang⟨κ[I, X]⟩` for a batch of constraint sets in
    /// parallel (one pool task each, each re-optimization drawing its
    /// `VertexSet` scratch from the worker's arena) and returns one slot per
    /// input in batch order — `None` where the constrained instance is
    /// infeasible or the optimum does not satisfy its constraints.
    fn solve_batch(
        &mut self,
        batch: Vec<Constraints>,
    ) -> Vec<Option<(Triangulation, Constraints)>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let pre = self.pre;
        let cost = self.cost;
        let tasks: Vec<_> = batch
            .into_iter()
            .map(|constraints| {
                move |scratch: &mut Scratch| {
                    let best = min_triangulation_in(pre, cost, &constraints, scratch);
                    (best, constraints)
                }
            })
            .collect();
        let solved = match &self.exec {
            Exec::Owned(threads) => pool::scoped(*threads, |p| p.run_batch(tasks)),
            Exec::Pooled(p) => p.run_batch(tasks),
        };
        let solved = match solved {
            Ok(solved) => solved,
            Err(panic) => {
                // A cost-function panic (or injected fault) fails this
                // *session*: record it, stop producing, keep the process —
                // and every other session's pool workers — alive.
                self.failed = Some(panic.message);
                return Vec::new();
            }
        };
        solved
            .into_iter()
            .map(|(result, constraints)| {
                result.and_then(|best| {
                    if constraints.satisfied_by_graph(&best.graph) {
                        Some((best, constraints))
                    } else {
                        None
                    }
                })
            })
            .collect()
    }

    /// Pays for a deferred partition that reached the top
    /// of the queue: one constrained re-optimization (a single pool task),
    /// reinserted at its exact cost under its *original* sequence number so
    /// tie-breaks match the unpruned run.
    fn resolve_entry(&mut self, entry: Entry) {
        self.nodes_explored += 1;
        let solved = self.solve_batch(vec![entry.constraints]);
        if let Some((best, constraints)) = solved.into_iter().next().flatten() {
            debug_assert!(
                best.cost >= entry.cost,
                "deferred lower bound was not admissible"
            );
            self.queue.push(Entry {
                cost: best.cost,
                sequence: entry.sequence,
                state: EntryState::Solved(best),
                constraints,
            });
        }
    }

    fn expand(
        &mut self,
        seps_of_h: &[VertexSet],
        constraints: &Constraints,
        parent_cost: CostValue,
    ) {
        let new_seps: Vec<&VertexSet> = seps_of_h
            .iter()
            .filter(|s| !constraints.include.contains(s))
            .collect();
        let bound_children = self.prune && self.incumbent.is_some();
        // Split the children — in generation order — into deferred ones
        // (queued on their admissible lower bound alone) and eager ones,
        // which are re-optimized as one pool batch.
        let mut deferred: Vec<(usize, CostValue, Constraints)> = Vec::new();
        let mut eager_positions: Vec<usize> = Vec::new();
        let mut eager_batch: Vec<Constraints> = Vec::new();
        // Modulo-symmetry: siblings in one stabilizer orbit spawn one
        // child, with the staircase reordered so the dropped cells sit
        // early (see the sequential engine); the prefixes still range
        // over all earlier separators, dropped or not. Positions below
        // are plan positions, so ties break as in the sequential engine.
        let plan = self
            .modulo
            .as_mut()
            .and_then(|dedup| dedup.branch_plan(constraints, &new_seps));
        let order: Vec<(usize, bool)> =
            plan.unwrap_or_else(|| (0..new_seps.len()).map(|i| (i, true)).collect());
        for pos in 0..order.len() {
            let (idx, kept) = order[pos];
            if !kept {
                continue;
            }
            let i = pos;
            let mut include = constraints.include.clone();
            include.extend(order[..pos].iter().map(|&(k, _)| new_seps[k].clone()));
            let mut exclude = constraints.exclude.clone();
            exclude.push(new_seps[idx].clone());
            let lower_bound = bound_children.then(|| {
                match self.cost.include_lower_bound(self.pre.graph(), &include) {
                    Some(prefix) => parent_cost.max(prefix),
                    None => parent_cost,
                }
            });
            let child = Constraints::new(include, exclude);
            match (lower_bound, self.incumbent) {
                (Some(lb), Some(incumbent)) if lb > incumbent => deferred.push((i, lb, child)),
                _ => {
                    eager_positions.push(i);
                    eager_batch.push(child);
                }
            }
        }
        self.nodes_explored += eager_batch.len();
        let solved = self.solve_batch(eager_batch);
        // Re-interleave solved and deferred children by generation
        // position before assigning sequence numbers, so ties break exactly
        // as in the sequential engine (and as in an unpruned run).
        let mut pending: Vec<(usize, Entry)> = Vec::with_capacity(new_seps.len());
        for (i, lb, child) in deferred {
            self.nodes_deferred += 1;
            pending.push((
                i,
                Entry {
                    cost: lb,
                    sequence: 0,
                    state: EntryState::Deferred,
                    constraints: child,
                },
            ));
        }
        for (i, result) in eager_positions.into_iter().zip(solved) {
            if let Some((best, child)) = result {
                pending.push((
                    i,
                    Entry {
                        cost: best.cost,
                        sequence: 0,
                        state: EntryState::Solved(best),
                        constraints: child,
                    },
                ));
            }
        }
        pending.sort_by_key(|(i, _)| *i);
        for (_, mut entry) in pending {
            self.sequence += 1;
            entry.sequence = self.sequence;
            self.queue.push(entry);
        }
    }
}

impl<K: BagCost + Sync + ?Sized> Iterator for ParallelRankedEnumerator<'_, '_, K> {
    type Item = RankedTriangulation;

    fn next(&mut self) -> Option<RankedTriangulation> {
        if self.failed.is_some() {
            return None;
        }
        if !self.started {
            self.started = true;
            self.nodes_explored += 1;
            let solved = self.solve_batch(vec![Constraints::none()]);
            if let Some((best, constraints)) = solved.into_iter().next().flatten() {
                self.sequence += 1;
                self.queue.push(Entry {
                    cost: best.cost,
                    sequence: self.sequence,
                    state: EntryState::Solved(best),
                    constraints,
                });
            }
        }
        loop {
            // The demand boundary: checked between partition pops so a
            // cancelled (or batch-failed) session never starts another
            // expansion batch.
            if self.failed.is_some() || self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                return None;
            }
            let entry = self.queue.pop()?;
            let best = match entry.state {
                EntryState::Deferred => {
                    self.nodes_deferred -= 1;
                    self.resolve_entry(entry);
                    continue;
                }
                EntryState::Solved(best) => best,
            };
            let fill = best.fill_edges(self.pre.graph());
            // Modulo-symmetry: suppress orbit-duplicate results but still
            // expand their partition (mirrors the sequential engine).
            let orbit_new = self
                .modulo
                .as_mut()
                .is_none_or(|dedup| dedup.admit_result(&fill));
            let is_new = self.emitted_fills.insert(fill);
            // Computed once, from the clique tree of H's bags: shared by
            // the expansion and the emitted result.
            let seps_of_h = minimal_separators_from_cliques(best.bags.clone());
            self.expand(&seps_of_h, &entry.constraints, entry.cost);
            if self.failed.is_some() {
                // The expansion batch died: `best` was computed, but the
                // session is failing — do not emit a result past the fault.
                return None;
            }
            if !is_new {
                self.duplicates_skipped += 1;
                continue;
            }
            if self.prune {
                self.incumbent = Some(best.cost);
            }
            if !orbit_new {
                continue;
            }
            return Some(RankedTriangulation {
                minimal_separators: seps_of_h,
                triangulation: best.graph,
                bags: best.bags,
                cost: best.cost,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{FillIn, Width};
    use crate::ranked::RankedEnumerator;
    use mtr_graph::{paper_example_graph, Graph};

    fn fill_keys(g: &Graph, results: &[RankedTriangulation]) -> Vec<Vec<(u32, u32)>> {
        results
            .iter()
            .map(|r| {
                let mut f = g.fill_edges_of(&r.triangulation);
                f.sort_unstable();
                f
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_on_paper_example() {
        let g = paper_example_graph();
        let pre = Preprocessed::new(&g);
        let sequential: Vec<_> = RankedEnumerator::new(&pre, &FillIn).collect();
        let parallel: Vec<_> = ParallelRankedEnumerator::new(&pre, &FillIn, 4).collect();
        assert_eq!(sequential.len(), parallel.len());
        assert_eq!(fill_keys(&g, &sequential), fill_keys(&g, &parallel));
    }

    #[test]
    fn parallel_matches_sequential_on_cycles_and_grids() {
        let cases = vec![
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
            Graph::from_edges(
                8,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 0),
                    (2, 4),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                    (7, 4),
                ],
            ),
        ];
        for g in cases {
            let pre = Preprocessed::new(&g);
            for threads in [1, 2, 4] {
                let sequential: Vec<_> = RankedEnumerator::new(&pre, &Width).collect();
                let mut parallel_iter = ParallelRankedEnumerator::new(&pre, &Width, threads);
                let parallel: Vec<_> = parallel_iter.by_ref().collect();
                assert_eq!(parallel_iter.counters().duplicates_skipped, 0);
                assert_eq!(sequential.len(), parallel.len(), "threads = {threads}");
                // Cost sequences are identical; the exact tie order may vary,
                // so compare the cost sequence and the result sets.
                let seq_costs: Vec<_> = sequential.iter().map(|r| r.cost).collect();
                let par_costs: Vec<_> = parallel.iter().map(|r| r.cost).collect();
                assert_eq!(seq_costs, par_costs);
                let mut seq_fills = fill_keys(&g, &sequential);
                let mut par_fills = fill_keys(&g, &parallel);
                seq_fills.sort();
                par_fills.sort();
                assert_eq!(seq_fills, par_fills);
            }
        }
    }

    #[test]
    fn shared_pool_matches_owned_per_batch_pools() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pre = Preprocessed::new(&g);
        let owned: Vec<_> = ParallelRankedEnumerator::new(&pre, &FillIn, 3).collect();
        let (pooled, stats) = pool::scoped(3, |p| {
            let results: Vec<_> = ParallelRankedEnumerator::with_pool(&pre, &FillIn, p).collect();
            (results, p.stats())
        });
        assert_eq!(owned.len(), pooled.len());
        assert_eq!(fill_keys(&g, &owned), fill_keys(&g, &pooled));
        assert_eq!(stats.threads, 3);
        assert!(stats.worker_tasks.iter().sum::<usize>() > 0);
    }

    #[test]
    fn pruned_parallel_matches_unpruned_and_sequential() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pre = Preprocessed::new(&g);
        for threads in [1, 4] {
            let plain: Vec<_> = ParallelRankedEnumerator::new(&pre, &FillIn, threads).collect();
            for seed in [None, Some(CostValue::ZERO), Some(CostValue::from_usize(3))] {
                let pruned: Vec<_> = ParallelRankedEnumerator::new(&pre, &FillIn, threads)
                    .with_pruning(seed)
                    .collect();
                assert_eq!(plain.len(), pruned.len(), "threads = {threads}");
                let plain_costs: Vec<_> = plain.iter().map(|r| r.cost).collect();
                let pruned_costs: Vec<_> = pruned.iter().map(|r| r.cost).collect();
                assert_eq!(plain_costs, pruned_costs);
                assert_eq!(fill_keys(&g, &plain), fill_keys(&g, &pruned));
            }
        }
        // A pruned prefix still matches the sequential engine, and defers
        // work a tight seed makes prunable.
        let sequential: Vec<_> = RankedEnumerator::new(&pre, &FillIn).take(3).collect();
        let mut pruned_iter =
            ParallelRankedEnumerator::new(&pre, &FillIn, 4).with_pruning(Some(CostValue::ZERO));
        let pruned: Vec<_> = pruned_iter.by_ref().take(3).collect();
        assert_eq!(fill_keys(&g, &sequential), fill_keys(&g, &pruned));
        assert!(pruned_iter.counters().nodes_pruned > 0);
        assert_eq!(pruned_iter.counters().incumbent, Some(pruned[2].cost));
    }

    #[test]
    fn modulo_symmetry_parallel_quotients_like_sequential() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pre = Preprocessed::new(&g);
        let ctx = OrbitContext::probe(&g).unwrap();
        let sequential: Vec<_> = RankedEnumerator::new(&pre, &FillIn)
            .with_modulo_symmetry(ctx.clone())
            .collect();
        assert_eq!(sequential.len(), 3);
        for threads in [1, 4] {
            let mut it = ParallelRankedEnumerator::new(&pre, &FillIn, threads)
                .with_modulo_symmetry(ctx.clone());
            let parallel: Vec<_> = it.by_ref().collect();
            assert_eq!(parallel.len(), 3, "threads = {threads}");
            assert!(it.counters().orbits_merged > 0);
            let seq_costs: Vec<_> = sequential.iter().map(|r| r.cost).collect();
            let par_costs: Vec<_> = parallel.iter().map(|r| r.cost).collect();
            assert_eq!(seq_costs, par_costs);
        }
    }

    #[test]
    fn take_works_lazily() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pre = Preprocessed::new(&g);
        let top3: Vec<_> = ParallelRankedEnumerator::new(&pre, &FillIn, 2)
            .take(3)
            .collect();
        assert_eq!(top3.len(), 3);
        for w in top3.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
    }
}
