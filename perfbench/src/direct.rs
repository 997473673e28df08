//! The direct workload, `ranked_deep`, drives the library in process, one
//! top-100 session per (graph, cost), at one thread.
//!
//! A session makes the three calls `Enumerate::on(g)` makes internally —
//! `potential_maximal_cliques`, `Preprocessed::from_parts` and a `drive`
//! over the result — so the untraced and the traced run time the same
//! work, and the traced run can put a span around each layer.

use crate::report::{Counters, PassLog, Report, MIN_PASSES, MIN_TRACED_PASSES};
use crate::spans::{fold, Lane};
use crate::stats::median;
use crate::verify::{check_stream, same_stream, Item, Stream};
use mtr_core::cost::{BagCost, Constrained, Constraints, FillIn, Width};
use mtr_core::{min_triangulation, Enumerate, Preprocessed, RankedTriangulation, StopReason};
use mtr_graph::Graph;
use mtr_pmc::potential_maximal_cliques;
use mtr_reduce::{decompose, ReductionLevel};
use mtr_separators::minimal_separators;
use mtr_workloads::random::gnp_connected;
use mtr_workloads::structured::grid;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Results per session.
const K: usize = 100;

/// The costs sessions rank by.
const COSTS: [&str; 2] = ["fill", "width"];

/// Threads of the gate's parallel rerun: the host's two cores.
const PARALLEL_THREADS: usize = 2;

/// The fixed graphs at the head of the inputs, ranked by every cost.
fn fixed_graphs() -> [Graph; 2] {
    [grid(4, 4), grid(3, 6)]
}

/// Seeded G(16, p) graphs after the fixed ones, ranked by one cost each.
///
/// With the fixed graphs' four sessions that makes 39, the most for which
/// the nearest-rank p90 is still the fourth-slowest session and p95 the
/// second-slowest. The grids' sessions are the slowest in ttfr, delay and
/// latency (top-100 by fill or width: ttfr 24–30 ms, delay ~3 ms, latency
/// 320–350 ms; the slowest random graph of each of ten seeds took at most
/// 22 ms, 2.1 ms and 220 ms), so `ttfr_p90_ms`, `ttfr_p99_ms`,
/// `delay_p95_ms` and `latency_p99_ms` are the grids' — the same graphs on
/// every seed — and not the few hardest draws of the seed. Every p50 is the
/// random graphs'.
const RANDOM_GRAPHS: usize = 35;

/// Median minimal-separator count of connected G(16, p) at p in 0.25–0.3
/// (60 samples).
const MEDIAN_MINSEPS: usize = 48;

/// Seeded draws per random graph, of which the non-decomposable ones
/// compete.
const DRAWS: u64 = 128;

fn cost_of(name: &str) -> &'static (dyn BagCost + Sync) {
    match name {
        "fill" => &FillIn,
        "width" => &Width,
        other => unreachable!("no cost {other}"),
    }
}

/// SplitMix64: decorrelates the per-graph seeds derived from `--seed`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How far `seps` minimal separators lie from [`MEDIAN_MINSEPS`], as a
/// share of it.
fn off_median(seps: usize) -> f64 {
    seps.abs_diff(MEDIAN_MINSEPS) as f64 / MEDIAN_MINSEPS as f64
}

/// Draws [`DRAWS`] connected G(16, p) graphs and returns, of the
/// non-decomposable ones, the one whose minimal-separator count is closest
/// to the median (the first such draw on a tie) — or the closest of all
/// when every draw is decomposable.
///
/// The run time of both the initialization and the ranked loop grows about
/// linearly with a graph's minimal separators (top-100 by fill and width:
/// 0.2 s at 64, 2.2 s at 240, n = 17–20), and their count spreads over a
/// factor of four at one (n, p). Taking the draw nearest the median keeps
/// one seed's instance set about as hard as another's, so the figures of
/// different seeds compare; drawing a fixed number of candidates keeps the
/// set-up time from depending on the seed.
fn nearest_median(seed: u64, p: f64) -> Graph {
    let mut drawn: Vec<(Graph, usize)> = (0..DRAWS)
        .map(|attempt| {
            let g = gnp_connected(16, p, mix(seed ^ (attempt << 32)));
            let seps = minimal_separators(&g).len();
            (g, seps)
        })
        .collect();
    drawn.sort_by(|(_, a), (_, b)| off_median(*a).total_cmp(&off_median(*b)));
    let chosen = drawn
        .iter()
        .position(|(g, _)| decompose(g, ReductionLevel::Full).atoms.len() == 1)
        .unwrap_or(0);
    drawn.swap_remove(chosen).0
}

/// The fixed graphs plus `count` seeded random graphs drawn by
/// [`nearest_median`], p in {0.25, 0.3} changing every second graph, so
/// that with the costs alternating ([`plan`]) each cost meets each p.
pub fn inputs(seed: u64, count: usize) -> Vec<Graph> {
    let mut out = fixed_graphs().to_vec();
    out.extend((0..count).map(|i| nearest_median(mix(seed) ^ i as u64, [0.25, 0.3][(i / 2) % 2])));
    out
}

/// The (graph index, cost) of every session of a pass, in order: each
/// fixed graph by every cost, each random graph by one cost, taking them in
/// turn. That spends a pass on more distinct random graphs than ranking
/// each by both costs would (fill and width sessions of one graph take
/// similar times), and a seed's figures rest less on a few graphs.
pub fn plan(graphs: usize) -> Vec<(usize, &'static str)> {
    let fixed = fixed_graphs().len();
    let mut out: Vec<_> = (0..fixed).flat_map(|gi| COSTS.map(|c| (gi, c))).collect();
    out.extend((fixed..graphs).map(|gi| (gi, COSTS[(gi - fixed) % COSTS.len()])));
    out
}

/// One session's raw output, converted to a [`Stream`] after the pass.
struct Session {
    results: Vec<RankedTriangulation>,
    error: Option<String>,
}

/// Runs every session of `plan` once and logs timings and counters.
fn pass(
    graphs: &[Graph],
    plan: &[(usize, &'static str)],
    lane: &mut Lane,
) -> (PassLog, Vec<Session>) {
    let mut log = PassLog::default();
    let mut sessions = Vec::with_capacity(plan.len());
    let pass_start = Instant::now();
    for &(gi, cost) in plan {
        let g = &graphs[gi];
        let start = Instant::now();
        let sid = lane.reserve();
        let parts = lane.time("pmc", Some(sid), || potential_maximal_cliques(g));
        log.counters.add("pmc.count", parts.pmcs.len() as u64);
        let pre = lane.time("mintriang.build", Some(sid), || {
            Preprocessed::from_parts(g, parts.minimal_separators, parts.pmcs)
        });
        log.counters
            .add("mintriang.full_blocks", pre.full_blocks().len() as u64);
        let mut stamps = Vec::with_capacity(K);
        let mut results = Vec::with_capacity(K);
        let drive_start = Instant::now();
        let report = Enumerate::with(&pre)
            .cost(cost_of(cost))
            .threads(1)
            .max_results(K)
            .drive(|r| {
                stamps.push(Instant::now());
                results.push(r);
                ControlFlow::Continue(())
            });
        let end = Instant::now();
        let rid = lane.reserve();
        lane.record(rid, "ranked", Some(sid), drive_start, end);
        lane.record(sid, "session", None, start, end);
        log.record_op(start, &stamps, end);
        let error = match report {
            Ok(report) => {
                let s = &report.stats;
                let c = &mut log.counters;
                c.add("results", s.results as u64);
                c.add("ranked.nodes_explored", s.nodes_explored as u64);
                c.add("ranked.nodes_pruned", s.nodes_pruned as u64);
                c.max("ranked.max_queue_depth", s.max_queue_depth as u64);
                (results.len() < K && report.stop_reason != StopReason::Exhausted)
                    .then(|| format!("stopped early: {}", report.stop_reason))
            }
            Err(e) => Some(e.to_string()),
        };
        sessions.push(Session { results, error });
    }
    log.wall = pass_start.elapsed();
    (log, sessions)
}

fn streams(graphs: &[Graph], plan: &[(usize, &str)], sessions: &[Session]) -> Vec<Stream> {
    plan.iter()
        .zip(sessions)
        .map(|(&(gi, _), s)| s.results.iter().map(|r| Item::of(&graphs[gi], r)).collect())
        .collect()
}

/// Runs `ranked_deep` for at least `seconds`, in whole passes.
pub fn run(graphs: &[Graph], seconds: f64, traced: bool, origin: Instant) -> Report {
    let plan = plan(graphs.len());
    let mut report = Report {
        concurrency: 1,
        delay_by_gap: true,
        ..Report::default()
    };
    let mut reference: Option<Vec<Stream>> = None;
    let mut verdicts: Vec<Option<String>> = Vec::new();
    let started = Instant::now();
    // The traced run alternates untraced and traced passes, so the tracing
    // overhead is measured inside one run.
    let min_passes = if traced {
        MIN_TRACED_PASSES
    } else {
        MIN_PASSES
    };
    for index in 0.. {
        if index >= min_passes && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced_pass = traced && index % 2 == 1;
        let mut pass_lane = Lane::new(traced_pass, 0, origin);
        let (log, sessions) = pass(graphs, &plan, &mut pass_lane);
        let got = streams(graphs, &plan, &sessions);
        match &reference {
            None => {
                verdicts = sessions.iter().map(|s| s.error.clone()).collect();
                reference = Some(got);
            }
            Some(first) => {
                // A later pass must repeat the first one bit for bit.
                for (i, (a, b)) in first.iter().zip(&got).enumerate() {
                    let e = sessions[i].error.clone().or(same_stream(a, b).err());
                    if let Some(e) = e {
                        verdicts[i].get_or_insert(format!("pass {index}: {e}"));
                    }
                }
            }
        }
        if traced_pass {
            report
                .tables
                .push(fold(&pass_lane.spans, 1, log.wall.as_nanos() as f64));
            report.spans.extend(pass_lane.spans);
        }
        report.add_pass(log, traced_pass);
        if index + 1 == min_passes {
            report.measure_rss();
        }
    }

    // The gate, outside the timed window.
    let reference = reference.expect("at least one pass ran");
    let mut probe = Counters::default();
    let mut imbalance = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        let t = Instant::now();
        let seps = minimal_separators(g);
        probe.busy_ms("separators.busy_ms", t.elapsed());
        probe.add("separators.count", seps.len() as u64);
        let pre = Preprocessed::new(g);
        let all_seps = pre.minimal_separators().to_vec();
        let sessions_of_g = plan.iter().enumerate().filter(|(_, &(sg, _))| sg == gi);
        for (i, &(_, cost)) in sessions_of_g {
            let t = Instant::now();
            let optimum = min_triangulation(&pre, cost_of(cost)).map(|t| t.cost.value());
            probe.busy_ms("mintriang.solve_ms", t.elapsed());
            if all_seps.len() >= 2 {
                // The criterion row's constraint: include separator 0,
                // exclude separator 1.
                let constraints =
                    Constraints::new(vec![all_seps[0].clone()], vec![all_seps[1].clone()]);
                let constrained = Constrained::new(cost_of(cost), &constraints);
                let t = Instant::now();
                std::hint::black_box(min_triangulation(&pre, &constrained));
                probe.busy_ms("mintriang.constrained_solve_ms", t.elapsed());
            }
            let mut verdict = check_stream(g, &reference[i], optimum);
            if verdict.is_ok() {
                verdict = parallel_stream(&pre, cost, &mut probe, &mut imbalance)
                    .and_then(|par| same_stream(&reference[i], &par))
                    .map_err(|e| format!("threads={PARALLEL_THREADS} differs from threads=1: {e}"));
            }
            if let Err(e) = verdict {
                verdicts[i].get_or_insert(e);
            }
        }
    }
    if !imbalance.is_empty() {
        probe
            .0
            .insert("pool.task_imbalance", median(&imbalance).unwrap_or(0.0));
    }
    report.probes = probe;
    // A session that fails the gate in one pass counts as failed in all.
    report.attempted = verdicts.len() * report.passes();
    report.failures = verdicts.into_iter().flatten().collect();
    report.failed = report.failures.len() * report.passes();
    report
}

/// The session rerun on the parallel engine, which must reproduce the
/// `threads = 1` stream bit for bit; its pool counters go to `probe`, its
/// worker balance (max over mean tasks per worker) to `imbalance`.
fn parallel_stream(
    pre: &Preprocessed,
    cost: &str,
    probe: &mut Counters,
    imbalance: &mut Vec<f64>,
) -> Result<Stream, String> {
    let g = pre.graph();
    let mut stream = Vec::with_capacity(K);
    let report = Enumerate::with(pre)
        .cost(cost_of(cost))
        .threads(PARALLEL_THREADS)
        .max_results(K)
        .drive(|r| {
            stream.push(Item::of(g, &r));
            ControlFlow::Continue(())
        })
        .map_err(|e| e.to_string())?;
    let s = &report.stats;
    let tasks: usize = s.worker_tasks.iter().sum();
    probe.max("pool.effective_threads", s.effective_threads as u64);
    probe.add("pool.tasks", tasks as u64);
    probe.add("pool.steals", s.steals as u64);
    if let Some(&max) = s.worker_tasks.iter().max().filter(|_| tasks > 0) {
        imbalance.push(max as f64 * s.worker_tasks.len() as f64 / tasks as f64);
    }
    Ok(stream)
}

/// Generates `ranked_deep`'s graphs; returns them with the time it took.
pub fn setup(seed: u64) -> (Vec<Graph>, Duration) {
    let t = Instant::now();
    let graphs = inputs(seed, RANDOM_GRAPHS);
    (graphs, t.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_one_seed_and_differ_across_seeds() {
        let edges = |gs: &[Graph]| {
            gs.iter()
                .map(|g| g.edges().collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        let a = inputs(5, 2);
        assert_eq!(a.len(), 4);
        assert_eq!(edges(&a), edges(&inputs(5, 2)));
        assert_ne!(edges(&a), edges(&inputs(6, 2)));
        // Every drawn graph is non-decomposable and, but for a rare
        // fallback, within 10% of the median separator count.
        let drawn: Vec<Graph> = (0..10).flat_map(|s| inputs(s, 6).split_off(2)).collect();
        for g in &drawn {
            assert_eq!(decompose(g, ReductionLevel::Full).atoms.len(), 1);
        }
        let near = drawn
            .iter()
            .filter(|g| off_median(minimal_separators(g).len()) <= 0.1)
            .count();
        assert!(near * 10 >= drawn.len() * 9, "{near} of 60 near the median");
    }

    #[test]
    fn the_plan_ranks_fixed_graphs_by_every_cost_and_the_rest_in_turn() {
        assert_eq!(
            plan(5),
            [
                (0, "fill"),
                (0, "width"),
                (1, "fill"),
                (1, "width"),
                (2, "fill"),
                (3, "width"),
                (4, "fill")
            ]
        );
    }
}
