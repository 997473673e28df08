//! What a run measured, and how it becomes the reported metrics.

use crate::spans::{LayerTable, Span};
use crate::stats::{median, percentile, tail_percentile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Untraced passes a run makes at least, so that every operation's
/// minimum is taken over several samples. A traced run makes at least two
/// untraced and two traced passes.
pub const MIN_PASSES: usize = 4;
pub const MIN_TRACED_PASSES: usize = 4;

/// Named numbers: work counters, or busy times in milliseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters(pub BTreeMap<&'static str, f64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.0.entry(name).or_default() += v as f64;
    }

    pub fn max(&mut self, name: &'static str, v: u64) {
        let e = self.0.entry(name).or_default();
        *e = e.max(v as f64);
    }

    pub fn busy_ms(&mut self, name: &'static str, d: Duration) {
        *self.0.entry(name).or_default() += d.as_secs_f64() * 1e3;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The client-side timings of one operation: a direct session or a served
/// request.
#[derive(Debug, Default)]
pub struct OpTiming {
    pub ttfr_ms: Option<f64>,
    /// Gaps between consecutive results, in rank order — the paper's delay
    /// without initialization.
    pub gaps_ms: Vec<f64>,
    pub latency_ms: f64,
}

/// One pass over a workload's inputs.
#[derive(Debug, Default)]
pub struct PassLog {
    pub wall: Duration,
    pub results: usize,
    /// Every operation of the pass, in input order.
    pub ops: Vec<OpTiming>,
    /// Work counters that must repeat exactly from pass to pass.
    pub counters: Counters,
    /// Figures that depend on timing: the served warm/cold split, cache
    /// hits, session times.
    pub timing: Counters,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl PassLog {
    /// Logs one operation that started at `start`, emitted a result at each
    /// of `stamps` and ended at `end`.
    pub fn record_op(&mut self, start: Instant, stamps: &[Instant], end: Instant) {
        self.results += stamps.len();
        self.ops.push(OpTiming {
            ttfr_ms: stamps.first().map(|&first| ms(first - start)),
            gaps_ms: stamps.windows(2).map(|w| ms(w[1] - w[0])).collect(),
            latency_ms: ms(end - start),
        });
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations in flight at once: 1 for `ranked_deep`, the client count
    /// for `serve_mix`.
    pub concurrency: usize,
    /// Whether an operation's delay takes each gap at its minimum over the
    /// passes ([`per_op_samples`]): true for `ranked_deep`, whose gaps are
    /// compute; false for `serve_mix`, whose gaps are as much the client's
    /// read bursts.
    pub delay_by_gap: bool,
    pub attempted: usize,
    pub failed: usize,
    /// One line per failed operation, for stderr.
    pub failures: Vec<String>,
    pub setup_s: f64,
    pub rss_mb: f64,
    pub untraced: Vec<PassLog>,
    pub traced: Vec<PassLog>,
    /// One layer table per traced pass.
    pub tables: Vec<LayerTable>,
    pub spans: Vec<Span>,
    /// Layer probes made outside the timed window: separators, solves,
    /// the parallel rerun's pool, decomposition, canonical forms.
    pub probes: Counters,
}

/// End-to-end metrics with their units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("results_per_s", "1/s"),
    ("ttfr_p50_ms", "ms"),
    ("ttfr_p90_ms", "ms"),
    ("ttfr_p99_ms", "ms"),
    ("delay_p50_ms", "ms"),
    ("delay_p95_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with their units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("pmc.busy_ms", "ms"),
    ("pmc.count", "count"),
    ("pmc.share", "frac"),
    ("separators.busy_ms", "ms"),
    ("separators.count", "count"),
    ("mintriang.build_ms", "ms"),
    ("mintriang.full_blocks", "count"),
    ("mintriang.solve_ms", "ms"),
    ("mintriang.constrained_solve_ms", "ms"),
    ("ranked.busy_ms", "ms"),
    ("ranked.nodes_explored", "count"),
    ("ranked.nodes_pruned", "count"),
    ("ranked.max_queue_depth", "count"),
    ("ranked.ms_per_node", "ms"),
    ("ranked.results_per_node", "frac"),
    ("pool.effective_threads", "count"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.task_imbalance", "ratio"),
    ("reduce.decompose_ms", "ms"),
    ("reduce.atoms", "count"),
    ("reduce.atoms_deduped", "count"),
    ("graph.canonical_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "frac"),
    ("cache.publishes", "count"),
    ("cache.evictions", "count"),
    ("cache.bytes", "bytes"),
    ("serve.warm_frac", "frac"),
    ("serve.session_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.admission_wait_p50_ms", "ms"),
    ("serve.backpressure_stalls", "count"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("counters.repeat", "bool"),
];

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    median(&v).unwrap_or(0.0)
}

/// One sample per operation: the minimum of that operation's values over
/// `passes`, which repeat the same inputs. On a shared host one call can
/// take 1.5x another identical one, so the minimum of several is the steady
/// figure (min-of-N); the percentiles across operations then describe the
/// inputs.
///
/// An operation's delay is a mean per operation, as the paper averages
/// delay per run, not a percentile over single gaps: on `serve_mix` two
/// results often arrive in one read burst (~0.5 µs apart) and sometimes
/// apart (~0.5 ms), and percentiles over single gaps flip between the two
/// modes from seed to seed. With `by_gap` it is the mean over the gaps of
/// each gap's minimum: the streams repeat bit for bit, so the k-th gap of
/// every pass does the same work, and a slow spell of the host spoils a
/// few gaps of a pass rather than a whole session. Without, it is the
/// minimum of the operation's mean gap, which suits served streams: there
/// a gap's minimum is mostly the read burst, whose share changes from seed
/// to seed.
pub fn per_op_samples(passes: &[PassLog], by_gap: bool) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let ops = passes.iter().map(|p| p.ops.len()).min().unwrap_or(0);
    let best = |i: usize, f: fn(&OpTiming) -> Option<f64>| {
        let values: Option<Vec<f64>> = passes.iter().map(|p| f(&p.ops[i])).collect();
        values.map(|v| v.into_iter().fold(f64::INFINITY, f64::min))
    };
    let ttfr = (0..ops).filter_map(|i| best(i, |o| o.ttfr_ms)).collect();
    let delay = (0..ops)
        .filter_map(|i| {
            if by_gap {
                min_gap_mean(passes, i)
            } else {
                best(i, |o| {
                    (!o.gaps_ms.is_empty())
                        .then(|| o.gaps_ms.iter().sum::<f64>() / o.gaps_ms.len() as f64)
                })
            }
        })
        .collect();
    let latency = (0..ops)
        .filter_map(|i| best(i, |o| Some(o.latency_ms)))
        .collect();
    (ttfr, delay, latency)
}

/// Operation `i`'s mean over its gaps of each gap's minimum over `passes`;
/// `None` when it has fewer than two results or its gap count differs
/// between passes.
fn min_gap_mean(passes: &[PassLog], i: usize) -> Option<f64> {
    let gaps = passes.first()?.ops[i].gaps_ms.len();
    if gaps == 0 || passes.iter().any(|p| p.ops[i].gaps_ms.len() != gaps) {
        return None;
    }
    let sum: f64 = (0..gaps)
        .map(|k| {
            passes
                .iter()
                .map(|p| p.ops[i].gaps_ms[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    Some(sum / gaps as f64)
}

impl Report {
    pub fn add_pass(&mut self, log: PassLog, traced: bool) {
        if traced {
            self.traced.push(log);
        } else {
            self.untraced.push(log);
        }
    }

    pub fn passes(&self) -> usize {
        self.untraced.len() + self.traced.len()
    }

    /// Records the process's peak resident set so far, in MB. The runs call
    /// it after their first [`MIN_PASSES`] passes, so that the figure does
    /// not depend on how many passes a run fits in: on `serve_mix`, where
    /// every pass starts a new daemon, the peak after five passes was 60–70
    /// MB and after ten 106–117 MB.
    pub fn measure_rss(&mut self) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(0.0);
        self.rss_mb = kb / 1024.0;
    }

    /// Whether every pass counted exactly the same work.
    pub fn counters_repeat(&self) -> bool {
        let mut all = self
            .untraced
            .iter()
            .chain(&self.traced)
            .map(|p| &p.counters);
        let first = all.next();
        all.all(|c| Some(c) == first)
    }

    /// The timing samples of the untraced passes ([`per_op_samples`]):
    /// ttfr, delay and latency.
    pub fn samples(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        per_op_samples(&self.untraced, self.delay_by_gap)
    }

    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let (ttfr, delay, latency) = self.samples();
        let pct = |s: &[f64], p: f64| percentile(s, p).unwrap_or(0.0);
        // A closed loop of `concurrency` callers completes, by Little's law,
        // `concurrency / mean latency` operations per second.
        let busy_s = latency.iter().sum::<f64>() / 1e3 / self.concurrency.max(1) as f64;
        let results = self.untraced.first().map_or(0, |p| p.results) as f64;
        let ops = latency.len() as f64;
        let values = [
            self.setup_s,
            results / busy_s,
            pct(&ttfr, 50.0),
            pct(&ttfr, 90.0),
            pct(&ttfr, 99.0),
            pct(&delay, 50.0),
            pct(&delay, 95.0),
            pct(&latency, 50.0),
            pct(&latency, 99.0),
            ops / busy_s,
            self.rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        let layer = |name: &str| {
            med(self
                .tables
                .iter()
                .map(|t| t.self_ns.get(name).copied().unwrap_or(0.0) / 1e6))
        };
        let wall = med(self.tables.iter().map(|t| t.wall_ns / 1e6));
        let first = self.traced.first().or(self.untraced.first());
        let counters = first.map(|p| p.counters.clone()).unwrap_or_default();
        for (name, v) in counters.0.iter().chain(self.probes.0.iter()) {
            m.insert(name, *v);
        }
        let timing = |name: &str| med(self.traced.iter().map(|p| p.timing.get(name)));
        for name in [
            "serve.warm_frac",
            "serve.session_p50_ms",
            "serve.overhead_p50_ms",
            "serve.admission_wait_p50_ms",
            "serve.backpressure_stalls",
            "cache.hits",
            "cache.misses",
        ] {
            if self.traced.iter().any(|p| p.timing.0.contains_key(name)) {
                m.insert(name, timing(name));
            }
        }
        let hits = m.get("cache.hits").copied().unwrap_or(0.0);
        let misses = m.get("cache.misses").copied().unwrap_or(0.0);
        if hits + misses > 0.0 {
            m.insert("cache.hit_ratio", hits / (hits + misses));
        }
        m.insert("pmc.busy_ms", layer("pmc"));
        m.insert(
            "pmc.share",
            if wall > 0.0 { layer("pmc") / wall } else { 0.0 },
        );
        m.insert("mintriang.build_ms", layer("mintriang.build"));
        m.insert("ranked.busy_ms", layer("ranked"));
        let nodes = counters.get("ranked.nodes_explored");
        if nodes > 0.0 {
            m.insert("ranked.ms_per_node", layer("ranked") / nodes);
            m.insert("ranked.results_per_node", counters.get("results") / nodes);
        }
        m.insert("trace.wall_ms", wall);
        m.insert(
            "trace.unattributed_ms",
            med(self.tables.iter().map(|t| t.unattributed_ns / 1e6)),
        );
        let fastest = |passes: &[PassLog]| {
            passes
                .iter()
                .map(|p| p.wall.as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        };
        let (untraced, traced) = (fastest(&self.untraced), fastest(&self.traced));
        if untraced.is_finite() && traced.is_finite() {
            m.insert("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
        }
        m.insert(
            "counters.repeat",
            if self.counters_repeat() { 1.0 } else { 0.0 },
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// Human-readable lines for stdout: each timing with its sample count
    /// and the tail its sample supports.
    pub fn describe(&self) -> Vec<String> {
        let (ttfr, delay, latency) = self.samples();
        let tail = |name: &str, s: &[f64]| match tail_percentile(s.len()) {
            Some(p) => format!(
                "{name}: n={} tail=p{p} {:.3} ms",
                s.len(),
                percentile(s, p).unwrap_or(0.0)
            ),
            None => format!("{name}: n={} (too few samples for a tail)", s.len()),
        };
        let failed_frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        vec![
            format!(
                "passes: {} untraced, {} traced; failed_frac = {failed_frac} frac ({} of {})",
                self.untraced.len(),
                self.traced.len(),
                self.failed,
                self.attempted
            ),
            tail("ttfr", &ttfr),
            tail("delay", &delay),
            tail("latency", &latency),
            format!("counters repeat across passes: {}", self.counters_repeat()),
            format!(
                "pass walls (s): untraced {:.3?} traced {:.3?}",
                self.untraced
                    .iter()
                    .map(|p| p.wall.as_secs_f64())
                    .collect::<Vec<_>>(),
                self.traced
                    .iter()
                    .map(|p| p.wall.as_secs_f64())
                    .collect::<Vec<_>>()
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(ops: &[(f64, &[f64])]) -> PassLog {
        PassLog {
            ops: ops
                .iter()
                .map(|&(ttfr, gaps)| OpTiming {
                    ttfr_ms: Some(ttfr),
                    gaps_ms: gaps.to_vec(),
                    latency_ms: ttfr + gaps.iter().sum::<f64>(),
                })
                .collect(),
            ..PassLog::default()
        }
    }

    #[test]
    fn delay_takes_each_gap_at_its_fastest() {
        let passes = [
            pass(&[(5.0, &[1.0, 4.0]), (2.0, &[])]),
            pass(&[(3.0, &[2.0, 2.0]), (1.0, &[])]),
        ];
        let (ttfr, delay, latency) = per_op_samples(&passes, true);
        assert_eq!(ttfr, [3.0, 1.0]);
        // Gaps 1 and 2 are fastest in different passes.
        assert_eq!(delay, [1.5]);
        assert_eq!(latency, [7.0, 1.0]);
        // Per operation, the pass with the smaller mean gap wins.
        assert_eq!(per_op_samples(&passes, false).1, [2.0]);
    }

    #[test]
    fn delay_skips_an_operation_whose_gap_count_changes() {
        let passes = [pass(&[(1.0, &[1.0, 1.0])]), pass(&[(1.0, &[1.0])])];
        assert!(per_op_samples(&passes, true).1.is_empty());
    }
}
