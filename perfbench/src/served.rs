//! The `serve_mix` workload: an in-process daemon driven closed-loop by two
//! client connections replaying a seeded request trace.

use crate::report::{Counters, PassLog, Report, MIN_PASSES, MIN_TRACED_PASSES};
use crate::spans::{fold, Lane, Span};
use crate::stats::median;
use crate::verify::{check_stream, same_stream, Item, Stream};
use mtr_cache::{AtomStore, DEFAULT_BYTE_BUDGET};
use mtr_core::cost::Width;
use mtr_core::{min_triangulation, Enumerate, Preprocessed};
use mtr_graph::Graph;
use mtr_reduce::{decompose, EnumerateReduceExt, ReductionLevel};
use mtr_serve::json::Json;
use mtr_serve::{serve_ephemeral, Client, EnumerateRequest, ServerConfig, ServerHandle};
use mtr_workloads::traffic::{trace, TrafficMix};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Requests per pass; every pass replays the whole trace on a fresh daemon.
const REQUESTS: usize = 1000;
const BLOBS: u32 = 3;
const BLOB_N: u32 = 14;
const TOP_K: usize = 10;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;

pub struct Inputs {
    pub graphs: Vec<Graph>,
    /// For each request, the fresh request its graph repeats or relabels.
    pub bases: Vec<usize>,
    pub requests: Vec<EnumerateRequest>,
}

fn request_for(g: &Graph) -> EnumerateRequest {
    EnumerateRequest {
        tenant: "bench".into(),
        n: g.n(),
        edges: g.edges().collect(),
        cost: "width".into(),
        width_bound: None,
        max_results: Some(TOP_K),
        deadline_ms: None,
        node_budget: None,
        threads: 1,
        cache: true,
        binary: true,
    }
}

fn start_daemon() -> ServerHandle {
    serve_ephemeral(ServerConfig {
        workers: WORKERS,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral daemon on 127.0.0.1")
}

/// Generates the trace and starts a daemon; returns the inputs and the
/// time both took. The daemon is shut down again: each pass starts its own,
/// so every pass begins with an empty atom store.
pub fn setup(seed: u64) -> (Inputs, Duration) {
    let t = Instant::now();
    let (graphs, bases): (Vec<Graph>, Vec<usize>) =
        trace(REQUESTS, BLOBS, BLOB_N, TrafficMix::default_mix(), seed)
            .into_iter()
            .map(|r| (r.graph, r.base))
            .unzip();
    let requests = graphs.iter().map(request_for).collect();
    let daemon = start_daemon();
    let took = t.elapsed();
    daemon.shutdown();
    let inputs = Inputs {
        graphs,
        bases,
        requests,
    };
    (inputs, took)
}

/// What the client saw of one request.
struct Served {
    index: usize,
    sent: Instant,
    stamps: Vec<Instant>,
    end: Instant,
    outcome: Result<(Stream, mtr_serve::Done), String>,
}

fn stat(done: &mtr_serve::Done, key: &str) -> f64 {
    done.stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// One closed-loop client: sends its share of the trace, one request after
/// the other.
fn client_loop(
    addr: &str,
    requests: &[EnumerateRequest],
    c: usize,
    lane: &mut Lane,
) -> Vec<Served> {
    let mut client = Client::connect_tcp(addr).expect("connect to the in-process daemon");
    let mut out = Vec::new();
    for index in (c..requests.len()).step_by(CLIENTS) {
        let mut stamps = Vec::with_capacity(TOP_K);
        let mut stream = Vec::with_capacity(TOP_K);
        let sent = Instant::now();
        let done = client.enumerate_streaming(&requests[index], |r| {
            stamps.push(Instant::now());
            stream.push(Item {
                cost: r.cost,
                fill: r.fill,
            });
        });
        let end = Instant::now();
        let rid = lane.reserve();
        if let Ok(done) = &done {
            // The session's own clock, placed at the end of the request:
            // the rest of the request is admission, queueing and transport.
            let session = Duration::from_secs_f64(stat(done, "total_secs"));
            let sid = lane.reserve();
            lane.record(
                sid,
                "serve.session",
                Some(rid),
                end - session.min(end - sent),
                end,
            );
        }
        lane.record(rid, "serve.request", None, sent, end);
        out.push(Served {
            index,
            sent,
            stamps,
            end,
            outcome: done.map(|d| (stream, d)).map_err(|e| e.to_string()),
        });
    }
    out
}

/// The p50 of a `serve.*_ns` histogram of the `metrics` frame, in ms: the
/// upper bound of the bucket holding the median sample.
fn histogram_p50_ms(metrics: &Json, name: &str) -> f64 {
    let Some(h) = metrics.get("metrics").and_then(|m| m.get(name)) else {
        return 0.0;
    };
    let count = h.get("count").and_then(Json::as_f64).unwrap_or(0.0);
    let mut seen = 0.0;
    for b in h.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
        let pair = b.as_arr().unwrap_or(&[]);
        if let [le, n] = pair {
            seen += n.as_f64().unwrap_or(0.0);
            if seen * 2.0 >= count {
                return le.as_f64().unwrap_or(0.0) / 1e6;
            }
        }
    }
    0.0
}

fn pass(inputs: &Inputs, traced: bool, origin: Instant) -> (PassLog, Vec<Served>, Vec<Span>) {
    let daemon = start_daemon();
    mtr_obs::reset();
    let addr = daemon
        .local_addr()
        .expect("a TCP daemon has an address")
        .to_string();
    let mut lanes: Vec<Lane> = (0..CLIENTS)
        .map(|c| Lane::new(traced, c as u32, origin))
        .collect();
    let pass_start = Instant::now();
    let mut served: Vec<Served> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(c, lane)| {
                let addr = addr.as_str();
                s.spawn(move || client_loop(addr, &inputs.requests, c, lane))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = pass_start.elapsed();
    let metrics = Client::connect_tcp(&addr)
        .and_then(|mut c| c.metrics())
        .unwrap_or(Json::Null);
    daemon.shutdown();
    served.sort_by_key(|s| s.index);

    let mut log = PassLog {
        wall,
        ..PassLog::default()
    };
    let mut session_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut warm = 0usize;
    for s in &served {
        log.record_op(s.sent, &s.stamps, s.end);
        if let Ok((stream, done)) = &s.outcome {
            let c = &mut log.counters;
            c.add("results", stream.len() as u64);
            c.add("reduce.atoms", stat(done, "atoms") as u64);
            c.add("reduce.atoms_deduped", stat(done, "atoms_deduped") as u64);
            let session = stat(done, "total_secs") * 1e3;
            session_ms.push(session);
            overhead_ms.push((s.end - s.sent).as_secs_f64() * 1e3 - session);
            warm += usize::from(done.queue == "warm");
        }
    }
    // Two clients race to publish the same atoms, so hits and misses
    // shift by a few from pass to pass; what the store holds does not.
    let store = |name: &str| {
        metrics
            .get("store")
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    for (key, name) in [
        ("cache.publishes", "publishes"),
        ("cache.evictions", "evictions"),
        ("cache.bytes", "bytes"),
    ] {
        log.counters.0.insert(key, store(name));
    }
    let t = &mut log.timing;
    t.0.insert("cache.hits", store("hits"));
    t.0.insert("cache.misses", store("misses"));
    t.0.insert("serve.warm_frac", warm as f64 / served.len().max(1) as f64);
    t.0.insert("serve.session_p50_ms", median(&session_ms).unwrap_or(0.0));
    t.0.insert("serve.overhead_p50_ms", median(&overhead_ms).unwrap_or(0.0));
    t.0.insert(
        "serve.admission_wait_p50_ms",
        histogram_p50_ms(&metrics, "serve.admission_wait_ns"),
    );
    let stalls = metrics
        .get("metrics")
        .and_then(|m| m.get("serve.backpressure_stalls"))
        .and_then(Json::as_f64);
    t.0.insert("serve.backpressure_stalls", stalls.unwrap_or(0.0));
    let spans = lanes.into_iter().flat_map(|l| l.spans).collect();
    (log, served, spans)
}

/// The reference every served stream must match bit for bit: the direct
/// session the daemon runs for a cached request — reduction on, the atom
/// cache on — over a store of the verifier's own.
fn reference(g: &Graph, store: &std::sync::Arc<AtomStore>) -> Result<Stream, String> {
    let mut stream = Vec::new();
    Enumerate::on(g)
        .cost(&Width)
        .threads(1)
        .max_results(TOP_K)
        .reduce(ReductionLevel::Full)
        .store(std::sync::Arc::clone(store))
        .drive(|r| {
            stream.push(Item::of(g, &r));
            ControlFlow::Continue(())
        })
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

/// The minimum width of `g`, solved atom by atom: the atoms of a clique
/// minimal-separator decomposition are triangulated independently, so the
/// optimum width is the largest atom optimum. A whole-graph solve of a
/// three-blob trace graph costs ~200 ms, one per atom ~3 ms.
fn width_optimum(g: &Graph, probe: &mut Counters) -> Option<f64> {
    let mut optimum = None::<f64>;
    for atom in decompose(g, ReductionLevel::Full).atoms {
        let pre = Preprocessed::new(&atom.graph);
        let t = Instant::now();
        let solved = min_triangulation(&pre, &Width)?;
        probe.busy_ms("mintriang.solve_ms", t.elapsed());
        let width = solved.cost.value();
        optimum = Some(optimum.map_or(width, |w| w.max(width)));
    }
    optimum
}

pub fn run(inputs: &Inputs, seconds: f64, traced: bool, origin: Instant) -> Report {
    let mut report = Report {
        concurrency: CLIENTS,
        ..Report::default()
    };
    let mut all_served: Vec<Vec<Served>> = Vec::new();
    let started = Instant::now();
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
        let (log, served, spans) = pass(inputs, traced_pass, origin);
        if traced_pass {
            report
                .tables
                .push(fold(&spans, CLIENTS, log.wall.as_nanos() as f64));
            report.spans.extend(spans);
        }
        report.add_pass(log, traced_pass);
        if index + 1 == min_passes {
            report.measure_rss();
        }
        all_served.push(served);
    }

    // The gate, outside the timed window: one reference per distinct
    // graph (verbatim repeats share it), checked on its own and against
    // every served copy.
    let store = AtomStore::in_memory(DEFAULT_BYTE_BUDGET);
    let mut probe = Counters::default();
    let mut optima: HashMap<usize, Option<f64>> = HashMap::new();
    let mut verdicts: HashMap<Vec<(u32, u32)>, Result<Stream, String>> = HashMap::new();
    for (g, &base) in inputs.graphs.iter().zip(&inputs.bases) {
        let key: Vec<(u32, u32)> = g.edges().collect();
        if verdicts.contains_key(&key) {
            continue;
        }
        let optimum = *optima
            .entry(base)
            .or_insert_with(|| width_optimum(&inputs.graphs[base], &mut probe));
        let verdict = reference(g, &store)
            .and_then(|stream| check_stream(g, &stream, optimum).map(|()| stream));
        verdicts.insert(key, verdict);
    }
    if traced {
        // The reduction layer as the daemon meets it: one decomposition per
        // request and one canonical form per atom.
        for g in &inputs.graphs {
            let t = Instant::now();
            let d = decompose(g, ReductionLevel::Full);
            probe.busy_ms("reduce.decompose_ms", t.elapsed());
            let t = Instant::now();
            for atom in &d.atoms {
                std::hint::black_box(atom.graph.canonical_form());
            }
            probe.busy_ms("graph.canonical_ms", t.elapsed());
        }
    }
    report.probes = probe;
    for served in &all_served {
        for s in served {
            report.attempted += 1;
            let key: Vec<(u32, u32)> = inputs.graphs[s.index].edges().collect();
            let verdict = match (&s.outcome, &verdicts[&key]) {
                (Err(e), _) => Err(format!("request {}: {e}", s.index)),
                (_, Err(e)) => Err(format!("request {}: {e}", s.index)),
                (Ok((stream, _)), Ok(reference)) => same_stream(reference, stream)
                    .map_err(|e| format!("request {} differs from direct: {e}", s.index)),
            };
            if let Err(e) = verdict {
                report.failed += 1;
                report.failures.push(e);
            }
        }
    }
    report
}
