//! Spans the benchmark records around its own calls into the library, kept
//! in memory, folded into per-layer self times, and written out as JSONL.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique across lanes: the lane number in the high 32 bits.
    pub id: u64,
    /// The span that caused this one; `None` for a top-level span.
    pub parent: Option<u64>,
    /// The thread (client connection, or the main thread) it ran on.
    pub lane: u32,
    /// Layer name, such as `pmc` or `ranked`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one thread. A disabled lane records nothing and hands out
/// id 0, so the untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Lane {
    enabled: bool,
    lane: u32,
    origin: Instant,
    next: u64,
    pub spans: Vec<Span>,
}

impl Lane {
    pub fn new(enabled: bool, lane: u32, origin: Instant) -> Lane {
        Lane {
            enabled,
            lane,
            origin,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh span id, for a parent whose interval is recorded after its
    /// children's.
    pub fn reserve(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next += 1;
        (u64::from(self.lane) << 32) | self.next
    }

    /// Records `[start, end]` under the reserved `id`.
    pub fn record(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            lane: self.lane,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a new span and returns its result.
    pub fn time<T>(&mut self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let id = self.reserve();
        self.record(id, name, parent, start, Instant::now());
        out
    }
}

/// Per-layer self times of one window of work, in nanoseconds averaged
/// over its lanes, with the part no top-level span covers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTable {
    pub self_ns: BTreeMap<&'static str, f64>,
    pub unattributed_ns: f64,
    pub wall_ns: f64,
}

/// Folds `spans` into self times: a span's self time is its duration minus
/// the part of it its children cover. `lanes` threads each ran for the
/// whole `wall_ns`, so the table is the per-lane average and its rows plus
/// the unattributed line sum to `wall_ns` whenever children lie inside
/// their parents without overlapping each other.
pub fn fold(spans: &[Span], lanes: usize, wall_ns: f64) -> LayerTable {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let lanes = lanes.max(1) as f64;
    let mut table = LayerTable {
        wall_ns,
        unattributed_ns: wall_ns,
        ..LayerTable::default()
    };
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let self_ns = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *table.self_ns.entry(s.name).or_default() += self_ns as f64 / lanes;
        if s.parent.is_none() {
            table.unattributed_ns -= s.end_ns.saturating_sub(s.start_ns) as f64 / lanes;
        }
    }
    table
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut end = lo;
    for (a, b) in clipped {
        let a = a.max(end);
        if b > a {
            total += b - a;
            end = b;
        }
    }
    total
}

/// Writes `header` and then one JSON object per span to `path`.
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"lane\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, parent, s.lane, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            lane: (id >> 32) as u32,
            name,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_wall() {
        let spans = vec![
            span(1, None, "session", 10, 110),
            span(2, Some(1), "pmc", 10, 40),
            span(3, Some(1), "ranked", 50, 100),
            span(4, Some(3), "solve", 60, 70),
        ];
        let t = fold(&spans, 1, 200.0);
        assert_eq!(t.self_ns["session"], 20.0);
        assert_eq!(t.self_ns["pmc"], 30.0);
        assert_eq!(t.self_ns["ranked"], 40.0);
        assert_eq!(t.self_ns["solve"], 10.0);
        assert_eq!(t.unattributed_ns, 100.0);
        let sum: f64 = t.self_ns.values().sum::<f64>() + t.unattributed_ns;
        assert_eq!(sum, 200.0);
    }

    #[test]
    fn lanes_average_and_children_are_clipped_and_merged() {
        let lane1 = 1u64 << 32;
        let spans = vec![
            span(1, None, "request", 0, 100),
            // Overlapping children count once; the part outside is clipped.
            span(2, Some(1), "session", 20, 60),
            span(3, Some(1), "session", 50, 130),
            span(lane1 | 1, None, "request", 0, 50),
        ];
        let t = fold(&spans, 2, 100.0);
        // Lane 0: request self = 100 - 80 = 20; lane 1: 50.
        assert_eq!(t.self_ns["request"], 35.0);
        // Uncovered wall: lane 0 none, lane 1 half.
        assert_eq!(t.unattributed_ns, 25.0);
    }

    #[test]
    fn disabled_lane_records_nothing() {
        let mut lane = Lane::new(false, 0, Instant::now());
        assert_eq!(lane.time("pmc", None, || 7), 7);
        assert_eq!(lane.reserve(), 0);
        assert!(lane.spans.is_empty());
        let mut on = Lane::new(true, 3, Instant::now());
        on.time("pmc", None, || ());
        assert_eq!(on.spans.len(), 1);
        assert_eq!(on.spans[0].id >> 32, 3);
    }
}
