//! The output gate every workload passes through, outside the timed window.

use mtr_chordal::is_minimal_triangulation;
use mtr_core::RankedTriangulation;
use mtr_graph::Graph;

/// One ranked result as both the library and the daemon report it: the
/// cost and the fill edges, in emission order.
#[derive(Clone, Debug, PartialEq)]
pub struct Item {
    pub cost: f64,
    pub fill: Vec<(u32, u32)>,
}

/// A ranked stream, rank 0 first.
pub type Stream = Vec<Item>;

impl Item {
    pub fn of(g: &Graph, r: &RankedTriangulation) -> Item {
        Item {
            cost: r.cost.value(),
            fill: g.fill_edges_of(&r.triangulation),
        }
    }
}

/// Checks one ranked stream of `g`: costs never decrease, every result is a
/// minimal triangulation of `g`, no fill set repeats, and rank 0 costs
/// `optimum` (the `min_triangulation` optimum) when one is given. Returns
/// the first violation found.
pub fn check_stream(g: &Graph, stream: &[Item], optimum: Option<f64>) -> Result<(), String> {
    if let (Some(opt), Some(first)) = (optimum, stream.first()) {
        if first.cost.to_bits() != opt.to_bits() {
            return Err(format!(
                "rank 0 costs {} but the optimum is {opt}",
                first.cost
            ));
        }
    }
    if optimum.is_some() && stream.is_empty() {
        return Err("empty stream for a graph with a triangulation".into());
    }
    for (rank, pair) in stream.windows(2).enumerate() {
        if pair[1].cost < pair[0].cost {
            return Err(format!(
                "cost decreases from {} at rank {rank} to {} at rank {}",
                pair[0].cost,
                pair[1].cost,
                rank + 1
            ));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for (rank, item) in stream.iter().enumerate() {
        let mut fill = item.fill.clone();
        fill.sort_unstable();
        if !seen.insert(fill) {
            return Err(format!("rank {rank} repeats an earlier fill set"));
        }
        let mut h = g.clone();
        for &(u, v) in &item.fill {
            if u >= g.n() || v >= g.n() || u == v || g.has_edge(u, v) {
                return Err(format!("rank {rank} has an invalid fill edge ({u}, {v})"));
            }
            h.add_edge(u, v);
        }
        if !is_minimal_triangulation(g, &h) {
            return Err(format!("rank {rank} is not a minimal triangulation"));
        }
    }
    Ok(())
}

/// Bit-for-bit equality of two streams: cost bits, fill edges, tie order.
pub fn same_stream(a: &[Item], b: &[Item]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} results against {}", a.len(), b.len()));
    }
    for (rank, (x, y)) in a.iter().zip(b).enumerate() {
        if x.cost.to_bits() != y.cost.to_bits() || x.fill != y.fill {
            return Err(format!("streams differ at rank {rank}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_core::cost::FillIn;
    use mtr_core::{min_triangulation, Enumerate, Preprocessed};

    fn grid_stream() -> (Graph, Stream, f64) {
        let g = mtr_workloads::structured::grid(3, 3);
        let run = Enumerate::on(&g)
            .cost(&FillIn)
            .max_results(12)
            .run()
            .expect("grid session");
        let stream: Stream = run.results.iter().map(|r| Item::of(&g, r)).collect();
        let opt = min_triangulation(&Preprocessed::new(&g), &FillIn)
            .expect("grid has a triangulation")
            .cost
            .value();
        (g, stream, opt)
    }

    #[test]
    fn a_genuine_stream_passes() {
        let (g, stream, opt) = grid_stream();
        assert_eq!(check_stream(&g, &stream, Some(opt)), Ok(()));
        assert_eq!(same_stream(&stream, &stream), Ok(()));
    }

    #[test]
    fn swapped_ranks_are_rejected() {
        let (g, mut stream, opt) = grid_stream();
        let last = stream
            .iter()
            .rposition(|i| i.cost > stream[0].cost)
            .expect("costs rise within 12 results");
        stream.swap(0, last);
        assert!(check_stream(&g, &stream, None).is_err());
        assert!(check_stream(&g, &stream, Some(opt)).is_err());
    }

    #[test]
    fn a_dropped_fill_edge_is_rejected() {
        let (g, mut stream, _) = grid_stream();
        let rank = stream
            .iter()
            .position(|i| !i.fill.is_empty())
            .expect("grids need fill");
        stream[rank].fill.pop();
        let err = check_stream(&g, &stream, None).expect_err("not a triangulation");
        assert!(err.contains("minimal triangulation"), "{err}");
    }

    #[test]
    fn repeats_wrong_optimum_and_divergent_streams_are_rejected() {
        let (g, stream, opt) = grid_stream();
        let mut repeated = stream.clone();
        repeated[1] = repeated[0].clone();
        assert!(check_stream(&g, &repeated, None).is_err());
        assert!(check_stream(&g, &stream, Some(opt - 1.0)).is_err());
        let mut reordered = stream.clone();
        reordered.swap(0, 1);
        assert!(same_stream(&stream, &reordered).is_err());
        assert!(same_stream(&stream, &stream[1..]).is_err());
    }
}
