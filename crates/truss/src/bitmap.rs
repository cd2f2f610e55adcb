//! Bitmap-based truss decomposition (Section 6.2 of the paper).
//!
//! Every vertex's adjacency row becomes a bitmap of `n` bits, edge support
//! is `popcount(row(u) AND row(v))`, and the peeling loop enumerates
//! surviving triangles through the same word-level AND — dead edges
//! disappear from all future intersections the moment their bits are
//! cleared. This replaces the hash probing of the classic algorithm with
//! straight-line word operations, the speed-up reported in Table 4.
//!
//! Like the classic kernel, the peel takes a level cap:
//! [`bitmap_truss_decomposition`] runs it to the end and [`bitmap_ktruss`]
//! stops at the k-truss. Memory is `n²` bits, so the kernel suits graphs
//! of at most a few thousand vertices; ego-networks take it up to a size
//! ceiling, above which they fall back to [`crate::decompose`].

use sd_graph::{BitSet, CsrGraph, EdgeId};

use crate::decompose::{ktruss_cap, Peel, TrussDecomposition, FULL_PEEL};

/// Runs truss decomposition on `g` using adjacency bitmaps.
/// Produces exactly the same trussness as the peeling algorithm of
/// [`crate::decompose::truss_decomposition`] (property-tested).
pub fn bitmap_truss_decomposition(g: &CsrGraph) -> TrussDecomposition {
    bitmap_peel(g, FULL_PEEL).into_decomposition()
}

/// Ids of the edges of the k-truss of `g`, ascending, by bitmap peeling
/// stopped at support level `k − 2`; equal to [`crate::decompose::classic_ktruss`].
pub fn bitmap_ktruss(g: &CsrGraph, k: u32) -> Vec<EdgeId> {
    bitmap_peel(g, ktruss_cap(k)).into_live_edges()
}

/// The bitmap peeling loop, stopped at support level `cap`.
fn bitmap_peel(g: &CsrGraph, cap: u32) -> Peel {
    let n = g.n();
    if g.m() == 0 {
        return Peel::new(&[], cap);
    }

    let mut bits: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
    for &(u, v) in g.edges() {
        bits[u as usize].set(v as usize);
        bits[v as usize].set(u as usize);
    }

    // Support = popcount of the AND of the two endpoint rows.
    let support: Vec<u32> = g
        .edges()
        .iter()
        .map(|&(u, v)| bits[u as usize].intersection_count(&bits[v as usize]) as u32)
        .collect();

    let mut peel = Peel::new(&support, cap);
    let mut common = Vec::new();
    while let Some(e) = peel.next() {
        let (u, v) = g.edge(e);
        bits[u as usize].clear(v as usize);
        bits[v as usize].clear(u as usize);
        common.clear();
        bits[u as usize].for_each_intersection(&bits[v as usize], |w| common.push(w as u32));
        for &w in &common {
            // Both edges exist and are alive: their bits are still set.
            let e_uw = g.edge_id_between(u, w).expect("bit implies edge"); // sd-lint: allow(no-panic) a set bit in both bitmaps means the edge is live
            let e_vw = g.edge_id_between(v, w).expect("bit implies edge"); // sd-lint: allow(no-panic) a set bit in both bitmaps means the edge is live
            peel.lose_support(e_uw);
            peel.lose_support(e_vw);
        }
    }
    peel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decomposition;
    use sd_graph::GraphBuilder;

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        GraphBuilder::new().extend_edges(edges.iter().copied()).build()
    }

    #[test]
    fn matches_peeling_on_k4() {
        let g = graph(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(bitmap_truss_decomposition(&g), truss_decomposition(&g));
    }

    #[test]
    fn matches_peeling_on_figure2_h1() {
        let g = graph(&[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
            (1, 4),
            (3, 4),
        ]);
        assert_eq!(bitmap_truss_decomposition(&g), truss_decomposition(&g));
    }

    #[test]
    fn matches_peeling_on_trees_and_cycles() {
        for edges in [
            vec![(0u32, 1u32), (1, 2), (2, 3)],
            vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            vec![(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)],
        ] {
            let g = graph(&edges);
            assert_eq!(bitmap_truss_decomposition(&g), truss_decomposition(&g));
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let d = bitmap_truss_decomposition(&g);
        assert!(d.trussness.is_empty());
        assert_eq!(d.max_trussness, 0);
    }
}
