//! Computing `score(v)` and the social contexts (Algorithm 2), and the one
//! place that picks the truss kernel for an ego-network.
//!
//! The policy: an ego-network of at most `BITMAP_MAX_VERTICES` (8192)
//! vertices is peeled by the bitmap kernel of Section 6.2, a larger one by
//! the classic kernel of Algorithm 1 (the bitmap needs `n²` bits). It comes
//! in two forms:
//!
//! * `decompose_ego` — the full truss decomposition of an extracted
//!   [`EgoNetwork`], for the indexes that keep every level: the TSD and GCT
//!   builds and their dynamic repairs;
//! * `ego_contexts` — the social contexts at one `k`, for every path that
//!   answers one `k`: [`social_contexts`] and [`score`], Online, Bound, the
//!   pooled scans and Hybrid's contexts. It is one fused pass over the
//!   global graph: a marker array over `N(v)` turns each neighbour's
//!   adjacency straight into the ego-network's bitmap rows
//!   ([`sd_truss::BitRows`]), supports are popcounts, a worklist peels the
//!   rows down to support ≥ `k − 2`, and the components of the live edges
//!   come back in global ids. No ego-network CSR is built, and levels above
//!   `k` are never peeled. Ego-networks past the ceiling are extracted and
//!   peeled by the classic k-bounded kernel instead.
//!
//! `ego_contexts` runs on an `EgoScratch` its caller owns and reuses: one
//! per sequential scan, per pool job, per Hybrid query. A scratch keeps a
//! marker of 4 bytes per vertex id in the widest `min N(v)..=max N(v)` it
//! has seen (at most the graph's `n`) and the rows, edges and supports of
//! the largest ego-network it has peeled; the rows alone take 8 MiB at the
//! 8192-vertex ceiling.

use sd_graph::{CsrGraph, VertexId};
use sd_truss::{
    bitmap_truss_decomposition, classic_ktruss, edge_components, truss_decomposition, BitRows,
    TrussDecomposition,
};

use crate::egonet::EgoNetwork;

/// Ego-networks with more vertices than this are peeled by the classic
/// kernel instead of the bitmap one (the bitmap needs `n²` bits; 8192
/// vertices ≈ 8 MiB, a sane ceiling).
const BITMAP_MAX_VERTICES: usize = 8192;

/// Whether the bitmap kernel peels an ego-network of `n` vertices.
fn uses_bitmap(n: usize) -> bool {
    n <= BITMAP_MAX_VERTICES
}

/// The full truss decomposition of an ego-network, by the kernel the
/// policy picks.
pub(crate) fn decompose_ego(ego: &EgoNetwork) -> TrussDecomposition {
    if uses_bitmap(ego.graph.n()) {
        bitmap_truss_decomposition(&ego.graph)
    } else {
        truss_decomposition(&ego.graph)
    }
}

/// Marker value of a vertex outside the current `N(v)`.
const NOT_IN_EGO: u32 = u32::MAX;

/// The buffers of [`ego_contexts`], reused from one ego-network to the
/// next.
#[derive(Default)]
pub(crate) struct EgoScratch {
    /// `local[u - min N(v)]` is `u`'s position in `N(v)` while `GN(v)` is
    /// being filled, [`NOT_IN_EGO`] otherwise; grown to the widest id span
    /// of an `N(v)` seen.
    local: Vec<u32>,
    rows: BitRows,
}

/// Algorithm 2 on `GN(v)` read straight from `g`: the maximal connected
/// k-trusses of `v`'s ego-network, in global vertex ids, ordered as
/// [`sd_truss::maximal_connected_ktrusses`] orders them.
pub(crate) fn ego_contexts(
    g: &CsrGraph,
    v: VertexId,
    k: u32,
    scratch: &mut EgoScratch,
) -> Vec<Vec<VertexId>> {
    let nbrs = g.neighbors(v);
    if !uses_bitmap(nbrs.len()) {
        return social_contexts_of_ego(&EgoNetwork::extract(g, v), k);
    }
    let (Some(&lo), Some(&hi)) = (nbrs.first(), nbrs.last()) else {
        return Vec::new();
    };
    let EgoScratch { local, rows } = scratch;
    let span = (hi - lo) as usize + 1;
    if local.len() < span {
        local.resize(span, NOT_IN_EGO);
    }
    for (i, &u) in nbrs.iter().enumerate() {
        local[(u - lo) as usize] = i as u32;
    }
    // Local ids follow the ascending global order of N(v), so walking each
    // neighbour's adjacency in (u, hi] in order adds the ego edges in
    // canonical order.
    rows.reset(nbrs.len());
    for (i, &u) in nbrs.iter().enumerate() {
        let adjacency = g.neighbors(u);
        let upper = &adjacency[adjacency.partition_point(|&w| w <= u)..];
        for &w in &upper[..upper.partition_point(|&w| w <= hi)] {
            let j = local[(w - lo) as usize];
            if j != NOT_IN_EGO {
                rows.add_edge(i as u32, j);
            }
        }
    }
    for &u in nbrs {
        local[(u - lo) as usize] = NOT_IN_EGO;
    }
    rows.peel_to_ktruss(k);
    let mut contexts = rows.live_components();
    for context in &mut contexts {
        for u in context.iter_mut() {
            *u = nbrs[*u as usize];
        }
    }
    contexts
}

/// The social contexts of an extracted ego-network past the bitmap
/// ceiling, by the classic kernel peeled only up to `k`.
fn social_contexts_of_ego(ego: &EgoNetwork, k: u32) -> Vec<Vec<VertexId>> {
    edge_components(&ego.graph, &classic_ktruss(&ego.graph, k))
        .into_iter()
        .map(|component| ego.to_global(&component))
        .collect()
}

/// Algorithm 2: the social contexts `SC(v)` of `v` at threshold `k`, in
/// global vertex ids.
pub fn social_contexts(g: &CsrGraph, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
    ego_contexts(g, v, k, &mut EgoScratch::default())
}

/// `score(v) = |SC(v)|` (Definition 3).
pub fn score(g: &CsrGraph, v: VertexId, k: u32) -> u32 {
    social_contexts(g, v, k).len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_figure1_graph;
    use sd_graph::GraphBuilder;

    /// The paper's running example: `score(v) = 3` at `k = 4` with contexts
    /// {x1..x4}, {y1..y4}, {r1..r6} (Section 2.2).
    #[test]
    fn paper_running_example() {
        let (g, v, names) = paper_figure1_graph();
        let contexts = social_contexts(&g, v, 4);
        assert_eq!(contexts.len(), 3);
        let mut labeled: Vec<Vec<&str>> =
            contexts.iter().map(|ctx| ctx.iter().map(|&u| names[u as usize]).collect()).collect();
        labeled.sort();
        assert_eq!(
            labeled,
            vec![
                vec!["r1", "r2", "r3", "r4", "r5", "r6"],
                vec!["x1", "x2", "x3", "x4"],
                vec!["y1", "y2", "y3", "y4"],
            ]
        );
    }

    /// At k = 3, H3 and H4 fuse through the trussness-3 bridges: 2 contexts.
    #[test]
    fn paper_example_at_k3() {
        let (g, v, _) = paper_figure1_graph();
        assert_eq!(score(&g, v, 3), 2);
    }

    /// At k = 5 nothing survives: the octahedron is exactly a 4-truss.
    #[test]
    fn paper_example_at_k5() {
        let (g, v, _) = paper_figure1_graph();
        assert_eq!(score(&g, v, 5), 0);
    }

    /// At k = 2 the ego-network splits into its two edge-bearing components:
    /// H1 = {x's ∪ y's} and H2 = {r's}.
    #[test]
    fn paper_example_at_k2() {
        let (g, v, _) = paper_figure1_graph();
        assert_eq!(score(&g, v, 2), 2);
    }

    #[test]
    fn score_zero_when_no_truss() {
        // Star: ego of center has no edges.
        let g = GraphBuilder::new().extend_edges([(0, 1), (0, 2), (0, 3)]).build();
        assert_eq!(score(&g, 0, 2), 0);
    }

    /// An ego-network past the bitmap ceiling takes the classic kernel and
    /// gives the same answers.
    #[test]
    fn large_ego_takes_the_classic_kernel() {
        let leaves = BITMAP_MAX_VERTICES as u32 + 1;
        // Hub 0; among its neighbours a 4-clique {1..4} and a triangle
        // {10, 11, 12}.
        let g = GraphBuilder::new()
            .extend_edges((1..=leaves).map(|u| (0, u)))
            .extend_edges([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
            .extend_edges([(10, 11), (10, 12), (11, 12)])
            .build();
        let ego = EgoNetwork::extract(&g, 0);
        assert!(!uses_bitmap(ego.graph.n()));
        assert_eq!(decompose_ego(&ego), truss_decomposition(&ego.graph));
        let scores: Vec<u32> = (2..=5).map(|k| score(&g, 0, k)).collect();
        assert_eq!(scores, [2, 2, 1, 0]);
    }

    /// Both forms agree with the classic full decomposition on every
    /// ego-network of Figure 1, at every k, with one scratch reused across
    /// all of them.
    #[test]
    fn both_forms_match_the_classic_decomposition() {
        let (g, _, _) = paper_figure1_graph();
        let mut scratch = EgoScratch::default();
        for k in 2..=6 {
            for v in g.vertices() {
                let ego = EgoNetwork::extract(&g, v);
                let classic = truss_decomposition(&ego.graph);
                assert_eq!(decompose_ego(&ego), classic, "v={v}");
                let expected: Vec<Vec<VertexId>> =
                    sd_truss::maximal_connected_ktrusses(&ego.graph, &classic, k)
                        .iter()
                        .map(|component| ego.to_global(component))
                        .collect();
                assert_eq!(ego_contexts(&g, v, k, &mut scratch), expected, "v={v} k={k}");
            }
        }
    }
}
