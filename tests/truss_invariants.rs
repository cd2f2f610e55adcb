//! Property tests of the decomposition substrate against naive references:
//! the k-truss from our trussness labels must equal the iterative-removal
//! fixpoint for every k, bitmap and classic peeling must agree (in full and
//! stopped at the k-truss), the fused single-k ego kernel must give the
//! contexts of the classic decomposition on ego-networks whose sizes sit at
//! the bitmap's word boundaries, coreness must match naive peeling, and
//! triangle counting must match brute force.

mod common;

use common::{arb_graph, naive_kcore_vertices, naive_ktruss_edges, naive_triangle_count};
use proptest::prelude::*;

use structural_diversity::graph::triangles::{edge_support, triangle_count};
use structural_diversity::graph::{CsrGraph, GraphBuilder, VertexId};
use structural_diversity::search::{all_scores, social_contexts, EgoNetwork};
use structural_diversity::truss::{
    bitmap_ktruss, bitmap_truss_decomposition, classic_ktruss, core_decomposition, ktruss_edges,
    maximal_connected_ktrusses, truss_decomposition, vertex_trussness,
};

/// Ego-network sizes around the bitmap's 64-bit word boundaries.
const WORD_BOUNDARY_DEGREES: [u32; 6] = [1, 63, 64, 65, 128, 129];

/// Strategy: hub `0` joined to `d` leaves `1..=d` for a `d` from
/// [`WORD_BOUNDARY_DEGREES`], plus random edges among the leaves, so the
/// hub's ego-network has exactly `d` vertices and the leaves' ones have
/// sizes all over the range.
fn arb_hub_graph() -> impl Strategy<Value = CsrGraph> {
    (0..WORD_BOUNDARY_DEGREES.len()).prop_flat_map(|i| {
        let d = WORD_BOUNDARY_DEGREES[i];
        let max_pairs = (d * d / 3) as usize + 1;
        proptest::collection::vec((1..=d, 1..=d), 0..max_pairs).prop_map(move |pairs| {
            GraphBuilder::new().extend_edges((1..=d).map(|u| (0, u))).extend_edges(pairs).build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn triangle_count_matches_naive(g in arb_graph(16, 60)) {
        prop_assert_eq!(triangle_count(&g), naive_triangle_count(&g));
    }

    #[test]
    fn edge_support_sums_to_three_triangles(g in arb_graph(16, 60)) {
        let total: u64 = edge_support(&g).iter().map(|&s| s as u64).sum();
        prop_assert_eq!(total, 3 * triangle_count(&g));
    }

    #[test]
    fn ktruss_matches_naive_fixpoint(g in arb_graph(14, 50)) {
        let decomposition = truss_decomposition(&g);
        for k in 2..=decomposition.max_trussness + 1 {
            let ours = ktruss_edges(&decomposition, k);
            let naive = naive_ktruss_edges(&g, k);
            prop_assert_eq!(&ours, &naive, "k={}", k);
        }
    }

    #[test]
    fn bitmap_equals_classic(g in arb_graph(20, 80)) {
        prop_assert_eq!(bitmap_truss_decomposition(&g), truss_decomposition(&g));
    }

    /// Both kernels' peels stopped at level k − 2 leave exactly the k-truss
    /// of the full decomposition, at every k up to one past the top.
    #[test]
    fn capped_peel_equals_ktruss(g in arb_graph(20, 80)) {
        let d = truss_decomposition(&g);
        for k in 2..=d.max_trussness + 1 {
            let expected = ktruss_edges(&d, k);
            prop_assert_eq!(&classic_ktruss(&g, k), &expected, "classic k={}", k);
            prop_assert_eq!(&bitmap_ktruss(&g, k), &expected, "bitmap k={}", k);
        }
    }

    #[test]
    fn trussness_at_least_2_and_max_consistent(g in arb_graph(16, 60)) {
        let d = truss_decomposition(&g);
        prop_assert!(d.trussness.iter().all(|&t| t >= 2) || g.m() == 0);
        prop_assert_eq!(d.trussness.iter().copied().max().unwrap_or(0), d.max_trussness);
    }

    #[test]
    fn vertex_trussness_is_max_incident(g in arb_graph(16, 60)) {
        let d = truss_decomposition(&g);
        let tau = vertex_trussness(&g, &d);
        for v in g.vertices() {
            let expected = g
                .arc_edges(v)
                .iter()
                .map(|&e| d.trussness[e as usize])
                .max()
                .unwrap_or(0);
            prop_assert_eq!(tau[v as usize], expected);
        }
    }

    #[test]
    fn coreness_matches_naive(g in arb_graph(16, 60)) {
        let d = core_decomposition(&g);
        for k in 0..=d.max_coreness + 1 {
            let mut ours: Vec<u32> = g
                .vertices()
                .filter(|&v| d.coreness[v as usize] >= k)
                .collect();
            ours.sort_unstable();
            prop_assert_eq!(&ours, &naive_kcore_vertices(&g, k), "k={}", k);
        }
    }

    /// Trussness is monotone under edge addition: adding an edge never
    /// lowers any existing edge's trussness.
    #[test]
    fn trussness_monotone_under_edge_addition(g in arb_graph(12, 40), extra_u in 0u32..12, extra_v in 0u32..12) {
        prop_assume!(extra_u != extra_v);
        prop_assume!(extra_u < g.n() as u32 && extra_v < g.n() as u32);
        prop_assume!(!g.has_edge(extra_u, extra_v));
        let before = truss_decomposition(&g);
        let mut edges: Vec<(u32, u32)> = g.edges().to_vec();
        edges.push((extra_u.min(extra_v), extra_u.max(extra_v)));
        let g2 = structural_diversity::graph::GraphBuilder::with_min_vertices(g.n())
            .extend_edges(edges)
            .build();
        let after = truss_decomposition(&g2);
        for (e2, &(u, v)) in g2.edges().iter().enumerate() {
            if let Some(e1) = g.edge_id_between(u, v) {
                prop_assert!(
                    after.trussness[e2] >= before.trussness[e1 as usize],
                    "edge ({u},{v}) dropped from {} to {}",
                    before.trussness[e1 as usize],
                    after.trussness[e2]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fused kernel behind `social_contexts` (adjacency-bitmap rows
    /// read off the global graph, worklist peel, components of the live
    /// edges) gives, for every vertex and every k, the maximal connected
    /// k-trusses of the classic full decomposition of its extracted
    /// ego-network, in global ids; `all_scores`, which reuses one scratch
    /// across every vertex, counts the same.
    #[test]
    fn fused_ego_kernel_matches_classic_at_word_boundaries(g in arb_hub_graph()) {
        let egos: Vec<EgoNetwork> = g.vertices().map(|v| EgoNetwork::extract(&g, v)).collect();
        let decompositions: Vec<_> = egos.iter().map(|ego| truss_decomposition(&ego.graph)).collect();
        for k in 2..=8 {
            let scores = all_scores(&g, k);
            for v in g.vertices() {
                let ego = &egos[v as usize];
                let expected: Vec<Vec<VertexId>> =
                    maximal_connected_ktrusses(&ego.graph, &decompositions[v as usize], k)
                        .iter()
                        .map(|component| ego.to_global(component))
                        .collect();
                prop_assert_eq!(scores[v as usize] as usize, expected.len(), "v={} k={}", v, k);
                prop_assert_eq!(social_contexts(&g, v, k), expected, "v={} k={}", v, k);
            }
        }
    }
}
