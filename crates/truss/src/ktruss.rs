//! k-truss extraction and maximal connected k-trusses.
//!
//! Given per-edge trussness, the k-truss of `G` is the subgraph of all edges
//! with `τ(e) ≥ k`; its connected components are the paper's *maximal
//! connected k-trusses* — and, inside an ego-network, its *social contexts*
//! (Definition 2).

use sd_graph::{CsrGraph, Dsu, EdgeId, VertexId};

use crate::decompose::TrussDecomposition;

/// Ids of all edges in the k-truss (`τ(e) ≥ k`), ascending.
pub fn ktruss_edges(decomposition: &TrussDecomposition, k: u32) -> Vec<EdgeId> {
    decomposition
        .trussness
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t >= k)
        .map(|(e, _)| e as EdgeId)
        .collect()
}

/// Vertex sets of the maximal connected k-trusses of `g`, each sorted
/// ascending; the result is sorted by (size desc, first vertex asc) for
/// deterministic output. Vertices incident to no qualifying edge appear in
/// no component (a k-truss is edge-induced).
pub fn maximal_connected_ktrusses(
    g: &CsrGraph,
    decomposition: &TrussDecomposition,
    k: u32,
) -> Vec<Vec<VertexId>> {
    edge_components(g, &ktruss_edges(decomposition, k))
}

/// Vertex sets of the connected components of the subgraph of `g` spanned
/// by `edges`, in the order of [`maximal_connected_ktrusses`]. Applied to
/// a k-truss edge set (from [`crate::classic_ktruss`] or [`crate::bitmap_ktruss`]),
/// these are its maximal connected k-trusses.
pub fn edge_components(g: &CsrGraph, edges: &[EdgeId]) -> Vec<Vec<VertexId>> {
    components(g.n(), edges.iter().map(|&e| g.edge(e)))
}

/// Vertex sets of the connected components spanned by `edges` over the
/// vertices `0..n`, in the order of [`maximal_connected_ktrusses`].
pub(crate) fn components(
    n: usize,
    edges: impl IntoIterator<Item = (VertexId, VertexId)>,
) -> Vec<Vec<VertexId>> {
    let mut dsu = Dsu::new(n);
    let mut spanned = vec![false; n];
    for (u, v) in edges {
        dsu.union(u, v);
        spanned[u as usize] = true;
        spanned[v as usize] = true;
    }
    collect_components(n, &spanned, &mut dsu)
}

/// Groups the marked vertices by their DSU root; shared by the k-truss and
/// k-core component extractors.
pub(crate) fn collect_components(n: usize, marked: &[bool], dsu: &mut Dsu) -> Vec<Vec<VertexId>> {
    let mut root_to_group: Vec<i32> = vec![-1; n];
    let mut groups: Vec<Vec<VertexId>> = Vec::new();
    for (v, &is_marked) in marked.iter().enumerate() {
        if !is_marked {
            continue;
        }
        let root = dsu.find(v as u32) as usize;
        let gi = if root_to_group[root] >= 0 {
            root_to_group[root] as usize
        } else {
            root_to_group[root] = groups.len() as i32;
            groups.push(Vec::new());
            groups.len() - 1
        };
        groups[gi].push(v as VertexId);
    }
    // Vertices were visited ascending, so each group is already sorted.
    groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::truss_decomposition;
    use sd_graph::GraphBuilder;

    /// Figure 2(b) graph: two 4-cliques bridged by two trussness-3 edges.
    fn h1() -> (CsrGraph, TrussDecomposition) {
        let g = GraphBuilder::new()
            .extend_edges([
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
            ])
            .build();
        let d = truss_decomposition(&g);
        (g, d)
    }

    #[test]
    fn four_truss_splits_into_two_cliques() {
        let (g, d) = h1();
        let comps = maximal_connected_ktrusses(&g, &d, 4);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2, 3]);
        assert_eq!(comps[1], vec![4, 5, 6, 7]);
    }

    #[test]
    fn three_truss_is_one_component() {
        let (g, d) = h1();
        let comps = maximal_connected_ktrusses(&g, &d, 3);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn five_truss_is_empty() {
        let (g, d) = h1();
        assert!(maximal_connected_ktrusses(&g, &d, 5).is_empty());
    }

    #[test]
    fn capped_peels_leave_the_ktruss() {
        let (g, d) = h1();
        for k in 0..=5 {
            let edges = ktruss_edges(&d, k);
            assert_eq!(crate::classic_ktruss(&g, k), edges, "k={k}");
            assert_eq!(crate::bitmap_ktruss(&g, k), edges, "k={k}");
        }
    }

    #[test]
    fn ktruss_edges_filter() {
        let (g, d) = h1();
        assert_eq!(ktruss_edges(&d, 4).len(), 12);
        assert_eq!(ktruss_edges(&d, 3).len(), 14);
        assert_eq!(ktruss_edges(&d, 2).len(), g.m());
    }

    #[test]
    fn isolated_vertices_excluded() {
        let g = GraphBuilder::with_min_vertices(5).extend_edges([(0, 1), (0, 2), (1, 2)]).build();
        let d = truss_decomposition(&g);
        let comps = maximal_connected_ktrusses(&g, &d, 2);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], vec![0, 1, 2]);
    }

    #[test]
    fn components_sorted_by_size_desc() {
        // One triangle and one K4, both 3-trusses at k=3.
        let g = GraphBuilder::new()
            .extend_edges([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)])
            .build();
        let d = truss_decomposition(&g);
        let comps = maximal_connected_ktrusses(&g, &d, 3);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 4);
        assert_eq!(comps[1].len(), 3);
    }
}
