//! The paper's running example (Figure 1) as a reusable fixture.
//!
//! Vertex `v` has 14 neighbors forming three social contexts at `k = 4`:
//! two 4-cliques `{x1..x4}` and `{y1..y4}` bridged through `y1` (trussness-3
//! bridges, so they separate at `k = 4` — the motivating decomposability
//! example), and an octahedron `{r1..r6}` (the canonical 6-vertex 4-truss:
//! every edge sits in exactly two triangles). Vertices `s1, s2` lie outside
//! `N(v)`, giving the paper's `|V| = 17`.
//!
//! The fixture also reproduces Observation 1's non-symmetry witness:
//! `τ_{GN(v)}(r1, r2) = 4` but `τ_{GN(r1)}(v, r2) = 3`.

use sd_graph::{CsrGraph, GraphBuilder, VertexId};

/// Vertex indices of the fixture, in name order.
pub const PAPER_FIGURE1_NAMES: [&str; 17] = [
    "v", "x1", "x2", "x3", "x4", "y1", "y2", "y3", "y4", "r1", "r2", "r3", "r4", "r5", "r6", "s1",
    "s2",
];

/// Edge list of Figure 1(a).
pub fn paper_figure1_edges() -> Vec<(VertexId, VertexId)> {
    const V: u32 = 0;
    const X1: u32 = 1;
    const X2: u32 = 2;
    const X3: u32 = 3;
    const X4: u32 = 4;
    const Y1: u32 = 5;
    const Y2: u32 = 6;
    const Y3: u32 = 7;
    const Y4: u32 = 8;
    const R: [u32; 6] = [9, 10, 11, 12, 13, 14];
    const S1: u32 = 15;
    const S2: u32 = 16;

    let mut edges = Vec::new();
    // v adjacent to all x, y, r vertices.
    for u in X1..=Y4 {
        edges.push((V, u));
    }
    for &r in &R {
        edges.push((V, r));
    }
    // Two 4-cliques.
    for group in [[X1, X2, X3, X4], [Y1, Y2, Y3, Y4]] {
        for i in 0..4 {
            for j in i + 1..4 {
                edges.push((group[i], group[j]));
            }
        }
    }
    // Bridges (x2, y1) and (x4, y1) — trussness 3 inside GN(v).
    edges.push((X2, Y1));
    edges.push((X4, Y1));
    // Octahedron over r1..r6: all pairs except the three "antipodal" ones
    // (r1,r4), (r2,r5), (r3,r6).
    for (i, &ri) in R.iter().enumerate() {
        for (j, &rj) in R.iter().enumerate().skip(i + 1) {
            if j != i + 3 {
                edges.push((ri, rj));
            }
        }
    }
    // Outside-the-ego vertices s1, s2.
    edges.push((S1, X1));
    edges.push((S1, X3));
    edges.push((S2, X2));
    edges.push((S2, Y2));
    edges
}

/// Builds the Figure 1 graph; returns `(graph, v, names)` where `names[i]`
/// labels vertex `i`.
pub fn paper_figure1_graph() -> (CsrGraph, VertexId, &'static [&'static str; 17]) {
    let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
    (g, 0, &PAPER_FIGURE1_NAMES)
}

/// Vertex names of the Figure 18 fixture.
pub const PAPER_FIGURE18_NAMES: [&str; 9] = ["q1", "q2", "q3", "z1", "z2", "z3", "z4", "z5", "z6"];

/// The paper's Figure 18 graph — the TSD-vs-TCP comparison witness.
///
/// Three overlapping 4-cliques: `{q1,q2,z1,z2}`, `{q1,q3,z3,z4}` and
/// `{q2,q3,z5,z6}`. Globally every edge has trussness 4, so the TCP-index of
/// `q1` weights `(q2,q3)` with 4; but inside `GN(q1)` the edge `(q2,q3)`
/// closes no triangle (z5, z6 are not neighbors of q1), so the TSD-index
/// weights it 2 — the semantic difference Section 8.2 illustrates.
pub fn paper_figure18_graph() -> (CsrGraph, VertexId, &'static [&'static str; 9]) {
    const Q1: u32 = 0;
    const Q2: u32 = 1;
    const Q3: u32 = 2;
    const Z: [u32; 6] = [3, 4, 5, 6, 7, 8]; // z1..z6
    let cliques = [[Q1, Q2, Z[0], Z[1]], [Q1, Q3, Z[2], Z[3]], [Q2, Q3, Z[4], Z[5]]];
    let mut edges = Vec::new();
    for clique in cliques {
        for i in 0..4 {
            for j in i + 1..4 {
                edges.push((clique[i], clique[j]));
            }
        }
    }
    let g = GraphBuilder::new().extend_edges(edges).build();
    (g, Q1, &PAPER_FIGURE18_NAMES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::decompose_ego;

    #[test]
    fn seventeen_vertices_like_example_2() {
        let (g, _, _) = paper_figure1_graph();
        assert_eq!(g.n(), 17);
    }

    #[test]
    fn ego_of_v_has_14_vertices() {
        let (g, v, _) = paper_figure1_graph();
        assert_eq!(g.degree(v), 14);
    }

    /// Observation 1's witness: the same triangle's edges have different
    /// trussness in different ego-networks.
    #[test]
    fn non_symmetry_witness() {
        use crate::egonet::EgoNetwork;
        let (g, v, names) = paper_figure1_graph();
        let r1 = names.iter().position(|&n| n == "r1").unwrap() as u32;
        let r2 = names.iter().position(|&n| n == "r2").unwrap() as u32;

        let tau_in_ego = |center: u32, a: u32, b: u32| -> u32 {
            let ego = EgoNetwork::extract(&g, center);
            let la = ego.vertices.binary_search(&a).unwrap() as u32;
            let lb = ego.vertices.binary_search(&b).unwrap() as u32;
            let d = decompose_ego(&ego);
            d.edge(ego.graph.edge_id_between(la, lb).unwrap())
        };

        assert_eq!(tau_in_ego(v, r1, r2), 4, "τ_GN(v)(r1,r2)");
        assert_eq!(tau_in_ego(r1, v, r2), 3, "τ_GN(r1)(v,r2)");
    }
}
