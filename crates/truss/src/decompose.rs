//! Truss decomposition (Algorithm 1 of the paper) and its k-bounded form.
//!
//! Peels edges in ascending support with the bin-sort bucket queue: the edge
//! of minimum support `s` gets trussness `s + 2` (clamped at the current
//! level), and every triangle it participated in loses one unit of support on
//! its two surviving edges. Runtime `O(Σ_{(u,v)∈E} min(d(u), d(v)))` plus the
//! initial support computation — the bound quoted in Lemma 1/Theorem 2.
//!
//! The peel takes a level cap. [`truss_decomposition`] runs it to the end;
//! [`classic_ktruss`] stops once the minimum remaining support reaches
//! `k − 2`, so the edges left are exactly the k-truss and nothing above `k`
//! is peeled. This is the classic kernel. [`crate::bitmap`] has the bitmap
//! one: its full decomposition runs on the same peel, its k-truss on a
//! worklist over adjacency-bitmap rows.

use sd_graph::triangles::edge_support;
use sd_graph::{CsrGraph, EdgeId, PeelingBuckets};

/// Result of truss decomposition: per-edge trussness `τ_G(e) ≥ 2`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrussDecomposition {
    /// `trussness[e]` = largest `k` such that a connected k-truss contains `e`.
    pub trussness: Vec<u32>,
    /// `τ*_G = max_e τ_G(e)` (0 when the graph has no edges).
    pub max_trussness: u32,
}

impl TrussDecomposition {
    /// Trussness of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> u32 {
        self.trussness[e as usize]
    }
}

/// One run of the peeling loop both kernels share, stopped at a support
/// level cap: it owns the bucket queue and the trussness of every edge
/// peeled so far, while the kernel finds the triangles each peeled edge
/// breaks.
pub(crate) struct Peel {
    buckets: PeelingBuckets,
    /// Trussness of every peeled edge; [`UNPEELED`] for the rest.
    trussness: Vec<u32>,
    /// The highest support level peeled.
    level: u32,
    cap: u32,
}

/// Trussness placeholder of an edge not peeled (yet).
const UNPEELED: u32 = 0;

/// The cap of a peel run to the end.
pub(crate) const FULL_PEEL: u32 = u32::MAX;

/// The cap of a peel that leaves exactly the k-truss: edges of support
/// below `k − 2` go.
pub(crate) fn ktruss_cap(k: u32) -> u32 {
    k.saturating_sub(2)
}

impl Peel {
    /// A peel over edges of initial `support` that stops once every
    /// remaining edge has support ≥ `cap`.
    pub(crate) fn new(support: &[u32], cap: u32) -> Self {
        Peel {
            buckets: PeelingBuckets::new(support),
            trussness: vec![UNPEELED; support.len()],
            level: 0,
            cap,
        }
    }

    /// Peels the minimum-support edge and returns it, or `None` once the
    /// queue is empty or its minimum support has reached the cap.
    pub(crate) fn next(&mut self) -> Option<EdgeId> {
        let (e, key) = self.buckets.pop_min()?;
        if key >= self.cap {
            return None;
        }
        self.level = self.level.max(key);
        self.trussness[e as usize] = self.level + 2;
        Some(e)
    }

    /// A triangle through the edge just peeled is gone: the live edge `e`
    /// loses one unit of support (clamped at the current level).
    #[inline]
    pub(crate) fn lose_support(&mut self, e: EdgeId) {
        self.buckets.decrease_key_clamped(e, self.level);
    }

    /// Whether edge `e` has not been peeled.
    #[inline]
    pub(crate) fn is_live(&self, e: EdgeId) -> bool {
        self.trussness[e as usize] == UNPEELED
    }

    /// The edges left when the peel stopped, ascending.
    pub(crate) fn into_live_edges(self) -> Vec<EdgeId> {
        (0..self.trussness.len() as EdgeId).filter(|&e| self.is_live(e)).collect()
    }

    /// The decomposition of a peel run to the end.
    pub(crate) fn into_decomposition(self) -> TrussDecomposition {
        debug_assert_eq!(self.cap, FULL_PEEL);
        let max_trussness = if self.trussness.is_empty() { 0 } else { self.level + 2 };
        TrussDecomposition { trussness: self.trussness, max_trussness }
    }
}

/// Runs truss decomposition on `g`.
pub fn truss_decomposition(g: &CsrGraph) -> TrussDecomposition {
    peel(g, FULL_PEEL).into_decomposition()
}

/// Ids of the edges of the k-truss of `g`, ascending: equal to
/// `ktruss_edges(&truss_decomposition(g), k)`, but the peel stops as soon
/// as every remaining edge has support ≥ `k − 2`.
pub fn classic_ktruss(g: &CsrGraph, k: u32) -> Vec<EdgeId> {
    peel(g, ktruss_cap(k)).into_live_edges()
}

/// Algorithm 1's peeling loop, stopped at support level `cap`.
fn peel(g: &CsrGraph, cap: u32) -> Peel {
    let mut peel = Peel::new(&edge_support(g), cap);
    while let Some(e) = peel.next() {
        let (u, v) = g.edge(e);
        // Enumerate triangles through the smaller endpoint; each surviving
        // triangle (u, v, w) costs one support unit on (u, w) and (v, w).
        let (a, b) = if g.degree(u) <= g.degree(v) { (u, v) } else { (v, u) };
        for (w, e_aw) in g.neighbor_arcs(a) {
            if !peel.is_live(e_aw) {
                continue;
            }
            let Some(e_bw) = g.edge_id_between(b, w) else { continue };
            if peel.is_live(e_bw) {
                peel.lose_support(e_aw);
                peel.lose_support(e_bw);
            }
        }
    }
    peel
}

/// Per-vertex trussness: `τ(v) = max` trussness over edges incident to `v`
/// (0 for isolated vertices). For `k ≥ 2` every connected k-truss containing
/// `v` contains an edge at `v`, so this equals Definition 4's vertex
/// trussness. Used to seed GCT supernodes (Algorithm 8, line 3).
pub fn vertex_trussness(g: &CsrGraph, decomposition: &TrussDecomposition) -> Vec<u32> {
    let mut tau = vec![0u32; g.n()];
    for (e, &(u, v)) in g.edges().iter().enumerate() {
        let t = decomposition.trussness[e];
        if t > tau[u as usize] {
            tau[u as usize] = t;
        }
        if t > tau[v as usize] {
            tau[v as usize] = t;
        }
    }
    tau
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_graph::GraphBuilder;

    fn decompose(edges: &[(u32, u32)]) -> (CsrGraph, TrussDecomposition) {
        let g = GraphBuilder::new().extend_edges(edges.iter().copied()).build();
        let d = truss_decomposition(&g);
        (g, d)
    }

    fn trussness_of(g: &CsrGraph, d: &TrussDecomposition, u: u32, v: u32) -> u32 {
        d.edge(g.edge_id_between(u, v).unwrap())
    }

    #[test]
    fn k4_is_a_4_truss() {
        let (_, d) = decompose(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!(d.trussness.iter().all(|&t| t == 4));
        assert_eq!(d.max_trussness, 4);
    }

    #[test]
    fn triangle_is_a_3_truss() {
        let (_, d) = decompose(&[(0, 1), (0, 2), (1, 2)]);
        assert!(d.trussness.iter().all(|&t| t == 3));
    }

    #[test]
    fn tree_edges_have_trussness_2() {
        let (_, d) = decompose(&[(0, 1), (1, 2), (2, 3), (1, 4)]);
        assert!(d.trussness.iter().all(|&t| t == 2));
        assert_eq!(d.max_trussness, 2);
    }

    #[test]
    fn triangle_with_pendant() {
        let (g, d) = decompose(&[(0, 1), (0, 2), (1, 2), (2, 3)]);
        assert_eq!(trussness_of(&g, &d, 0, 1), 3);
        assert_eq!(trussness_of(&g, &d, 2, 3), 2);
    }

    /// The paper's Figure 2(b): the H1 subgraph. Two 4-cliques
    /// {x1,x2,x3,x4} and {y1,y2,y3,y4} bridged by edges (x2,y1) and (x4,y1).
    /// All clique edges have trussness 4; the two bridges have trussness 3.
    #[test]
    fn paper_figure_2_h1() {
        // x1=0, x2=1, x3=2, x4=3, y1=4, y2=5, y3=6, y4=7.
        let (g, d) = decompose(&[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3), // x-clique
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7), // y-clique
            (1, 4),
            (3, 4), // bridges (x2,y1), (x4,y1)
        ]);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            assert_eq!(trussness_of(&g, &d, u, v), 4, "x-clique edge ({u},{v})");
        }
        for (u, v) in [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)] {
            assert_eq!(trussness_of(&g, &d, u, v), 4, "y-clique edge ({u},{v})");
        }
        assert_eq!(trussness_of(&g, &d, 1, 4), 3, "bridge (x2,y1)");
        assert_eq!(trussness_of(&g, &d, 3, 4), 3, "bridge (x4,y1)");
        assert_eq!(d.max_trussness, 4);
    }

    #[test]
    fn vertex_trussness_matches_max_incident() {
        let (g, d) = decompose(&[(0, 1), (0, 2), (1, 2), (2, 3)]);
        let tau = vertex_trussness(&g, &d);
        assert_eq!(tau, vec![3, 3, 3, 2]);
    }

    #[test]
    fn vertex_trussness_isolated_is_zero() {
        let g = GraphBuilder::with_min_vertices(3).extend_edges([(0, 1)]).build();
        let d = truss_decomposition(&g);
        let tau = vertex_trussness(&g, &d);
        assert_eq!(tau, vec![2, 2, 0]);
    }

    #[test]
    fn empty_graph() {
        let (_, d) = decompose(&[]);
        assert!(d.trussness.is_empty());
        assert_eq!(d.max_trussness, 0);
    }

    /// Two triangles sharing one edge: the shared edge has support 2 but the
    /// graph is only a 3-truss (bowtie check against over-assignment).
    #[test]
    fn bowtie_shared_edge() {
        let (g, d) = decompose(&[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(trussness_of(&g, &d, 1, 2), 3);
        assert_eq!(d.max_trussness, 3);
    }
}
