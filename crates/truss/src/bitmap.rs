//! Bitmap-based truss peeling (Section 6.2 of the paper).
//!
//! Every vertex's adjacency row becomes a bitmap of `n` bits, edge support
//! is `popcount(row(u) AND row(v))`, and the peeling loop enumerates
//! surviving triangles through the same word-level AND — dead edges
//! disappear from all future intersections the moment their bits are
//! cleared. This replaces the hash probing of the classic algorithm with
//! straight-line word operations, the speed-up reported in Table 4.
//!
//! The kernel comes in two forms:
//!
//! * [`BitRows`] holds the rows of one graph in a single flat buffer that
//!   is reused from graph to graph, and peels them to the k-truss with a
//!   worklist: every edge of support below `k − 2` goes, and the edges it
//!   breaks follow once their support drops below it. This is the one
//!   bitmap k-truss loop. [`bitmap_ktruss`] fills the rows from a
//!   [`CsrGraph`]; `sd-core`'s `score` module fills them straight from the
//!   global graph's adjacency over `N(v)`, so a single-k query never builds
//!   an ego-network CSR. A peeled edge's two broken neighbours are found by
//!   binary search in the canonical edge slice of their lower endpoint.
//! * [`bitmap_truss_decomposition`] runs the full decomposition in
//!   ascending support order on the bucket queue the classic kernel uses.
//!
//! Memory is `n²` bits: the indexes and the single-k queries take the
//! kernel for ego-networks of at most 8192 vertices, where the rows take
//! 8 MiB, and fall back to [`crate::decompose`] above that.

use sd_graph::{BitSet, CsrGraph, EdgeId, VertexId};

use crate::decompose::{ktruss_cap, Peel, TrussDecomposition, FULL_PEEL};
use crate::ktruss::components;

/// Runs truss decomposition on `g` using adjacency bitmaps.
/// Produces exactly the same trussness as the peeling algorithm of
/// [`crate::decompose::truss_decomposition`] (property-tested).
pub fn bitmap_truss_decomposition(g: &CsrGraph) -> TrussDecomposition {
    let n = g.n();
    if g.m() == 0 {
        return Peel::new(&[], FULL_PEEL).into_decomposition();
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

    let mut peel = Peel::new(&support, FULL_PEEL);
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
    peel.into_decomposition()
}

/// Ids of the edges of the k-truss of `g`, ascending, by the [`BitRows`]
/// peel; equal to [`crate::decompose::classic_ktruss`].
pub fn bitmap_ktruss(g: &CsrGraph, k: u32) -> Vec<EdgeId> {
    let mut rows = BitRows::default();
    rows.reset(g.n());
    for &(u, v) in g.edges() {
        rows.add_edge(u, v);
    }
    rows.peel_to_ktruss(k);
    rows.live_edges().collect()
}

/// The adjacency-bitmap rows of a graph on `0..n` and its canonical edges,
/// in buffers kept from one graph to the next: fill with [`Self::reset`]
/// and [`Self::add_edge`], peel with [`Self::peel_to_ktruss`], read the
/// result with [`Self::live_components`].
///
/// Edge ids are the positions of the edges in the order they were added,
/// which is the canonical order, so rows filled from a [`CsrGraph`]'s
/// edges share its edge ids.
#[derive(Clone, Debug, Default)]
pub struct BitRows {
    n: usize,
    /// `u64` words per row.
    words: usize,
    /// Row `u` is `bits[u * words..(u + 1) * words]`; bit `w` is set while
    /// the edge `{u, w}` is live.
    bits: Vec<u64>,
    /// Canonical endpoints `(u, w)`, `u < w`, lexicographic; edge `e` is
    /// `edges[e]`.
    edges: Vec<(VertexId, VertexId)>,
    /// `edges[first[u]..first[u + 1]]` are the edges whose lower endpoint is
    /// `u`; complete (length `n + 1`) only during a peel.
    first: Vec<u32>,
    /// Triangles through each edge in the graph left so far.
    support: Vec<u32>,
    /// Edges whose support fell below the cap and are not yet cleared.
    worklist: Vec<EdgeId>,
}

impl BitRows {
    /// Empties the rows for a graph on `0..n`, keeping the buffers.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.words = n.div_ceil(64);
        self.bits.clear();
        self.bits.resize(n * self.words, 0);
        self.edges.clear();
        self.first.clear();
    }

    /// Adds the edge `{u, w}`, `u < w < n`. Edges must come in ascending
    /// lexicographic order, each once.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, w: VertexId) {
        debug_assert!(u < w && (w as usize) < self.n);
        debug_assert!(self.edges.last().is_none_or(|&last| last < (u, w)));
        for (i, mask) in [slot(self.words, u, w), slot(self.words, w, u)] {
            self.bits[i] |= mask;
        }
        while self.first.len() <= u as usize {
            self.first.push(self.edges.len() as u32);
        }
        self.edges.push((u, w));
    }

    /// Peels the graph to its k-truss: every edge of support below `k − 2`
    /// goes, along with every edge whose support falls below it as
    /// triangles break. The k-truss is the unique maximal subgraph whose
    /// edges all have support ≥ `k − 2`, so the order of removal does not
    /// matter and no bucket queue is needed.
    pub fn peel_to_ktruss(&mut self, k: u32) {
        let cap = ktruss_cap(k);
        let BitRows { n, words, bits, edges, first, support, worklist } = self;
        let words = *words;
        first.resize(*n + 1, edges.len() as u32);

        support.clear();
        support.extend(edges.iter().map(|&(u, w)| {
            let (ru, rw) = (row(bits, words, u), row(bits, words, w));
            ru.iter().zip(rw).map(|(a, b)| (a & b).count_ones()).sum::<u32>()
        }));
        worklist.clear();
        worklist.extend((0..edges.len() as EdgeId).filter(|&e| support[e as usize] < cap));

        while let Some(e) = worklist.pop() {
            let (u, v) = edges[e as usize];
            for (i, mask) in [slot(words, u, v), slot(words, v, u)] {
                bits[i] &= !mask;
            }
            let (ru, rv) = (row(bits, words, u), row(bits, words, v));
            for (i, (a, b)) in ru.iter().zip(rv).enumerate() {
                let mut common = a & b;
                while common != 0 {
                    let w = ((i << 6) | common.trailing_zeros() as usize) as VertexId;
                    common &= common - 1;
                    // The triangle {u, v, w} is gone: its two live edges each
                    // lose one, and join the worklist as they fall below the cap.
                    for f in [edge_id(edges, first, u, w), edge_id(edges, first, v, w)] {
                        let s = &mut support[f as usize];
                        if *s == cap {
                            worklist.push(f);
                        }
                        *s -= 1;
                    }
                }
            }
        }
    }

    /// Whether the edge `(u, w)` is still live.
    #[inline]
    fn is_live(&self, (u, w): (VertexId, VertexId)) -> bool {
        let (i, mask) = slot(self.words, u, w);
        self.bits[i] & mask != 0
    }

    /// Ids of the live edges, ascending.
    fn live_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as EdgeId).filter(|&e| self.is_live(self.edges[e as usize]))
    }

    /// Vertex sets of the connected components the live edges span, in the
    /// order of [`crate::maximal_connected_ktrusses`]: after
    /// [`Self::peel_to_ktruss`], the maximal connected k-trusses.
    pub fn live_components(&self) -> Vec<Vec<VertexId>> {
        components(self.n, self.edges.iter().copied().filter(|&edge| self.is_live(edge)))
    }
}

/// The word index and mask of bit `w` of row `u` in a flat row buffer.
#[inline]
fn slot(words: usize, u: VertexId, w: VertexId) -> (usize, u64) {
    (u as usize * words + (w as usize >> 6), 1 << (w & 63))
}

/// Row `u` of a flat row buffer.
#[inline]
fn row(bits: &[u64], words: usize, u: VertexId) -> &[u64] {
    &bits[u as usize * words..(u as usize + 1) * words]
}

/// The id of the edge `{a, b}`: its position among the edges of its lower
/// endpoint, by binary search.
#[inline]
fn edge_id(edges: &[(VertexId, VertexId)], first: &[u32], a: VertexId, b: VertexId) -> EdgeId {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let start = first[lo as usize];
    let slice = &edges[start as usize..first[lo as usize + 1] as usize];
    start + slice.partition_point(|&(_, w)| w < hi) as EdgeId
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
