//! Dynamic TSD-index maintenance under edge insertions and deletions.
//!
//! The paper's Section 5.3 remarks that "TSD-index can support efficient
//! updates in dynamic graphs … the updating techniques are still promising
//! to be further developed". This module develops them with the *affected
//! ego-network* strategy:
//!
//! Inserting or deleting edge `{u, v}` changes the ego-network of exactly
//! * `u` (gains/loses vertex `v` plus the ego edges `v` closes),
//! * `v` (symmetrically), and
//! * every common neighbor `w ∈ N(u) ∩ N(v)` (gains/loses the ego *edge*
//!   `(u, v)`).
//!
//! No other vertex's ego-network contains the pair, so rebuilding those
//! `2 + |N(u) ∩ N(v)|` forests — each `O(ρ_v · m_v)` local work — restores
//! the exact index. Equivalence with a from-scratch rebuild is
//! property-tested under random edit scripts (`tests/dynamic_updates.rs`).

use std::sync::Arc;

use sd_graph::{CowStats, CsrGraph, Dsu, DynamicGraph, GraphUpdate, VertexId};

use crate::egonet::EgoNetwork;
use crate::score::decompose_ego;
use crate::tsd::{max_spanning_forest, TsdBuilder, TsdIndex};

/// A TSD-index that stays consistent while the graph mutates.
///
/// ```
/// use sd_graph::GraphBuilder;
/// use sd_core::dynamic::DynamicTsd;
/// use sd_core::paper_figure1_edges;
///
/// let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
/// let mut index = DynamicTsd::from_csr(&g);
/// assert_eq!(index.score(0, 4), 3);
/// // Deleting one bridge splits nothing at k=4 (contexts were separate) …
/// index.remove_edge(2, 5);
/// assert_eq!(index.score(0, 4), 3);
/// // … but at k=3 the H1 blob now splits: 2 -> 3 contexts.
/// assert_eq!(index.score(0, 3), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DynamicTsd {
    graph: DynamicGraph,
    /// Per-vertex maximum spanning forest, weight-descending
    /// `(u, w, weight)` triples — the same content as one `TsdIndex` slice.
    forests: Vec<Vec<(VertexId, VertexId, u32)>>,
}

impl DynamicTsd {
    /// Builds from a static graph (equivalent to `TsdIndex::build`).
    pub fn from_csr(g: &CsrGraph) -> Self {
        Self::from_shared_csr(Arc::new(g.clone()))
    }

    /// Builds from a shared static graph, adopting it as copy-on-write
    /// adjacency storage (no per-vertex list is copied until edited).
    pub fn from_shared_csr(g: Arc<CsrGraph>) -> Self {
        let n = g.n();
        let graph = DynamicGraph::from_base(g);
        let mut index = DynamicTsd { graph, forests: vec![Vec::new(); n] };
        for v in 0..n as VertexId {
            index.rebuild_vertex(v);
        }
        index
    }

    /// An empty dynamic index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopts an already-built static [`TsdIndex`] over `g` without
    /// recomputing anything: the per-vertex forest slices are copied as-is
    /// (`O(index size)`, no ego extraction or truss decomposition). This is
    /// how a serving layer *carries* its TSD-index into a mutable session
    /// instead of paying a full rebuild.
    ///
    /// # Panics
    /// In debug builds, panics if the index covers a different vertex count
    /// than `g` — the caller pairs an index with the graph it was built
    /// from (the fingerprinted bundle layer enforces this upstream).
    pub fn from_index(g: &CsrGraph, index: &TsdIndex) -> Self {
        Self::from_shared_index(Arc::new(g.clone()), index)
    }

    /// [`Self::from_index`] over a shared graph: the carry is `O(index
    /// size)` for the forests plus `O(n)` copy-on-write slots — the
    /// adjacency itself stays shared with `g` until edits touch it, so a
    /// retained updater no longer doubles the graph's memory.
    pub fn from_shared_index(g: Arc<CsrGraph>, index: &TsdIndex) -> Self {
        debug_assert_eq!(g.n(), index.n(), "index and graph vertex counts must agree");
        let forests = (0..g.n() as VertexId).map(|v| index.forest(v).collect()).collect();
        DynamicTsd { graph: DynamicGraph::from_base(g), forests }
    }

    /// Re-arms copy-on-write sharing against a freshly published CSR
    /// snapshot of this graph (see [`DynamicGraph::rebase`]); owned
    /// overlay vectors accumulated during the last batch are released.
    pub fn rebase(&mut self, g: Arc<CsrGraph>) {
        self.graph.rebase(g);
    }

    /// Shared-vs-owned accounting for the underlying COW adjacency.
    pub fn cow_stats(&self) -> CowStats {
        self.graph.cow_stats()
    }

    /// Snapshots the maintained forests as a static [`TsdIndex`] — the
    /// inverse of [`Self::from_index`], again a pure `O(index size)` copy.
    /// The result equals `TsdIndex::build(&self.graph().to_csr())`
    /// (property-tested in `tests/dynamic_updates.rs`) at none of its cost.
    pub fn to_index(&self) -> TsdIndex {
        let mut builder = TsdBuilder::new(self.n());
        for forest in &self.forests {
            builder.push_forest(forest);
        }
        builder.finish()
    }

    /// Applies one [`GraphUpdate`], repairing the affected forests.
    /// Returns the number of ego-networks rebuilt — 0 iff the update was
    /// rejected (duplicate/self-loop insert, absent remove); an applied
    /// update always repairs at least its two endpoints.
    pub fn apply(&mut self, update: GraphUpdate) -> usize {
        let mut affected = Vec::new();
        self.apply_into(update, &mut affected)
    }

    /// [`Self::apply`], additionally appending every repaired vertex to
    /// `affected` (with repetitions across updates; callers dedup). This
    /// is the hook a co-maintained index (e.g. a dynamic GCT) uses to
    /// repair exactly the same ego-networks without re-deriving the
    /// affected region.
    pub fn apply_into(&mut self, update: GraphUpdate, affected: &mut Vec<VertexId>) -> usize {
        let (u, v) = update.endpoints();
        let applied = match update {
            GraphUpdate::Insert { .. } => {
                if !self.graph.insert_edge(u, v) {
                    return 0;
                }
                if self.forests.len() < self.graph.n() {
                    self.forests.resize(self.graph.n(), Vec::new());
                }
                true
            }
            GraphUpdate::Remove { .. } => self.graph.remove_edge(u, v),
        };
        if !applied {
            return 0;
        }
        self.repair_into(u, v, affected)
    }

    /// Read access to the maintained graph.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Number of vertices currently indexed.
    pub fn n(&self) -> usize {
        self.forests.len()
    }

    /// Inserts edge `{u, v}` and repairs the affected forests.
    /// Returns the number of ego-networks rebuilt (0 for no-op inserts).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> usize {
        self.apply(GraphUpdate::Insert { u, v })
    }

    /// Deletes edge `{u, v}` and repairs the affected forests.
    /// Returns the number of ego-networks rebuilt (0 if absent).
    pub fn remove_edge(&mut self, u: VertexId, v: VertexId) -> usize {
        self.apply(GraphUpdate::Remove { u, v })
    }

    /// Rebuilds the forests of `u`, `v`, and their common neighbors,
    /// appending each repaired vertex to `affected`.
    fn repair_into(&mut self, u: VertexId, v: VertexId, affected: &mut Vec<VertexId>) -> usize {
        let start = affected.len();
        affected.extend(self.graph.common_neighbors(u, v));
        affected.push(u);
        affected.push(v);
        for &v in &affected[start..] {
            self.rebuild_vertex(v);
        }
        affected.len() - start
    }

    /// Recomputes the forest of a single vertex from its current ego-network.
    fn rebuild_vertex(&mut self, v: VertexId) {
        let ego = extract_ego_dynamic(&self.graph, v);
        self.forests[v as usize] = max_spanning_forest(&ego, &decompose_ego(&ego));
    }

    /// `score(v)` at threshold `k` (counting form of Algorithm 6).
    pub fn score(&self, v: VertexId, k: u32) -> u32 {
        let forest = &self.forests[v as usize];
        let len = forest.partition_point(|&(_, _, w)| w >= k);
        let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * len);
        for &(a, b, _) in &forest[..len] {
            endpoints.push(a);
            endpoints.push(b);
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        (endpoints.len() - len) as u32
    }

    /// Social contexts of `v` at threshold `k` (retrieval form).
    pub fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        let forest = &self.forests[v as usize];
        let len = forest.partition_point(|&(_, _, w)| w >= k);
        let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * len);
        for &(a, b, _) in &forest[..len] {
            endpoints.push(a);
            endpoints.push(b);
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        // sd-lint: allow(no-panic) endpoints was just built from exactly these forest edges
        let local = |x: VertexId| endpoints.binary_search(&x).expect("endpoint") as u32;
        let mut dsu = Dsu::new(endpoints.len());
        for &(a, b, _) in &forest[..len] {
            dsu.union(local(a), local(b));
        }
        let mut root_to_group: Vec<i32> = vec![-1; endpoints.len()];
        let mut groups: Vec<Vec<VertexId>> = Vec::new();
        for (i, &global) in endpoints.iter().enumerate() {
            let root = dsu.find(i as u32) as usize;
            let gi = if root_to_group[root] >= 0 {
                root_to_group[root] as usize
            } else {
                root_to_group[root] = groups.len() as i32;
                groups.push(Vec::new());
                groups.len() - 1
            };
            groups[gi].push(global);
        }
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        groups
    }

    /// Scores of all vertices at threshold `k` (for top-r or comparisons).
    pub fn all_scores(&self, k: u32) -> Vec<u32> {
        (0..self.n() as VertexId).map(|v| self.score(v, k)).collect()
    }
}

/// Ego-network extraction on a [`DynamicGraph`] (same sorted-merge kernel as
/// [`EgoNetwork::extract`]).
pub fn extract_ego_dynamic(g: &DynamicGraph, v: VertexId) -> EgoNetwork {
    let nbrs = g.neighbors(v);
    let mut edges = Vec::new();
    for (local_u, &u) in nbrs.iter().enumerate() {
        let n_u = g.neighbors(u);
        let mut i = 0usize;
        let mut local_w = local_u + 1;
        while i < n_u.len() && local_w < nbrs.len() {
            let (a, b) = (n_u[i], nbrs[local_w]);
            if a < b {
                i += 1;
            } else if b < a {
                local_w += 1;
            } else {
                edges.push((local_u as VertexId, local_w as VertexId));
                i += 1;
                local_w += 1;
            }
        }
    }
    let graph = CsrGraph::from_canonical_edges(nbrs.len(), edges);
    EgoNetwork { graph, vertices: nbrs.to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::all_scores;
    use crate::paper::paper_figure1_graph;

    #[test]
    fn matches_static_index_after_build() {
        let (g, _, _) = paper_figure1_graph();
        let dynamic = DynamicTsd::from_csr(&g);
        for k in 2..=5 {
            assert_eq!(dynamic.all_scores(k), all_scores(&g, k), "k={k}");
        }
    }

    #[test]
    fn insert_then_scores_match_rebuilt() {
        let (g, _, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        // Connect the two 4-cliques' free corners: x1(1) - y2(6).
        let rebuilt = dynamic.insert_edge(1, 6);
        assert!(rebuilt >= 2);
        let now = dynamic.graph().to_csr();
        for k in 2..=5 {
            assert_eq!(dynamic.all_scores(k), all_scores(&now, k), "k={k}");
        }
    }

    #[test]
    fn remove_then_scores_match_rebuilt() {
        let (g, v, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        // Remove a bridge inside the ego of v: (x2=2, y1=5).
        assert!(dynamic.remove_edge(2, 5) >= 2);
        let now = dynamic.graph().to_csr();
        for k in 2..=5 {
            assert_eq!(dynamic.all_scores(k), all_scores(&now, k), "k={k}");
        }
        // v's score at k=3 grows: H1 splits into two 3-truss contexts...
        // (x-clique and y-clique no longer bridged through x2.)
        let _ = v;
    }

    #[test]
    fn noop_operations_rebuild_nothing() {
        let (g, _, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        assert_eq!(dynamic.insert_edge(0, 1), 0, "edge already present");
        assert_eq!(dynamic.insert_edge(3, 3), 0, "self-loop");
        assert_eq!(dynamic.remove_edge(15, 14), 0, "absent edge");
    }

    #[test]
    fn grows_vertex_set_on_insert() {
        let (g, _, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        dynamic.insert_edge(0, 40);
        assert_eq!(dynamic.n(), 41);
        assert_eq!(dynamic.score(40, 2), 0);
    }

    #[test]
    fn index_carry_roundtrips_and_stays_incremental() {
        let (g, _, _) = paper_figure1_graph();
        let built = TsdIndex::build(&g);
        // Adopting a static index is a pure copy …
        let mut dynamic = DynamicTsd::from_index(&g, &built);
        assert_eq!(dynamic.to_index(), built, "carry must reproduce the static index exactly");
        // … and the adopted state maintains correctly under edits.
        assert!(dynamic.apply(GraphUpdate::Insert { u: 1, v: 6 }) >= 2);
        assert_eq!(dynamic.apply(GraphUpdate::Insert { u: 1, v: 6 }), 0, "duplicate rejected");
        assert!(dynamic.apply(GraphUpdate::Remove { u: 2, v: 5 }) >= 2);
        let now = dynamic.graph().to_csr();
        assert_eq!(dynamic.to_index(), TsdIndex::build(&now), "carried index == full rebuild");
    }

    #[test]
    fn apply_into_reports_exactly_the_repaired_egos() {
        let (g, _, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        let mut affected = Vec::new();
        let rebuilt = dynamic.apply_into(GraphUpdate::Remove { u: 2, v: 5 }, &mut affected);
        assert_eq!(rebuilt, affected.len());
        assert!(affected.contains(&2) && affected.contains(&5), "endpoints always repaired");
        // Rejected updates repair (and report) nothing.
        assert_eq!(dynamic.apply_into(GraphUpdate::Remove { u: 2, v: 5 }, &mut affected), 0);
        assert_eq!(affected.len(), rebuilt, "rejected update appended nothing");
    }

    #[test]
    fn shared_carry_keeps_adjacency_cow_until_edits() {
        let (g, _, _) = paper_figure1_graph();
        let shared = Arc::new(g);
        let built = TsdIndex::build(&shared);
        let mut dynamic = DynamicTsd::from_shared_index(shared.clone(), &built);
        let before = dynamic.cow_stats();
        assert_eq!(before.owned, 0, "carry materializes no adjacency");
        assert_eq!(before.shared, shared.n());
        dynamic.insert_edge(1, 6);
        assert!(dynamic.cow_stats().owned >= 2, "edit materializes only touched slots");
        assert!(dynamic.cow_stats().shared >= shared.n() - 6);
        // Rebase against the published snapshot releases the overlay.
        let snapshot = Arc::new(dynamic.graph().to_csr());
        dynamic.rebase(snapshot.clone());
        assert_eq!(dynamic.cow_stats().owned, 0);
        assert_eq!(dynamic.to_index(), TsdIndex::build(&snapshot), "index survives the rebase");
    }

    #[test]
    fn contexts_match_static_after_edits() {
        let (g, v, _) = paper_figure1_graph();
        let mut dynamic = DynamicTsd::from_csr(&g);
        dynamic.insert_edge(1, 6);
        dynamic.remove_edge(2, 5);
        let now = dynamic.graph().to_csr();
        for k in 2..=5 {
            assert_eq!(
                dynamic.social_contexts(v, k),
                crate::score::social_contexts(&now, v, k),
                "k={k}"
            );
        }
    }
}
