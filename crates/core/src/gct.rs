//! The GCT approach (Section 6): global-triangle-listing ego extraction,
//! truss decomposition (bitmap kernel below its size ceiling), and the
//! compressed GCT-index.
//!
//! The GCT-index compresses each vertex's TSD forest by collapsing every
//! group of vertices connected through edges of one trussness level into a
//! **supernode** (trussness + member list) and keeping only the
//! **superedges** that bridge different levels. Queries use Lemma 3:
//! `score(v) = N_k − M_k` where `N_k` counts supernodes with trussness ≥ k
//! and `M_k` superedges with weight ≥ k — here O(log) per vertex because
//! both arrays are stored sorted descending.

use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use sd_graph::{CsrGraph, Dsu, DynamicGraph, VertexId};
use sd_truss::{vertex_trussness, TrussDecomposition};

use crate::bound::finish_entries;
use crate::config::{DiversityConfig, SearchMetrics, TopRResult};
use crate::egonet::{AllEgoNetworks, EgoNetwork};
use crate::error::DecodeError;
use crate::score::decompose_ego;
use crate::topr::TopRCollector;

/// Serialized-format magic ("GCT1").
const MAGIC: u32 = 0x4743_5431;

/// Per-vertex compressed structure: supernodes and superedges
/// (Figure 7(b) of the paper).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GctEntry {
    /// Supernode trussness `τ(S)`, sorted descending.
    sn_tau: Vec<u32>,
    /// `sn_offsets[i]..sn_offsets[i+1]` slices `sn_vertices` for supernode i.
    sn_offsets: Vec<u32>,
    /// Concatenated supernode member lists (global vertex ids, each ascending).
    sn_vertices: Vec<VertexId>,
    /// Superedges `(a, b, w)` — supernode indices + weight — weight descending.
    se: Vec<(u32, u32, u32)>,
}

impl GctEntry {
    /// The entry of an isolated vertex — identical to what
    /// [`Self::from_ego`] produces for an empty ego-network (the offsets
    /// array keeps its leading sentinel 0).
    pub fn empty() -> Self {
        GctEntry {
            sn_tau: Vec::new(),
            sn_offsets: vec![0],
            sn_vertices: Vec::new(),
            se: Vec::new(),
        }
    }

    /// Number of supernodes.
    pub fn supernodes(&self) -> usize {
        self.sn_tau.len()
    }

    /// Number of superedges.
    pub fn superedges(&self) -> usize {
        self.se.len()
    }

    /// Members of supernode `i`.
    pub fn members(&self, i: usize) -> &[VertexId] {
        &self.sn_vertices[self.sn_offsets[i] as usize..self.sn_offsets[i + 1] as usize]
    }

    /// `N_k`: supernodes with trussness ≥ k (prefix, since sorted desc).
    fn n_k(&self, k: u32) -> usize {
        self.sn_tau.partition_point(|&t| t >= k)
    }

    /// `M_k`: superedges with weight ≥ k (prefix, since sorted desc).
    fn m_k(&self, k: u32) -> usize {
        self.se.partition_point(|&(_, _, w)| w >= k)
    }

    /// Lemma 3: `score = N_k − M_k` (the filtered structure is a forest of
    /// supernodes, every superedge of weight ≥ k joining two qualifying
    /// supernodes).
    pub fn score(&self, k: u32) -> u32 {
        (self.n_k(k) - self.m_k(k)) as u32
    }

    /// Social contexts at threshold `k`: union-find over qualifying
    /// supernodes along qualifying superedges, member lists merged,
    /// ordered (size desc, first vertex asc).
    pub fn social_contexts(&self, k: u32) -> Vec<Vec<VertexId>> {
        let n_k = self.n_k(k);
        let m_k = self.m_k(k);
        let mut dsu = Dsu::new(n_k);
        for &(a, b, _) in &self.se[..m_k] {
            debug_assert!((a as usize) < n_k && (b as usize) < n_k);
            dsu.union(a, b);
        }
        let mut root_to_group: Vec<i32> = vec![-1; n_k];
        let mut groups: Vec<Vec<VertexId>> = Vec::new();
        for i in 0..n_k {
            let root = dsu.find(i as u32) as usize;
            let gi = if root_to_group[root] >= 0 {
                root_to_group[root] as usize
            } else {
                root_to_group[root] = groups.len() as i32;
                groups.push(Vec::new());
                groups.len() - 1
            };
            groups[gi].extend_from_slice(self.members(i));
        }
        for group in &mut groups {
            group.sort_unstable();
        }
        groups.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        groups
    }

    /// Checks a decoded entry against `nbrs`, the owner's neighborhood:
    /// supernodes are non-empty slices of N(v) with non-increasing
    /// trussness, superedge weights are non-increasing, and every
    /// superedge `(a, b, w)` joins two supernodes of trussness ≥ w without
    /// closing a cycle — so Lemma 3's `N_k − M_k` cannot underflow and
    /// every union-find index stays in range.
    fn validate(&self, nbrs: &[VertexId]) -> Result<(), DecodeError> {
        let well_formed = self.sn_tau.windows(2).all(|t| t[0] >= t[1])
            && self.se.windows(2).all(|e| e[0].2 >= e[1].2)
            && self.sn_offsets.windows(2).all(|o| o[0] < o[1])
            && self.sn_offsets.last() == Some(&(self.sn_vertices.len() as u32))
            && self.sn_vertices.iter().all(|x| nbrs.binary_search(x).is_ok());
        if !well_formed {
            return Err(DecodeError::InvalidEntry);
        }
        let joins = |i: u32, w: u32| self.sn_tau.get(i as usize).is_some_and(|&t| t >= w);
        let mut forest = Dsu::new(self.sn_tau.len());
        for &(a, b, w) in &self.se {
            if !(joins(a, w) && joins(b, w) && forest.union(a, b)) {
                return Err(DecodeError::InvalidEntry);
            }
        }
        Ok(())
    }

    /// Algorithm 8: builds the entry from an ego-network, its truss
    /// decomposition, and per-local-vertex trussness.
    pub fn from_ego(ego: &EgoNetwork, decomposition: &TrussDecomposition, tau_v: &[u32]) -> Self {
        let local = &ego.graph;
        let n = local.n();
        // `snode` tracks supernode membership (merges only); `conn` tracks
        // forest connectivity (merges + superedges).
        let mut snode = Dsu::new(n);
        let mut conn = Dsu::new(n);
        let snode_tau: Vec<u32> = tau_v.to_vec();
        let mut raw_superedges: Vec<(u32, u32, u32)> = Vec::new();

        // Process edges in descending trussness (counting buckets).
        let max_w = decomposition.max_trussness;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_w as usize + 1];
        for (e, &t) in decomposition.trussness.iter().enumerate() {
            buckets[t as usize].push(e as u32);
        }
        for t in (2..=max_w).rev() {
            for &e in &buckets[t as usize] {
                let (u, w) = local.edge(e);
                let su = snode.find(u);
                let sw = snode.find(w);
                if su == sw || conn.connected(u, w) {
                    continue;
                }
                if snode_tau[su as usize] == t && snode_tau[sw as usize] == t {
                    snode.union(su, sw);
                    // Root keeps tau = t (both sides equal).
                } else {
                    raw_superedges.push((u, w, t));
                }
                conn.union(u, w);
            }
        }

        // Collect supernodes over vertices with trussness ≥ 2 (isolated ego
        // vertices can never join a k-truss, k ≥ 2).
        let mut root_to_sn: Vec<i32> = vec![-1; n];
        let mut sn_tau = Vec::new();
        let mut member_lists: Vec<Vec<VertexId>> = Vec::new();
        for (l, &tau) in tau_v.iter().enumerate() {
            if tau < 2 {
                continue;
            }
            let root = snode.find(l as u32) as usize;
            let idx = if root_to_sn[root] >= 0 {
                root_to_sn[root] as usize
            } else {
                root_to_sn[root] = sn_tau.len() as i32;
                sn_tau.push(snode_tau[root]);
                member_lists.push(Vec::new());
                sn_tau.len() - 1
            };
            member_lists[idx].push(ego.vertices[l]);
        }

        // Sort supernodes by trussness descending (stable order for queries).
        let mut perm: Vec<usize> = (0..sn_tau.len()).collect();
        perm.sort_by(|&a, &b| sn_tau[b].cmp(&sn_tau[a]));
        let mut inv = vec![0u32; perm.len()];
        for (new_idx, &old_idx) in perm.iter().enumerate() {
            inv[old_idx] = new_idx as u32;
        }
        let sorted_tau: Vec<u32> = perm.iter().map(|&i| sn_tau[i]).collect();
        let mut sn_offsets = Vec::with_capacity(perm.len() + 1);
        let mut sn_vertices = Vec::new();
        sn_offsets.push(0u32);
        for &i in &perm {
            sn_vertices.extend_from_slice(&member_lists[i]);
            sn_offsets.push(sn_vertices.len() as u32);
        }

        let mut se: Vec<(u32, u32, u32)> = raw_superedges
            .into_iter()
            .map(|(u, w, t)| {
                let a = inv[root_to_sn[snode.find(u) as usize] as usize];
                let b = inv[root_to_sn[snode.find(w) as usize] as usize];
                (a.min(b), a.max(b), t)
            })
            .collect();
        se.sort_unstable_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)));

        GctEntry { sn_tau: sorted_tau, sn_offsets, sn_vertices, se }
    }
}

/// Phase timings of GCT/TSD index construction (Table 4 of the paper).
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildPhaseStats {
    /// Ego-network extraction time.
    pub extraction: Duration,
    /// Ego-network truss decomposition time.
    pub decomposition: Duration,
    /// Forest/supernode assembly time.
    pub assembly: Duration,
}

/// The GCT-index of a whole graph.
///
/// ```
/// use sd_graph::GraphBuilder;
/// use sd_core::{paper_figure1_edges, GctIndex};
///
/// let g = GraphBuilder::new().extend_edges(paper_figure1_edges()).build();
/// let index = GctIndex::build(&g);
/// // Lemma 3: score(v) = N_k − M_k, answered in O(log) per vertex.
/// assert_eq!(index.score(0, 4), 3);
/// assert_eq!(index.social_contexts(0, 4).len(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GctIndex {
    entries: Vec<GctEntry>,
}

impl GctIndex {
    /// Algorithm 7: one-shot ego extraction, truss decomposition under the
    /// ego kernel policy (bitmap below its size ceiling), then Algorithm 8
    /// per vertex.
    pub fn build(g: &CsrGraph) -> Self {
        Self::build_with_stats(g).0
    }

    /// As [`Self::build`], additionally reporting per-phase timings.
    pub fn build_with_stats(g: &CsrGraph) -> (Self, BuildPhaseStats) {
        let mut stats = BuildPhaseStats::default();
        let t0 = Instant::now();
        let all = AllEgoNetworks::build(g);
        stats.extraction += t0.elapsed();

        let mut entries = Vec::with_capacity(g.n());
        for v in g.vertices() {
            let t1 = Instant::now();
            let ego = all.ego_graph(g, v);
            stats.extraction += t1.elapsed();

            let t2 = Instant::now();
            let decomposition = decompose_ego(&ego);
            let tau_v = vertex_trussness(&ego.graph, &decomposition);
            stats.decomposition += t2.elapsed();

            let t3 = Instant::now();
            entries.push(GctEntry::from_ego(&ego, &decomposition, &tau_v));
            stats.assembly += t3.elapsed();
        }
        (GctIndex { entries }, stats)
    }

    /// Assembles an index from per-vertex entries (entry `i` belongs to
    /// vertex `i`); used by the parallel builder.
    pub fn from_entries(entries: Vec<GctEntry>) -> Self {
        GctIndex { entries }
    }

    /// Number of indexed vertices.
    pub fn n(&self) -> usize {
        self.entries.len()
    }

    /// Per-vertex entry.
    pub fn entry(&self, v: VertexId) -> &GctEntry {
        &self.entries[v as usize]
    }

    /// `score(v)` at threshold `k` (Lemma 3; O(log) per call).
    pub fn score(&self, v: VertexId, k: u32) -> u32 {
        self.entries[v as usize].score(k)
    }

    /// Social contexts of `v` at threshold `k`.
    pub fn social_contexts(&self, v: VertexId, k: u32) -> Vec<Vec<VertexId>> {
        self.entries[v as usize].social_contexts(k)
    }

    /// GCT top-r: exact scores are O(log) per vertex, so evaluate all and
    /// collect (the O(m)-worst-case query of Section 6.3).
    pub fn top_r(&self, config: &DiversityConfig) -> TopRResult {
        let start = Instant::now();
        let mut collector = TopRCollector::new(config.r);
        let mut computations = 0usize;
        for (v, entry) in self.entries.iter().enumerate() {
            computations += 1;
            collector.offer(v as u32, entry.score(config.k));
        }
        let entries = finish_entries(collector, |v| self.social_contexts(v, config.k));
        TopRResult {
            entries,
            metrics: SearchMetrics {
                score_computations: computations,
                elapsed: start.elapsed(),
                engine: "",
                parallel: false,
            },
        }
    }

    /// Serializes to a compact blob (Table 3 index-size accounting).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u64_le(self.entries.len() as u64);
        for e in &self.entries {
            buf.put_u32_le(e.sn_tau.len() as u32);
            buf.put_u32_le(e.sn_vertices.len() as u32);
            buf.put_u32_le(e.se.len() as u32);
            for &t in &e.sn_tau {
                buf.put_u32_le(t);
            }
            for &o in &e.sn_offsets[1..] {
                buf.put_u32_le(o);
            }
            for &m in &e.sn_vertices {
                buf.put_u32_le(m);
            }
            for &(a, b, w) in &e.se {
                buf.put_u32_le(a);
                buf.put_u32_le(b);
                buf.put_u32_le(w);
            }
        }
        buf.freeze()
    }

    /// Deserializes a blob produced by [`Self::to_bytes`].
    pub fn from_bytes(mut data: Bytes) -> Result<Self, DecodeError> {
        if data.remaining() < 12 {
            return Err(DecodeError::Truncated);
        }
        if data.get_u32_le() != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let n = data.get_u64_le() as usize;
        // Every entry consumes at least its 12-byte count header, so a
        // hostile vertex count must not drive a huge allocation (or a
        // capacity overflow) before the per-entry length checks run.
        if n > data.remaining() / 12 {
            return Err(DecodeError::Truncated);
        }
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            if data.remaining() < 12 {
                return Err(DecodeError::Truncated);
            }
            let sn = data.get_u32_le() as usize;
            let members = data.get_u32_le() as usize;
            let ses = data.get_u32_le() as usize;
            // Checked arithmetic: hostile per-entry counts must not wrap
            // the length check on 32-bit targets (same discipline as
            // `TsdIndex::from_bytes`).
            let need = sn
                .checked_mul(8)
                .and_then(|a| a.checked_add(members.checked_mul(4)?))
                .and_then(|a| a.checked_add(ses.checked_mul(12)?))
                .ok_or(DecodeError::Truncated)?;
            if data.remaining() < need {
                return Err(DecodeError::Truncated);
            }
            let sn_tau: Vec<u32> = (0..sn).map(|_| data.get_u32_le()).collect();
            let mut sn_offsets = Vec::with_capacity(sn + 1);
            sn_offsets.push(0);
            for _ in 0..sn {
                sn_offsets.push(data.get_u32_le());
            }
            let sn_vertices: Vec<u32> = (0..members).map(|_| data.get_u32_le()).collect();
            let se: Vec<(u32, u32, u32)> = (0..ses)
                .map(|_| (data.get_u32_le(), data.get_u32_le(), data.get_u32_le()))
                .collect();
            entries.push(GctEntry { sn_tau, sn_offsets, sn_vertices, se });
        }
        Ok(GctIndex { entries })
    }

    /// Checks a decoded index entry by entry against `g`, the graph (of
    /// `self.n()` vertices) it is being attached to. Only the import path
    /// runs this; built and repaired indexes hold the invariants by
    /// construction.
    pub(crate) fn validate(&self, g: &CsrGraph) -> Result<(), DecodeError> {
        g.vertices().try_for_each(|v| self.entries[v as usize].validate(g.neighbors(v)))
    }

    /// Serialized size in bytes.
    pub fn index_size_bytes(&self) -> usize {
        12 + self
            .entries
            .iter()
            .map(|e| 12 + e.sn_tau.len() * 8 + e.sn_vertices.len() * 4 + e.se.len() * 12)
            .sum::<usize>()
    }
}

/// Builds one GCT entry straight from a graph (testing/diagnostics helper).
pub fn gct_entry_for(g: &CsrGraph, v: VertexId) -> GctEntry {
    let ego = EgoNetwork::extract(g, v);
    let decomposition = decompose_ego(&ego);
    let tau_v = vertex_trussness(&ego.graph, &decomposition);
    GctEntry::from_ego(&ego, &decomposition, &tau_v)
}

/// Builds one GCT entry from a mutable graph's current state — the repair
/// primitive of [`DynamicGct`], sharing the sorted-merge ego kernel with
/// the dynamic TSD path.
pub fn dynamic_gct_entry_for(g: &DynamicGraph, v: VertexId) -> GctEntry {
    let ego = crate::dynamic::extract_ego_dynamic(g, v);
    let decomposition = decompose_ego(&ego);
    let tau_v = vertex_trussness(&ego.graph, &decomposition);
    GctEntry::from_ego(&ego, &decomposition, &tau_v)
}

/// A GCT-index that stays consistent under affected-region repair.
///
/// The GCT entry of vertex `v` is a pure function of `v`'s ego-network,
/// so the *same* affected set the dynamic TSD derives for an update batch
/// (endpoints + common neighbors per applied edit; see
/// [`DynamicTsd::apply_into`](crate::dynamic::DynamicTsd::apply_into))
/// bounds exactly which entries an update can change — re-decomposing
/// only those restores the full index. The structure holds no adjacency
/// of its own: callers lend the [`DynamicGraph`] the TSD updater already
/// maintains, so carrying GCT across epochs costs `O(index)` entries and
/// zero extra graph memory.
#[derive(Clone, Debug, Default)]
pub struct DynamicGct {
    entries: Vec<GctEntry>,
}

impl DynamicGct {
    /// Adopts an already-built static [`GctIndex`] without recomputing
    /// anything (`O(index size)` entry copy — the epoch-carry path).
    pub fn from_index(index: &GctIndex) -> Self {
        DynamicGct { entries: index.entries.clone() }
    }

    /// Number of indexed vertices.
    pub fn n(&self) -> usize {
        self.entries.len()
    }

    /// Re-decomposes the ego-networks of `affected` vertices against the
    /// graph's current state, growing the entry table if the batch added
    /// vertices. Returns the number of entries rebuilt. Callers pass a
    /// deduplicated affected set; repairing a vertex twice is correct but
    /// wasted work.
    pub fn repair(&mut self, g: &DynamicGraph, affected: &[VertexId]) -> usize {
        if self.entries.len() < g.n() {
            self.entries.resize(g.n(), GctEntry::empty());
        }
        for &v in affected {
            self.entries[v as usize] = dynamic_gct_entry_for(g, v);
        }
        affected.len()
    }

    /// Snapshots the maintained entries as a static [`GctIndex`] — equal
    /// to `GctIndex::build` of the current graph at none of its cost.
    pub fn to_index(&self) -> GctIndex {
        GctIndex { entries: self.entries.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{all_scores, online_top_r};
    use crate::paper::paper_figure1_graph;
    use crate::score::social_contexts;

    /// Import-time validation refuses each entry shape no graph can
    /// produce, starting from Figure 7(b)'s valid GCT_v.
    #[test]
    fn validate_rejects_entries_no_graph_could_have() {
        let (g, v, _) = paper_figure1_graph();
        let nbrs = g.neighbors(v);
        let entry = gct_entry_for(&g, v);
        assert_eq!(entry.validate(nbrs), Ok(()));
        let forgeries: [fn(&mut GctEntry); 5] = [
            |e| e.sn_tau[2] = 5,      // trussness out of order
            |e| e.sn_offsets[1] = 0,  // an empty supernode
            |e| e.sn_vertices[0] = 0, // a member outside N(v)
            |e| e.se[0].2 = 5,        // a superedge above its supernodes
            |e| e.se.push(e.se[0]),   // a cycle: N_k − M_k underflows
        ];
        for (i, forge) in forgeries.iter().enumerate() {
            let mut forged = entry.clone();
            forge(&mut forged);
            assert_eq!(forged.validate(nbrs), Err(DecodeError::InvalidEntry), "forgery {i}");
        }
    }

    /// Figure 7(b): GCT_v has three supernodes of trussness 4 (x-clique,
    /// y-clique, r-octahedron) and one superedge of weight 3.
    #[test]
    fn paper_figure_7_structure() {
        let (g, v, _) = paper_figure1_graph();
        let entry = gct_entry_for(&g, v);
        assert_eq!(entry.supernodes(), 3);
        assert!(entry.sn_tau.iter().all(|&t| t == 4));
        assert_eq!(entry.superedges(), 1);
        assert_eq!(entry.se[0].2, 3);
        let sizes: Vec<usize> = (0..3).map(|i| entry.members(i).len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![4, 4, 6]);
    }

    #[test]
    fn lemma_3_scores_match_online() {
        let (g, _, _) = paper_figure1_graph();
        let index = GctIndex::build(&g);
        for k in 2..=7 {
            let truth = all_scores(&g, k);
            for v in g.vertices() {
                assert_eq!(index.score(v, k), truth[v as usize], "v={v} k={k}");
            }
        }
    }

    #[test]
    fn dynamic_gct_repair_matches_full_rebuild() {
        let (g, _, _) = paper_figure1_graph();
        let built = GctIndex::build(&g);
        let mut gct = DynamicGct::from_index(&built);
        assert_eq!(gct.to_index(), built, "carry reproduces the static index exactly");
        // Drive the graph with the TSD updater and repair the same region.
        let mut tsd = crate::dynamic::DynamicTsd::from_csr(&g);
        let mut affected = Vec::new();
        for update in [
            sd_graph::GraphUpdate::Insert { u: 1, v: 6 },
            sd_graph::GraphUpdate::Remove { u: 2, v: 5 },
            sd_graph::GraphUpdate::Insert { u: 0, v: 20 }, // grows the vertex set
        ] {
            tsd.apply_into(update, &mut affected);
        }
        affected.sort_unstable();
        affected.dedup();
        let repaired = gct.repair(tsd.graph(), &affected);
        assert_eq!(repaired, affected.len());
        let rebuilt = GctIndex::build(&tsd.graph().to_csr());
        assert_eq!(gct.to_index(), rebuilt, "affected-region repair == full rebuild");
    }

    #[test]
    fn contexts_match_algorithm_2() {
        let (g, _, _) = paper_figure1_graph();
        let index = GctIndex::build(&g);
        for k in 2..=5 {
            for v in g.vertices() {
                assert_eq!(index.social_contexts(v, k), social_contexts(&g, v, k), "v={v} k={k}");
            }
        }
    }

    #[test]
    fn top_r_matches_online() {
        let (g, _, _) = paper_figure1_graph();
        let index = GctIndex::build(&g);
        for k in 2..=5 {
            for r in [1usize, 3, 17] {
                let cfg = DiversityConfig { k, r };
                assert_eq!(
                    index.top_r(&cfg).scores(),
                    online_top_r(&g, &cfg).scores(),
                    "k={k} r={r}"
                );
            }
        }
    }

    #[test]
    fn gct_smaller_than_tsd() {
        let (g, _, _) = paper_figure1_graph();
        let gct = GctIndex::build(&g);
        let tsd = crate::tsd::TsdIndex::build(&g);
        assert!(
            gct.index_size_bytes() < tsd.index_size_bytes(),
            "gct {} vs tsd {}",
            gct.index_size_bytes(),
            tsd.index_size_bytes()
        );
    }

    #[test]
    fn serialization_roundtrip() {
        let (g, _, _) = paper_figure1_graph();
        let index = GctIndex::build(&g);
        let blob = index.to_bytes();
        assert_eq!(blob.len(), index.index_size_bytes());
        let back = GctIndex::from_bytes(blob).unwrap();
        assert_eq!(index, back);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(GctIndex::from_bytes(Bytes::from_static(b"xx")), Err(DecodeError::Truncated));
        let mut buf = BytesMut::new();
        buf.put_u32_le(123);
        buf.put_u64_le(0);
        assert_eq!(GctIndex::from_bytes(buf.freeze()), Err(DecodeError::BadMagic));
    }

    /// A valid magic followed by a hostile vertex count must fail cleanly,
    /// not overflow `Vec::with_capacity`.
    #[test]
    fn decode_rejects_hostile_entry_count() {
        for n in [u64::MAX, u64::MAX / 8, 1 << 40] {
            let mut buf = BytesMut::new();
            buf.put_u32_le(MAGIC);
            buf.put_u64_le(n);
            assert_eq!(GctIndex::from_bytes(buf.freeze()), Err(DecodeError::Truncated), "n={n}");
        }
    }

    /// Hostile per-entry counts chosen to wrap 32-bit size arithmetic must
    /// be rejected by the checked length computation, not read past the
    /// buffer.
    #[test]
    fn decode_rejects_hostile_per_entry_counts() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u64_le(1);
        buf.put_u32_le(0x2000_0000); // sn * 8 wraps to 0 on 32-bit usize
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        assert_eq!(GctIndex::from_bytes(buf.freeze()), Err(DecodeError::Truncated));
    }

    #[test]
    fn build_stats_cover_phases() {
        let (g, _, _) = paper_figure1_graph();
        let (_, stats) = GctIndex::build_with_stats(&g);
        // All phases ran (durations are >= 0 by type; just ensure no panic
        // and extraction includes the one-shot listing).
        let total = stats.extraction + stats.decomposition + stats.assembly;
        assert!(total.as_nanos() > 0);
    }
}
