//! The correctness oracle. For each k it holds the full Online score
//! vector of the served graph; the reference answer to (k, r) is the
//! top-r prefix of that vector sorted descending, and an answer is
//! correct when its score list equals it.
//!
//! Under updates, the vectors are carried from epoch to epoch by
//! re-scoring only the vertices an update can change: its endpoints and
//! their common neighbours.

use std::collections::BTreeSet;

use sd_core::{all_scores, score};
use sd_graph::{CsrGraph, GraphBuilder, GraphUpdate, VertexId};

use crate::gen::Mirror;
use crate::loadgen::hash_scores;

#[derive(Debug)]
pub struct Oracle {
    k_min: u32,
    /// `scores[k - k_min][v]`.
    scores: Vec<Vec<u32>>,
    /// Lazily sorted copies of `scores`, dropped when an epoch moves.
    sorted: Vec<Option<Vec<u32>>>,
    mirror: Mirror,
    epoch: u64,
}

/// The CSR graph of `mirror`'s edge set.
pub fn csr_of(mirror: &Mirror) -> CsrGraph {
    let mut builder = GraphBuilder::with_min_vertices(mirror.n());
    for (u, v) in mirror.edges() {
        builder.add_edge(u, v);
    }
    builder.build()
}

impl Oracle {
    /// The oracle for epoch 0: `mirror`'s graph, Online-scored for every
    /// k in `k_range`.
    pub fn new(mirror: Mirror, g: &CsrGraph, k_range: (u32, u32)) -> Oracle {
        let scores: Vec<Vec<u32>> = (k_range.0..=k_range.1).map(|k| all_scores(g, k)).collect();
        let sorted = vec![None; scores.len()];
        Oracle { k_min: k_range.0, scores, sorted, mirror, epoch: 0 }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn mirror(&self) -> &Mirror {
        &self.mirror
    }

    /// Hash of the reference answer to (k, r) at the current epoch.
    pub fn expected(&mut self, k: u32, r: u64) -> Option<u64> {
        let i = k.checked_sub(self.k_min).map(|i| i as usize).filter(|&i| i < self.scores.len())?;
        let sorted = self.sorted[i].get_or_insert_with(|| {
            let mut s = self.scores[i].clone();
            s.sort_unstable_by(|a, b| b.cmp(a));
            s
        });
        let r = usize::try_from(r).ok()?.min(sorted.len());
        Some(hash_scores(sorted[..r].iter().copied()))
    }

    /// Moves to the next epoch by applying `batch`, re-scoring every
    /// vertex whose ego-network it changes. Returns how many ops applied.
    pub fn advance(&mut self, batch: &[GraphUpdate]) -> usize {
        let mut affected: BTreeSet<VertexId> = BTreeSet::new();
        let mut applied = 0;
        for &update in batch {
            let (u, v) = update.endpoints();
            affected.extend(self.mirror.common_neighbors(u, v));
            affected.extend([u, v]);
            applied += usize::from(self.mirror.apply(update));
        }
        let g = csr_of(&self.mirror);
        for (i, scores) in self.scores.iter_mut().enumerate() {
            let k = self.k_min + i as u32;
            for &v in &affected {
                scores[v as usize] = score(&g, v, k);
            }
        }
        self.sorted.iter_mut().for_each(|s| *s = None);
        self.epoch += 1;
        applied
    }

    /// Whether the carried score vectors equal a fresh Online scan of the
    /// mirror graph — the check that the carrying itself is right.
    pub fn matches_fresh_scan(&self) -> bool {
        let g = csr_of(&self.mirror);
        self.scores.iter().enumerate().all(|(i, s)| *s == all_scores(&g, self.k_min + i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with_chords(n: u32) -> Vec<(VertexId, VertexId)> {
        (0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 2) % n), (v, (v + 3) % n)]).collect()
    }

    #[test]
    fn reference_is_the_sorted_prefix_of_the_online_scores() {
        let edges = ring_with_chords(30);
        let mirror = Mirror::new(30, &edges);
        let g = csr_of(&mirror);
        let mut oracle = Oracle::new(mirror, &g, (3, 4));
        let mut scores = all_scores(&g, 3);
        scores.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(oracle.expected(3, 5), Some(hash_scores(scores[..5].iter().copied())));
        assert_eq!(oracle.expected(3, 500), Some(hash_scores(scores.iter().copied())));
        assert_eq!(oracle.expected(9, 5), None);
    }

    #[test]
    fn carried_scores_match_a_fresh_scan_after_updates() {
        let edges = ring_with_chords(40);
        let mirror = Mirror::new(40, &edges);
        let g = csr_of(&mirror);
        let mut oracle = Oracle::new(mirror.clone(), &g, (3, 5));
        let mut future = mirror;
        let mut rng = crate::gen::stream_rng(11, 4);
        for _ in 0..6 {
            let batch = future.draw_batch(&mut rng, 8, 2.0 / 3.0);
            assert_eq!(oracle.advance(&batch), 8);
        }
        assert_eq!(oracle.epoch(), 6);
        assert!(oracle.matches_fresh_scan());
    }
}
