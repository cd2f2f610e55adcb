//! The Hybrid competitor (Exp-4, Figure 11): answer materialization.
//!
//! Hybrid precomputes, for every threshold `k`, the complete vertex ranking
//! by structural diversity. A query `(k, r)` then reads the top-r vertices
//! directly and only pays for *social context* computation, which it performs
//! online with Algorithm 2. The paper shows this is competitive at `r = 1`
//! but loses to GCT as `r` grows — context recomputation dominates.

use std::time::Instant;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use sd_graph::{CsrGraph, VertexId};

use crate::config::{DiversityConfig, SearchMetrics, TopREntry, TopRResult};
use crate::error::DecodeError;
use crate::score::{ego_contexts, EgoScratch};
use crate::tsd::TsdIndex;

/// Serialization magic ("HYB1").
const MAGIC: u32 = 0x4859_4231;

/// Precomputed per-k rankings of positive-score vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HybridIndex {
    /// `rankings[k]` = `(score, vertex)` pairs sorted (score desc, vertex asc);
    /// only vertices with positive score are stored. Index 0 and 1 are empty.
    rankings: Vec<Vec<(u32, VertexId)>>,
    n: usize,
}

impl HybridIndex {
    /// Builds the rankings by sweeping every vertex's TSD score profile.
    pub fn build(g: &CsrGraph) -> Self {
        let tsd = TsdIndex::build(g);
        Self::build_from_tsd(&tsd)
    }

    /// Builds from an existing TSD-index (shares the expensive decomposition).
    pub fn build_from_tsd(tsd: &TsdIndex) -> Self {
        let n = tsd.n();
        let mut max_k = 2u32;
        let mut profiles = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let p = tsd.score_profile(v);
            if let Some(&(w, _)) = p.first() {
                max_k = max_k.max(w);
            }
            profiles.push(p);
        }
        let mut rankings: Vec<Vec<(u32, VertexId)>> = vec![Vec::new(); max_k as usize + 1];
        for (v, profile) in profiles.iter().enumerate() {
            // profile = [(w1, s1), (w2, s2), ...] with w descending; the
            // score at threshold k is the entry with the smallest w ≥ k.
            let Some(&(w1, _)) = profile.first() else { continue };
            let mut idx = 0usize;
            for k in (2..=w1).rev() {
                while idx + 1 < profile.len() && profile[idx + 1].0 >= k {
                    idx += 1;
                }
                let score = profile[idx].1;
                if score > 0 {
                    rankings[k as usize].push((score, v as VertexId));
                }
            }
        }
        for ranking in &mut rankings {
            ranking.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        HybridIndex { rankings, n }
    }

    /// Vertex count of the graph the rankings were materialized from.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Serializes to a compact binary blob: magic, vertex count, level
    /// count, then each level's `(score, vertex)` ranking with its length.
    /// Like the TSD/GCT blobs, this is both the persistence format and the
    /// index-size accounting unit.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.index_size_bytes());
        buf.put_u32_le(MAGIC);
        buf.put_u64_le(self.n as u64);
        buf.put_u64_le(self.rankings.len() as u64);
        for ranking in &self.rankings {
            buf.put_u64_le(ranking.len() as u64);
            for &(score, vertex) in ranking {
                buf.put_u32_le(score);
                buf.put_u32_le(vertex);
            }
        }
        buf.freeze()
    }

    /// Deserializes a blob produced by [`Self::to_bytes`]. Length fields
    /// are validated with checked arithmetic before any allocation, and
    /// every recorded vertex id must fall below the declared vertex count —
    /// a hostile blob must fail with a typed [`DecodeError`], never panic
    /// at decode or query time.
    pub fn from_bytes(mut data: Bytes) -> Result<Self, DecodeError> {
        if data.remaining() < 20 {
            return Err(DecodeError::Truncated);
        }
        if data.get_u32_le() != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let n = data.get_u64_le() as usize;
        let levels = data.get_u64_le() as usize;
        // Each level costs at least its 8-byte length header.
        if levels.checked_mul(8).is_none_or(|need| data.remaining() < need) {
            return Err(DecodeError::Truncated);
        }
        let mut rankings = Vec::with_capacity(levels);
        for _ in 0..levels {
            if data.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            let len = data.get_u64_le() as usize;
            let need = len.checked_mul(8).ok_or(DecodeError::Truncated)?;
            if data.remaining() < need {
                return Err(DecodeError::Truncated);
            }
            let mut ranking = Vec::with_capacity(len);
            for _ in 0..len {
                let score = data.get_u32_le();
                let vertex = data.get_u32_le();
                if vertex as usize >= n {
                    return Err(DecodeError::InvalidEntry);
                }
                ranking.push((score, vertex));
            }
            rankings.push(ranking);
        }
        if data.remaining() != 0 {
            return Err(DecodeError::Truncated);
        }
        Ok(HybridIndex { rankings, n })
    }

    /// Serialized size in bytes (the Hybrid column of the paper's
    /// index-size comparison).
    pub fn index_size_bytes(&self) -> usize {
        20 + self.rankings.iter().map(|r| 8 + r.len() * 8).sum::<usize>()
    }

    /// `score(v)` at threshold `k` per the materialized rankings (0 when the
    /// vertex is absent).
    pub fn score(&self, v: VertexId, k: u32) -> u32 {
        self.rankings
            .get(k as usize)
            .and_then(|r| r.iter().find(|&&(_, u)| u == v))
            .map(|&(s, _)| s)
            .unwrap_or(0)
    }

    /// Query: read the precomputed top-r, then compute each winner's social
    /// contexts online (Algorithm 2) — the cost the paper measures in
    /// Figure 11.
    pub fn top_r(&self, g: &CsrGraph, config: &DiversityConfig) -> TopRResult {
        let start = Instant::now();
        let ranking = self.rankings.get(config.k as usize).map(|r| r.as_slice()).unwrap_or(&[]);
        let mut picks: Vec<(u32, VertexId)> = ranking.iter().take(config.r).copied().collect();
        // Pad with zero-score vertices when r exceeds the positive-score
        // population, matching the online algorithm's output size.
        if picks.len() < config.r.min(self.n) {
            let mut present = vec![false; self.n];
            for &(_, v) in &picks {
                present[v as usize] = true;
            }
            for v in 0..self.n as u32 {
                if picks.len() >= config.r.min(self.n) {
                    break;
                }
                if !present[v as usize] {
                    picks.push((0, v));
                }
            }
        }
        let mut computations = 0usize;
        let mut scratch = EgoScratch::default();
        let entries: Vec<TopREntry> = picks
            .into_iter()
            .map(|(score, vertex)| {
                computations += 1;
                let contexts = ego_contexts(g, vertex, config.k, &mut scratch);
                TopREntry { vertex, score, contexts }
            })
            .collect();
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::{all_scores, online_top_r};
    use crate::paper::paper_figure1_graph;

    #[test]
    fn rankings_match_online_scores() {
        let (g, _, _) = paper_figure1_graph();
        let hybrid = HybridIndex::build(&g);
        for k in 2..=6 {
            let truth = all_scores(&g, k);
            for v in g.vertices() {
                assert_eq!(hybrid.score(v, k), truth[v as usize], "v={v} k={k}");
            }
        }
    }

    #[test]
    fn top_r_matches_online() {
        let (g, _, _) = paper_figure1_graph();
        let hybrid = HybridIndex::build(&g);
        for k in 2..=5 {
            for r in [1usize, 3, 17] {
                let cfg = DiversityConfig { k, r };
                assert_eq!(
                    hybrid.top_r(&g, &cfg).scores(),
                    online_top_r(&g, &cfg).scores(),
                    "k={k} r={r}"
                );
            }
        }
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let (g, _, _) = paper_figure1_graph();
        let index = HybridIndex::build(&g);
        let blob = index.to_bytes();
        assert_eq!(blob.len(), index.index_size_bytes());
        assert_eq!(HybridIndex::from_bytes(blob), Ok(index));
    }

    #[test]
    fn decoding_rejects_hostile_blobs() {
        use bytes::{BufMut, Bytes, BytesMut};
        assert_eq!(HybridIndex::from_bytes(Bytes::from_static(b"xx")), Err(DecodeError::Truncated));
        assert_eq!(
            HybridIndex::from_bytes(Bytes::from_static(b"not the magic word..")),
            Err(DecodeError::BadMagic)
        );

        let (g, _, _) = paper_figure1_graph();
        let index = HybridIndex::build(&g);
        let blob = index.to_bytes();

        // Truncation anywhere must be caught, as must trailing garbage.
        for cut in [4usize, 12, 20, blob.len() - 1] {
            assert_eq!(
                HybridIndex::from_bytes(blob.slice(0..cut)),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
        let mut extra = blob.as_ref().to_vec();
        extra.push(0);
        assert_eq!(HybridIndex::from_bytes(extra.into()), Err(DecodeError::Truncated));

        // A level-count header promising more than the blob holds must not
        // allocate, let alone decode.
        let mut forged = BytesMut::new();
        forged.put_u32_le(super::MAGIC);
        forged.put_u64_le(4);
        forged.put_u64_le(u64::MAX);
        assert_eq!(HybridIndex::from_bytes(forged.freeze()), Err(DecodeError::Truncated));

        // An in-range frame carrying an out-of-range vertex id must be
        // refused — serving it would panic at query time.
        let mut bad_vertex = BytesMut::new();
        bad_vertex.put_u32_le(super::MAGIC);
        bad_vertex.put_u64_le(2); // n = 2
        bad_vertex.put_u64_le(1); // one level
        bad_vertex.put_u64_le(1); // with one entry
        bad_vertex.put_u32_le(1); // score
        bad_vertex.put_u32_le(9); // vertex 9 >= n
        assert_eq!(HybridIndex::from_bytes(bad_vertex.freeze()), Err(DecodeError::InvalidEntry));
    }

    #[test]
    fn contexts_match_online_for_top1() {
        let (g, _, _) = paper_figure1_graph();
        let hybrid = HybridIndex::build(&g);
        let cfg = DiversityConfig { k: 4, r: 1 };
        let a = hybrid.top_r(&g, &cfg);
        let b = online_top_r(&g, &cfg);
        assert_eq!(a.entries[0].contexts, b.entries[0].contexts);
    }
}
