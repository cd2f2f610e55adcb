//! Bounded top-r accumulator shared by all search algorithms.
//!
//! Keeps the `r` highest-scoring vertices seen so far in a min-heap;
//! replacement requires a *strictly* greater score than the current minimum,
//! exactly like lines 5–7 of Algorithm 3 / lines 12–14 of Algorithm 4, which
//! is what makes the early-termination tests (`ub ≤ min score`) sound.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use sd_graph::VertexId;

use crate::config::TopREntry;

/// Accumulates the top `r` `(vertex, score)` pairs.
#[derive(Clone, Debug)]
pub struct TopRCollector {
    r: usize,
    /// Min-heap keyed by (score, vertex): the root is the weakest entry.
    heap: BinaryHeap<Reverse<(u32, VertexId)>>,
}

impl TopRCollector {
    /// Collector for `r ≥ 1` entries.
    pub fn new(r: usize) -> Self {
        assert!(r >= 1);
        TopRCollector { r, heap: BinaryHeap::with_capacity(r + 1) }
    }

    /// Whether the collector already holds `r` entries.
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.r
    }

    /// Lowest score currently kept, or `None` while not full. The early-stop
    /// rule is `upper_bound ≤ min_score()` once full.
    pub fn min_score(&self) -> Option<u32> {
        if self.is_full() {
            self.heap.peek().map(|Reverse((s, _))| *s)
        } else {
            None
        }
    }

    /// Offers a candidate; returns whether it was kept.
    pub fn offer(&mut self, vertex: VertexId, score: u32) -> bool {
        self.admit(vertex, score).is_some()
    }

    /// Offers a candidate: `None` if it was turned away, else
    /// `Some(displaced)`, naming the entry it pushed out, if any.
    fn admit(&mut self, vertex: VertexId, score: u32) -> Option<Option<VertexId>> {
        if self.heap.len() < self.r {
            self.heap.push(Reverse((score, vertex)));
            return Some(None);
        }
        // Strictly-greater replacement, as in the paper.
        // sd-lint: allow(no-panic) the heap is full here and new() asserts r >= 1
        let &Reverse((min_score, _)) = self.heap.peek().expect("full collector");
        if score > min_score {
            let displaced = self.heap.pop().map(|Reverse((_, v))| v);
            self.heap.push(Reverse((score, vertex)));
            Some(displaced)
        } else {
            None
        }
    }

    /// Finishes: `(vertex, score)` pairs sorted by (score desc, vertex asc).
    pub fn into_sorted(self) -> Vec<(VertexId, u32)> {
        let mut out: Vec<(VertexId, u32)> =
            self.heap.into_iter().map(|Reverse((s, v))| (v, s)).collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// A [`TopRCollector`] that also keeps the social contexts of the vertices
/// it holds, keyed by vertex, so a scan answers with the contexts it
/// already computed instead of computing them again. Contexts of a
/// displaced entry are dropped with it.
pub(crate) struct ContextCollector {
    collector: TopRCollector,
    contexts: HashMap<VertexId, Vec<Vec<VertexId>>>,
}

impl ContextCollector {
    /// Collector for `r ≥ 1` entries.
    pub(crate) fn new(r: usize) -> Self {
        ContextCollector { collector: TopRCollector::new(r), contexts: HashMap::new() }
    }

    /// See [`TopRCollector::min_score`].
    pub(crate) fn min_score(&self) -> Option<u32> {
        self.collector.min_score()
    }

    /// Offers `vertex`, whose score is the number of its `contexts`.
    pub(crate) fn offer(&mut self, vertex: VertexId, contexts: Vec<Vec<VertexId>>) {
        if let Some(displaced) = self.collector.admit(vertex, contexts.len() as u32) {
            if let Some(d) = displaced {
                self.contexts.remove(&d);
            }
            self.contexts.insert(vertex, contexts);
        }
    }

    /// Finishes: entries sorted as [`TopRCollector::into_sorted`].
    pub(crate) fn into_entries(mut self) -> Vec<TopREntry> {
        self.collector
            .into_sorted()
            .into_iter()
            .map(|(vertex, score)| TopREntry {
                vertex,
                score,
                contexts: self.contexts.remove(&vertex).unwrap_or_default(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_top_r() {
        let mut c = TopRCollector::new(2);
        for (v, s) in [(0, 1), (1, 5), (2, 3), (3, 4)] {
            c.offer(v, s);
        }
        assert_eq!(c.into_sorted(), vec![(1, 5), (3, 4)]);
    }

    #[test]
    fn strictly_greater_replacement() {
        let mut c = TopRCollector::new(1);
        assert!(c.offer(7, 3));
        assert!(!c.offer(1, 3), "equal score must not replace");
        assert!(c.offer(2, 4));
        assert_eq!(c.into_sorted(), vec![(2, 4)]);
    }

    #[test]
    fn min_score_only_when_full() {
        let mut c = TopRCollector::new(2);
        assert_eq!(c.min_score(), None);
        c.offer(0, 9);
        assert_eq!(c.min_score(), None);
        c.offer(1, 4);
        assert_eq!(c.min_score(), Some(4));
    }

    #[test]
    fn context_collector_keeps_only_held_contexts() {
        let mut c = ContextCollector::new(2);
        for v in 0..4u32 {
            // Vertex v has v + 1 contexts, so each offer displaces the weakest.
            c.offer(v, (0..=v).map(|i| vec![i]).collect());
        }
        assert_eq!(c.contexts.len(), 2, "displaced contexts are dropped");
        let entries = c.into_entries();
        assert_eq!(
            entries.iter().map(|e| (e.vertex, e.score)).collect::<Vec<_>>(),
            [(3, 4), (2, 3)]
        );
        assert_eq!(entries[1].contexts, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn sorted_output_breaks_ties_by_vertex() {
        let mut c = TopRCollector::new(3);
        c.offer(5, 2);
        c.offer(1, 2);
        c.offer(3, 2);
        assert_eq!(c.into_sorted(), vec![(1, 2), (3, 2), (5, 2)]);
    }
}
