//! Parallel index construction and scoring with **deterministic static
//! chunking**: results are byte-identical to the sequential path at any
//! thread count.
//!
//! The per-vertex work (ego extraction + truss decomposition + forest or
//! context assembly) is embarrassingly parallel. Two generations of the
//! same design live here:
//!
//! * the original scoped-thread build helper ([`build_gct_parallel`]),
//!   which borrows the graph via `crossbeam::scope`;
//! * the 0.6 **query-path** scans ([`pool_all_scores`] and the pooled
//!   Online/Bound `top_r` used by [`crate::OnlineEngine`] /
//!   [`crate::BoundEngine`]), which run on the shared
//!   [`crate::pool::WorkerPool`] so concurrent queries, batch fan-out, and
//!   background builds all draw from one set of threads.
//!
//! ## The determinism contract
//!
//! Chunk boundaries are fixed constants, *not* derived from the thread
//! count, and every reduction happens in chunk order on the calling
//! thread. Consequences:
//!
//! * [`pool_all_scores`] returns exactly [`crate::online::all_scores`];
//! * the pooled Online and Bound `top_r` walk their vertex order (vertex
//!   order for Online, the upper-bound-sorted order for Bound) in fixed
//!   windows of [`SCAN_WINDOW`] vertices: each window's social contexts
//!   are computed in parallel, then *replayed* sequentially into the
//!   collector — for Bound with the exact per-vertex early-termination
//!   check of Algorithm 4 — so the offers, the break point and the entries
//!   (vertices, scores, contexts) match the sequential search exactly. The
//!   only observable difference is Bound's
//!   [`crate::SearchMetrics::score_computations`], which becomes
//!   window-rounded (the scan may compute up to one window beyond the
//!   sequential stop) — still deterministic for a given graph and query,
//!   at any thread count.
//!
//! This is a beyond-the-paper extension (the paper's implementation is
//! single-threaded) and is benchmarked in `sd-bench` (`scalability.rs`).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use sd_graph::{CsrGraph, VertexId};
use sd_truss::vertex_trussness;

use crate::bound::{sparsify, upper_bounds, BoundOptions};
use crate::config::{DiversityConfig, SearchMetrics, TopRResult};
use crate::gct::{GctEntry, GctIndex};
use crate::pool::{Job, WorkerPool};
use crate::score::{decompose_ego, ego_contexts, EgoScratch};
use crate::topr::ContextCollector;

/// Number of worker threads to use: `available_parallelism`, capped.
fn worker_count(cap: usize) -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1).min(cap).max(1)
}

/// Builds the GCT-index in parallel (identical output to
/// [`GctIndex::build`], which is deterministic per vertex).
pub fn build_gct_parallel(g: &CsrGraph) -> GctIndex {
    let n = g.n();
    let threads = worker_count(16);
    let all = crate::egonet::AllEgoNetworks::build(g);
    let mut entries: Vec<GctEntry> = vec![GctEntry::default(); n];
    let next = std::sync::atomic::AtomicUsize::new(0);
    const CHUNK: usize = 128;
    let slots = crate::lock_order::SCAN_CHUNK.mutex(entries.chunks_mut(CHUNK).collect::<Vec<_>>());

    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let chunk_idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let start = chunk_idx * CHUNK;
                if start >= n {
                    break;
                }
                let slot = {
                    let mut guard = slots.lock(); // lock: scan.chunk
                    std::mem::take(&mut guard[chunk_idx])
                };
                for (offset, out) in slot.iter_mut().enumerate() {
                    let v = (start + offset) as u32;
                    let ego = all.ego_graph(g, v);
                    let decomposition = decompose_ego(&ego);
                    let tau_v = vertex_trussness(&ego.graph, &decomposition);
                    *out = GctEntry::from_ego(&ego, &decomposition, &tau_v);
                }
            });
        }
    })
    .expect("worker panicked"); // sd-lint: allow(no-panic) re-raises a scoped worker's panic on the caller
    drop(slots);
    GctIndex::from_entries(entries)
}

/// Vertices per job in [`pool_all_scores`]. Fixed so chunk boundaries —
/// and therefore results — never depend on the thread count.
pub const SCAN_CHUNK: usize = 256;

/// Vertices per parallel window in the pooled Online and Bound scans: the
/// contexts for one window are computed in parallel, then replayed through
/// the collector in order (and, for Bound, through Algorithm 4's
/// early-termination check). Fixed for the same reason as [`SCAN_CHUNK`];
/// the window is also the granularity of Bound's `score_computations`
/// rounding documented in the [module docs](self), and it bounds how many
/// vertices' contexts are held at once.
pub const SCAN_WINDOW: usize = 1024;

/// Vertices per job within one window.
const WINDOW_CHUNK: usize = 128;

/// Applies `f` to each of `vertices`, one chunk of `chunk_size` vertices
/// per pool job, reducing in chunk order; each job hands `f` the graph, the
/// vertex and an [`EgoScratch`] of its own. Deterministic: output `i`
/// belongs to `vertices[i]` regardless of thread count.
fn pool_map<T: Send + 'static>(
    pool: &WorkerPool,
    g: &Arc<CsrGraph>,
    vertices: &[VertexId],
    chunk_size: usize,
    f: impl Fn(&CsrGraph, VertexId, &mut EgoScratch) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let total = vertices.len();
    if total == 0 {
        return Vec::new();
    }
    let chunks = total.div_ceil(chunk_size);
    let slots: Arc<Vec<Mutex<Vec<T>>>> =
        Arc::new((0..chunks).map(|_| crate::lock_order::SCAN_CHUNK.mutex(Vec::new())).collect());
    let f = Arc::new(f);
    let mut jobs: Vec<Job> = Vec::with_capacity(chunks);
    for c in 0..chunks {
        let lo = c * chunk_size;
        let hi = (lo + chunk_size).min(total);
        let mine: Vec<VertexId> = vertices[lo..hi].to_vec();
        let (g, slots, f) = (g.clone(), slots.clone(), f.clone());
        jobs.push(Box::new(move || {
            let mut scratch = EgoScratch::default();
            let out: Vec<T> = mine.iter().map(|&v| f(&g, v, &mut scratch)).collect();
            *slots[c].lock() = out; // lock: scan.chunk
        }));
    }
    pool.run_all(jobs);
    let mut results = Vec::with_capacity(total);
    for slot in slots.iter() {
        results.append(&mut slot.lock()); // lock: scan.chunk
    }
    results
}

/// Computes `score(v)` for every vertex on the shared worker pool; result
/// identical to [`crate::online::all_scores`] at any thread count.
pub fn pool_all_scores(pool: &WorkerPool, g: &Arc<CsrGraph>, k: u32) -> Vec<u32> {
    let vertices: Vec<VertexId> = (0..g.n() as VertexId).collect();
    pool_map(pool, g, &vertices, SCAN_CHUNK, move |g, v, scratch| {
        ego_contexts(g, v, k, scratch).len() as u32
    })
}

/// The scan Online and Bound share: computes the social contexts of
/// `order` window by window on `pool`, then replays each window through
/// `collector` in order, stopping before the first vertex whose bound
/// cannot beat the current floor (no vertex, without `bounds`). Returns
/// the number of score computations, which is window-rounded.
fn scan_windows(
    pool: &WorkerPool,
    g: &Arc<CsrGraph>,
    k: u32,
    order: &[VertexId],
    bounds: Option<&[u32]>,
    collector: &mut ContextCollector,
) -> usize {
    let prunes = |collector: &ContextCollector, v: VertexId| match (bounds, collector.min_score()) {
        (Some(bounds), Some(min_score)) => bounds[v as usize] <= min_score,
        _ => false,
    };
    let mut computations = 0usize;
    for window in order.chunks(SCAN_WINDOW) {
        // The window head has the best remaining bound; if even it cannot
        // beat the floor, the sequential scan would break here without
        // computing anything — so neither do we.
        if prunes(collector, window[0]) {
            break;
        }
        let contexts = pool_map(pool, g, window, WINDOW_CHUNK, move |g, v, scratch| {
            ego_contexts(g, v, k, scratch)
        });
        computations += window.len();
        // Replay the sequential loop over the precomputed window:
        // identical offers, identical break point.
        for (&v, contexts) in window.iter().zip(contexts) {
            if prunes(collector, v) {
                return computations;
            }
            collector.offer(v, contexts);
        }
    }
    computations
}

/// Algorithm 3 with the per-vertex loop data-parallel on `pool`.
/// Byte-identical to [`crate::online::online_top_r`]: the collector is fed
/// in vertex order with the same contexts, and `score_computations` is `n`
/// either way (the full scan computes everything regardless).
pub(crate) fn online_top_r_pooled(
    pool: &WorkerPool,
    g: &Arc<CsrGraph>,
    config: &DiversityConfig,
) -> TopRResult {
    let start = Instant::now();
    let order: Vec<VertexId> = (0..g.n() as VertexId).collect();
    let mut collector = ContextCollector::new(config.r);
    let computations = scan_windows(pool, g, config.k, &order, None, &mut collector);
    TopRResult {
        entries: collector.into_entries(),
        metrics: SearchMetrics {
            score_computations: computations,
            elapsed: start.elapsed(),
            engine: "",
            parallel: true,
        },
    }
}

/// Algorithm 4 with the score loop data-parallel on `pool`, preserving the
/// sequential early-termination *point* exactly (see the [module
/// docs](self) for the window-replay scheme and the `score_computations`
/// rounding).
pub(crate) fn bound_top_r_pooled(
    pool: &WorkerPool,
    g: &Arc<CsrGraph>,
    config: &DiversityConfig,
    options: BoundOptions,
) -> TopRResult {
    let start = Instant::now();
    let reduced: Arc<CsrGraph> =
        if options.sparsify { Arc::new(sparsify(g, config.k).graph) } else { g.clone() };

    let bounds = if options.upper_bound {
        upper_bounds(&reduced, config.k)
    } else {
        vec![u32::MAX; reduced.n()]
    };
    let mut order: Vec<VertexId> = (0..reduced.n() as VertexId).collect();
    order.sort_unstable_by(|&a, &b| bounds[b as usize].cmp(&bounds[a as usize]));

    let mut collector = ContextCollector::new(config.r);
    let computations =
        scan_windows(pool, &reduced, config.k, &order, Some(&bounds), &mut collector);
    TopRResult {
        entries: collector.into_entries(),
        metrics: SearchMetrics {
            score_computations: computations,
            elapsed: start.elapsed(),
            engine: "",
            parallel: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::all_scores;
    use crate::paper::paper_figure1_graph;

    #[test]
    fn pooled_scores_match_serial_at_any_thread_count() {
        let (g, _, _) = paper_figure1_graph();
        let g = Arc::new(g);
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for k in [2, 4] {
                assert_eq!(pool_all_scores(&pool, &g, k), all_scores(&g, k), "t={threads} k={k}");
            }
        }
    }

    #[test]
    fn pooled_online_top_r_is_byte_identical() {
        let (g, _, _) = paper_figure1_graph();
        let g = Arc::new(g);
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for (k, r) in [(2, 3), (4, 1), (4, 17), (5, 5)] {
                let cfg = DiversityConfig { k, r };
                let seq = crate::online::online_top_r(&g, &cfg);
                let par = online_top_r_pooled(&pool, &g, &cfg);
                assert_eq!(par.entries, seq.entries, "t={threads} k={k} r={r}");
                assert_eq!(
                    par.metrics.score_computations, seq.metrics.score_computations,
                    "the full scan computes n either way"
                );
                assert!(par.metrics.parallel && !seq.metrics.parallel);
            }
        }
    }

    #[test]
    fn pooled_bound_top_r_is_byte_identical() {
        let (g, _, _) = paper_figure1_graph();
        let g = Arc::new(g);
        for threads in [1, 2, 4] {
            let pool = WorkerPool::new(threads);
            for sparsify in [false, true] {
                for upper_bound in [false, true] {
                    let options = BoundOptions { sparsify, upper_bound };
                    for (k, r) in [(2, 3), (4, 1), (4, 17)] {
                        let cfg = DiversityConfig { k, r };
                        let seq = crate::bound::bound_top_r_with(&g, &cfg, options);
                        let par = bound_top_r_pooled(&pool, &g, &cfg, options);
                        assert_eq!(par.entries, seq.entries, "t={threads} k={k} r={r} {options:?}");
                    }
                }
            }
        }
    }

    /// Figure 1 fits in one window, so the parallel Bound scan computes the
    /// whole window where the sequential one stops after a single vertex —
    /// the documented window rounding, deterministic per query.
    #[test]
    fn pooled_bound_metrics_are_window_rounded() {
        let (g, _, _) = paper_figure1_graph();
        let g = Arc::new(g);
        let cfg = DiversityConfig { k: 4, r: 1 };
        let a = bound_top_r_pooled(&WorkerPool::new(2), &g, &cfg, BoundOptions::default());
        let b = bound_top_r_pooled(&WorkerPool::new(4), &g, &cfg, BoundOptions::default());
        assert_eq!(a.metrics.score_computations, b.metrics.score_computations);
        assert_eq!(a.metrics.score_computations, g.n().min(SCAN_WINDOW));
    }

    #[test]
    fn parallel_gct_matches_serial() {
        let (g, _, _) = paper_figure1_graph();
        let a = build_gct_parallel(&g);
        let b = GctIndex::build(&g);
        for v in g.vertices() {
            for k in 2..=5 {
                assert_eq!(a.score(v, k), b.score(v, k), "v={v} k={k}");
            }
        }
    }
}
