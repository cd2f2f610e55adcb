//! Table 4 micro-bench + Section 6.2 ablation:
//! per-vertex vs one-shot ego extraction, classic vs bitmap truss peeling
//! inside ego-networks, and the full decomposition (what the indexes
//! build from) vs the peel stopped at the k-truss (what a single-k query
//! needs).
//!
//! `contexts_rows` is what a single-k query runs: every vertex's social
//! contexts by the fused kernel, which reads each ego-network's bitmap rows
//! straight from the global CSR, extraction and components included. Set it
//! against `extract_per_vertex` + `ktruss_bitmap`, the same work through a
//! per-ego CSR (without the components).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sd_core::{all_scores, AllEgoNetworks, EgoNetwork};
use sd_graph::CsrGraph;
use sd_truss::{
    bitmap_ktruss, bitmap_truss_decomposition, classic_ktruss, ktruss_edges, truss_decomposition,
};

/// The threshold the k-bounded rows peel to: mid-range for this graph.
const K: u32 = 4;

fn bench_ego_phase(c: &mut Criterion) {
    let dataset = sd_datasets::dataset("wiki-vote-syn").expect("registry");
    let g = dataset.generate(0.08);

    let mut group = c.benchmark_group("ego_phase");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("extract_per_vertex", g.m()), &g, |b, g| {
        b.iter(|| {
            let mut total = 0usize;
            for v in g.vertices() {
                total += EgoNetwork::extract(g, v).m();
            }
            total
        })
    });
    group.bench_with_input(BenchmarkId::new("extract_one_shot", g.m()), &g, |b, g| {
        b.iter(|| AllEgoNetworks::build(g).heap_bytes())
    });
    group.bench_with_input(BenchmarkId::new("contexts_rows", g.m()), &g, |b, g| {
        b.iter(|| all_scores(g, K).iter().sum::<u32>())
    });

    // Kernel ablation on pre-extracted ego-networks: each row counts the
    // edges a kernel leaves at trussness ≥ K, so every row does the same
    // job and only the kernel and its form differ.
    let egos: Vec<EgoNetwork> = g.vertices().map(|v| EgoNetwork::extract(&g, v)).collect();
    let mut row = |name: &str, kernel: &dyn Fn(&CsrGraph) -> usize| {
        group.bench_with_input(BenchmarkId::new(name, g.m()), &egos, |b, egos| {
            b.iter(|| egos.iter().map(|ego| kernel(&ego.graph)).sum::<usize>())
        });
    };
    row("decomp_classic", &|ego| ktruss_edges(&truss_decomposition(ego), K).len());
    row("decomp_bitmap", &|ego| ktruss_edges(&bitmap_truss_decomposition(ego), K).len());
    row("ktruss_classic", &|ego| classic_ktruss(ego, K).len());
    row("ktruss_bitmap", &|ego| bitmap_ktruss(ego, K).len());
    group.finish();
}

criterion_group!(benches, bench_ego_phase);
criterion_main!(benches);
