//! Per-layer replays for the traced run: the benchmark calls each
//! module's public functions directly, on the workload's graph and
//! specs, and times the calls from its own code.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use sd_core::{
    BoundEngine, DiversityEngine, EgoNetwork, EngineKind, GctEngine, GctIndex, GraphFingerprint,
    HybridEngine, HybridIndex, OnlineEngine, QuerySpec, SearchService, TsdEngine, TsdIndex,
};
use sd_graph::{CsrGraph, GraphBuilder, GraphUpdate, VertexId};
use sd_server::{QueryOutcome, QueryResponse, Response, WireQuery};
use sd_truss::{bitmap_truss_decomposition, truss_decomposition};

use crate::gen::{self, Mirror};
use crate::loadgen::encode_op;
use crate::spec::UPDATE_MIX;
use crate::stats::{median, percentile, sorted};
use crate::trace::Trace;

/// Graph builds timed for `graph.build_ms`.
const GRAPH_BUILDS: usize = 5;
/// Direct engine calls per index-free engine (each scans the graph).
const SCAN_ENGINE_CALLS: usize = 40;
/// Direct engine calls per index engine.
const INDEX_ENGINE_CALLS: usize = 400;
/// `top_r_many_pinned` calls: enough for a p99 with ten samples beyond.
const SERVICE_CALLS: usize = 1_000;
/// Batches fed to the twin service.
const TWIN_BATCHES: usize = 30;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Metric values by name, in the order they were measured.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What the replay works on.
pub struct Replay<'a> {
    pub graph: &'a Arc<CsrGraph>,
    pub edges: &'a [(VertexId, VertexId)],
    pub warm: &'a [EngineKind],
    pub specs: &'a [WireQuery],
    pub batches: &'a [Vec<GraphUpdate>],
}

impl Replay<'_> {
    /// Runs every layer's replay and returns its metrics.
    pub fn run(&self, trace: &mut Trace) -> Values {
        let mut out = Values::default();
        trace.span("replay", None, |trace, root| {
            self.graph_build(trace, root, &mut out);
            self.kernels(trace, root, &mut out);
            let (tsd, gct, hybrid) = self.index_builds(trace, root, &mut out);
            self.engines(trace, root, tsd, gct, hybrid, &mut out);
            self.service(trace, root, &mut out);
            self.twin(trace, root, &mut out);
        });
        out
    }

    fn graph_build(&self, trace: &mut Trace, root: Option<usize>, out: &mut Values) {
        let times: Vec<f64> = (0..GRAPH_BUILDS)
            .map(|_| {
                let (g, t) = trace.timed("graph.build", root, || {
                    GraphBuilder::with_min_vertices(self.graph.n())
                        .extend_edges(self.edges.iter().copied())
                        .build()
                });
                black_box(g);
                ms(t)
            })
            .collect();
        out.put("graph.build_ms", median(&times));
    }

    /// One pass over every vertex: extract each ego-network, then
    /// decompose all of them with each truss kernel.
    fn kernels(&self, trace: &mut Trace, root: Option<usize>, out: &mut Values) {
        let g = self.graph.as_ref();
        let (egos, t) = trace.timed("egonet.extract", root, || {
            g.vertices().map(|v| EgoNetwork::extract(g, v)).collect::<Vec<_>>()
        });
        out.put("egonet.extract_ms", ms(t));
        out.put("egonet.edges", egos.iter().map(|e| e.graph.m()).sum::<usize>() as f64);
        let (_, t) = trace.timed("truss.classic", root, || {
            egos.iter().for_each(|e| drop(black_box(truss_decomposition(&e.graph))))
        });
        out.put("truss.classic_ms", ms(t));
        let (_, t) = trace.timed("truss.bitmap", root, || {
            egos.iter().for_each(|e| drop(black_box(bitmap_truss_decomposition(&e.graph))))
        });
        out.put("truss.bitmap_ms", ms(t));
    }

    fn index_builds(
        &self,
        trace: &mut Trace,
        root: Option<usize>,
        out: &mut Values,
    ) -> (TsdIndex, GctIndex, HybridIndex) {
        let g = self.graph.as_ref();
        let ((tsd, phases), t) =
            trace.timed("index.tsd.build", root, || TsdIndex::build_with_stats(g));
        out.put("index.tsd.build_ms", ms(t));
        out.put("index.tsd.extract_ms", ms(phases.extraction));
        out.put("index.tsd.decompose_ms", ms(phases.decomposition));
        out.put("index.tsd.assemble_ms", ms(phases.assembly));
        let ((gct, phases), t) =
            trace.timed("index.gct.build", root, || GctIndex::build_with_stats(g));
        out.put("index.gct.build_ms", ms(t));
        out.put("index.gct.extract_ms", ms(phases.extraction));
        out.put("index.gct.decompose_ms", ms(phases.decomposition));
        out.put("index.gct.assemble_ms", ms(phases.assembly));
        let (hybrid, t) = trace.timed("index.hybrid.build", root, || HybridIndex::build(g));
        out.put("index.hybrid.build_ms", ms(t));
        out.put("index.tsd.bytes", tsd.index_size_bytes() as f64);
        out.put("index.gct.bytes", gct.index_size_bytes() as f64);
        out.put("index.hybrid.bytes", hybrid.index_size_bytes() as f64);
        (tsd, gct, hybrid)
    }

    /// Direct `DiversityEngine::top_r` calls on the replay specs: the
    /// median call time and the exact count of scores computed.
    fn engines(
        &self,
        trace: &mut Trace,
        root: Option<usize>,
        tsd: TsdIndex,
        gct: GctIndex,
        hybrid: HybridIndex,
        out: &mut Values,
    ) {
        let g = Arc::clone(self.graph);
        const BUILT: &str = "index built from this graph";
        let engines: [(&str, Box<dyn DiversityEngine>, usize); 5] = [
            ("online", Box::new(OnlineEngine::new(Arc::clone(&g))), SCAN_ENGINE_CALLS),
            ("bound", Box::new(BoundEngine::new(Arc::clone(&g))), SCAN_ENGINE_CALLS),
            (
                "tsd",
                Box::new(TsdEngine::from_parts(Arc::clone(&g), tsd).expect(BUILT)),
                INDEX_ENGINE_CALLS,
            ),
            (
                "gct",
                Box::new(GctEngine::from_parts(Arc::clone(&g), gct).expect(BUILT)),
                INDEX_ENGINE_CALLS,
            ),
            (
                "hybrid",
                Box::new(HybridEngine::from_parts(Arc::clone(&g), hybrid).expect(BUILT)),
                INDEX_ENGINE_CALLS,
            ),
        ];
        for (name, engine, calls) in engines {
            let span = format!("engine.{name}.query");
            let mut times = Vec::with_capacity(calls);
            let mut computations = 0usize;
            for q in self.specs.iter().take(calls) {
                let spec = QuerySpec::new(q.k, q.r as usize).expect("generated specs are valid");
                let (result, t) = trace.timed(&span, root, || engine.top_r(&spec));
                computations += result.expect("r never exceeds n").metrics.score_computations;
                times.push(ms(t));
            }
            out.put(format!("engine.{name}.query_ms"), median(&times));
            out.put(format!("engine.{name}.score_computations"), computations as f64);
            if name == "bound" {
                let scanned = (g.n() * times.len()) as f64;
                out.put("engine.bound.pruned_share", 1.0 - computations as f64 / scanned);
            }
        }
    }

    /// A service set up like the served tenant, asked one spec per
    /// `top_r_many_pinned` call (the batcher's call, without the wire),
    /// and the proto codec timed on the specs and the answers.
    fn service(&self, trace: &mut Trace, root: Option<usize>, out: &mut Values) {
        let service = SearchService::from_arc(Arc::clone(self.graph));
        service.wait_ready(self.warm.iter().copied());
        let specs: Vec<WireQuery> =
            self.specs.iter().copied().cycle().take(SERVICE_CALLS).collect();
        let mut times = Vec::with_capacity(specs.len());
        let mut answers = Vec::with_capacity(specs.len());
        for q in &specs {
            let spec = q.to_spec().expect("generated specs are valid");
            let (result, t) =
                trace.timed("service.top_r", root, || service.top_r_many_pinned(&[spec]));
            let (epoch, mut results) = result.expect("r never exceeds n");
            answers.push((epoch, results.pop().expect("one result per spec").entries));
            times.push(ms(t));
        }
        let times = sorted(times);
        out.put("service.top_r_p50_ms", percentile(&times, 50.0).unwrap_or(f64::NAN));
        out.put("service.top_r_p99_ms", percentile(&times, 99.0).unwrap_or(f64::NAN));

        let key = GraphFingerprint::of(self.graph);
        let (frames, t) = trace.timed("proto.encode", root, || {
            specs
                .iter()
                .map(|q| encode_op(&crate::gen::Op::Query(*q), key, 0, &[]).encode())
                .collect::<Vec<_>>()
        });
        black_box(frames);
        out.put("proto.encode_query_us", t.as_secs_f64() * 1e6 / specs.len() as f64);
        let responses: Vec<_> = answers
            .into_iter()
            .map(|(epoch, entries)| {
                Response::Query(QueryResponse {
                    epoch,
                    outcomes: vec![QueryOutcome::Answered(entries)],
                })
                .to_frame(key)
            })
            .collect();
        let (decoded, t) = trace.timed("proto.decode", root, || {
            responses.iter().map(|f| Response::from_frame(f).is_ok()).filter(|&ok| ok).count()
        });
        assert_eq!(decoded, responses.len(), "the server's own encoding decodes");
        out.put("proto.decode_response_us", t.as_secs_f64() * 1e6 / responses.len() as f64);
    }

    /// A twin of the served tenant fed the update batches.
    fn twin(&self, trace: &mut Trace, root: Option<usize>, out: &mut Values) {
        let twin = SearchService::from_arc(Arc::clone(self.graph));
        twin.wait_ready(self.warm.iter().copied());
        let mut times = Vec::new();
        let mut tsd_repairs = 0usize;
        for batch in self.batches.iter().take(TWIN_BATCHES) {
            let (stats, t) =
                trace.timed("service.apply_updates", root, || twin.apply_updates(batch));
            let stats = stats.expect("non-empty batches");
            tsd_repairs += stats.tsd_repairs;
            times.push(ms(t));
        }
        let stats = twin.stats();
        out.put("service.apply_updates_p50_ms", median(&times));
        out.put("service.epochs", stats.epochs as f64);
        out.put("service.tsd_repairs", tsd_repairs as f64);
        out.put("service.gct_repairs", stats.gct_repairs as f64);
        out.put("service.hybrid_carries", stats.hybrid_carries as f64);
    }
}

/// The update batches a replay feeds its twin, for workloads whose own
/// traffic has none.
pub fn twin_batches(mirror: &Mirror, seed: u64) -> Vec<Vec<GraphUpdate>> {
    mirror.clone().draw_batches(
        &mut gen::stream_rng(seed, gen::TWIN_OPS),
        TWIN_BATCHES,
        &UPDATE_MIX,
    )
}
