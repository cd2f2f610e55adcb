//! The benchmark's definition: its workloads, its metrics, the layer
//! predictions, and the `BENCHMARK.json` manifest generated from them.

use sd_core::EngineKind;

/// The `--seconds` a run measures for.
pub const RUN_SECONDS: u64 = 30;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Connections, and sender threads, at most (fewer on fewer cores).
pub const CONNECTIONS: usize = 2;
/// Closed-loop passes an untraced run makes: passes continue until
/// `--seconds` have gone by, but number at least the first and at most
/// the second.
pub const PASSES: (usize, usize) = (5, 120);
/// Per-request deadline every query frame carries.
pub const QUERY_DEADLINE_MS: u32 = 5_000;
/// Open-loop phases of a traced run, each a quarter of `--seconds`:
/// untraced, traced, traced, untraced. A closed-loop phase of another
/// quarter follows them.
pub const TRACED_PHASES: usize = 4;

/// Where the benchmark lives in the repository.
pub const BENCH_DIR: &str = "wirebench";

/// Update traffic of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Updates {
    /// Update frames per second, on a fixed cadence.
    pub batch_rate: f64,
    pub ops_per_batch: usize,
    /// Share of ops that insert a two-hop pair; the rest remove an edge.
    pub insert_share: f64,
}

/// The update traffic of `serve-updates`; the per-layer replays draw
/// their batches the same way on every workload.
pub const UPDATE_MIX: Updates =
    Updates { batch_rate: 10.0, ops_per_batch: 16, insert_share: 2.0 / 3.0 };

/// One traffic mix against one graph.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: &'static str,
    pub scale: f64,
    /// The generated graph's size, checked when a run starts.
    pub n: usize,
    pub m: usize,
    /// Engines built during set-up.
    pub warm: &'static [EngineKind],
    /// Engines queries are drawn from, uniformly.
    pub engines: &'static [EngineKind],
    /// Query frames per second (Poisson), one query per frame.
    pub query_rate: f64,
    /// Queries one closed-loop pass sends over all connections, sized so
    /// that a pass takes about a second.
    pub pass_queries: usize,
    pub k_range: (u32, u32),
    pub r_range: (u64, u64),
    pub updates: Option<Updates>,
    /// Whether `BENCHMARK.json` lists it, so that its runs are gated.
    pub listed: bool,
}

const INDEXED: &[EngineKind] = &[EngineKind::Tsd, EngineKind::Gct, EngineKind::Hybrid];

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-indexed",
        why: "email-enron-syn@0.25 (n=9000 m=45766), TSD/GCT/Hybrid warm; gct/tsd/hybrid/auto queries of \
              0.3-1.5 ms in-process, so index lookups, response encoding and the wire front-end carry the cost",
        dataset: "email-enron-syn",
        scale: 0.25,
        n: 9_000,
        m: 45_766,
        warm: INDEXED,
        engines: &[EngineKind::Gct, EngineKind::Tsd, EngineKind::Hybrid, EngineKind::Auto],
        query_rate: 150.0,
        pass_queries: 1024,
        k_range: (3, 6),
        r_range: (1, 200),
        updates: None,
        listed: true,
    },
    Workload {
        name: "serve-scan",
        why: "wiki-vote-syn@0.02 (n=140 m=1874, dense ego-networks), no index; online/bound queries, each \
              extracting and truss-decomposing every ego-network, so those kernels carry the cost",
        dataset: "wiki-vote-syn",
        scale: 0.02,
        n: 140,
        m: 1_874,
        warm: &[],
        engines: &[EngineKind::Online, EngineKind::Bound],
        query_rate: 40.0,
        pass_queries: 128,
        k_range: (3, 6),
        r_range: (1, 140),
        updates: None,
        listed: true,
    },
    Workload {
        name: "serve-updates",
        why: "serve-indexed's graph and queries plus update frames of 16 ops every 100 ms (2/3 two-hop inserts, 1/3 \
              removes): index repair, epoch swaps and what writes cost reads",
        dataset: "email-enron-syn",
        scale: 0.25,
        n: 9_000,
        m: 45_766,
        warm: INDEXED,
        engines: &[EngineKind::Gct, EngineKind::Tsd, EngineKind::Hybrid, EngineKind::Auto],
        query_rate: 150.0,
        pass_queries: 1024,
        k_range: (3, 6),
        r_range: (1, 200),
        updates: Some(UPDATE_MIX),
        // Its CPU per query moved by up to 30 % between two runs of one
        // seed on a quiet host (update applies are memory-heavy), beyond
        // any bound allowed; it stays runnable by name and under `--all`.
        listed: false,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the server sees, reported with tracing off.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// `setup_s` is the median set-up; `query_cpu_ref_ms` is the median over
/// closed-loop passes of the process's CPU time in a pass (server
/// threads, client library, and on `serve-updates` the update frames too)
/// per query the pass sends, scaled to the clock speed at which the
/// benchmark's clock probe ([`crate::cpu::probe_ms`], taken after each
/// pass) takes 1 ms; `peak_rss_mb` is `VmHWM`.
///
/// Wall-clock latency and throughput are not among them: on a shared
/// two-core host their spread over runs exceeds the largest bound allowed,
/// so the traced run reports them as the `wire.*` layer metrics instead.
/// CPU time is taken in a closed loop, not at the open loop's fixed rate:
/// there, threads sleep between requests, and the cost of waking them
/// moved CPU per query by a quarter between runs of one seed. It is
/// scaled to a reference clock because the host's load moves the speed
/// of its cores: CPU per query moved by up to a third between runs, and
/// by about half as much once scaled.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "query_cpu_ref_ms", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.2 },
];

/// A metric of one layer, from the traced run, with the end-to-end
/// metrics (`metric@workload`) it should move and those it should leave
/// unchanged.
#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    pub moves: &'static str,
    pub leaves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
    leaves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, layer, moves, leaves }
}

use Better::{Higher, Lower};

const SETUP_INDEXED: &str = "setup_s@serve-indexed setup_s@serve-updates";
const SCAN_QUERIES: &str =
    "query_cpu_ref_ms@serve-scan wire.query_p50_ms@serve-scan wire.throughput_qps@serve-scan";
const INDEXED_QUERIES: &str =
    "query_cpu_ref_ms@serve-indexed wire.query_p50_ms@serve-indexed wire.throughput_qps@serve-indexed";
const BUILD: &str = "setup_s@serve-indexed setup_s@serve-updates peak_rss_mb@serve-indexed peak_rss_mb@serve-updates";
const NOT_SCAN: &str = "query_cpu_ref_ms@serve-scan wire.query_p50_ms@serve-scan";
const NOT_INDEXED: &str = "query_cpu_ref_ms@serve-indexed wire.query_p50_ms@serve-indexed";
const UPDATES: &str = "query_cpu_ref_ms@serve-updates wire.query_p95_ms@serve-updates";

pub const PER_LAYER: [PerLayer; 52] = [
    layer(
        "graph.build_ms",
        "ms",
        Lower,
        "sd-graph",
        SETUP_INDEXED,
        "wire.query_p50_ms@serve-indexed wire.query_p50_ms@serve-scan",
    ),
    layer(
        "egonet.extract_ms",
        "ms",
        Lower,
        "sd-core::egonet",
        "wire.query_p50_ms@serve-scan wire.throughput_qps@serve-scan setup_s@serve-indexed",
        NOT_INDEXED,
    ),
    layer(
        "egonet.edges",
        "count",
        Lower,
        "sd-core::egonet",
        "wire.query_p50_ms@serve-scan setup_s@serve-indexed",
        NOT_INDEXED,
    ),
    layer(
        "truss.classic_ms",
        "ms",
        Lower,
        "sd-truss",
        "wire.query_p50_ms@serve-scan wire.throughput_qps@serve-scan setup_s@serve-indexed",
        NOT_INDEXED,
    ),
    layer(
        "truss.bitmap_ms",
        "ms",
        Lower,
        "sd-truss",
        "wire.query_p50_ms@serve-scan wire.throughput_qps@serve-scan setup_s@serve-indexed",
        NOT_INDEXED,
    ),
    layer("index.tsd.build_ms", "ms", Lower, "sd-core::tsd", BUILD, "wire.query_p50_ms@serve-scan"),
    layer("index.gct.build_ms", "ms", Lower, "sd-core::gct", BUILD, "wire.query_p50_ms@serve-scan"),
    layer(
        "index.hybrid.build_ms",
        "ms",
        Lower,
        "sd-core::hybrid",
        BUILD,
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "index.tsd.extract_ms",
        "ms",
        Lower,
        "sd-core::tsd",
        BUILD,
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "index.tsd.decompose_ms",
        "ms",
        Lower,
        "sd-core::tsd",
        BUILD,
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "index.tsd.assemble_ms",
        "ms",
        Lower,
        "sd-core::tsd",
        BUILD,
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "index.gct.extract_ms",
        "ms",
        Lower,
        "sd-core::gct",
        BUILD,
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "index.gct.decompose_ms",
        "ms",
        Lower,
        "sd-core::gct",
        BUILD,
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "index.gct.assemble_ms",
        "ms",
        Lower,
        "sd-core::gct",
        BUILD,
        "wire.query_p50_ms@serve-scan",
    ),
    layer("index.tsd.bytes", "bytes", Lower, "sd-core::tsd", BUILD, "wire.query_p50_ms@serve-scan"),
    layer("index.gct.bytes", "bytes", Lower, "sd-core::gct", BUILD, "wire.query_p50_ms@serve-scan"),
    layer(
        "index.hybrid.bytes",
        "bytes",
        Lower,
        "sd-core::hybrid",
        BUILD,
        "wire.query_p50_ms@serve-scan",
    ),
    layer("engine.online.query_ms", "ms", Lower, "sd-core::engine", SCAN_QUERIES, NOT_INDEXED),
    layer("engine.bound.query_ms", "ms", Lower, "sd-core::bound", SCAN_QUERIES, NOT_INDEXED),
    layer("engine.tsd.query_ms", "ms", Lower, "sd-core::tsd", INDEXED_QUERIES, NOT_SCAN),
    layer("engine.gct.query_ms", "ms", Lower, "sd-core::gct", INDEXED_QUERIES, NOT_SCAN),
    layer("engine.hybrid.query_ms", "ms", Lower, "sd-core::hybrid", INDEXED_QUERIES, NOT_SCAN),
    layer(
        "engine.online.score_computations",
        "count",
        Lower,
        "sd-core::engine",
        SCAN_QUERIES,
        NOT_INDEXED,
    ),
    layer(
        "engine.bound.score_computations",
        "count",
        Lower,
        "sd-core::bound",
        SCAN_QUERIES,
        NOT_INDEXED,
    ),
    layer(
        "engine.tsd.score_computations",
        "count",
        Lower,
        "sd-core::tsd",
        INDEXED_QUERIES,
        NOT_SCAN,
    ),
    layer(
        "engine.gct.score_computations",
        "count",
        Lower,
        "sd-core::gct",
        INDEXED_QUERIES,
        NOT_SCAN,
    ),
    layer(
        "engine.hybrid.score_computations",
        "count",
        Lower,
        "sd-core::hybrid",
        INDEXED_QUERIES,
        NOT_SCAN,
    ),
    layer(
        "engine.bound.pruned_share",
        "ratio",
        Higher,
        "sd-core::bound",
        SCAN_QUERIES,
        NOT_INDEXED,
    ),
    layer(
        "service.top_r_p50_ms",
        "ms",
        Lower,
        "sd-core::service",
        "wire.query_p50_ms@serve-indexed wire.query_p50_ms@serve-scan",
        "setup_s@serve-scan",
    ),
    layer(
        "service.top_r_p99_ms",
        "ms",
        Lower,
        "sd-core::service",
        "wire.query_p95_ms@serve-indexed wire.query_p95_ms@serve-scan",
        "setup_s@serve-scan",
    ),
    layer(
        "service.apply_updates_p50_ms",
        "ms",
        Lower,
        "sd-core::service",
        UPDATES,
        "wire.query_p50_ms@serve-indexed wire.query_p50_ms@serve-scan",
    ),
    layer(
        "service.fallbacks",
        "count",
        Lower,
        "sd-core::service",
        UPDATES,
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "service.epochs",
        "count",
        Higher,
        "sd-core::service",
        UPDATES,
        "wire.query_p50_ms@serve-indexed wire.query_p50_ms@serve-scan",
    ),
    layer(
        "service.tsd_repairs",
        "count",
        Lower,
        "sd-core::dynamic",
        UPDATES,
        "wire.query_p50_ms@serve-indexed wire.query_p50_ms@serve-scan",
    ),
    layer(
        "service.gct_repairs",
        "count",
        Lower,
        "sd-core::gct",
        UPDATES,
        "wire.query_p50_ms@serve-indexed wire.query_p50_ms@serve-scan",
    ),
    layer(
        "service.hybrid_carries",
        "count",
        Higher,
        "sd-core::hybrid",
        UPDATES,
        "wire.query_p50_ms@serve-indexed wire.query_p50_ms@serve-scan",
    ),
    layer(
        "proto.encode_query_us",
        "us",
        Lower,
        "sd-server::proto",
        "wire.query_p50_ms@serve-indexed",
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "proto.decode_response_us",
        "us",
        Lower,
        "sd-server::proto",
        "wire.query_p50_ms@serve-indexed",
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "proto.response_bytes_mean",
        "bytes",
        Lower,
        "sd-server::proto",
        "wire.query_p50_ms@serve-indexed",
        "wire.query_p50_ms@serve-scan",
    ),
    layer("batch.mean_size", "count", Higher, "sd-server::batch", INDEXED_QUERIES, NOT_SCAN),
    layer("batch.expired", "count", Lower, "sd-server::batch", INDEXED_QUERIES, NOT_SCAN),
    layer("batch.shed_queue_full", "count", Lower, "sd-server::batch", INDEXED_QUERIES, NOT_SCAN),
    layer(
        "admission.overloaded",
        "count",
        Lower,
        "sd-server::admission",
        INDEXED_QUERIES,
        NOT_SCAN,
    ),
    layer(
        "server.wire_overhead_p50_ms",
        "ms",
        Lower,
        "sd-server::{io,conn}",
        INDEXED_QUERIES,
        NOT_SCAN,
    ),
    layer(
        "server.update_p50_ms",
        "ms",
        Lower,
        "sd-server::{io,conn}",
        UPDATES,
        "wire.query_p50_ms@serve-scan",
    ),
    layer(
        "wire.query_samples",
        "count",
        Higher,
        "sd-server (whole round trip)",
        "",
        "every end-to-end metric (the schedule fixes it)",
    ),
    layer(
        "wire.query_p50_ms",
        "ms",
        Lower,
        "sd-server (whole round trip)",
        "",
        "setup_s@serve-indexed peak_rss_mb@serve-indexed",
    ),
    layer(
        "wire.query_p95_ms",
        "ms",
        Lower,
        "sd-server (whole round trip)",
        "",
        "setup_s@serve-indexed peak_rss_mb@serve-indexed",
    ),
    layer(
        "wire.query_p99_ms",
        "ms",
        Lower,
        "sd-server (whole round trip)",
        "",
        "setup_s@serve-indexed peak_rss_mb@serve-indexed",
    ),
    layer(
        "wire.throughput_qps",
        "1/s",
        Higher,
        "sd-server (whole round trip)",
        "",
        "setup_s@serve-indexed peak_rss_mb@serve-indexed",
    ),
    layer(
        "loadgen.late_p99_ms",
        "ms",
        Lower,
        "wirebench::loadgen",
        "wire.query_p95_ms@serve-indexed wire.query_p95_ms@serve-updates",
        "setup_s@serve-indexed",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "wirebench::trace",
        "",
        "every end-to-end metric (tracing is off there)",
    ),
];

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `BENCHMARK.json` this benchmark is run by.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "wirebench/Cargo.toml",
        "--",
    ];
    let command: Vec<String> = command.iter().map(|s| json_str(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.listed)
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", json_str(w.name), json_str(w.why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                json_str(m.name),
                json_str(m.unit),
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        json_str(BENCH_DIR),
        RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// `predictions.json`: each workload's graph, rates and mix, and for
/// each layer metric the end-to-end metrics it should move and leave.
pub fn predictions() -> String {
    let engines = |kinds: &[EngineKind]| {
        kinds.iter().map(|k| json_str(k.name())).collect::<Vec<_>>().join(", ")
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let updates = match w.updates {
                Some(u) => format!(
                    "{{\"batches_per_s\": {}, \"ops_per_batch\": {}, \"insert_share\": {:.4}, \"connection\": 0}}",
                    u.batch_rate, u.ops_per_batch, u.insert_share
                ),
                None => "null".to_string(),
            };
            format!(
                "    {{\"name\": {}, \"why\": {}, \"dataset\": {}, \"scale\": {}, \"n\": {}, \"m\": {}, \
                 \"warm\": [{}], \"engines\": [{}], \"queries_per_s\": {}, \"pass_queries\": {}, \
                 \"updates_per_pass\": {}, \"k\": [{}, {}], \"r\": [{}, {}], \"updates\": {}, \"listed\": {}}}",
                json_str(w.name),
                json_str(w.why),
                json_str(w.dataset),
                w.scale,
                w.n,
                w.m,
                engines(w.warm),
                engines(w.engines),
                w.query_rate,
                w.pass_queries,
                crate::gen::updates_per_pass(w),
                w.k_range.0,
                w.k_range.1,
                w.r_range.0,
                w.r_range.1,
                updates,
                w.listed
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"layer\": {}, \"moves\": {}, \"leaves\": {}}}",
                json_str(m.name),
                json_str(m.layer),
                json_str(m.moves),
                json_str(m.leaves)
            )
        })
        .collect();
    format!(
        "{{\n  \"run\": {{\"seconds\": {}, \"setup_reps\": {}, \"passes\": [{}, {}], \"connections\": {}, \
         \"query_deadline_ms\": {}, \"traced_phases\": {}}},\n  \"workloads\": [\n{}\n  ],\n  \
         \"predictions\": [\n{}\n  ]\n}}\n",
        RUN_SECONDS,
        SETUP_REPS,
        PASSES.0,
        PASSES.1,
        CONNECTIONS,
        QUERY_DEADLINE_MS,
        TRACED_PHASES,
        workloads.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn committed_files_match_the_definitions() {
        let committed =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        assert_eq!(committed, manifest(), "regenerate with `-- --write-manifest`");
        let committed = std::fs::read_to_string("predictions.json").expect("predictions.json");
        assert_eq!(committed, predictions(), "regenerate with `-- --write-manifest`");
    }

    #[test]
    fn names_units_and_bounds_fit_the_manifest_rules() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let count = names.len();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.listed).count()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.unit.len() <= 16));
    }

    #[test]
    fn predictions_name_known_metrics_and_workloads() {
        let known = |name: &str| {
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name)
        };
        for m in &PER_LAYER {
            for target in m.moves.split_whitespace().chain(m.leaves.split_whitespace()) {
                let Some((metric, w)) = target.split_once('@') else { continue };
                assert!(known(metric), "{}: unknown metric {metric}", m.name);
                assert!(workload(w).is_some(), "{}: unknown workload {w}", m.name);
            }
        }
    }
}
