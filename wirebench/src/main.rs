//! `wirebench`: the end-to-end and per-layer benchmark of the structural
//! diversity server.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload serve-indexed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One run serves one workload from an in-process `sd_server::Server`
//! and drives it over loopback TCP from this process. Every answer is
//! checked against Online scores computed by the benchmark. The last line
//! of standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`: set-up time, CPU time per query over closed-loop passes
//! scaled to a reference clock, peak RSS) or the per-layer metrics (`--trace 1`,
//! which drives the server open loop at the workload's fixed Poisson rate,
//! times latency from each request's due time, and adds a closed-loop
//! throughput phase); a readable report goes to standard error. A run with a
//! wrong answer or a failed operation exits with a non-zero status after
//! printing its result.
//!
//! `--all` runs every workload, each in a fresh process, with and
//! without tracing. `--write-manifest` regenerates `BENCHMARK.json` and
//! `wirebench/predictions.json` from the definitions in `spec.rs`.

mod cpu;
mod gen;
mod layers;
mod loadgen;
mod oracle;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use sd_core::{EngineKind, GraphFingerprint, SearchService};
use sd_graph::{GraphBuilder, GraphUpdate, VertexId};
use sd_server::{
    BatchLimits, BatchStats, Client, ClientConfig, Server, ServerConfig, ServerStatsWire,
    TenantRegistry, TenantStatsWire, WireQuery,
};

use gen::{Inputs, Mirror};
use layers::Replay;
use loadgen::{closed_loop, open_loop, Failure, Outcome, Record, WallClock, WireConn};
use oracle::{csr_of, Oracle};
use spec::{Workload, END_TO_END, PER_LAYER};
use stats::{highest_supported, mean, median, percentile, sorted};
use trace::Trace;

/// Closed-loop queries each connection sends before measuring.
const WARMUP_QUERIES: usize = 20;
/// Update frames sent one at a time after the traced phase, for
/// `server.update_p50_ms`.
const UPDATE_PROBES: usize = 10;
/// Replay specs drawn for the per-layer run.
const REPLAY_SPECS: usize = 1_000;
/// Set-ups continue past [`spec::SETUP_REPS`] until they total this many
/// seconds, so that a cheap set-up's median rests on many samples.
const SETUP_SECONDS: f64 = 2.0;
const MAX_SETUP_REPS: usize = 100;
/// Where traced runs write their spans.
const TRACE_DIR: &str = ".wirebench";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    all: bool,
    write_manifest: bool,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("wirebench: {problem}");
    eprintln!(
        "usage: wirebench --workload NAME --seed N --seconds S --trace 0|1\n       \
         wirebench --all [--seed N] [--seconds S]\n       wirebench --write-manifest\n\
         workloads: {}",
        spec::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        all: false,
        write_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|_| "--seed takes an integer")?
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|_| "--seconds takes an integer")?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--all" => args.all = true,
            "--write-manifest" => args.write_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    if args.write_manifest {
        return write_manifest();
    }
    if args.all {
        return run_all(&args);
    }
    let Some(name) = args.workload.as_deref() else {
        return usage("name a --workload, or pass --all");
    };
    let Some(w) = spec::workload(name) else { return usage(&format!("unknown workload {name}")) };
    match run(w, args.seed, args.seconds, args.trace) {
        Ok(result) => {
            println!("{}", result.json());
            if result.correct && result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("wirebench: {name}: wrong answers or failed operations");
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("wirebench: {name}: {err}");
            ExitCode::FAILURE
        }
    }
}

fn write_manifest() -> ExitCode {
    let targets =
        [("BENCHMARK.json", spec::manifest()), ("wirebench/predictions.json", spec::predictions())];
    for (path, text) in targets {
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("wirebench: cannot write {path} (run from the repository root): {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// Runs every workload in a fresh process per run, untraced and traced,
/// printing each result line, then regenerates the manifest.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("wirebench: cannot find own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &spec::WORKLOADS {
        for trace in ["0", "1"] {
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            match output {
                Ok(out) if out.status.success() => {
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    println!("{} trace={trace}: {}", w.name, stdout.lines().last().unwrap_or(""));
                }
                Ok(out) => {
                    ok = false;
                    println!("{} trace={trace}: failed ({})", w.name, out.status);
                }
                Err(err) => {
                    ok = false;
                    println!("{} trace={trace}: cannot run: {err}", w.name);
                }
            }
        }
    }
    if write_manifest() != ExitCode::SUCCESS || !ok {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// What a run prints last.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    spec::json_str(name),
                    spec::json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A warm, registered, listening tenant.
struct Served {
    server: Server,
    registry: Arc<TenantRegistry>,
    key: GraphFingerprint,
}

/// Builds the CSR graph from the edge list, warms the workload's
/// indexes, registers the tenant and starts the server: what `setup_s`
/// times.
fn setup(
    w: &Workload,
    n: usize,
    edges: &[(VertexId, VertexId)],
    trace: &mut Trace,
) -> Result<Served, String> {
    trace.span("setup", None, |trace, root| {
        let (g, _) = trace.timed("graph.build", root, || {
            GraphBuilder::with_min_vertices(n).extend_edges(edges.iter().copied()).build()
        });
        let service = Arc::new(SearchService::new(g));
        for &kind in w.warm {
            trace.timed(&format!("index.{}.build", kind.name()), root, || {
                service.wait_ready([kind])
            });
        }
        let registry = Arc::new(TenantRegistry::new(BatchLimits::default()));
        let key =
            registry.register(service).map_err(|key| format!("tenant {key} registered twice"))?;
        let (server, _) = trace.timed("server.start", root, || {
            Server::start(ServerConfig::new(), Arc::clone(&registry))
        });
        let server = server.map_err(|err| format!("cannot start server: {err}"))?;
        Ok(Served { server, registry, key })
    })
}

/// Tallies of a run's operations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    failures: std::collections::BTreeMap<&'static str, u64>,
}

impl Tally {
    fn fail(&mut self, why: &'static str) {
        self.failed += 1;
        *self.failures.entry(why).or_default() += 1;
    }

    fn wrong(&mut self, why: &'static str) {
        self.wrong += 1;
        self.fail(why);
    }
}

/// Checks every outcome against the oracle, carrying it through the
/// update batches in epoch order. Leaves the oracle at the epoch after
/// the last batch the server acknowledged.
fn verify(
    outcomes: &[&Outcome],
    oracle: &mut Oracle,
    batches: &[Vec<GraphUpdate>],
    tally: &mut Tally,
) {
    let mut answered: Vec<(u64, WireQuery, u64)> = Vec::new();
    let mut acknowledged = 0usize;
    for outcome in outcomes {
        tally.attempted += 1;
        match outcome {
            Outcome::Answered { epoch, query, scores } => answered.push((*epoch, *query, *scores)),
            Outcome::Updated { batch, epoch, applied, rejected } => {
                acknowledged = acknowledged.max(batch + 1);
                let all_applied = *applied as usize == batches[*batch].len() && *rejected == 0;
                if *epoch != *batch as u64 + 1 || !all_applied {
                    tally.wrong("update applied differently than drawn");
                }
            }
            Outcome::Failed(Failure::Io) => tally.fail("io error"),
            Outcome::Failed(Failure::Rejected) => tally.fail("error response"),
            Outcome::Failed(Failure::Overloaded) => tally.fail("overloaded"),
            Outcome::Failed(Failure::Expired) => tally.fail("deadline expired"),
            Outcome::Failed(Failure::Wrong) => tally.wrong("malformed response"),
        }
    }
    answered.sort_by_key(|a| a.0);
    for (epoch, query, scores) in answered {
        while oracle.epoch() < epoch && (oracle.epoch() as usize) < batches.len() {
            let next = oracle.epoch() as usize;
            oracle.advance(&batches[next]);
        }
        if oracle.epoch() != epoch || oracle.expected(query.k, query.r) != Some(scores) {
            tally.wrong("wrong answer");
        }
    }
    while (oracle.epoch() as usize) < acknowledged {
        let next = oracle.epoch() as usize;
        oracle.advance(&batches[next]);
    }
}

/// Runs one open-loop phase over one connection per schedule.
fn open_loop_phase(
    served: &Served,
    schedules: &[Vec<gen::Scheduled>],
    batches: &[Vec<GraphUpdate>],
    trace: &mut Trace,
    phase: usize,
) -> Result<Vec<Record>, String> {
    let addr = served.server.local_addr();
    let conns: Vec<WireConn> = schedules
        .iter()
        .map(|_| WireConn::connect(addr, served.key, spec::QUERY_DEADLINE_MS, batches))
        .collect::<Result<_, _>>()
        .map_err(|err| format!("cannot connect: {err}"))?;
    // Every sender starts from the same instant, a little ahead so that
    // all are ready for the first due time.
    let start = Instant::now() + Duration::from_millis(20);
    let phase_offset = trace.offset(start);
    let (traced, epoch) = (trace.enabled(), trace.epoch());
    let results: Vec<(Vec<Record>, Trace)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(schedules)
            .enumerate()
            .map(|(c, (mut conn, schedule))| {
                scope.spawn(move || {
                    let mut local = Trace::new(epoch, traced);
                    let first = ((phase * schedules.len() + c) as u64) << 32;
                    let records = open_loop(
                        schedule,
                        &mut WallClock(start),
                        &mut conn,
                        &mut local,
                        phase_offset,
                        first,
                    );
                    (records, local)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread panicked")).collect()
    });
    let mut records = Vec::new();
    for (r, local) in results {
        records.extend(r);
        trace.absorb(local);
    }
    Ok(records)
}

/// Makes closed-loop passes until `span` has gone by (within
/// [`spec::PASSES`]) and returns, for each pass, its process CPU time
/// per query it sent and the [`cpu::probe_ms`] taken right after it, both
/// in ms. In each pass every connection sends its
/// [`Inputs::pass_ops`], each as soon as the previous answer is in; the
/// passes start and end together, so the process CPU time between two
/// pass boundaries is that pass's. Each pass's outcomes are checked after
/// it ends, outside its CPU time, so that what the benchmark keeps does
/// not grow with the run.
fn cpu_passes(
    served: &Served,
    w: &Workload,
    inputs: &Inputs,
    span: Duration,
    oracle: &mut Oracle,
    tally: &mut Tally,
) -> Result<Vec<(f64, f64)>, String> {
    let addr = served.server.local_addr();
    let conns: Vec<WireConn> = inputs
        .closed
        .iter()
        .map(|_| WireConn::connect(addr, served.key, spec::QUERY_DEADLINE_MS, &inputs.batches))
        .collect::<Result<_, _>>()
        .map_err(|err| format!("cannot connect: {err}"))?;
    let queries = (inputs.pass_share(w) * conns.len()) as f64;
    // Passes start at one wait on the barrier and end at the next; each
    // sender leaves its pass's outcomes in its slot before the second.
    let barrier = Barrier::new(conns.len() + 1);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Vec<Outcome>>> = conns.iter().map(|_| Mutex::default()).collect();
    std::thread::scope(|scope| {
        for (c, mut conn) in conns.into_iter().enumerate() {
            let (barrier, stop, slot) = (&barrier, &stop, &slots[c]);
            scope.spawn(move || {
                let mut outcomes = Vec::new();
                for pass in 0.. {
                    barrier.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    for op in inputs.pass_ops(w, c, pass) {
                        outcomes.push(loadgen::exchange(&mut conn, &op));
                    }
                    std::mem::swap(&mut *slot.lock().expect("no sender panics"), &mut outcomes);
                    outcomes.clear();
                    barrier.wait();
                }
            });
        }
        let start = Instant::now();
        let mut cpu_ms = Vec::new();
        let mut failure = None;
        while cpu_ms.len() < spec::PASSES.1 {
            let before = cpu::process_cpu();
            barrier.wait();
            barrier.wait();
            match (before, cpu::process_cpu()) {
                (Ok(before), Ok(after)) => {
                    cpu_ms.push((ms(after.saturating_sub(before)) / queries, cpu::probe_ms()))
                }
                (Err(err), _) | (_, Err(err)) => {
                    failure = Some(err);
                    break;
                }
            }
            let outcomes: Vec<Outcome> = slots
                .iter()
                .flat_map(|slot| std::mem::take(&mut *slot.lock().expect("no sender panics")))
                .collect();
            verify(&outcomes.iter().collect::<Vec<_>>(), oracle, &inputs.batches, tally);
            if cpu_ms.len() >= spec::PASSES.0 && start.elapsed() >= span {
                break;
            }
        }
        stop.store(true, Ordering::Release);
        barrier.wait();
        match failure {
            Some(err) => Err(err),
            None => Ok(cpu_ms),
        }
    })
}

/// Sends each connection's specs closed-loop for `span`, cycling through
/// them if `cycle`; returns the outcomes with their completion times from
/// the phase start.
fn closed_loop_phase(
    served: &Served,
    specs: &[Vec<WireQuery>],
    span: Duration,
    cycle: bool,
) -> Result<Vec<(Duration, Outcome)>, String> {
    let addr = served.server.local_addr();
    let conns: Vec<WireConn> = specs
        .iter()
        .map(|_| WireConn::connect(addr, served.key, spec::QUERY_DEADLINE_MS, &[]))
        .collect::<Result<_, _>>()
        .map_err(|err| format!("cannot connect: {err}"))?;
    let start = Instant::now();
    let until = start + span;
    let outcomes = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(specs)
            .map(|(mut conn, specs)| {
                scope.spawn(move || {
                    let take = if cycle { usize::MAX } else { specs.len() };
                    closed_loop(specs.iter().cycle().take(take), start, until, &mut conn)
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sender thread panicked")).collect()
    });
    Ok(outcomes)
}

fn client(served: &Served) -> Result<Client, String> {
    let config =
        ClientConfig { io_timeout: Some(Duration::from_secs(60)), ..ClientConfig::default() };
    Client::connect_with(served.server.local_addr(), config)
        .map_err(|err| format!("cannot connect: {err}"))
}

/// The server's and the tenant's counters, read through the Stats verb,
/// and the batcher's, read in-process.
fn read_stats(served: &Served) -> Result<(ServerStatsWire, TenantStatsWire, BatchStats), String> {
    let mut c = client(served)?;
    let server = c.server_stats().map_err(|err| format!("server stats: {err}"))?;
    let tenant = c.tenant_stats(served.key).map_err(|err| format!("tenant stats: {err}"))?;
    let batch = served.registry.lookup(&served.key).ok_or("tenant vanished")?.batcher.stats();
    Ok((server, tenant, batch))
}

/// The closing check: the tenant serves the mirror's graph, and every
/// engine of the workload (and Online) answers every k as the oracle
/// does.
fn final_check(
    w: &Workload,
    served: &Served,
    oracle: &mut Oracle,
    tally: &mut Tally,
) -> Result<bool, String> {
    let mut c = client(served)?;
    let tenant = c.tenant_stats(served.key).map_err(|err| format!("tenant stats: {err}"))?;
    let mut ok = tenant.fingerprint == GraphFingerprint::of(&csr_of(oracle.mirror()))
        && tenant.epoch == oracle.epoch();
    if !ok {
        eprintln!(
            "final check: tenant at {} epoch {}, mirror at epoch {}",
            tenant.fingerprint,
            tenant.epoch,
            oracle.epoch()
        );
    }
    if oracle.epoch() > 0 && !oracle.matches_fresh_scan() {
        eprintln!("final check: carried oracle scores differ from a fresh Online scan");
        ok = false;
    }
    let r = w.r_range.1.min(oracle.mirror().n() as u64);
    let mut engines = vec![EngineKind::Online];
    engines.extend(w.engines.iter().copied().filter(|&e| e != EngineKind::Online));
    for k in w.k_range.0..=w.k_range.1 {
        for &engine in &engines {
            let query = WireQuery { k, r, engine };
            tally.attempted += 1;
            let answered = c.query(served.key, 0, vec![query]);
            let expected = oracle.expected(k, r);
            let matches = matches!(
                answered.as_ref().map(|resp| resp.outcomes.as_slice()),
                Ok([sd_server::QueryOutcome::Answered(entries)])
                    if Some(loadgen::hash_scores(entries.iter().map(|e| e.score))) == expected
            );
            if !matches {
                eprintln!("final check: k={k} r={r} {} disagrees with the oracle", engine.name());
                tally.wrong("final answer differs");
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// Sends update batches drawn from the mirror one at a time and times
/// each round trip; carries the oracle past them.
fn update_probes(
    served: &Served,
    oracle: &mut Oracle,
    seed: u64,
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let batches = oracle.mirror().clone().draw_batches(
        &mut gen::stream_rng(seed, gen::PROBE_OPS),
        UPDATE_PROBES,
        &spec::UPDATE_MIX,
    );
    let mut c = client(served)?;
    let mut times = Vec::new();
    for batch in &batches {
        tally.attempted += 1;
        let start = Instant::now();
        let reply = c.update(served.key, batch.clone());
        times.push(start.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok(u) if u.applied as usize == batch.len() && u.epoch == oracle.epoch() + 1 => {}
            Ok(_) => tally.wrong("update applied differently than drawn"),
            Err(err) => {
                eprintln!("update probe: {err}");
                tally.fail("update probe failed");
            }
        }
        oracle.advance(batch);
    }
    Ok(times)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("/proc/self/status: {err}"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line")?;
    let kb: f64 =
        line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run(w: &'static Workload, seed: u64, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let dataset = sd_datasets::dataset(w.dataset).ok_or("unknown dataset")?;
    let graph = Arc::new(dataset.generate(w.scale));
    if (graph.n(), graph.m()) != (w.n, w.m) {
        return Err(format!(
            "{} generated n={} m={}, expected n={} m={}",
            w.dataset,
            graph.n(),
            graph.m(),
            w.n,
            w.m
        ));
    }
    let edges = graph.edges().to_vec();
    let mirror = Mirror::new(graph.n(), &edges);
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let connections = spec::CONNECTIONS.min(cores);
    let span = Duration::from_secs(seconds);
    // An untraced run makes closed-loop passes over the whole span. A
    // traced run cuts it into open-loop quarters ordered untraced, traced,
    // traced, untraced, so that a drift over the run (a heap still
    // growing, say) cancels out of the overhead, and adds a closed-loop
    // quarter.
    let (phases, max_passes) = if traced { (spec::TRACED_PHASES, 0) } else { (0, spec::PASSES.1) };
    let phase_len = span / spec::TRACED_PHASES as u32;
    let is_traced = |phase: usize| traced && (phase == 1 || phase == 2);
    let inputs = Inputs::generate(w, seed, &mirror, phase_len, phases, connections, max_passes);
    let mut oracle = Oracle::new(mirror.clone(), &graph, w.k_range);

    let mut trace = Trace::new(Instant::now(), traced);
    let (served, setup_times) = setup_repeatedly(w, graph.n(), &edges, &mut trace)?;
    eprintln!(
        "wirebench {}: {} set-ups, median {:.1} ms",
        w.name,
        setup_times.len(),
        median(&setup_times) * 1e3
    );

    // Warm-up, untimed: the first update batch (which seeds the update
    // path's retained state) and a few queries per connection.
    let mut warm: Vec<(Duration, Outcome)> = Vec::new();
    if !inputs.batches.is_empty() {
        let mut conn = WireConn::connect(
            served.server.local_addr(),
            served.key,
            spec::QUERY_DEADLINE_MS,
            &inputs.batches,
        )
        .map_err(|err| format!("cannot connect: {err}"))?;
        warm.push((Duration::ZERO, loadgen::exchange(&mut conn, &gen::Op::Update(0))));
    }
    let warmup: Vec<Vec<WireQuery>> =
        inputs.closed.iter().map(|s| s[..WARMUP_QUERIES].to_vec()).collect();
    warm.extend(closed_loop_phase(&served, &warmup, Duration::from_secs(60), false)?);
    let mut tally = Tally::default();
    verify(
        &warm.iter().map(|(_, o)| o).collect::<Vec<_>>(),
        &mut oracle,
        &inputs.batches,
        &mut tally,
    );

    let mut phase_records = Vec::with_capacity(phases);
    for (p, schedules) in inputs.phases.iter().enumerate() {
        trace.set_enabled(is_traced(p));
        let mut records = open_loop_phase(&served, schedules, &inputs.batches, &mut trace, p)?;
        trace.set_enabled(traced);
        records.sort_by_key(|r| r.due);
        phase_records.push(records);
    }
    let pass_cpu_ms = if traced {
        None
    } else {
        Some(cpu_passes(&served, w, &inputs, span, &mut oracle, &mut tally)?)
    };
    let closed = if traced {
        closed_loop_phase(&served, &inputs.closed, phase_len, true)?
    } else {
        Vec::new()
    };
    let (server_stats, tenant_stats, batch_stats) = read_stats(&served)?;

    let mut outcomes: Vec<&Outcome> = phase_records.iter().flatten().map(|r| &r.outcome).collect();
    outcomes.extend(closed.iter().map(|(_, o)| o));
    verify(&outcomes, &mut oracle, &inputs.batches, &mut tally);
    let probe_times =
        if traced { update_probes(&served, &mut oracle, seed, &mut tally)? } else { Vec::new() };
    let checked = final_check(w, &served, &mut oracle, &mut tally)?;
    served.server.shutdown();

    let (traced_records, untraced_records): (Vec<_>, Vec<_>) =
        phase_records.into_iter().enumerate().partition(|(p, _)| is_traced(*p));
    let first: &[Record] = &untraced_records.into_iter().flat_map(|(_, r)| r).collect::<Vec<_>>();
    let latencies = sorted(answered(first).map(|r| ms(r.latency())).collect());
    let metrics = if let Some(passes) = pass_cpu_ms {
        let raw: Vec<f64> = passes.iter().map(|&(cpu, _)| cpu).collect();
        let probes: Vec<f64> = passes.iter().map(|&(_, probe)| probe).collect();
        let at_ref = sorted(passes.iter().map(|&(cpu, probe)| cpu / probe).collect());
        let at = |p: f64| percentile(&at_ref, p).unwrap_or(f64::NAN);
        eprintln!(
            "wirebench {}: {} closed-loop passes of {} queries; CPU per query: median {:.4} ms, \
             clock probe median {:.4} ms; at the reference clock p25 {:.4} p50 {:.4} p75 {:.4} ms",
            w.name,
            passes.len(),
            inputs.pass_share(w) * connections,
            median(&raw),
            median(&probes),
            at(25.0),
            median(&at_ref),
            at(75.0)
        );
        let values = [median(&setup_times), median(&at_ref), peak_rss_mb()?];
        END_TO_END.iter().zip(values).map(|(m, v)| (m.name, m.unit, v)).collect()
    } else {
        report_latencies(w, first, &latencies, &closed);
        let batches = if inputs.batches.is_empty() {
            layers::twin_batches(&mirror, seed)
        } else {
            inputs.batches.clone()
        };
        let specs = gen::replay_specs(w, seed, REPLAY_SPECS);
        let replay =
            Replay { graph: &graph, edges: &edges, warm: w.warm, specs: &specs, batches: &batches };
        let mut values = replay.run(&mut trace);
        let traced_latencies = sorted(
            traced_records.iter().flat_map(|(_, r)| answered(r)).map(|r| ms(r.latency())).collect(),
        );
        let round_trips = sorted(answered(first).map(|r| ms(r.round_trip())).collect());
        let bytes: Vec<f64> = answered(first).map(|r| r.response_bytes as f64).collect();
        let lates = sorted(first.iter().map(|r| ms(r.late())).collect());
        let at = |sorted: &[f64], p: f64| percentile(sorted, p).unwrap_or(f64::NAN);
        values.put("proto.response_bytes_mean", mean(&bytes));
        values.put("service.fallbacks", tenant_stats.foreground_fallbacks as f64);
        values.put(
            "batch.mean_size",
            server_stats.queries_batched as f64 / server_stats.batches_executed.max(1) as f64,
        );
        values.put("batch.expired", batch_stats.expired as f64);
        values.put("batch.shed_queue_full", batch_stats.shed_queue_full as f64);
        values.put("admission.overloaded", server_stats.shed_overload as f64);
        let service_p50 = values.get("service.top_r_p50_ms").unwrap_or(f64::NAN);
        values.put("server.wire_overhead_p50_ms", at(&round_trips, 50.0) - service_p50);
        values.put("server.update_p50_ms", median(&probe_times));
        values.put("loadgen.late_p99_ms", at(&lates, 99.0));
        values.put("wire.query_samples", latencies.len() as f64);
        values.put("wire.query_p50_ms", at(&latencies, 50.0));
        values.put("wire.query_p95_ms", at(&latencies, 95.0));
        values.put("wire.query_p99_ms", at(&latencies, 99.0));
        let closed_answered =
            closed.iter().filter(|(_, o)| matches!(o, Outcome::Answered { .. })).count();
        values.put("wire.throughput_qps", closed_answered as f64 / phase_len.as_secs_f64());
        values.put(
            "trace.overhead_pct",
            (at(&traced_latencies, 50.0) - at(&latencies, 50.0)) / at(&latencies, 50.0) * 100.0,
        );
        write_spans(w, seed, &trace)?;
        PER_LAYER
            .iter()
            .map(|m| {
                values
                    .get(m.name)
                    .map(|v| (m.name, m.unit, v))
                    .ok_or(format!("no value for {}", m.name))
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    for (name, unit, value) in &metrics {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
        if !value.is_finite() {
            return Err(format!("{name} is not a number"));
        }
    }
    for (why, count) in &tally.failures {
        eprintln!("  failed: {count} × {why}");
    }
    let correct = tally.wrong == 0 && checked;
    Ok(RunResult { correct, attempted: tally.attempted, failed: tally.failed, metrics })
}

/// The answered queries among `records`.
fn answered(records: &[Record]) -> impl Iterator<Item = &Record> {
    records.iter().filter(|r| matches!(r.outcome, Outcome::Answered { .. }))
}

/// Sets the workload up at least [`spec::SETUP_REPS`] times, and more
/// while the set-ups total under [`SETUP_SECONDS`]; keeps the last one
/// serving and returns every set-up's time in seconds.
fn setup_repeatedly(
    w: &Workload,
    n: usize,
    edges: &[(VertexId, VertexId)],
    trace: &mut Trace,
) -> Result<(Served, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    loop {
        let start = Instant::now();
        let served = setup(w, n, edges, trace)?;
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= spec::SETUP_REPS && times.iter().sum::<f64>() >= SETUP_SECONDS;
        if enough || times.len() >= MAX_SETUP_REPS {
            return Ok((served, times));
        }
        served.server.shutdown();
    }
}

/// The readable part of the report: the sample count, percentiles of
/// ascending `latencies` up to the highest one the count supports, and
/// the update latencies.
fn report_latencies(
    w: &Workload,
    records: &[Record],
    latencies: &[f64],
    closed: &[(Duration, Outcome)],
) {
    eprintln!("wirebench {}: {} open-loop queries answered", w.name, latencies.len());
    if !stats::supports(latencies.len(), 99.0) {
        eprintln!("  warning: too few answers for p99 to have 10 samples beyond it");
    }
    let at = |p: f64| percentile(latencies, p).unwrap_or(f64::NAN);
    eprintln!(
        "  latency ms: p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3}",
        at(50.0),
        at(90.0),
        at(95.0),
        at(99.0),
        at(100.0)
    );
    if let Some(p) = highest_supported(latencies.len()) {
        eprintln!(
            "  highest percentile with 10 samples beyond: p{p} = {:.3} ms",
            percentile(latencies, p).unwrap_or(f64::NAN)
        );
    }
    let updates: Vec<f64> = sorted(
        records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Updated { .. }))
            .map(|r| ms(r.latency()))
            .collect(),
    );
    if !updates.is_empty() {
        eprintln!(
            "  update frames: {} answered, p50 {:.3} ms, p90 {:.3} ms (from due time)",
            updates.len(),
            percentile(&updates, 50.0).unwrap_or(f64::NAN),
            percentile(&updates, 90.0).unwrap_or(f64::NAN)
        );
    }
    if let Some(last) = closed.iter().map(|&(t, _)| t).max() {
        eprintln!("  closed loop: {} answers in {:.3} s", closed.len(), last.as_secs_f64());
    }
}

/// Writes the spans with their self times, and prints self time by span
/// name.
fn write_spans(w: &Workload, seed: u64, trace: &Trace) -> Result<(), String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|err| format!("{TRACE_DIR}: {err}"))?;
    let path = format!("{TRACE_DIR}/spans-{}-{seed}.tsv", w.name);
    let mut file = std::io::BufWriter::new(
        std::fs::File::create(&path).map_err(|err| format!("{path}: {err}"))?,
    );
    trace.write_tsv(&mut file).map_err(|err| format!("{path}: {err}"))?;
    std::io::Write::flush(&mut file).map_err(|err| format!("{path}: {err}"))?;
    eprintln!("  spans written to {path}; self time by span:");
    for (name, (time, count)) in trace.self_time_by_name() {
        eprintln!("    {name:<28} {count:>6} spans {:>12.3} ms", ms(time));
    }
    Ok(())
}
