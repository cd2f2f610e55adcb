//! Input generation: everything a run sends is derived here from the
//! workload's constants and the `--seed`, before the server exists.
//!
//! Queries arrive as a Poisson process, as from independent users;
//! update batches arrive on a fixed cadence, as from one upstream writer
//! that flushes periodically.
//!
//! Each stream (query arrivals, query specs, update arrivals, update ops)
//! draws from its own generator, so a longer horizon only appends to a
//! stream: the first `H` seconds of a `2H` schedule equal the `H`-second
//! schedule of the same seed.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sd_graph::{GraphUpdate, VertexId};
use sd_server::WireQuery;

use crate::spec::{Updates, Workload};

/// The generator of stream `stream` of run seed `seed`. Each stream has
/// its own, so drawing more from one leaves the others unchanged.
pub fn stream_rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Arrival times of a Poisson process of `rate` per second over
/// `[0, horizon)`.
pub fn poisson_arrivals(rng: &mut StdRng, rate: f64, horizon: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // 1 - gen() lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= horizon.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Arrival times of a writer that flushes `rate` times per second on a
/// fixed cadence, starting at a seeded offset within the first period.
pub fn periodic_arrivals(rng: &mut StdRng, rate: f64, horizon: Duration) -> Vec<Duration> {
    let period = 1.0 / rate;
    let offset = rng.gen::<f64>() * period;
    (0..)
        .map(|i| offset + f64::from(i) * period)
        .take_while(|&t| t < horizon.as_secs_f64())
        .map(Duration::from_secs_f64)
        .collect()
}

/// One scheduled operation: a single-query frame or an update batch
/// (an index into [`Inputs::batches`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Query(WireQuery),
    Update(usize),
}

/// An operation and the time, from the start of its phase, at which it
/// is due.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scheduled {
    pub due: Duration,
    pub op: Op,
}

/// Draws one query spec: k and r uniform over the workload's ranges, the
/// engine uniform over its engine list.
pub fn draw_query(rng: &mut StdRng, w: &Workload) -> WireQuery {
    let k = rng.gen_range(w.k_range.0..=w.k_range.1);
    let r = rng.gen_range(w.r_range.0..=w.r_range.1);
    WireQuery { k, r, engine: *w.engines.choose(rng).expect("a workload names its engines") }
}

/// A copy of the served edge set, kept by the benchmark so that update
/// ops can be drawn to apply and answers checked after updates. It does
/// not share code with the program's own dynamic graph.
#[derive(Clone, Debug)]
pub struct Mirror {
    adj: Vec<Vec<VertexId>>,
    m: usize,
}

impl Mirror {
    pub fn new(n: usize, edges: &[(VertexId, VertexId)]) -> Mirror {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        let m = adj.iter().map(Vec::len).sum::<usize>() / 2;
        Mirror { adj, m }
    }

    pub fn n(&self) -> usize {
        self.adj.len()
    }

    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v as usize]
    }

    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Common neighbours of `u` and `v`: the vertices whose ego-network
    /// an update of `{u, v}` changes, besides `u` and `v`.
    pub fn common_neighbors(&self, u: VertexId, v: VertexId) -> Vec<VertexId> {
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        a.iter().copied().filter(|w| b.binary_search(w).is_ok()).collect()
    }

    /// Applies `update`; returns whether it changed the edge set.
    pub fn apply(&mut self, update: GraphUpdate) -> bool {
        let (u, v) = update.endpoints();
        if u == v {
            return false;
        }
        let insert = matches!(update, GraphUpdate::Insert { .. });
        let (iu, iv) =
            (self.adj[u as usize].binary_search(&v), self.adj[v as usize].binary_search(&u));
        match (insert, iu, iv) {
            (true, Err(a), Err(b)) => {
                self.adj[u as usize].insert(a, v);
                self.adj[v as usize].insert(b, u);
                self.m += 1;
                true
            }
            (false, Ok(a), Ok(b)) => {
                self.adj[u as usize].remove(a);
                self.adj[v as usize].remove(b);
                self.m -= 1;
                true
            }
            _ => false,
        }
    }

    /// The canonical (`u < v`) edge list.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut out = Vec::with_capacity(self.m);
        for (u, list) in self.adj.iter().enumerate() {
            out.extend(list.iter().filter(|&&v| v as usize > u).map(|&v| (u as VertexId, v)));
        }
        out
    }

    fn random_vertex_with_degree(&self, rng: &mut StdRng) -> Option<VertexId> {
        let n = self.n() as VertexId;
        (0..64).map(|_| rng.gen_range(0..n)).find(|&v| self.degree(v) > 0)
    }

    fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// An absent edge between two vertices two hops apart (inserting it
    /// closes a triangle).
    fn draw_two_hop_pair(&self, rng: &mut StdRng) -> Option<(VertexId, VertexId)> {
        for _ in 0..64 {
            let u = self.random_vertex_with_degree(rng)?;
            let w = *self.neighbors(u).choose(rng)?;
            let v = *self.neighbors(w).choose(rng)?;
            if v != u && !self.has_edge(u, v) {
                return Some((u, v));
            }
        }
        None
    }

    fn draw_edge(&self, rng: &mut StdRng) -> Option<(VertexId, VertexId)> {
        let u = self.random_vertex_with_degree(rng)?;
        Some((u, *self.neighbors(u).choose(rng)?))
    }

    /// Draws one batch of `ops` updates, each of which applies when the
    /// batches are applied in order, and applies it to the mirror.
    /// `insert_share` of the ops insert a two-hop pair; the rest remove an
    /// existing edge.
    pub fn draw_batch(
        &mut self,
        rng: &mut StdRng,
        ops: usize,
        insert_share: f64,
    ) -> Vec<GraphUpdate> {
        let mut batch = Vec::with_capacity(ops);
        while batch.len() < ops {
            let update = if rng.gen_bool(insert_share) {
                self.draw_two_hop_pair(rng).map(|(u, v)| GraphUpdate::Insert { u, v })
            } else {
                self.draw_edge(rng).map(|(u, v)| GraphUpdate::Remove { u, v })
            };
            if let Some(update) = update {
                if self.apply(update) {
                    batch.push(update);
                }
            }
        }
        batch
    }

    /// Draws `count` batches of `mix` from this graph onwards, each
    /// applying after the ones before it.
    pub fn draw_batches(
        mut self,
        rng: &mut StdRng,
        count: usize,
        mix: &Updates,
    ) -> Vec<Vec<GraphUpdate>> {
        (0..count).map(|_| self.draw_batch(rng, mix.ops_per_batch, mix.insert_share)).collect()
    }
}

/// Stream identifiers of [`Rng::new`].
const QUERY_ARRIVALS: u64 = 1;
const QUERY_SPECS: u64 = 2;
const UPDATE_ARRIVALS: u64 = 3;
const UPDATE_OPS: u64 = 4;
const CLOSED_SPECS: u64 = 5;
const REPLAY_SPECS: u64 = 6;
pub const TWIN_OPS: u64 = 7;
pub const PROBE_OPS: u64 = 8;
/// Pass `p` of connection `c` draws its queries from stream
/// `FIRST_PASS_SPECS + p × connections + c`.
const FIRST_PASS_SPECS: u64 = 1 << 16;

/// Everything one run sends, generated before the server starts.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// One schedule per open-loop phase and connection, sorted by due
    /// time: `phases[p][c]`.
    pub phases: Vec<Vec<Vec<Scheduled>>>,
    /// Update batches in the order they must apply; batch `i` publishes
    /// epoch `i + 1`. Batch 0 is sent during warm-up, so that the
    /// one-off seeding of the update path is not timed; the schedules
    /// carry the ones after it, and the passes those after the schedules'.
    pub batches: Vec<Vec<GraphUpdate>>,
    /// Specs the closed-loop phase cycles through, one list per
    /// connection.
    pub closed: Vec<Vec<WireQuery>>,
    /// Index of the first batch the passes send.
    first_pass_batch: usize,
    seed: u64,
}

impl Inputs {
    /// Schedules `phases` open-loop phases of `horizon` each over
    /// `connections` connections, and draws update batches for up to
    /// `passes` closed-loop passes. The arrival processes run over the
    /// whole `phases × horizon` span and are cut into phases, so phase 0
    /// does not depend on how many phases follow it.
    pub fn generate(
        w: &Workload,
        seed: u64,
        mirror: &Mirror,
        horizon: Duration,
        phases: usize,
        connections: usize,
        passes: usize,
    ) -> Inputs {
        let span = horizon * phases as u32;
        let mut spec_rng = stream_rng(seed, QUERY_SPECS);
        let queries: Vec<Scheduled> =
            poisson_arrivals(&mut stream_rng(seed, QUERY_ARRIVALS), w.query_rate, span)
                .into_iter()
                .map(|due| Scheduled { due, op: Op::Query(draw_query(&mut spec_rng, w)) })
                .collect();
        let update_times = match w.updates {
            Some(u) => {
                periodic_arrivals(&mut stream_rng(seed, UPDATE_ARRIVALS), u.batch_rate, span)
            }
            None => Vec::new(),
        };
        let batches = match w.updates {
            Some(u) => mirror.clone().draw_batches(
                &mut stream_rng(seed, UPDATE_OPS),
                update_times.len() + 1 + passes * updates_per_pass(w),
                &u,
            ),
            None => Vec::new(),
        };

        let first_pass_batch = update_times.len() + 1;
        let mut out = vec![vec![Vec::new(); connections]; phases];
        // Queries are dealt round-robin; every update rides connection 0,
        // so batches reach the server in the order they were drawn.
        for (i, s) in queries.into_iter().enumerate() {
            let phase = (s.due.as_nanos() / horizon.as_nanos()) as usize;
            out[phase][i % connections]
                .push(Scheduled { due: s.due - horizon * phase as u32, op: s.op });
        }
        for (i, due) in update_times.into_iter().enumerate() {
            let phase = (due.as_nanos() / horizon.as_nanos()) as usize;
            out[phase][0]
                .push(Scheduled { due: due - horizon * phase as u32, op: Op::Update(i + 1) });
        }
        for conn in out.iter_mut().flatten() {
            conn.sort_by_key(|s| s.due);
        }
        let mut closed_rng = stream_rng(seed, CLOSED_SPECS);
        let closed = (0..connections)
            .map(|_| (0..4096).map(|_| draw_query(&mut closed_rng, w)).collect())
            .collect();
        Inputs { phases: out, batches, closed, first_pass_batch, seed }
    }

    /// Queries each connection sends in one pass: the workload's
    /// `pass_queries` shared out evenly.
    pub fn pass_share(&self, w: &Workload) -> usize {
        w.pass_queries / self.closed.len()
    }

    /// What connection `c` sends in pass `pass`: queries drawn afresh for
    /// each pass, so that a run's passes together cover many more specs
    /// than one pass, and on connection 0 the workload's update frames,
    /// spread evenly among them and taking the batches on from the
    /// previous pass.
    pub fn pass_ops(&self, w: &Workload, c: usize, pass: usize) -> Vec<Op> {
        let stream = FIRST_PASS_SPECS + (pass * self.closed.len() + c) as u64;
        let mut rng = stream_rng(self.seed, stream);
        let share = self.pass_share(w);
        let updates = if c == 0 { updates_per_pass(w) } else { 0 };
        let first = self.first_pass_batch + pass * updates;
        let mut ops = Vec::with_capacity(share + updates);
        let mut sent = 0;
        for i in 0..share {
            while sent < updates && sent * share <= i * updates {
                ops.push(Op::Update(first + sent));
                sent += 1;
            }
            ops.push(Op::Query(draw_query(&mut rng, w)));
        }
        ops
    }
}

/// Update frames per pass: the workload's ratio of update frames to
/// queries, applied to its `pass_queries`.
pub fn updates_per_pass(w: &Workload) -> usize {
    w.updates.map_or(0, |u| (w.pass_queries as f64 * u.batch_rate / w.query_rate).round() as usize)
}

/// `count` specs for the per-layer replays, drawn like the workload's
/// queries but from a stream of their own.
pub fn replay_specs(w: &Workload, seed: u64, count: usize) -> Vec<WireQuery> {
    let mut rng = stream_rng(seed, REPLAY_SPECS);
    (0..count).map(|_| draw_query(&mut rng, w)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn poisson_schedule_repeats_for_a_seed_and_differs_across_seeds() {
        let horizon = Duration::from_secs(5);
        let a = poisson_arrivals(&mut stream_rng(7, QUERY_ARRIVALS), 300.0, horizon);
        let b = poisson_arrivals(&mut stream_rng(7, QUERY_ARRIVALS), 300.0, horizon);
        let c = poisson_arrivals(&mut stream_rng(8, QUERY_ARRIVALS), 300.0, horizon);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // About rate × horizon arrivals, in order, inside the horizon.
        assert!((1300..1700).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        assert!(a.iter().all(|&t| t < horizon));
    }

    #[test]
    fn periodic_arrivals_keep_their_cadence() {
        let a =
            periodic_arrivals(&mut stream_rng(7, UPDATE_ARRIVALS), 10.0, Duration::from_secs(2));
        assert_eq!(a.len(), 20);
        assert!(a[0] < Duration::from_millis(100));
        assert!(a.windows(2).all(|p| (p[1] - p[0]).as_secs_f64() - 0.1 < 1e-9));
        assert_eq!(
            a,
            periodic_arrivals(&mut stream_rng(7, UPDATE_ARRIVALS), 10.0, Duration::from_secs(2))
        );
    }

    #[test]
    fn whole_inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let w = workload("serve-updates").expect("known workload");
        let edges: Vec<(VertexId, VertexId)> =
            (0..200u32).flat_map(|v| [(v, (v + 1) % 200), (v, (v + 7) % 200)]).collect();
        let mirror = Mirror::new(200, &edges);
        let gen = |seed| Inputs::generate(w, seed, &mirror, Duration::from_secs(2), 1, 2, 0);
        let (a, b, c) = (gen(1), gen(1), gen(2));
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.phases, c.phases);
    }

    #[test]
    fn a_longer_horizon_appends_phases_without_changing_the_first() {
        let w = workload("serve-updates").expect("known workload");
        let edges: Vec<(VertexId, VertexId)> =
            (0..200u32).flat_map(|v| [(v, (v + 1) % 200), (v, (v + 7) % 200)]).collect();
        let mirror = Mirror::new(200, &edges);
        let one = Inputs::generate(w, 3, &mirror, Duration::from_secs(2), 1, 2, 0);
        let two = Inputs::generate(w, 3, &mirror, Duration::from_secs(2), 2, 2, 0);
        assert_eq!(one.phases[0], two.phases[0]);
        assert_eq!(one.batches[..], two.batches[..one.batches.len()]);
    }

    #[test]
    fn passes_draw_fresh_queries_and_carry_the_updates_on() {
        let w = workload("serve-updates").expect("known workload");
        let edges: Vec<(VertexId, VertexId)> =
            (0..200u32).flat_map(|v| [(v, (v + 1) % 200), (v, (v + 7) % 200)]).collect();
        let mirror = Mirror::new(200, &edges);
        let inputs = Inputs::generate(w, 3, &mirror, Duration::ZERO, 0, 2, 2);
        let per_pass = updates_per_pass(w);
        assert!(per_pass > 0);
        assert_eq!(inputs.batches.len(), 1 + 2 * per_pass);
        let updates = |ops: &[Op]| -> Vec<usize> {
            ops.iter()
                .filter_map(|op| if let Op::Update(i) = op { Some(*i) } else { None })
                .collect()
        };
        let queries = |ops: &[Op]| ops.iter().filter(|op| matches!(op, Op::Query(_))).count();
        let (first, second) = (inputs.pass_ops(w, 0, 0), inputs.pass_ops(w, 0, 1));
        assert_eq!(updates(&first), (1..=per_pass).collect::<Vec<_>>());
        assert_eq!(updates(&second), (per_pass + 1..=2 * per_pass).collect::<Vec<_>>());
        assert_eq!(queries(&first), w.pass_queries / 2);
        // Connection 1 sends queries only, fresh ones in every pass, the
        // same ones for the same seed.
        let again = Inputs::generate(w, 3, &mirror, Duration::ZERO, 0, 2, 2);
        assert_eq!(inputs.pass_ops(w, 1, 1), again.pass_ops(w, 1, 1));
        assert_ne!(inputs.pass_ops(w, 1, 0), inputs.pass_ops(w, 1, 1));
        assert!(updates(&inputs.pass_ops(w, 1, 0)).is_empty());
        // The updates are spread through the pass, not bunched at its start.
        let last = first.iter().rposition(|op| matches!(op, Op::Update(_))).expect("an update");
        assert!(last > first.len() / 2, "last update at {last} of {}", first.len());
    }

    #[test]
    fn drawn_batches_apply_in_order() {
        let edges: Vec<(VertexId, VertexId)> =
            (0..100u32).flat_map(|v| [(v, (v + 1) % 100), (v, (v + 3) % 100)]).collect();
        let start = Mirror::new(100, &edges);
        let mut future = start.clone();
        let mut rng = stream_rng(5, UPDATE_OPS);
        let batches: Vec<_> = (0..20).map(|_| future.draw_batch(&mut rng, 16, 2.0 / 3.0)).collect();
        let mut replay = start;
        for batch in &batches {
            assert_eq!(batch.len(), 16);
            assert!(batch.iter().all(|&u| replay.apply(u)), "every drawn op applies");
        }
        assert_eq!(replay.edges(), future.edges());
    }
}
