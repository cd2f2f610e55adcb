//! The load generator: open-loop senders that keep to a schedule, and
//! closed-loop senders that send as fast as answers come back. Each
//! sender owns one connection with one frame in flight.

use std::io;
use std::time::{Duration, Instant};

use sd_core::GraphFingerprint;
use sd_graph::GraphUpdate;
use sd_server::{
    Client, ClientConfig, Frame, QueryOutcome, QueryRequest, Request, Response, ServeError,
    UpdateRequest, WireQuery,
};

use crate::gen::{Op, Scheduled};
use crate::trace::Trace;

/// Why an operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    Io,
    Rejected,
    Overloaded,
    Expired,
    /// A malformed or wrong-kind response, or an answer the oracle
    /// refuted.
    Wrong,
}

/// What came back for one operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    Answered { epoch: u64, query: WireQuery, scores: u64 },
    Updated { batch: usize, epoch: u64, applied: u64, rejected: u64 },
    Failed(Failure),
}

/// One operation as the sender saw it; times are offsets from the start
/// of its phase.
#[derive(Clone, Debug)]
pub struct Record {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub outcome: Outcome,
    pub response_bytes: usize,
}

impl Record {
    /// Latency as a user sees it: from when the operation was due, so a
    /// stall also delays every request queued behind it.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How far behind schedule the sender ran.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }

    /// Round trip from send to answer.
    pub fn round_trip(&self) -> Duration {
        self.done.saturating_sub(self.sent)
    }
}

/// FNV-1a over a score list: what an answer is compared by.
pub fn hash_scores(scores: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut len = 0u64;
    for s in scores {
        len += 1;
        for b in s.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h ^ len
}

/// Time as the senders see it, so tests can run without sleeping.
pub trait Clock {
    /// Offset from the start of the phase.
    fn now(&self) -> Duration;
    fn sleep_until(&mut self, due: Duration);
}

/// Wall-clock time from a phase start.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&mut self, due: Duration) {
        let now = self.now();
        if due > now {
            std::thread::sleep(due - now);
        }
    }
}

/// One connection's request/response exchange.
pub trait Exchange {
    fn send(&mut self, op: &Op) -> io::Result<()>;
    fn recv(&mut self) -> Result<Frame, ServeError>;
}

/// An `sd-wire` connection to one tenant.
pub struct WireConn<'a> {
    client: Client,
    key: GraphFingerprint,
    deadline_ms: u32,
    batches: &'a [Vec<GraphUpdate>],
}

impl<'a> WireConn<'a> {
    pub fn connect(
        addr: std::net::SocketAddr,
        key: GraphFingerprint,
        deadline_ms: u32,
        batches: &'a [Vec<GraphUpdate>],
    ) -> io::Result<WireConn<'a>> {
        let config = ClientConfig {
            connect_timeout: Some(Duration::from_secs(10)),
            io_timeout: Some(Duration::from_secs(60)),
            retries: 0,
        };
        Ok(WireConn { client: Client::connect_with(addr, config)?, key, deadline_ms, batches })
    }
}

/// The frame that carries `op`.
pub fn encode_op(
    op: &Op,
    key: GraphFingerprint,
    deadline_ms: u32,
    batches: &[Vec<GraphUpdate>],
) -> Frame {
    let request = match *op {
        Op::Query(q) => Request::Query(QueryRequest { deadline_ms, queries: vec![q] }),
        Op::Update(i) => Request::Update(UpdateRequest { updates: batches[i].clone() }),
    };
    request.to_frame(key)
}

impl Exchange for WireConn<'_> {
    fn send(&mut self, op: &Op) -> io::Result<()> {
        let frame = encode_op(op, self.key, self.deadline_ms, self.batches);
        self.client.send_bytes(frame.encode().as_ref())
    }

    fn recv(&mut self) -> Result<Frame, ServeError> {
        self.client.read_frame()
    }
}

/// What `frame` says about `op`.
pub fn interpret(op: &Op, frame: &Frame) -> Outcome {
    let response = match Response::from_frame(frame) {
        Ok(response) => response,
        Err(_) => return Outcome::Failed(Failure::Wrong),
    };
    match (op, response) {
        (Op::Query(query), Response::Query(resp)) => match resp.outcomes.as_slice() {
            [QueryOutcome::Answered(entries)] => Outcome::Answered {
                epoch: resp.epoch,
                query: *query,
                scores: hash_scores(entries.iter().map(|e| e.score)),
            },
            [QueryOutcome::Expired] => Outcome::Failed(Failure::Expired),
            [QueryOutcome::Failed { .. }] => Outcome::Failed(Failure::Rejected),
            _ => Outcome::Failed(Failure::Wrong),
        },
        (Op::Update(batch), Response::Update(u)) => Outcome::Updated {
            batch: *batch,
            epoch: u.epoch,
            applied: u.applied,
            rejected: u.rejected,
        },
        (_, Response::Overloaded(_)) => Outcome::Failed(Failure::Overloaded),
        (_, Response::Error(_)) => Outcome::Failed(Failure::Rejected),
        _ => Outcome::Failed(Failure::Wrong),
    }
}

/// Sends one operation and waits for its answer.
fn exchange_one(x: &mut impl Exchange, op: &Op) -> Result<Frame, Failure> {
    x.send(op).map_err(|_| Failure::Io)?;
    x.recv().map_err(|e| match e {
        ServeError::Wire(_) => Failure::Wrong,
        _ => Failure::Io,
    })
}

/// Sends one operation and returns what came back.
pub fn exchange(x: &mut impl Exchange, op: &Op) -> Outcome {
    settle(op, exchange_one(x, op)).0
}

/// The outcome of one exchange and the size of its response frame.
fn settle(op: &Op, reply: Result<Frame, Failure>) -> (Outcome, usize) {
    match reply {
        Ok(frame) => (interpret(op, &frame), sd_server::FRAME_HEADER_BYTES + frame.payload.len()),
        Err(failure) => (Outcome::Failed(failure), 0),
    }
}

/// Runs `schedule` open-loop: each operation is sent at its due time, or
/// as soon as the previous answer is in when the sender is behind. With
/// tracing on, records `request` → `loadgen.wait`, `client.query` spans
/// per operation, numbered from `first_request`; `phase_offset` places
/// the phase on the trace's time axis.
pub fn open_loop(
    schedule: &[Scheduled],
    clock: &mut impl Clock,
    x: &mut impl Exchange,
    trace: &mut Trace,
    phase_offset: Duration,
    first_request: u64,
) -> Vec<Record> {
    let mut records = Vec::with_capacity(schedule.len());
    for (i, s) in schedule.iter().enumerate() {
        clock.sleep_until(s.due);
        let sent = clock.now();
        let reply = exchange_one(x, &s.op);
        let done = clock.now();
        let (outcome, response_bytes) = settle(&s.op, reply);
        if trace.enabled() {
            let id = Some(first_request + i as u64);
            let at = |d: Duration| phase_offset + d;
            let root = trace.record("request", None, at(s.due), at(done), id);
            trace.record("loadgen.wait", root, at(s.due), at(sent), id);
            trace.record("client.query", root, at(sent), at(done), id);
        }
        records.push(Record { due: s.due, sent, done, outcome, response_bytes });
    }
    records
}

/// Sends `specs`, each as soon as the previous answer is in, until they
/// run out or `until` passes. Returns each outcome with the time, from
/// `start`, at which it came back.
pub fn closed_loop<'a>(
    specs: impl Iterator<Item = &'a WireQuery>,
    start: Instant,
    until: Instant,
    x: &mut impl Exchange,
) -> Vec<(Duration, Outcome)> {
    let mut outcomes = Vec::new();
    for spec in specs {
        if Instant::now() >= until {
            break;
        }
        let op = Op::Query(*spec);
        let outcome = exchange(x, &op);
        outcomes.push((start.elapsed(), outcome));
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use bytes::Bytes;
    use sd_core::TopREntry;
    use sd_server::QueryResponse;

    use super::*;

    /// A clock that only moves when the fake server works or the sender
    /// sleeps.
    struct FakeClock(Rc<Cell<Duration>>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&mut self, due: Duration) {
            self.0.set(self.0.get().max(due));
        }
    }

    /// A server that takes `service[i]` to answer request `i`.
    struct FakeServer {
        now: Rc<Cell<Duration>>,
        service: Vec<Duration>,
        served: usize,
    }

    impl Exchange for FakeServer {
        fn send(&mut self, _: &Op) -> io::Result<()> {
            Ok(())
        }

        fn recv(&mut self) -> Result<Frame, ServeError> {
            self.now.set(self.now.get() + self.service[self.served]);
            self.served += 1;
            let entry = TopREntry { vertex: 0, score: 2, contexts: vec![vec![1], vec![2]] };
            let response = Response::Query(QueryResponse {
                epoch: 0,
                outcomes: vec![QueryOutcome::Answered(vec![entry])],
            });
            Ok(response.to_frame(GraphFingerprint { n: 1, m: 0, edge_checksum: 0 }))
        }
    }

    #[test]
    fn latency_runs_from_due_time_so_a_stall_delays_the_next_request() {
        let now = Rc::new(Cell::new(Duration::ZERO));
        let ms = Duration::from_millis;
        let mut server =
            FakeServer { now: Rc::clone(&now), service: vec![ms(50), ms(1), ms(1)], served: 0 };
        let q = Op::Query(WireQuery::new(3, 1));
        let schedule = [
            Scheduled { due: ms(0), op: q },
            Scheduled { due: ms(10), op: q },
            Scheduled { due: ms(100), op: q },
        ];
        let mut trace = Trace::new(Instant::now(), true);
        let records =
            open_loop(&schedule, &mut FakeClock(now), &mut server, &mut trace, Duration::ZERO, 0);

        assert_eq!(records[0].latency(), ms(50));
        // Due at 10 ms, sent only when the stalled answer arrived at 50 ms:
        // its latency counts the 40 ms it waited, not just its 1 ms trip.
        assert_eq!(records[1].late(), ms(40));
        assert_eq!(records[1].round_trip(), ms(1));
        assert_eq!(records[1].latency(), ms(41));
        // The sender caught up before the third request was due.
        assert_eq!(records[2].late(), Duration::ZERO);
        assert_eq!(records[2].latency(), ms(1));
        assert!(
            matches!(records[1].outcome, Outcome::Answered { scores, .. } if scores == hash_scores([2]))
        );

        // request → loadgen.wait, client.query per operation.
        let spans = trace.spans();
        assert_eq!(spans.len(), 9);
        assert_eq!((spans[3].name.as_str(), spans[3].end - spans[3].start), ("request", ms(41)));
        assert_eq!(
            (spans[4].name.as_str(), spans[4].end - spans[4].start),
            ("loadgen.wait", ms(40))
        );
        assert_eq!(spans[5].parent, Some(3));
        assert_eq!(spans[5].request, Some(1));
    }

    #[test]
    fn failures_are_typed() {
        let key = GraphFingerprint { n: 1, m: 0, edge_checksum: 0 };
        let q = Op::Query(WireQuery::new(3, 1));
        let expired =
            Response::Query(QueryResponse { epoch: 0, outcomes: vec![QueryOutcome::Expired] });
        assert_eq!(interpret(&q, &expired.to_frame(key)), Outcome::Failed(Failure::Expired));
        let garbage = Frame::new(sd_server::Verb::QueryOk, key, Bytes::from_static(b"x"));
        assert_eq!(interpret(&q, &garbage), Outcome::Failed(Failure::Wrong));
        let update = Op::Update(0);
        let wrong_kind = Response::Query(QueryResponse { epoch: 0, outcomes: vec![] });
        assert_eq!(interpret(&update, &wrong_kind.to_frame(key)), Outcome::Failed(Failure::Wrong));
    }
}
