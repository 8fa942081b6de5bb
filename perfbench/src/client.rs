//! The benchmark's load generator: one connection, a sender and a reader.
//!
//! Open loop: requests are due on a seeded Poisson schedule and latency is
//! counted from the due time, so a stalled sender or server is charged to
//! every request it delays. Closed loop: a fixed window of requests stays in
//! flight, which is how the peak phase fills 64-query waves.
//!
//! Every request sent resolves exactly once — ok, rejected, timeout or
//! error — or is counted unresolved when the grace period ends; a second
//! reply for one tag or a reply to an unknown tag breaks the accounting.

use crate::stats;
use mcbfs_query::Query;
use mcbfs_serve::wire::{self, Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which phase a request belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Fills caches and lazy state; checked, not timed.
    Warmup,
    /// Open loop at the workload's fixed rate.
    Fixed,
    /// Closed loop with the full window in flight.
    Peak,
}

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Rejected,
    Timeout,
    Error,
}

/// The answer carried by an `ok` reply, reduced to what the oracle needs.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Distance(Option<u32>),
    /// Hash of the depth array.
    Depths(u64),
    /// A BFS tree: its depth array and parent array.
    Tree {
        depths: Vec<u32>,
        parents: Vec<u32>,
    },
    /// The reply does not fit its query's kind.
    Malformed,
}

/// Server-reported fields of an `ok` reply plus client-side costs.
#[derive(Clone, Debug)]
pub struct Reply {
    pub wave_queries: u64,
    pub queue_ms: f64,
    pub service_ms: f64,
    pub latency_ms: f64,
    pub decode: Duration,
    pub answer: Answer,
}

/// One request sent.
#[derive(Clone, Debug)]
pub struct Record {
    pub query: Query,
    pub phase: Phase,
    /// When it was due (open loop) or allowed by the window (closed loop).
    pub due: Instant,
    pub sent: Instant,
    /// When its reply had been read and decoded.
    pub done: Option<Instant>,
    pub status: Option<Status>,
    pub reply: Option<Reply>,
}

impl Record {
    /// Client latency from the due time, for resolved requests.
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| stats::due_latency(self.due, d))
    }
}

/// Everything one connection saw.
#[derive(Default)]
pub struct Outcome {
    pub records: Vec<Record>,
    /// Replies that named no request in flight (unknown or repeated tags).
    pub stray: u64,
    /// Wall time of the peak phase, start to last reply.
    pub peak_wall: Duration,
}

impl Outcome {
    /// Requests never answered.
    pub fn unresolved(&self) -> u64 {
        self.records.iter().filter(|r| r.status.is_none()).count() as u64
    }

    /// Requests that ended with `status`.
    pub fn count(&self, status: Status) -> u64 {
        self.records
            .iter()
            .filter(|r| r.status == Some(status))
            .count() as u64
    }
}

/// Requests the sender issues, phase by phase.
pub enum Step<'a> {
    /// Closed loop: send these queries, `window` at a time.
    Window {
        phase: Phase,
        window: usize,
        queries: Vec<Query>,
    },
    /// Open loop: each query due at its offset from the phase start.
    Schedule { due: Vec<(Duration, Query)> },
    /// Closed loop for `span`, drawing queries from `next`.
    Timed {
        window: usize,
        span: Duration,
        next: Box<dyn FnMut() -> Query + Send + 'a>,
    },
}

struct Shared {
    records: Mutex<Vec<Record>>,
    in_flight: Mutex<usize>,
    idle: Condvar,
    stray: Mutex<u64>,
}

impl Shared {
    fn wait_window(&self, window: usize, until: Option<Instant>) -> bool {
        let mut n = self.in_flight.lock().expect("in-flight lock");
        while *n >= window {
            let wait = match until {
                Some(t) => t.saturating_duration_since(Instant::now()),
                None => Duration::from_secs(3600),
            };
            if wait.is_zero() {
                return false;
            }
            n = self.idle.wait_timeout(n, wait).expect("in-flight lock").0;
        }
        true
    }

    /// Waits until nothing is in flight or `grace` passes.
    fn drain(&self, grace: Duration) {
        let until = Instant::now() + grace;
        let mut n = self.in_flight.lock().expect("in-flight lock");
        while *n > 0 {
            let wait = until.saturating_duration_since(Instant::now());
            if wait.is_zero() {
                return;
            }
            n = self.idle.wait_timeout(n, wait).expect("in-flight lock").0;
        }
    }
}

/// Runs `steps` over one connection to `addr` and returns every record.
/// Each step waits (up to `grace`) for its requests before the next one.
pub fn run(addr: SocketAddr, steps: Vec<Step<'_>>, grace: Duration) -> std::io::Result<Outcome> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    let shared = Shared {
        records: Mutex::new(Vec::new()),
        in_flight: Mutex::new(0),
        idle: Condvar::new(),
        stray: Mutex::new(0),
    };
    let mut peak_wall = Duration::ZERO;
    std::thread::scope(|scope| -> std::io::Result<()> {
        let read = scope.spawn(|| read_replies(reader, &shared));
        let mut writer = &stream;
        let mut send = |phase: Phase, due: Instant, query: Query| -> std::io::Result<()> {
            let sent = Instant::now();
            let tag = {
                let mut records = shared.records.lock().expect("records lock");
                records.push(Record {
                    query,
                    phase,
                    due,
                    sent,
                    done: None,
                    status: None,
                    reply: None,
                });
                records.len() as u64 - 1
            };
            *shared.in_flight.lock().expect("in-flight lock") += 1;
            let line = wire::encode(&Request::Query {
                tag,
                query,
                deadline_ms: None,
            });
            writer.write_all(line.as_bytes())
        };
        let mut result = Ok(());
        for step in steps {
            let sent = match step {
                Step::Window {
                    phase,
                    window,
                    queries,
                } => queries.into_iter().try_for_each(|q| {
                    shared.wait_window(window, None);
                    send(phase, Instant::now(), q)
                }),
                Step::Schedule { due } => {
                    let t0 = Instant::now();
                    due.into_iter().try_for_each(|(offset, q)| {
                        let at = t0 + offset;
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                        send(Phase::Fixed, at, q)
                    })
                }
                Step::Timed {
                    window,
                    span,
                    mut next,
                } => {
                    let t0 = Instant::now();
                    let end = t0 + span;
                    let mut out = Ok(());
                    while out.is_ok() && shared.wait_window(window, Some(end)) {
                        out = send(Phase::Peak, Instant::now(), next());
                    }
                    shared.drain(grace);
                    peak_wall = t0.elapsed();
                    out
                }
            };
            shared.drain(grace);
            if sent.is_err() {
                result = sent;
                break;
            }
        }
        // Unblocks the reader whether or not everything was answered.
        let _ = stream.shutdown(Shutdown::Both);
        read.join().expect("reply reader panicked");
        result
    })?;
    Ok(Outcome {
        records: shared.records.into_inner().expect("records lock"),
        stray: shared.stray.into_inner().expect("stray lock"),
        peak_wall,
    })
}

fn read_replies(stream: TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let decode_start = Instant::now();
        let response = wire::decode::<Response>(&line);
        let done = Instant::now();
        let (tag, status, reply) = match response {
            Ok(Response::Ok(r)) => {
                let answer = answer_of(&r);
                let reply = Reply {
                    wave_queries: r.wave_queries,
                    queue_ms: r.queue_ms,
                    service_ms: r.service_ms,
                    latency_ms: r.latency_ms,
                    decode: done - decode_start,
                    answer,
                };
                (Some(r.tag), Status::Ok, Some(reply))
            }
            Ok(Response::Rejected { tag, .. }) => (Some(tag), Status::Rejected, None),
            Ok(Response::Timeout { tag, .. }) => (Some(tag), Status::Timeout, None),
            Ok(Response::Error { tag, .. }) => (tag, Status::Error, None),
            Ok(Response::Pong { .. } | Response::Stats { .. }) | Err(_) => {
                (None, Status::Error, None)
            }
        };
        let resolved = tag.is_some_and(|tag| {
            let mut records = shared.records.lock().expect("records lock");
            match records.get_mut(tag as usize) {
                Some(rec) if rec.status.is_none() => {
                    rec.status = Some(status);
                    rec.done = Some(done);
                    rec.reply = reply;
                    true
                }
                _ => false,
            }
        });
        if resolved {
            *shared.in_flight.lock().expect("in-flight lock") -= 1;
            shared.idle.notify_all();
        } else {
            *shared.stray.lock().expect("stray lock") += 1;
        }
    }
}

fn answer_of(r: &mcbfs_serve::QueryReply) -> Answer {
    match (r.kind.as_str(), &r.depths, &r.parents) {
        ("stcon", None, None) => Answer::Distance(r.distance),
        ("distances", Some(d), None) => Answer::Depths(hash_u32s(d)),
        ("parents", Some(d), Some(p)) => Answer::Tree {
            depths: d.clone(),
            parents: p.clone(),
        },
        _ => Answer::Malformed,
    }
}

/// FNV-1a over the little-endian bytes of `xs`.
pub fn hash_u32s(xs: &[u32]) -> u64 {
    xs.iter()
        .flat_map(|x| x.to_le_bytes())
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
        })
}
