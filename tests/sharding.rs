//! Acceptance tests for sharded serving (ISSUE 10), against **real
//! processes**: `mcbfs shard` workers, an `mcbfs router`, and a
//! single-process `mcbfs serve` reference, all spawned from the built
//! binary.
//!
//! Pillars:
//!
//! 1. **End-to-end parity.** A live router over 4 shard workers answers
//!    the full query kind set identically to single-process
//!    `mcbfs-serve` — byte-equal depths/distances/reachability/edge
//!    counts, parents validated as a BFS tree with matching implied
//!    depths (modulo tags and timing fields, which are wall-clock).
//! 2. **Version negotiation.** A frame with the wrong `v` gets a
//!    structured `error: version` reply with its exact tag echoed, and
//!    the connection keeps serving well-versioned frames.
//! 3. **Stats merge.** The router's `stats` reply carries the merged
//!    cluster view: global vertex/edge counts from the workers, client
//!    counters from the router.
//! 4. **Exchange accounting.** The router's `--stats-json` exchange
//!    ledger matches the in-process `ShardedEngine` replay of the same
//!    wave sequence byte-for-byte.
//! 5. **Drain.** SIGINT stops router and workers cleanly, with their
//!    drain banners printed.
//! 6. **Worker death.** After a worker is SIGKILLed, every query resolves
//!    as `error` or `timeout` within its deadline, `ping` still answers,
//!    and the router still drains cleanly.

use multicore_bfs::gen::prelude::*;
use multicore_bfs::graph::csr::CsrGraph;
use multicore_bfs::graph::validate::{depths_from_parents, validate_bfs_tree};
use multicore_bfs::graph::{io, reorder::Reorder};
use multicore_bfs::query::Query;
use multicore_bfs::serve::wire::{self, QueryReply, Request, Response};
use multicore_bfs::shard::ShardedEngine;
use serde::Value;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mcbfs")
}

/// A spawned `mcbfs` child whose stdout we own. Killed on drop so a
/// failing assertion never leaks listeners.
struct Proc {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Proc {
    /// Spawns `mcbfs <args>` and blocks until it prints its
    /// `listening on ADDR` banner; returns the bound address.
    fn spawn_listening(args: &[&str]) -> (Proc, String) {
        let mut child = Command::new(bin())
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn mcbfs");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("child stdout");
            assert!(n > 0, "child exited before listening: mcbfs {args:?}");
            if let Some(pos) = line.find("listening on ") {
                let rest = &line[pos + "listening on ".len()..];
                let token = rest.split_whitespace().next().expect("address token");
                break token.trim_end_matches(':').to_string();
            }
        };
        (Proc { child, stdout }, addr)
    }

    /// SIGINT, wait for a clean exit, and return the remaining stdout
    /// (the drain banner lives there).
    fn sigint_and_wait(&mut self) -> String {
        Command::new("kill")
            .args(["-INT", &self.child.id().to_string()])
            .status()
            .expect("kill -INT");
        let status = self.child.wait().expect("child exits");
        assert!(status.success(), "child exited with {status:?}");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("drain stdout");
        rest
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One wire-v1 client connection with synchronous round-trips.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send_raw(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("send");
        self.writer.flush().expect("flush");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).expect("recv");
            assert!(n > 0, "server closed the connection");
            if !line.trim().is_empty() {
                break;
            }
        }
        wire::decode(&line).expect("well-formed response")
    }

    fn roundtrip(&mut self, request: &Request) -> Response {
        self.send_raw(&wire::encode(request));
        self.recv()
    }

    fn query(&mut self, tag: u64, query: Query) -> QueryReply {
        match self.roundtrip(&Request::Query {
            tag,
            query,
            deadline_ms: None,
        }) {
            Response::Ok(reply) => reply,
            other => panic!("expected an answer, got {other:?}"),
        }
    }
}

/// The full query kind set driven through both serving topologies.
fn query_set() -> Vec<Query> {
    vec![
        Query::Parents { root: 0 },
        Query::Distances { root: 3 },
        Query::StCon { s: 1, t: 999 },
        Query::Reachable { from: 2, to: 512 },
        Query::Parents { root: 77 },
        Query::Distances { root: 1000 },
    ]
}

fn test_graph() -> CsrGraph {
    RmatBuilder::new(10, 8).seed(7).build()
}

/// Walks the router's `--stats-json` exchange ledger.
fn exchange_totals(exchange: &Value) -> (u64, u64, u64) {
    let Some(Value::Array(levels)) = exchange.get("levels") else {
        panic!("exchange.levels missing: {exchange:?}");
    };
    let field = |level: &Value, key: &str| -> u64 {
        match level.get(key) {
            Some(Value::U64(x)) => *x,
            other => panic!("bad exchange field {key}: {other:?}"),
        }
    };
    levels.iter().fold((0, 0, 0), |(f, b, i), level| {
        (
            f + field(level, "frames"),
            b + field(level, "bytes"),
            i + field(level, "items"),
        )
    })
}

/// Writes the test graph into `dir`, cuts it into `shards` shard files
/// with `mcbfs partition`, and starts one worker per shard. Returns the
/// graph file, the workers and their addresses.
fn start_workers(dir: &Path, shards: usize) -> (PathBuf, Vec<Proc>, Vec<String>) {
    std::fs::create_dir_all(dir).expect("temp dir");
    let graph_path = dir.join("g.csr");
    {
        let f = File::create(&graph_path).expect("create graph file");
        io::write_csr_tagged(&mut BufWriter::new(f), &test_graph(), Reorder::None)
            .expect("serialize graph");
    }
    let graph_str = graph_path.to_str().expect("utf8 path");
    let shards_arg = shards.to_string();
    let status = Command::new(bin())
        .args(["partition", "--graph", graph_str, "--shards", &shards_arg])
        .stdout(Stdio::null())
        .status()
        .expect("run partition");
    assert!(status.success(), "partition failed");
    let (workers, addrs) = (0..shards)
        .map(|i| {
            let shard_path = dir.join(format!("g.shard{i}of{shards}.csr"));
            Proc::spawn_listening(&[
                "shard",
                "--shard",
                shard_path.to_str().expect("utf8 path"),
                "--addr",
                "127.0.0.1:0",
            ])
        })
        .unzip();
    (graph_path, workers, addrs)
}

#[test]
fn router_over_four_shards_matches_single_process_serve() {
    let dir = std::env::temp_dir().join(format!("mcbfs-sharding-{}", std::process::id()));
    let graph = test_graph();
    // Satellite 1: the partition subcommand cuts the shard files.
    let (graph_path, workers, worker_addrs) = start_workers(&dir, 4);
    let graph_str = graph_path.to_str().expect("utf8 path");

    // The router over the 4 workers, then the reference server.
    let stats_json = dir.join("router.json");
    let (mut router, router_addr) = Proc::spawn_listening(&[
        "router",
        "--workers",
        &worker_addrs.join(","),
        "--addr",
        "127.0.0.1:0",
        "--max-batch",
        "8",
        "--stats-json",
        stats_json.to_str().expect("utf8 path"),
    ]);
    let (mut reference, reference_addr) = Proc::spawn_listening(&[
        "serve",
        "--graph",
        graph_str,
        "--addr",
        "127.0.0.1:0",
        "--max-batch",
        "8",
    ]);

    // Pillar 1: full-kind-set parity, one synchronous round-trip per
    // query so both topologies see the identical wave sequence.
    let mut via_router = Client::connect(&router_addr);
    let mut via_serve = Client::connect(&reference_addr);
    for (tag, query) in query_set().into_iter().enumerate() {
        let a = via_serve.query(tag as u64, query);
        let b = via_router.query(tag as u64, query);
        assert_eq!(a.tag, b.tag);
        assert_eq!(a.kind, b.kind, "query {tag}");
        assert_eq!(a.edges, b.edges, "query {tag}");
        assert_eq!(a.distance, b.distance, "query {tag}");
        assert_eq!(a.reachable, b.reachable, "query {tag}");
        assert_eq!(a.depths, b.depths, "query {tag}");
        assert_eq!(a.wave_queries, b.wave_queries, "query {tag}");
        if let Query::Parents { root } = query {
            for (name, reply) in [("serve", &a), ("router", &b)] {
                let parents = reply.parents.as_ref().expect("parents recorded");
                validate_bfs_tree(&graph, root, parents)
                    .unwrap_or_else(|e| panic!("{name} returned an invalid tree: {e}"));
                assert_eq!(
                    &depths_from_parents(parents),
                    reply.depths.as_ref().expect("depths recorded"),
                    "{name} tree disagrees with its depths"
                );
            }
        }
    }

    // Pillar 2: version negotiation on the live router connection.
    via_router.send_raw("{\"v\":2,\"cmd\":\"ping\",\"tag\":9}\n");
    match via_router.recv() {
        Response::Error { tag, error } => {
            assert_eq!(tag, Some(9), "version error echoes the exact tag");
            assert!(error.contains("version"), "unexpected error text: {error}");
        }
        other => panic!("expected a version error, got {other:?}"),
    }
    match via_router.roundtrip(&Request::Ping { tag: 10 }) {
        Response::Pong { tag } => assert_eq!(tag, 10),
        other => panic!("connection should survive a version error, got {other:?}"),
    }

    // Pillar 3: the router's stats are the merged cluster view.
    match via_router.roundtrip(&Request::Stats { tag: 11 }) {
        Response::Stats { tag, stats } => {
            assert_eq!(tag, 11);
            assert_eq!(stats.vertices, graph.num_vertices() as u64);
            assert_eq!(stats.edges, graph.num_edges() as u64);
            assert!(stats.served >= query_set().len() as u64);
            assert!(stats.waves >= 1);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    drop(via_router);
    drop(via_serve);

    // Pillar 5: SIGINT drains everything with the banner printed.
    let rest = router.sigint_and_wait();
    assert!(
        rest.contains("drained and stopped"),
        "router drain banner missing: {rest}"
    );
    let rest = reference.sigint_and_wait();
    assert!(rest.contains("drained and stopped"));
    for mut worker in workers {
        let rest = worker.sigint_and_wait();
        assert!(
            rest.contains("drained and stopped"),
            "worker drain banner missing: {rest}"
        );
    }

    // Pillar 4: the live exchange ledger equals the in-process replay —
    // same wave sequence (each query was its own wave), same shard
    // count, so the swire frames must be byte-identical.
    let json = std::fs::read_to_string(&stats_json).expect("router stats json");
    let value: Value = serde_json::from_str(&json).expect("parse stats json");
    let live = exchange_totals(value.get("exchange").expect("exchange ledger"));
    let engine = ShardedEngine::new(&graph, 4).max_batch(1);
    engine.execute(&query_set());
    let replay = engine.exchange_log();
    assert_eq!(
        live,
        (
            replay.total_frames(),
            replay.total_bytes(),
            replay.total_items()
        ),
        "live exchange ledger diverges from the in-process replay"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dead_worker_fails_queries_fast_and_the_router_keeps_serving() {
    let dir = std::env::temp_dir().join(format!("mcbfs-sharding-kill-{}", std::process::id()));
    let (_, mut workers, worker_addrs) = start_workers(&dir, 2);
    let (mut router, router_addr) = Proc::spawn_listening(&[
        "router",
        "--workers",
        &worker_addrs.join(","),
        "--addr",
        "127.0.0.1:0",
    ]);
    let mut client = Client::connect(&router_addr);
    client.query(0, Query::Distances { root: 0 });

    workers[1].child.kill().expect("SIGKILL worker 1");
    workers[1].child.wait().expect("reap worker 1");
    // Every query resolves within its deadline plus slack; a reply that
    // never comes fails the read instead of hanging the test.
    let deadline_ms = 1000.0;
    let limit = Duration::from_secs_f64(deadline_ms / 1e3) + Duration::from_secs(2);
    client
        .reader
        .get_ref()
        .set_read_timeout(Some(limit))
        .expect("read timeout");
    for tag in 1..=3u64 {
        let sent = Instant::now();
        let reply = client.roundtrip(&Request::Query {
            tag,
            query: Query::Distances { root: tag as u32 },
            deadline_ms: Some(deadline_ms),
        });
        assert!(
            sent.elapsed() <= limit,
            "query {tag} took {:?}",
            sent.elapsed()
        );
        match reply {
            Response::Error { tag: Some(t), .. } | Response::Timeout { tag: t, .. } => {
                assert_eq!(t, tag)
            }
            other => panic!("expected error or timeout after a worker died, got {other:?}"),
        }
    }
    assert_eq!(
        client.roundtrip(&Request::Ping { tag: 9 }),
        Response::Pong { tag: 9 }
    );
    drop(client);

    assert!(router.sigint_and_wait().contains("drained and stopped"));
    assert!(workers[0].sigint_and_wait().contains("drained and stopped"));
    std::fs::remove_dir_all(&dir).ok();
}
