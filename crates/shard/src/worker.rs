//! The shard worker process: one owned vertex range, served over swire.
//!
//! A worker binds a TCP listener, accepts its router (one connection at a
//! time — a router that restarts simply reconnects), and then runs a
//! frame-driven state machine: `hello` → `meta`, `wave_start` → scan →
//! `exchange` up, `merged` → apply/advance/scan → `exchange` up,
//! `wave_finish` → `wave_result`, `stats` → `stats_reply`. The worker
//! never initiates: every frame it sends answers a router frame, which
//! keeps the protocol lock-step and deadlock-free over a single duplex
//! stream.
//!
//! Shutdown mirrors the serving front: a [`ShutdownHandle`] (or SIGINT
//! via `mcbfs_serve::arm_sigint`) is polled between frames; the worker
//! finishes the frame in hand, closes, and returns its final stats part.

use crate::swire::{self, ShardFrame, ShardMeta};
use crate::wave::ShardWave;
use mcbfs_graph::shard::CsrShard;
use mcbfs_serve::frame::{self, FrameReader};
use mcbfs_serve::{ServerStats, ShutdownHandle};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Runs a shard worker until `shutdown` is requested. `on_ready` fires
/// once with the bound address (port 0 picks a free port). Returns the
/// worker's final [`ServerStats`] part: it owns its shard's graph shape
/// and its accepted-connection count; every client-facing counter is zero
/// because clients never talk to workers (see [`ServerStats::merge`]).
pub fn run_worker<F: FnOnce(SocketAddr)>(
    shard: &CsrShard,
    addr: &str,
    shutdown: &ShutdownHandle,
    on_ready: F,
) -> std::io::Result<ServerStats> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    on_ready(bound);
    let started = Instant::now();
    let mut connections = 0u64;
    while !shutdown.requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                connections += 1;
                serve_router(shard, stream, shutdown, started, connections);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    Ok(stats_part(shard, started, connections))
}

/// The worker's [`ServerStats`] contribution.
fn stats_part(shard: &CsrShard, started: Instant, connections: u64) -> ServerStats {
    ServerStats {
        vertices: shard.owned_len() as u64,
        edges: shard.local_edges() as u64,
        uptime_seconds: started.elapsed().as_secs_f64(),
        connections,
        admitted: 0,
        served: 0,
        shed: 0,
        timeouts: 0,
        errors: 0,
        protocol_errors: 0,
        in_flight: 0,
        waves: 0,
        served_edges: 0,
        aggregate_teps: 0.0,
        p50_latency_ms: 0.0,
        p99_latency_ms: 0.0,
        p999_latency_ms: 0.0,
    }
}

fn send(stream: &mut TcpStream, frame: &ShardFrame) -> std::io::Result<()> {
    stream.write_all(swire::encode(frame).as_bytes())?;
    stream.flush()
}

/// One router connection's frame loop.
fn serve_router(
    shard: &CsrShard,
    stream: TcpStream,
    shutdown: &ShutdownHandle,
    started: Instant,
    connections: u64,
) {
    stream.set_nodelay(true).ok();
    // The periodic timeout is the drain poll: the worker must notice
    // shutdown without a frame arriving.
    if stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return;
    }
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // The router is a trusted peer: no line limit.
    let mut reader = FrameReader::new(stream, usize::MAX);
    let mut wave: Option<ShardWave> = None;
    while !shutdown.requested() {
        let line = match reader.next_line() {
            Ok(Some(line)) => line,
            Err(e) if frame::timed_out(&e) => continue,
            Ok(None) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let frame = match swire::decode(line) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("shard {}: bad router frame: {e}", shard.index());
                return;
            }
        };
        let reply = match frame {
            ShardFrame::Hello => Some(ShardFrame::Meta(ShardMeta {
                n: shard.num_vertices() as u64,
                shards: shard.shards() as u64,
                index: shard.index() as u64,
                owned_start: shard.owned_range().start as u64,
                owned_end: shard.owned_range().end as u64,
                local_edges: shard.local_edges() as u64,
                cut_edges: shard.cut_edges() as u64,
            })),
            ShardFrame::WaveStart {
                wave: id,
                sources,
                record_parents,
            } => {
                let mut w = ShardWave::new(shard, &sources, record_parents);
                let out = w.scan();
                let reply = exchange_frame(id, w.level() as u64, &out);
                wave = Some(w);
                Some(reply)
            }
            ShardFrame::Merged {
                wave: id, items, ..
            } => match &mut wave {
                Some(w) => {
                    w.apply(&items);
                    w.advance();
                    let out = w.scan();
                    Some(exchange_frame(id, w.level() as u64, &out))
                }
                None => {
                    eprintln!("shard {}: merged frame outside a wave", shard.index());
                    return;
                }
            },
            ShardFrame::WaveFinish { wave: id } => match wave.take() {
                Some(w) => {
                    let out = w.finish();
                    Some(ShardFrame::WaveResult {
                        wave: id,
                        depths: out.depths,
                        parents: out.parents,
                        slot_edges: out.slot_edges,
                        levels: out.levels,
                    })
                }
                None => {
                    eprintln!("shard {}: wave_finish outside a wave", shard.index());
                    return;
                }
            },
            ShardFrame::Stats => Some(ShardFrame::StatsReply {
                stats: stats_part(shard, started, connections),
            }),
            other => {
                eprintln!(
                    "shard {}: unexpected frame from router: {other:?}",
                    shard.index()
                );
                return;
            }
        };
        if let Some(reply) = reply {
            if send(&mut writer, &reply).is_err() {
                return;
            }
        }
    }
}

/// Builds the upward shard-exchange frame for one scan — through the same
/// bucket shaping as the in-process engine, so live and simulated frames
/// are byte-identical.
fn exchange_frame(wave: u64, level: u64, out: &crate::wave::ScanOutput) -> ShardFrame {
    ShardFrame::Exchange {
        wave,
        level,
        buckets: crate::engine::wire_buckets(&out.buckets),
        local_next: out.local_next,
        edges_scanned: out.edges_scanned,
    }
}
