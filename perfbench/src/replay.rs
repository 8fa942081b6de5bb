//! Traced replay of one wave, layer by layer, for the per-layer metrics.
//!
//! The wave is re-run through each layer's public calls in the order the
//! serving path takes them: `ms_bfs_raw` and `RawMsBfs::finish` on their
//! own, then, under one root span, `QueryEngine::execute_wave`,
//! `wire::encode` of every reply, a loopback socket write and read, and
//! `wire::decode`. The children's self times plus the root's own
//! (unattributed) time add up to the root span. The sharded replay steps `ShardWave` scan/apply/advance
//! and `swire` encode/decode the way the router and workers do.

use crate::spans::{self, Spans};
use crate::stats::ms;
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::shard::CsrShard;
use mcbfs_query::{ms_bfs_raw, Admitted, Query, QueryEngine, QueryResult};
use mcbfs_serve::wire::{self, QueryReply, Response};
use mcbfs_shard::engine::{merge_for, wire_buckets};
use mcbfs_shard::swire::{self, ShardFrame};
use mcbfs_shard::{ScanOutput, ShardWave};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Per-layer figures of one replayed wave.
#[derive(Clone, Debug, Default)]
pub struct WaveReplay {
    pub kernel_ms: f64,
    pub finish_ms: f64,
    pub assemble_ms: f64,
    pub encode_ms_per_reply: f64,
    pub decode_ms_per_reply: f64,
    pub loopback_ms: f64,
    pub wave_ms: f64,
    pub unattributed_ms: f64,
    /// Mean encoded reply size with the timing fields zeroed (exact).
    pub reply_bytes: f64,
    /// Every reply decoded back to the frame that was encoded.
    pub round_trip_ok: bool,
}

/// The queries of `wave` as the batcher would admit them.
fn admitted(wave: &[Query]) -> Vec<Admitted> {
    wave.iter()
        .enumerate()
        .map(|(i, &query)| Admitted {
            id: i as u64,
            query,
            queued: Duration::ZERO,
        })
        .collect()
}

/// Replays `wave` on `graph`: the kernel and extraction at `threads`, then
/// the serving path through `engine`.
pub fn replay_wave(
    sp: &mut Spans,
    graph: &CsrGraph,
    engine: &QueryEngine,
    wave: &[Query],
    threads: usize,
    wave_id: u64,
) -> std::io::Result<WaveReplay> {
    let sources: Vec<VertexId> = wave.iter().map(Query::source).collect();
    let parents = wave.iter().any(|q| matches!(q, Query::Parents { .. }));
    let (raw, k) = sp.time("query.kernel", None, wave_id, || {
        ms_bfs_raw(graph, &sources, threads, parents)
    });
    let (run, f) = sp.time("query.finish", None, wave_id, || raw.finish());
    drop(run);
    let admitted = admitted(wave);

    let t0 = Instant::now();
    let root = sp.record("replay.wave", None, wave_id, t0, t0);
    let (report, x) = sp.time("query.execute_wave", Some(root), wave_id, || {
        engine.execute_wave(&admitted)
    });
    let mut frames = Vec::with_capacity(report.outcomes.len());
    let mut lines = Vec::with_capacity(report.outcomes.len());
    let mut encode = Duration::ZERO;
    for (i, o) in report.outcomes.iter().enumerate() {
        let frame = reply_frame(i as u64, wave.len() as u64, o);
        let (line, d) = sp.time("serve.encode", Some(root), wave_id, || wire::encode(&frame));
        encode += d;
        frames.push(frame);
        lines.push(line);
    }
    drop(report);
    let bytes: usize = lines.iter().map(String::len).sum();
    let (received, loopback) = sp.time("serve.loopback", Some(root), wave_id, || {
        loopback(lines.concat().as_bytes())
    });
    let received = String::from_utf8(received?).expect("replies are UTF-8 JSON");
    let mut decode = Duration::ZERO;
    let mut round_trip_ok = received.lines().count() == frames.len();
    for (line, frame) in received.lines().zip(&frames) {
        let (decoded, d) = sp.time("serve.decode", Some(root), wave_id, || {
            wire::decode::<Response>(line)
        });
        decode += d;
        round_trip_ok &= decoded.as_ref().ok() == Some(frame);
    }
    let end = Instant::now();
    let root_self = sp_root(sp, root, t0, end);
    let n = frames.len().max(1) as f64;
    let wave_ms = ms(end - t0);
    Ok(WaveReplay {
        kernel_ms: ms(k),
        finish_ms: ms(f),
        // A difference of separate runs: near zero it can read slightly
        // negative, which is noise, not a negative cost.
        assemble_ms: ms(x) - ms(k) - ms(f),
        encode_ms_per_reply: ms(encode) / n,
        decode_ms_per_reply: ms(decode) / n,
        loopback_ms: ms(loopback),
        wave_ms,
        unattributed_ms: root_self.map_or(wave_ms - ms(x + encode + loopback + decode), ms),
        reply_bytes: bytes as f64 / n,
        round_trip_ok,
    })
}

/// Closes the root span and returns its self time (`None` untraced).
fn sp_root(sp: &mut Spans, root: usize, start: Instant, end: Instant) -> Option<Duration> {
    if root == usize::MAX {
        return None;
    }
    sp.close(root, start, end);
    Some(spans::self_time(sp.spans(), root))
}

/// The `ok` frame the scheduler writes for outcome `o`, with the timing
/// fields zeroed so its size depends only on the answer.
fn reply_frame(tag: u64, wave_queries: u64, o: &mcbfs_query::QueryOutcome) -> Response {
    let (distance, reachable, depths, parents) = match &o.result {
        QueryResult::Parents { parents, depths } => {
            (None, None, Some(depths.clone()), Some(parents.clone()))
        }
        QueryResult::Distances { depths } => (None, None, Some(depths.clone()), None),
        QueryResult::StCon { distance } => (*distance, None, None, None),
        QueryResult::Reachable { reachable } => (None, Some(*reachable), None, None),
    };
    Response::Ok(QueryReply {
        tag,
        kind: o.query.kind_name().to_string(),
        wave_queries,
        queue_ms: 0.0,
        service_ms: 0.0,
        latency_ms: 0.0,
        edges: o.edges,
        distance,
        reachable,
        depths,
        parents,
    })
}

/// Writes `bytes` through a loopback TCP connection and reads them back.
fn loopback(bytes: &[u8]) -> std::io::Result<Vec<u8>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut tx = TcpStream::connect(listener.local_addr()?)?;
    tx.set_nodelay(true)?;
    let (rx, _) = listener.accept()?;
    std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut rx = rx;
            let mut out = Vec::with_capacity(bytes.len());
            rx.read_to_end(&mut out).map(|_| out)
        });
        tx.write_all(bytes)?;
        tx.shutdown(std::net::Shutdown::Write)?;
        reader.join().expect("loopback reader panicked")
    })
}

/// Per-wave figures of the sharded replay.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ShardReplay {
    pub scan_ms: f64,
    pub apply_ms: f64,
    pub swire_ms: f64,
    pub items: u64,
    pub bytes: u64,
    pub frames: u64,
    pub levels: u64,
}

/// Steps `wave` through one `ShardWave` per shard, encoding and decoding
/// every frame the router and workers would exchange.
pub fn replay_shards(
    sp: &mut Spans,
    shards: &[CsrShard],
    wave: &[Query],
    wave_id: u64,
) -> ShardReplay {
    let sources: Vec<u32> = wave.iter().map(Query::source).collect();
    let parents = wave.iter().any(|q| matches!(q, Query::Parents { .. }));
    let mut waves: Vec<ShardWave> = shards
        .iter()
        .map(|s| ShardWave::new(s, &sources, parents))
        .collect();
    let mut out = ShardReplay::default();
    let (mut scan, mut apply, mut wire) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut swire_round_trip = |sp: &mut Spans, frame: &ShardFrame| -> u64 {
        let (line, e) = sp.time("shard.swire_encode", None, wave_id, || swire::encode(frame));
        let (back, d) = sp.time("shard.swire_decode", None, wave_id, || swire::decode(&line));
        assert!(
            back.as_ref() == Ok(frame),
            "swire frame did not survive a round trip"
        );
        wire += e + d;
        line.len() as u64
    };
    for level in 0u64.. {
        let mut outs: Vec<ScanOutput> = Vec::with_capacity(waves.len());
        for w in &mut waves {
            let (o, d) = sp.time("shard.scan", None, wave_id, || w.scan());
            scan += d;
            outs.push(o);
        }
        for o in &outs {
            out.frames += 1;
            out.items += o.buckets.iter().map(|b| b.len() as u64).sum::<u64>();
            out.bytes += swire_round_trip(
                sp,
                &ShardFrame::Exchange {
                    wave: wave_id,
                    level,
                    buckets: wire_buckets(&o.buckets),
                    local_next: o.local_next,
                    edges_scanned: o.edges_scanned,
                },
            );
        }
        out.levels += 1;
        let done = outs
            .iter()
            .all(|o| !o.local_next && o.buckets.iter().all(|b| b.is_empty()));
        if done {
            break;
        }
        for (dst, w) in waves.iter_mut().enumerate() {
            let items = merge_for(&outs, dst);
            out.frames += 1;
            out.bytes += swire_round_trip(
                sp,
                &ShardFrame::Merged {
                    wave: wave_id,
                    level,
                    items: items.clone(),
                },
            );
            let ((), d) = sp.time("shard.apply", None, wave_id, || {
                w.apply(&items);
                w.advance();
            });
            apply += d;
        }
    }
    out.scan_ms = ms(scan);
    out.apply_ms = ms(apply);
    out.swire_ms = ms(wire);
    out
}
