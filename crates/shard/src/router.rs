//! The scatter/gather router: `mcbfs-wire-v1` in front, swire behind.
//!
//! A [`Router`] holds one TCP connection per shard worker. Plugged into
//! `mcbfs_serve::serve_with` as the [`WaveExecutor`], it leaves the whole
//! client-facing front (wire protocol, admission, continuous batching,
//! deadlines, drain) untouched and replaces only the kernel: each sealed
//! wave is scattered to every worker (`wave_start`), the per-level
//! frontier exchange is coordinated star-wise — workers never talk to
//! each other; the router gathers every worker's destination-bucketed
//! `exchange` frame, merges buckets per destination in shard order, and
//! delivers one `merged` frame per worker per level — and the per-shard
//! `wave_result` ranges are stitched into the global answers clients
//! expect.
//!
//! A lost worker link fails its wave, which the scheduler answers with
//! `error` replies, and is kept as the router's fault: every later wave
//! fails fast with it, because the surviving links were left mid-wave.
//!
//! Instrumentation: each blocking read of a worker's next frame is a
//! [`EventKind::ShardWait`] span (arg = level), each completed level's
//! communication a [`EventKind::ShardExchange`] span (arg = bytes moved),
//! and the per-level frame/byte/item counts accumulate in an
//! [`ExchangeLog`] whose live byte counts are directly comparable to the
//! in-process engine's model-mode prediction.

use crate::engine::{assemble_outcomes, merge_for, ExchangeLog, LevelExchange, ShardedWaveRun};
use crate::swire::{self, ExchangeItem, ShardFrame, ShardMeta};
use crate::wave::ScanOutput;
use mcbfs_query::{Admitted, BatchReport, Query};
use mcbfs_serve::{FrameReader, ServerStats, WaveExecutor};
use mcbfs_trace::{EventKind, SpanTimer};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One connected shard worker.
struct WorkerLink {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    meta: ShardMeta,
}

impl WorkerLink {
    fn send(&mut self, frame: &ShardFrame) -> std::io::Result<u64> {
        let line = swire::encode(frame);
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(line.len() as u64)
    }

    /// Blocks until the worker's next frame arrives; returns it with its
    /// encoded length (the exchange byte count of the upward link).
    fn recv(&mut self) -> std::io::Result<(ShardFrame, u64)> {
        let index = self.meta.index;
        let line = self.reader.next_line()?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("shard {index} closed its connection"),
            )
        })?;
        let frame = swire::decode(line).map_err(|e| bad_data(format!("shard {index}: {e}")))?;
        Ok((frame, line.len() as u64))
    }
}

/// A scatter/gather wave executor over shard-worker connections.
pub struct Router {
    links: Mutex<Vec<WorkerLink>>,
    n: u64,
    m: u64,
    waves: AtomicU64,
    exchange: Mutex<ExchangeLog>,
    /// The first link failure. The links it leaves mid-wave cannot be
    /// reused, so every later wave fails fast with it.
    fault: OnceLock<String>,
}

impl Router {
    /// Connects to one worker per address, handshakes (`hello` → `meta`),
    /// and validates that the workers form exactly one partition: dense
    /// shard indices, one graph, contiguous owned ranges covering `0..n`.
    pub fn connect(addrs: &[String]) -> std::io::Result<Router> {
        assert!(!addrs.is_empty(), "router needs at least one worker");
        let mut links = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            // Peers are trusted, and a legal `wave_result` grows with the
            // graph: no line limit.
            let reader = FrameReader::new(stream.try_clone()?, usize::MAX);
            let mut link = WorkerLink {
                reader,
                writer: stream,
                meta: ShardMeta {
                    n: 0,
                    shards: 0,
                    index: 0,
                    owned_start: 0,
                    owned_end: 0,
                    local_edges: 0,
                    cut_edges: 0,
                },
            };
            link.send(&ShardFrame::Hello)?;
            match link.recv()? {
                (ShardFrame::Meta(meta), _) => link.meta = meta,
                (other, _) => {
                    return Err(bad_data(format!(
                        "expected meta from {addr}, got {other:?}"
                    )))
                }
            }
            links.push(link);
        }
        links.sort_by_key(|l| l.meta.index);
        let k = links.len() as u64;
        let n = links[0].meta.n;
        let mut expect_start = 0u64;
        for (i, link) in links.iter().enumerate() {
            let m = &link.meta;
            if m.index != i as u64 || m.shards != k {
                return Err(bad_data(format!(
                    "worker set is not one {k}-way partition: found shard {}of{}",
                    m.index, m.shards
                )));
            }
            if m.n != n {
                return Err(bad_data(format!(
                    "shard {} cut from a different graph (n={} vs {n})",
                    m.index, m.n
                )));
            }
            if m.owned_start != expect_start {
                return Err(bad_data(format!(
                    "shard {} owns {}..{} but the previous range ended at {expect_start}",
                    m.index, m.owned_start, m.owned_end
                )));
            }
            expect_start = m.owned_end;
        }
        if expect_start != n {
            return Err(bad_data(format!(
                "owned ranges cover 0..{expect_start}, graph has {n} vertices"
            )));
        }
        let m = links.iter().map(|l| l.meta.local_edges).sum();
        Ok(Router {
            links: Mutex::new(links),
            n,
            m,
            waves: AtomicU64::new(0),
            exchange: Mutex::new(ExchangeLog::default()),
            fault: OnceLock::new(),
        })
    }

    /// Global vertex count (from the workers' metadata).
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Global directed edge count.
    pub fn num_edges(&self) -> u64 {
        self.m
    }

    /// Connected shard workers.
    pub fn num_shards(&self) -> usize {
        self.links.lock().expect("router links lock").len()
    }

    /// The cumulative per-level exchange log (native byte counts of the
    /// live links).
    pub fn exchange_log(&self) -> ExchangeLog {
        self.exchange.lock().expect("exchange log lock").clone()
    }

    /// Drives one wave through the cluster. A worker failure mid-wave
    /// fails the wave; `execute_wave` keeps it as the router's fault.
    fn run_wave(
        &self,
        links: &mut [WorkerLink],
        sources: &[u32],
        record_parents: bool,
        wave_id: u64,
    ) -> std::io::Result<ShardedWaveRun> {
        let start = Instant::now();
        for link in links.iter_mut() {
            link.send(&ShardFrame::WaveStart {
                wave: wave_id,
                sources: sources.to_vec(),
                record_parents,
            })?;
        }
        let shards = links.len();
        let mut log_entries = Vec::new();
        let mut level = 0u64;
        loop {
            let mut frames = 0u64;
            let mut bytes = 0u64;
            let mut items = 0u64;
            let mut outs: Vec<ScanOutput> = Vec::with_capacity(shards);
            for link in links.iter_mut() {
                let wait = SpanTimer::start();
                let (frame, len) = link.recv()?;
                wait.finish(EventKind::ShardWait, level);
                let ShardFrame::Exchange {
                    wave,
                    level: got_level,
                    buckets,
                    local_next,
                    edges_scanned,
                } = frame
                else {
                    return Err(bad_data(format!(
                        "shard {}: expected exchange, got another frame",
                        link.meta.index
                    )));
                };
                if wave != wave_id || got_level != level {
                    return Err(bad_data(format!(
                        "shard {}: exchange for wave {wave} level {got_level}, expected wave {wave_id} level {level}",
                        link.meta.index
                    )));
                }
                frames += 1;
                bytes += len;
                let mut dense: Vec<Vec<ExchangeItem>> = vec![Vec::new(); shards];
                for bucket in buckets {
                    items += bucket.items.len() as u64;
                    dense[bucket.dst as usize] = bucket.items;
                }
                outs.push(ScanOutput {
                    buckets: dense,
                    local_next,
                    edges_scanned,
                });
            }
            let timer = SpanTimer::start();
            let done = outs
                .iter()
                .all(|o| !o.local_next && o.buckets.iter().all(|b| b.is_empty()));
            if !done {
                for (dst, link) in links.iter_mut().enumerate() {
                    let merged = merge_for(&outs, dst);
                    frames += 1;
                    bytes += link.send(&ShardFrame::Merged {
                        wave: wave_id,
                        level,
                        items: merged,
                    })?;
                }
            }
            timer.finish(EventKind::ShardExchange, bytes);
            log_entries.push(LevelExchange {
                wave: wave_id,
                level,
                frames,
                bytes,
                items,
            });
            if done {
                break;
            }
            level += 1;
        }
        // Gather and stitch the owned ranges.
        let n = self.n as usize;
        let slots = sources.len();
        let mut depths = vec![vec![u32::MAX; n]; slots];
        let mut parents = record_parents.then(|| vec![vec![u32::MAX; n]; slots]);
        let mut slot_edges = vec![0u64; slots];
        let mut levels = 0u64;
        for link in links.iter_mut() {
            link.send(&ShardFrame::WaveFinish { wave: wave_id })?;
        }
        for link in links.iter_mut() {
            let (frame, _) = link.recv()?;
            let ShardFrame::WaveResult {
                wave,
                depths: own_depths,
                parents: own_parents,
                slot_edges: own_edges,
                levels: own_levels,
            } = frame
            else {
                return Err(bad_data(format!(
                    "shard {}: expected wave_result",
                    link.meta.index
                )));
            };
            if wave != wave_id {
                return Err(bad_data(format!(
                    "shard {}: wave_result for wave {wave}, expected {wave_id}",
                    link.meta.index
                )));
            }
            let range = link.meta.owned_start as usize..link.meta.owned_end as usize;
            levels = levels.max(own_levels);
            for slot in 0..slots {
                depths[slot][range.clone()].copy_from_slice(&own_depths[slot]);
                slot_edges[slot] += own_edges[slot];
                if let (Some(all), Some(own)) = (&mut parents, &own_parents) {
                    all[slot][range.clone()].copy_from_slice(&own[slot]);
                }
            }
        }
        self.exchange
            .lock()
            .expect("exchange log lock")
            .levels
            .extend(log_entries);
        Ok(ShardedWaveRun {
            depths,
            parents,
            slot_edges,
            levels,
            seconds: start.elapsed().as_secs_f64(),
        })
    }
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl WaveExecutor for Router {
    fn execute_wave(&self, wave: &[Admitted]) -> std::io::Result<BatchReport> {
        if wave.is_empty() {
            return Ok(BatchReport::default());
        }
        let wave_id = self.waves.fetch_add(1, Ordering::Relaxed);
        let sources: Vec<u32> = wave.iter().map(|a| a.query.source()).collect();
        let record_parents = wave
            .iter()
            .any(|a| matches!(a.query, Query::Parents { .. }));
        let mut links = self.links.lock().expect("router links lock");
        if let Some(fault) = self.fault.get() {
            return Err(std::io::Error::other(fault.clone()));
        }
        let run = self
            .run_wave(&mut links, &sources, record_parents, wave_id)
            .inspect_err(|e| {
                let _ = self.fault.set(e.to_string());
            })?;
        drop(links);
        let seconds = run.seconds;
        let (outcomes, stats) = assemble_outcomes(wave, run, wave_id as usize, true);
        let mut report = BatchReport {
            outcomes,
            waves: vec![stats],
            seconds,
            ..BatchReport::default()
        };
        report.outcomes.sort_by_key(|o| o.id);
        Ok(report)
    }

    /// Merges the workers' stats parts into the router's snapshot: the
    /// router owns every client-facing counter, the workers own the graph
    /// shape, and the merged quantiles come from the router's raw latency
    /// window (workers never observe client latency). A worker that fails
    /// to answer, or a faulted router, degrades the reply to the
    /// router-local view.
    fn merged_stats(&self, local: ServerStats, window: &[f64]) -> ServerStats {
        let mut links = self.links.lock().expect("router links lock");
        if self.fault.get().is_some() {
            return local;
        }
        let mut parts = vec![ServerStats {
            vertices: 0,
            edges: 0,
            ..local.clone()
        }];
        let mut windows = vec![window.to_vec()];
        for link in links.iter_mut() {
            let reply = link
                .send(&ShardFrame::Stats)
                .and_then(|_| link.recv())
                .map(|(frame, _)| frame);
            match reply {
                Ok(ShardFrame::StatsReply { stats }) => {
                    parts.push(stats);
                    windows.push(Vec::new());
                }
                _ => return local,
            }
        }
        ServerStats::merge(&parts, &windows)
    }
}

/// By-reference delegation so a caller can hand the router to
/// `serve_with` and still read its [`ExchangeLog`] after the drain.
impl WaveExecutor for &Router {
    fn execute_wave(&self, wave: &[Admitted]) -> std::io::Result<BatchReport> {
        (**self).execute_wave(wave)
    }

    fn merged_stats(&self, local: ServerStats, window: &[f64]) -> ServerStats {
        (**self).merged_stats(local, window)
    }
}
