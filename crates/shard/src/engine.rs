//! The in-process sharded engine: one process simulating the cluster.
//!
//! [`ShardedEngine`] runs the exact level-loop protocol of the live
//! router/worker topology — scan every shard, merge the exchange buckets
//! in shard order, deliver, advance — inside one process, and **encodes
//! every exchange through [`crate::swire`]** even though no socket is
//! involved. That makes its per-level frame/byte accounting the model's
//! prediction of the live cluster's native exchange volume: same
//! queries, same shard count ⇒ byte-identical frames ⇒ identical
//! counts (the acceptance check behind `fig_shard_scaling` and the CI
//! cluster pipeline).
//!
//! Execution is mode-polymorphic like `QueryEngine`: native mode times
//! the in-process loop on the wall clock; model mode prices each level
//! as the slowest shard's scan (edges × the sequential-scan cost) plus
//! the exchange term ([`MachineModel::exchange_seconds`] over the
//! level's frames and bytes) — the 1D-decomposition cost shape of
//! distributed BFS (Buluç & Madduri), with the router as the only link.

use crate::swire::{self, Bucket, ExchangeItem, ShardFrame};
use crate::wave::{ScanOutput, ShardWave};
use mcbfs_graph::csr::CsrGraph;
use mcbfs_graph::shard::CsrShard;
use mcbfs_machine::model::MachineModel;
use mcbfs_query::{
    Admitted, BatchReport, BatcherOpts, Query, QueryBatcher, QueryOutcome, QueryResult, WaveStats,
};
use mcbfs_serve::WaveExecutor;
use mcbfs_trace::EventKind;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Exchange accounting for one (wave, level) step: how many swire frames
/// crossed the router's links and how many payload bytes they carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LevelExchange {
    /// Wave id.
    pub wave: u64,
    /// BFS level.
    pub level: u64,
    /// Frames crossed (one up per worker + one down per worker).
    pub frames: u64,
    /// Total encoded bytes of those frames.
    pub bytes: u64,
    /// Exchange items routed (cross-shard discoveries).
    pub items: u64,
}

/// Cumulative per-level exchange log of an engine or router.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExchangeLog {
    /// One entry per (wave, level), in execution order.
    pub levels: Vec<LevelExchange>,
}

impl ExchangeLog {
    /// Total frames crossed.
    pub fn total_frames(&self) -> u64 {
        self.levels.iter().map(|l| l.frames).sum()
    }

    /// Total exchange bytes.
    pub fn total_bytes(&self) -> u64 {
        self.levels.iter().map(|l| l.bytes).sum()
    }

    /// Total items routed.
    pub fn total_items(&self) -> u64 {
        self.levels.iter().map(|l| l.items).sum()
    }
}

/// Converts a scan's dense bucket array into the wire's sparse form
/// (non-empty buckets only, in destination order) — shared by the live
/// worker and the in-process engine so both encode identical frames.
pub fn wire_buckets(buckets: &[Vec<ExchangeItem>]) -> Vec<Bucket> {
    buckets
        .iter()
        .enumerate()
        .filter(|(_, items)| !items.is_empty())
        .map(|(dst, items)| Bucket {
            dst: dst as u64,
            items: items.clone(),
        })
        .collect()
}

/// Merges every sender's bucket for `dst`, senders in shard order — the
/// single deterministic merge rule of the protocol. The router and the
/// engine both route through this.
pub fn merge_for(outs: &[ScanOutput], dst: usize) -> Vec<ExchangeItem> {
    outs.iter()
        .flat_map(|o| o.buckets[dst].iter().copied())
        .collect()
}

/// A multi-shard query engine running the cluster protocol in-process.
///
/// Implements [`WaveExecutor`], so `serve_with` can put a sharded
/// single-process server on the wire; the offline [`ShardedEngine::execute`]
/// mirrors `QueryEngine::execute` for benches and tests.
pub struct ShardedEngine {
    shards: Vec<CsrShard>,
    n: u64,
    m: u64,
    max_batch: usize,
    /// `Some` prices levels on the machine model instead of the wall clock.
    model: Option<MachineModel>,
    waves_started: Mutex<u64>,
    exchange: Mutex<ExchangeLog>,
}

impl ShardedEngine {
    /// Cuts `graph` into `shards` 1D ranges and builds an engine over them.
    pub fn new(graph: &CsrGraph, shards: usize) -> Self {
        let cut: Vec<CsrShard> = (0..shards.max(1))
            .map(|i| CsrShard::cut(graph, shards.max(1), i))
            .collect();
        Self::from_shards(cut)
    }

    /// An engine over pre-cut shards (e.g. loaded from `.shardKofN.csr`
    /// files).
    ///
    /// # Panics
    /// Panics unless the shards are exactly `0..N` of the same `N`-way
    /// partition of one graph.
    pub fn from_shards(shards: Vec<CsrShard>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let k = shards[0].shards();
        let n = shards[0].num_vertices();
        assert_eq!(shards.len(), k, "need all {k} shards of the partition");
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.index(), i, "shard {i} out of order");
            assert_eq!(
                s.shards(),
                k,
                "shard {i} cut {}-way, not {k}-way",
                s.shards()
            );
            assert_eq!(s.num_vertices(), n, "shard {i} cut from a different graph");
        }
        let m = shards.iter().map(|s| s.local_edges() as u64).sum();
        Self {
            shards,
            n: n as u64,
            m,
            max_batch: 64,
            model: None,
            waves_started: Mutex::new(0),
            exchange: Mutex::new(ExchangeLog::default()),
        }
    }

    /// Maximum queries per wave for [`ShardedEngine::execute`].
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.clamp(1, 64);
        self
    }

    /// Switches to model mode: levels are priced as compute + exchange on
    /// `model` instead of the wall clock.
    pub fn model(mut self, model: MachineModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> u64 {
        self.n
    }

    /// Global directed edge count.
    pub fn num_edges(&self) -> u64 {
        self.m
    }

    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The cumulative per-level exchange log (all waves so far).
    pub fn exchange_log(&self) -> ExchangeLog {
        self.exchange.lock().expect("exchange log lock").clone()
    }

    /// Offline counterpart of `QueryEngine::execute`: chunks `queries`
    /// into waves of `max_batch` and serves them through the sharded
    /// level loop. Outcomes come back in submission order.
    pub fn execute(&self, queries: &[Query]) -> BatchReport {
        let start = Instant::now();
        let batcher = QueryBatcher::new(
            BatcherOpts {
                max_batch: self.max_batch,
                max_wait: Duration::ZERO,
            },
            queries.len().max(1),
        );
        for &q in queries {
            batcher.submit(q);
        }
        let mut report = BatchReport::default();
        let mut modeled = 0.0f64;
        for wave in batcher.drain() {
            let wave_report = self.execute_wave(&wave);
            modeled += wave_report.seconds;
            report.outcomes.extend(wave_report.outcomes);
            report.waves.extend(wave_report.waves);
        }
        report.seconds = match self.model {
            Some(_) => modeled,
            None => start.elapsed().as_secs_f64(),
        };
        report.outcomes.sort_by_key(|o| o.id);
        report
    }

    /// Runs the level-loop protocol for one wave and returns the stitched
    /// global results plus the modeled (or measured) seconds.
    fn run_wave(&self, sources: &[u32], record_parents: bool, wave_id: u64) -> ShardedWaveRun {
        let start = Instant::now();
        let mut waves: Vec<ShardWave> = self
            .shards
            .iter()
            .map(|s| ShardWave::new(s, sources, record_parents))
            .collect();
        let mut modeled = 0.0f64;
        let mut log_entries = Vec::new();
        let mut level = 0u64;
        loop {
            let outs: Vec<ScanOutput> = waves.iter_mut().map(|w| w.scan()).collect();
            let timer = mcbfs_trace::SpanTimer::start();
            // Count the frames the live cluster would put on its links:
            // one exchange frame up per worker...
            let mut frames = 0u64;
            let mut bytes = 0u64;
            let mut items = 0u64;
            for out in &outs {
                let up = ShardFrame::Exchange {
                    wave: wave_id,
                    level,
                    buckets: wire_buckets(&out.buckets),
                    local_next: out.local_next,
                    edges_scanned: out.edges_scanned,
                };
                frames += 1;
                bytes += swire::encode(&up).len() as u64;
                items += out.buckets.iter().map(|b| b.len() as u64).sum::<u64>();
            }
            let done = outs
                .iter()
                .all(|o| !o.local_next && o.buckets.iter().all(|b| b.is_empty()));
            if !done {
                // ... and one merged frame down per worker, even if empty.
                for (dst, wave) in waves.iter_mut().enumerate() {
                    let merged = merge_for(&outs, dst);
                    let down = ShardFrame::Merged {
                        wave: wave_id,
                        level,
                        items: merged.clone(),
                    };
                    frames += 1;
                    bytes += swire::encode(&down).len() as u64;
                    wave.apply(&merged);
                    wave.advance();
                }
            }
            timer.finish(EventKind::ShardExchange, bytes);
            if let Some(model) = &self.model {
                let scan_ns = model.params.seq_edge_ns;
                let compute = outs
                    .iter()
                    .map(|o| o.edges_scanned as f64 * scan_ns * 1e-9)
                    .fold(0.0f64, f64::max);
                modeled += compute + model.exchange_seconds(frames, bytes);
            }
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
        // Stitch the owned ranges into global arrays, slot-major.
        let n = self.n as usize;
        let slots = sources.len();
        let mut depths = vec![vec![u32::MAX; n]; slots];
        let mut parents = record_parents.then(|| vec![vec![u32::MAX; n]; slots]);
        let mut slot_edges = vec![0u64; slots];
        let mut levels = 0u64;
        for (shard, wave) in self.shards.iter().zip(waves) {
            let out = wave.finish();
            let range = shard.owned_range();
            levels = levels.max(out.levels);
            for slot in 0..slots {
                depths[slot][range.clone()].copy_from_slice(&out.depths[slot]);
                slot_edges[slot] += out.slot_edges[slot];
                if let (Some(all), Some(own)) = (&mut parents, &out.parents) {
                    all[slot][range.clone()].copy_from_slice(&own[slot]);
                }
            }
        }
        self.exchange
            .lock()
            .expect("exchange log lock")
            .levels
            .extend(log_entries);
        ShardedWaveRun {
            depths,
            parents,
            slot_edges,
            levels,
            seconds: match self.model {
                Some(_) => modeled,
                None => start.elapsed().as_secs_f64(),
            },
        }
    }
}

/// Stitched output of one sharded wave.
pub(crate) struct ShardedWaveRun {
    pub depths: Vec<Vec<u32>>,
    pub parents: Option<Vec<Vec<u32>>>,
    pub slot_edges: Vec<u64>,
    pub levels: u64,
    pub seconds: f64,
}

/// Projects one slot's stitched arrays onto the query kind's answer —
/// the sharded twin of the single-process engine's result assembly.
pub(crate) fn assemble_outcomes(
    wave: &[Admitted],
    run: ShardedWaveRun,
    wave_index: usize,
    queue_counts: bool,
) -> (Vec<QueryOutcome>, WaveStats) {
    let mut wave_edges = 0u64;
    let mut parents = run.parents;
    let outcomes: Vec<QueryOutcome> = wave
        .iter()
        .zip(run.depths)
        .enumerate()
        .map(|(slot, (&Admitted { id, query, queued }, depths))| {
            let edges = run.slot_edges[slot];
            wave_edges += edges;
            let depth_histogram = mcbfs_query::msbfs::depth_histogram_of(&depths);
            let result = match query {
                Query::Parents { .. } => QueryResult::Parents {
                    parents: std::mem::take(&mut parents.as_mut().expect("parents recorded")[slot]),
                    depths,
                },
                Query::Distances { .. } => QueryResult::Distances { depths },
                Query::StCon { t, .. } => QueryResult::StCon {
                    distance: (depths[t as usize] != u32::MAX).then(|| depths[t as usize]),
                },
                Query::Reachable { to, .. } => QueryResult::Reachable {
                    reachable: depths[to as usize] != u32::MAX,
                },
            };
            QueryOutcome {
                id,
                query,
                result,
                wave: wave_index,
                latency_seconds: if queue_counts {
                    queued.as_secs_f64() + run.seconds
                } else {
                    run.seconds
                },
                queue_seconds: if queue_counts {
                    queued.as_secs_f64()
                } else {
                    0.0
                },
                service_seconds: run.seconds,
                edges,
                depth_histogram,
            }
        })
        .collect();
    let stats = WaveStats {
        wave: wave_index,
        queries: wave.len(),
        levels: run.levels as usize,
        seconds: run.seconds,
        edges: wave_edges,
        fallback: false,
        socket: 0,
    };
    (outcomes, stats)
}

impl ShardedEngine {
    /// Executes one sealed wave across the in-process shards.
    pub fn execute_wave(&self, wave: &[Admitted]) -> BatchReport {
        if wave.is_empty() {
            return BatchReport::default();
        }
        let wave_id = {
            let mut counter = self.waves_started.lock().expect("wave counter lock");
            let id = *counter;
            *counter += 1;
            id
        };
        let sources: Vec<u32> = wave.iter().map(|a| a.query.source()).collect();
        let record_parents = wave
            .iter()
            .any(|a| matches!(a.query, Query::Parents { .. }));
        let run = self.run_wave(&sources, record_parents, wave_id);
        let seconds = run.seconds;
        let (outcomes, stats) =
            assemble_outcomes(wave, run, wave_id as usize, self.model.is_none());
        let mut report = BatchReport {
            outcomes,
            waves: vec![stats],
            seconds,
            ..BatchReport::default()
        };
        report.outcomes.sort_by_key(|o| o.id);
        report
    }
}

impl WaveExecutor for ShardedEngine {
    fn execute_wave(&self, wave: &[Admitted]) -> std::io::Result<BatchReport> {
        Ok(ShardedEngine::execute_wave(self, wave))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcbfs_gen::prelude::*;
    use mcbfs_graph::validate::{sequential_levels, validate_bfs_tree};

    fn graph() -> CsrGraph {
        RmatBuilder::new(9, 8).seed(21).build()
    }

    #[test]
    fn sharded_depths_match_the_single_process_engine() {
        let g = graph();
        let queries: Vec<Query> = (0..6).map(|i| Query::Distances { root: i * 31 }).collect();
        let single = mcbfs_query::QueryEngine::new(&g).execute(&queries);
        for shards in [1, 2, 4] {
            let report = ShardedEngine::new(&g, shards).execute(&queries);
            assert_eq!(report.outcomes.len(), queries.len());
            for (a, b) in single.outcomes.iter().zip(&report.outcomes) {
                assert_eq!(a.result.depths(), b.result.depths(), "{shards} shards");
                assert_eq!(a.edges, b.edges, "{shards} shards");
            }
        }
    }

    #[test]
    fn parents_are_valid_bfs_trees() {
        let g = graph();
        let engine = ShardedEngine::new(&g, 3);
        let report = engine.execute(&[Query::Parents { root: 0 }, Query::Parents { root: 77 }]);
        for o in &report.outcomes {
            let QueryResult::Parents { parents, depths } = &o.result else {
                panic!("expected parents result");
            };
            let root = o.query.source();
            validate_bfs_tree(&g, root, parents).expect("valid tree");
            assert_eq!(depths, &sequential_levels(&g, root));
        }
    }

    #[test]
    fn model_mode_is_deterministic_and_logs_exchange() {
        let g = graph();
        let queries: Vec<Query> = (0..8).map(|i| Query::Distances { root: i * 17 }).collect();
        let run = |_: u32| {
            let e = ShardedEngine::new(&g, 4).model(MachineModel::nehalem_ep());
            let report = e.execute(&queries);
            (report.seconds, e.exchange_log())
        };
        let (sec_a, log_a) = run(0);
        let (sec_b, log_b) = run(1);
        assert_eq!(sec_a, sec_b);
        assert!(sec_a > 0.0);
        assert_eq!(log_a, log_b);
        assert!(log_a.total_frames() > 0);
        assert!(log_a.total_bytes() > 0);
        // Every level moves 2 frames per shard (one up, one down), except
        // the final all-empty level which only pays the upward frames.
        let per_wave: Vec<&LevelExchange> = log_a.levels.iter().filter(|l| l.wave == 0).collect();
        let last = per_wave.last().unwrap();
        assert_eq!(last.frames, 4);
        for l in &per_wave[..per_wave.len() - 1] {
            assert_eq!(l.frames, 8, "level {}", l.level);
        }
    }

    #[test]
    fn single_shard_routes_no_items() {
        let g = graph();
        let e = ShardedEngine::new(&g, 1).model(MachineModel::nehalem_ep());
        let _ = e.execute(&[Query::Distances { root: 0 }, Query::Distances { root: 9 }]);
        assert_eq!(e.exchange_log().total_items(), 0);
    }
}
