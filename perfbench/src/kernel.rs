//! `kernel-rmat20`: the paper's own measurement, offline and out of cache.
//! Hybrid `BfsRunner` searches from 64 roots, then the same roots as one
//! `Distances` wave through `QueryEngine`, on an R-MAT graph whose CSR is
//! larger than the last-level cache.

use crate::client::{Phase, Step};
use crate::inputs::{self, Rng};
use crate::report::{Metrics, Report};
use crate::serving::{self, DEGREE, WINDOW};
use crate::spans::Spans;
use crate::stats::{self, ms};
use crate::{client, oracle, replay, Args};
use mcbfs_core::{Algorithm, BfsRunner};
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_graph::shard::CsrShard;
use mcbfs_graph::validate::{depths_from_parents, validate_bfs_tree};
use mcbfs_query::{Query, QueryEngine};
use std::io;
use std::time::{Duration, Instant};

const SCALE: u32 = 20;
const ROOTS: usize = 64;
/// Threads of the wave (and of the serving probe).
const THREADS: usize = 2;
/// Threads of each hybrid search. At 2 threads a ~70 ms search waits at
/// ~9 level barriers, and one preempted vCPU of the shared host costs a
/// scheduler quantum at each: its TEPS then spread by 0.17–0.25 of the
/// median across runs, against 0.09 for the 4.6 s wave.
const HYBRID_THREADS: usize = 1;
const ROOT_STREAM: u64 = 20;
const TARGET_STREAM: u64 = 21;

/// Runs the workload.
pub fn run(args: &Args) -> io::Result<Report> {
    let mut sp = Spans::new(args.trace);
    // One set-up: generating 33.5 M edges takes ~12 s on a 2-core host.
    let (g, setup) = sp.time("gen.build", None, 0, || inputs::rmat(SCALE, DEGREE));
    let m = g.num_edges() as f64;
    let roots = inputs::distinct_roots(&mut Rng::new(args.seed, ROOT_STREAM), &g, ROOTS);

    let runner = BfsRunner::new(&g)
        .algorithm(Algorithm::hybrid())
        .threads(HYBRID_THREADS);
    let mut search = Vec::with_capacity(ROOTS);
    let mut trees = Vec::with_capacity(ROOTS);
    let (mut edges, mut levels) = (0u64, 0u64);
    for (i, &r) in roots.iter().enumerate() {
        let (res, d) = sp.time("core.bfs", None, i as u64, || runner.run(r));
        search.push(d);
        edges += res.stats.edges_traversed;
        levels += res.stats.levels as u64;
        trees.push(res.parents);
    }
    let mut timed: Duration = search.iter().sum();
    let packed = validate_trees(&g, &roots, trees);
    let bad_trees = packed.iter().filter(|p| p.is_none()).count() as u64;

    let engine = QueryEngine::new(&g).threads(THREADS).max_batch(ROOTS);
    let queries: Vec<Query> = roots
        .iter()
        .map(|&root| Query::Distances { root })
        .collect();
    let mut waves = vec![];
    let mut bad_slots = 0u64;
    let mut wave = |sp: &mut Spans, waves: &mut Vec<Duration>| {
        let (report, d) = sp.time("query.execute", None, waves.len() as u64, || {
            engine.execute(&queries)
        });
        waves.push(d);
        for (o, p) in report.outcomes.iter().zip(&packed) {
            let same = match (o.result.depths(), p) {
                (Some(depths), Some(p)) => oracle::same_depths(p, depths),
                _ => false,
            };
            bad_slots += u64::from(!same);
        }
        d
    };
    timed += wave(&mut sp, &mut waves);
    // A second pass, a wave's time after the first, doubles the searches
    // behind the tail (p90 of 128 has 12 beyond it) and spreads them over
    // time. Its trees are checked against the validated depths.
    let mut bad_repeats = 0u64;
    for (i, (&r, p)) in roots.iter().zip(&packed).enumerate() {
        let (res, d) = sp.time("core.bfs", None, (ROOTS + i) as u64, || runner.run(r));
        search.push(d);
        timed += d;
        let depths = depths_from_parents(&res.parents);
        let valid = p.as_ref().is_some_and(|p| oracle::same_depths(p, &depths))
            && oracle::is_bfs_tree(&g, r, &depths, &res.parents);
        bad_repeats += u64::from(!valid);
    }
    // Waves repeat until the timed work fills `--seconds`.
    while timed < args.seconds {
        timed += wave(&mut sp, &mut waves);
    }
    let attempted = (2 * ROOTS + ROOTS * waves.len()) as u64;
    let failed = bad_trees + bad_repeats + bad_slots;
    let search_ms: Vec<f64> = search.iter().map(|&d| ms(d)).collect();
    let sorted = stats::sorted(&search_ms);
    let tail = stats::tail(&sorted);
    let wave_s = stats::median(&waves.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());

    let mut e2e = Metrics::new();
    e2e.set("setup_s", setup.as_secs_f64());
    e2e.set(
        "bfs_mteps",
        stats::harmonic_mean(
            &search
                .iter()
                .map(|d| m / d.as_secs_f64())
                .collect::<Vec<_>>(),
        ) / 1e6,
    );
    e2e.set("wave_mteps", ROOTS as f64 * m / wave_s / 1e6);
    e2e.set("p50_ms", stats::percentile(&sorted, 0.5));
    e2e.set("tail_ms", tail.value);
    e2e.set("peak_qps", ROOTS as f64 / wave_s);
    e2e.set("ok_share", (attempted - failed) as f64 / attempted as f64);
    e2e.set("rss_mb", crate::host::peak_rss_mb());

    let mut layer = Metrics::new();
    let mut probe_ok = true;
    if args.trace {
        let base = timed;
        layer.set("gen.build_s", setup.as_secs_f64());
        layer.set("core.bfs_ms", stats::median(&search_ms));
        layer.set("core.edges_examined", edges as f64);
        layer.set("core.levels", levels as f64);
        for &r in roots.iter().take(4) {
            let (a, b) = (runner.run(r).stats, runner.run(r).stats);
            assert_eq!(
                (a.edges_traversed, a.levels),
                (b.edges_traversed, b.levels),
                "hybrid search counts from root {r} did not repeat"
            );
        }
        // The roots again as point queries: the layers past the kernel.
        let mut targets = Rng::new(args.seed, TARGET_STREAM);
        let wave: Vec<Query> = roots
            .iter()
            .map(|&s| Query::StCon {
                s,
                t: targets.below(g.num_vertices() as u64) as VertexId,
            })
            .collect();
        let rp = replay::replay_wave(&mut sp, &g, &engine, &wave, THREADS, 0)?;
        probe_ok &= rp.round_trip_ok;
        serving::replay_layers(&mut layer, &rp);
        // One live wave through `serve`; the long batching wait lets the
        // whole window seal as a single wave.
        let opts = serving::serve_opts(THREADS, Duration::from_millis(50));
        let (ready, outcome) = serving::with_server(&g, &[], &opts, |addr, _| {
            let step = Step::Window {
                phase: Phase::Fixed,
                window: WINDOW,
                queries: wave.clone(),
            };
            client::run(addr, vec![step], Duration::from_secs(120))
        })?;
        let answered = outcome.records.iter().zip(&wave).all(|(rec, q)| {
            let Query::StCon { s, t } = *q else { unreachable!() };
            let slot = roots.iter().position(|&r| r == s).expect("wave sources are roots");
            let truth = packed[slot]
                .as_ref()
                .map(|p| Some(p[t as usize] as u32).filter(|&d| d != u8::MAX as u32));
            let reply = rec.reply.as_ref().map(|r| &r.answer);
            matches!((reply, truth), (Some(client::Answer::Distance(d)), Some(truth)) if *d == truth)
        });
        probe_ok &= answered && outcome.stray == 0 && outcome.records.len() == wave.len();
        layer.set("serve.ready_s", ready.as_secs_f64());
        let all: Vec<&client::Record> = outcome.records.iter().collect();
        serving::live_layers(&mut layer, &outcome, &all, &all);
        serving::add_client_spans(&mut sp, &outcome.records);
        no_shard_layers(&mut layer);
        drop(packed);
        layer.set("graph.partition_s", time_partition(&g));
        layer.set(
            "trace.overhead",
            sp.cost().as_secs_f64() / base.as_secs_f64(),
        );
    }

    let mut report = Report::new(failed == 0 && probe_ok, attempted, failed);
    if bad_trees > 0 {
        report
            .notes
            .push(format!("{bad_trees} hybrid trees failed validate_bfs_tree"));
    }
    if bad_repeats > 0 {
        report.notes.push(format!(
            "{bad_repeats} second-pass hybrid trees differ from the validated ones"
        ));
    }
    if bad_slots > 0 {
        report.notes.push(format!(
            "{bad_slots} wave slots differ from their root's hybrid depths"
        ));
    }
    if !probe_ok {
        report
            .notes
            .push("the traced serving probe answered wrongly".to_string());
    }
    report.e2e = e2e;
    report.layer = layer;
    report.graph(&g);
    report.record(
        "tail",
        format!(
            "{{\"percentile\":{},\"beyond\":{},\"samples\":{}}}",
            tail.q * 100.0,
            tail.beyond,
            sorted.len()
        ),
    );
    report.record(
        "load",
        format!(
            "{{\"roots\":{ROOTS},\"threads\":{THREADS},\"waves\":{}}}",
            waves.len()
        ),
    );
    report.spans = Some(sp);
    Ok(report)
}

/// Validates every hybrid tree with `validate_bfs_tree` on two threads and
/// packs each valid tree's depths; `None` marks an invalid tree.
fn validate_trees(
    g: &CsrGraph,
    roots: &[VertexId],
    trees: Vec<Vec<VertexId>>,
) -> Vec<Option<Vec<u8>>> {
    let check = |(root, parents): (&VertexId, Vec<VertexId>)| {
        validate_bfs_tree(g, *root, &parents)
            .ok()
            .and_then(|_| oracle::pack_depths(&depths_from_parents(&parents)))
    };
    let half = roots.len() / 2;
    let mut trees = trees;
    let second: Vec<Vec<VertexId>> = trees.split_off(half);
    std::thread::scope(|s| {
        let other = s.spawn(|| {
            roots[half..]
                .iter()
                .zip(second)
                .map(check)
                .collect::<Vec<_>>()
        });
        let mut out: Vec<_> = roots[..half].iter().zip(trees).map(check).collect();
        out.extend(other.join().expect("validation thread panicked"));
        out
    })
}

/// Cuts `g` into two shards, timed: the layer cost a sharded deployment
/// of this graph would pay.
fn time_partition(g: &CsrGraph) -> f64 {
    let t = Instant::now();
    let shards: Vec<CsrShard> = (0..2).map(|i| CsrShard::cut(g, 2, i)).collect();
    let s = t.elapsed().as_secs_f64();
    drop(shards);
    s
}

/// Shard metrics of a workload that runs no shards: nothing was exchanged.
fn no_shard_layers(layer: &mut Metrics) {
    for name in [
        "shard.ready_s",
        "shard.query_ms",
        "shard.exchange_items",
        "shard.exchange_bytes",
        "shard.exchange_frames",
        "shard.level_rounds",
        "shard.scan_ms",
        "shard.apply_ms",
        "shard.swire_ms",
    ] {
        layer.set(name, 0.0);
    }
}
