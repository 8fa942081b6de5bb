//! `serve-maps`: an in-process `serve` on a cache-resident R-MAT graph,
//! driven by the benchmark's own load generator over one connection with
//! `distances` and `parents` queries, whose replies carry whole per-vertex
//! arrays. The traced run also serves one query from a `Router` over two
//! in-process `run_worker` shards behind `serve_with`.

use crate::client::{self, Outcome, Phase, Record, Status, Step};
use crate::inputs::{self, QueryStream, Rng};
use crate::report::{Metrics, Report};
use crate::spans::Spans;
use crate::stats::{self, ms};
use crate::{oracle, replay, Args};
use mcbfs_core::{Algorithm, BfsRunner};
use mcbfs_graph::csr::CsrGraph;
use mcbfs_graph::shard::CsrShard;
use mcbfs_query::{Query, QueryEngine};
use mcbfs_serve::{serve, serve_with, ServeOpts, ShutdownHandle};
use mcbfs_shard::{run_worker, Router};
use std::io;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Generated edges per vertex in every workload's R-MAT graph.
pub const DEGREE: usize = 16;
/// Requests the closed-loop phases keep in flight: one full wave.
pub const WINDOW: usize = 64;
/// How long a phase waits for its last replies before counting them
/// unresolved.
const GRACE: Duration = Duration::from_secs(60);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Share of `--seconds` given to the fixed-rate phase; the peak phase gets
/// the rest.
const FIXED_SHARE: f64 = 0.8;
/// The fixed-rate phase's latencies are split into consecutive blocks of at
/// least this many, so that each block's p90 has ten samples beyond it;
/// `p50_ms` and `tail_ms` are medians over the blocks.
const MIN_BLOCK: usize = 100;
const MAX_BLOCKS: usize = 4;

/// R-MAT scale of the served graph: 65,536 vertices, 8.9 MB of CSR.
const SCALE: u32 = 16;
/// Offered rate of the fixed-rate phase (~1/13 of `peak_qps`); METRICS.md
/// records why it is this low.
const RATE: f64 = 6.0;
/// Threads per wave in the server.
const WAVE_THREADS: usize = 1;

/// Stops a server or worker set when dropped, so that an early error
/// return still lets the enclosing thread scope join.
struct StopOnDrop<'a>(&'a ShutdownHandle);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.request();
    }
}

fn ready_channel() -> (impl FnOnce(SocketAddr), mpsc::Receiver<SocketAddr>) {
    let (tx, rx) = mpsc::channel();
    (
        move |addr| {
            let _ = tx.send(addr);
        },
        rx,
    )
}

fn not_ready(what: &str) -> io::Error {
    io::Error::other(format!("{what} stopped before it was ready"))
}

/// Starts shard workers (if `shards` is non-empty) and a router, then a
/// server, runs `body` against the server's address, and stops everything.
/// Returns the time from the first worker's start to the server being
/// ready, and `body`'s result.
pub fn with_server<T>(
    graph: &CsrGraph,
    shards: &[CsrShard],
    opts: &ServeOpts,
    body: impl FnOnce(SocketAddr, Option<&Router>) -> io::Result<T>,
) -> io::Result<(Duration, T)> {
    let workers_stop = ShutdownHandle::new();
    let server_stop = ShutdownHandle::new();
    std::thread::scope(|outer| {
        let _stop_workers = StopOnDrop(&workers_stop);
        let start = Instant::now();
        let mut addrs = Vec::with_capacity(shards.len());
        let mut workers = Vec::with_capacity(shards.len());
        for shard in shards {
            let (on_ready, rx) = ready_channel();
            let stop = &workers_stop;
            workers.push(outer.spawn(move || run_worker(shard, "127.0.0.1:0", stop, on_ready)));
            addrs.push(
                rx.recv()
                    .map_err(|_| not_ready("shard worker"))?
                    .to_string(),
            );
        }
        let router = match addrs.is_empty() {
            true => None,
            false => Some(Router::connect(&addrs)?),
        };
        let out = std::thread::scope(|inner| {
            let _stop_server = StopOnDrop(&server_stop);
            let (on_ready, rx) = ready_channel();
            let router = router.as_ref();
            let stop = &server_stop;
            let server = inner.spawn(move || match router {
                Some(r) => serve_with(r, r.num_vertices(), r.num_edges(), opts, stop, on_ready),
                None => serve(graph, opts, stop, on_ready),
            });
            let addr = rx.recv().map_err(|_| not_ready("server"))?;
            let ready = start.elapsed();
            let out = body(addr, router);
            server_stop.request();
            server.join().expect("server thread panicked")?;
            out.map(|t| (ready, t))
        });
        drop(router);
        workers_stop.request();
        for w in workers {
            w.join().expect("shard worker panicked")?;
        }
        out
    })
}

/// Server options of a workload.
pub fn serve_opts(wave_threads: usize, max_wait: Duration) -> ServeOpts {
    ServeOpts {
        addr: "127.0.0.1:0".to_string(),
        threads: wave_threads,
        max_wait,
        ..ServeOpts::default()
    }
}

/// What the last set-up's measurement produced.
struct Measured {
    outcome: Outcome,
    /// Peak resident memory when the load ended, before the oracle runs.
    rss_mb: f64,
    /// Wall time of the timed phases (the tracing-overhead base).
    phases: Duration,
    replay: Option<replay::WaveReplay>,
}

/// Runs `serve-maps`.
pub fn run(args: &Args) -> io::Result<Report> {
    let mut sp = Spans::new(args.trace);
    let opts = serve_opts(WAVE_THREADS, ServeOpts::default().max_wait);
    let (mut setup, mut gen, mut ready) = (vec![], vec![], vec![]);
    let mut measured = None;
    let mut graph = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (g, gen_t) = sp.time("gen.build", None, rep as u64, || {
            inputs::rmat(SCALE, DEGREE)
        });
        let last = rep + 1 == SETUP_REPS;
        let (ready_t, m) = with_server(&g, &[], &opts, |addr, _| {
            setup.push(t0.elapsed().as_secs_f64());
            match last {
                true => measure(args, &mut sp, addr, &g).map(Some),
                false => Ok(None),
            }
        })?;
        gen.push(gen_t.as_secs_f64());
        ready.push(ready_t.as_secs_f64());
        if last {
            measured = m;
            graph = Some(g);
        }
    }
    let g = graph.expect("the last set-up is kept");
    let m = measured.expect("the last set-up measures");
    let mut wrong = oracle::check_replies(&g, &m.outcome.records, 2);

    let records = &m.outcome.records;
    let of = |phase: Phase| records.iter().filter(move |r| r.phase == phase);
    let ok = |r: &&Record| r.status == Some(Status::Ok);
    let fixed_ms: Vec<f64> = of(Phase::Fixed)
        .filter(ok)
        .map(|r| ms(r.latency().expect("resolved")))
        .collect();
    let fixed_sorted = stats::sorted(&fixed_ms);
    if fixed_sorted.is_empty() {
        return Err(io::Error::other("no fixed-rate replies"));
    }
    let (p50, tail_ms, tails) = stats::blocked(&fixed_ms, MIN_BLOCK, MAX_BLOCKS);
    let peak_ok = of(Phase::Peak).filter(ok).count();
    let peak_qps = peak_ok as f64 / m.outcome.peak_wall.as_secs_f64();
    let edges = g.num_edges() as f64;
    let attempted = records.len() as u64;
    let ok_count = m.outcome.count(Status::Ok);
    let failed = attempted - ok_count + wrong;

    let mut e2e = Metrics::new();
    e2e.set("setup_s", stats::median(&setup));
    e2e.set("bfs_mteps", edges / (p50 / 1e3) / 1e6);
    e2e.set("wave_mteps", peak_qps * edges / 1e6);
    e2e.set("p50_ms", p50);
    e2e.set("tail_ms", tail_ms);
    e2e.set("peak_qps", peak_qps);
    e2e.set("ok_share", (attempted - failed) as f64 / attempted as f64);
    e2e.set("rss_mb", m.rss_mb);

    let mut layer = Metrics::new();
    let mut shard_ok = true;
    if args.trace {
        layer.set("gen.build_s", stats::median(&gen));
        layer.set("serve.ready_s", stats::median(&ready));
        live_layers(
            &mut layer,
            &m.outcome,
            &of(Phase::Fixed).collect::<Vec<_>>(),
            &of(Phase::Peak).collect::<Vec<_>>(),
        );
        let rp = m.replay.as_ref().expect("traced runs replay a wave");
        replay_layers(&mut layer, rp);
        let probe = shard_probe(&mut sp, &g, args.seed)?;
        wrong += oracle::check_replies(&g, &probe.outcome.records, 2);
        shard_layers(&mut layer, &probe);
        shard_ok = probe.ok();
        let wave = replay_wave_queries(&g, args.seed);
        core_layers(
            &mut sp,
            &mut layer,
            &g,
            &wave.iter().map(Query::source).collect::<Vec<_>>(),
            WAVE_THREADS,
        );
        add_client_spans(&mut sp, records);
        layer.set(
            "trace.overhead",
            sp.cost().as_secs_f64() / m.phases.as_secs_f64(),
        );
    }

    let replay_ok = m.replay.as_ref().is_none_or(|r| r.round_trip_ok);
    let accounting = m.outcome.stray == 0;
    let mut notes = vec![];
    if wrong > 0 {
        notes.push(format!(
            "{wrong} served answers differ from the single-process engine"
        ));
    }
    if !accounting {
        notes.push(format!(
            "{} replies named no request in flight",
            m.outcome.stray
        ));
    }
    if !replay_ok {
        notes.push("a replayed reply did not survive encode/decode".to_string());
    }
    if !shard_ok {
        notes.push("the routed query was not answered once, or its exchange differs from the ShardWave replay".to_string());
    }
    let mut report = Report::new(
        wrong == 0 && accounting && replay_ok && shard_ok,
        attempted,
        failed,
    );
    report.e2e = e2e;
    report.layer = layer;
    report.notes = notes;
    report.graph(&g);
    report.record(
        "tail",
        format!(
            "{{\"blocks\":[{}],\"samples\":{}}}",
            tails
                .iter()
                .map(|t| format!(
                    "{{\"percentile\":{},\"value\":{:.3},\"beyond\":{}}}",
                    t.q * 100.0,
                    t.value,
                    t.beyond
                ))
                .collect::<Vec<_>>()
                .join(","),
            fixed_sorted.len()
        ),
    );
    report.record(
        "fixed_latency_ms",
        format!(
            "[{}]",
            [0.1, 0.25, 0.5, 0.75, 0.9]
                .map(|q| format!("{:.3}", stats::percentile(&fixed_sorted, q)))
                .join(",")
        ),
    );
    report.record(
        "load",
        format!(
            "{{\"fixed_rate_qps\":{},\"window\":{WINDOW},\"wave_threads\":{}}}",
            RATE, WAVE_THREADS
        ),
    );
    report.record("resolution", format!(
        "{{\"ok\":{ok_count},\"rejected\":{},\"timeout\":{},\"error\":{},\"unresolved\":{},\"wrong\":{wrong}}}",
        m.outcome.count(Status::Rejected),
        m.outcome.count(Status::Timeout),
        m.outcome.count(Status::Error),
        m.outcome.unresolved()
    ));
    report.spans = Some(sp);
    Ok(report)
}

/// The first `WINDOW` queries of the peak stream: the wave the traced run
/// replays layer by layer.
fn replay_wave_queries(g: &CsrGraph, seed: u64) -> Vec<Query> {
    QueryStream::new(g, seed, PEAK_STREAM).take(WINDOW)
}

const WARMUP_STREAM: u64 = 10;
const FIXED_STREAM: u64 = 11;
const ARRIVAL_STREAM: u64 = 12;
const PEAK_STREAM: u64 = 13;

fn measure(args: &Args, sp: &mut Spans, addr: SocketAddr, g: &CsrGraph) -> io::Result<Measured> {
    let fixed_span = args.seconds.mul_f64(FIXED_SHARE);
    let peak_span = args.seconds - fixed_span;
    let mut fixed = QueryStream::new(g, args.seed, FIXED_STREAM);
    let count = (RATE * fixed_span.as_secs_f64()).round() as usize;
    let due = inputs::arrivals(&mut Rng::new(args.seed, ARRIVAL_STREAM), RATE, count.max(1))
        .into_iter()
        .map(|at| (at, fixed.next_query()))
        .collect();
    let mut peak = QueryStream::new(g, args.seed, PEAK_STREAM);
    let steps = vec![
        Step::Window {
            phase: Phase::Warmup,
            window: WINDOW,
            queries: QueryStream::new(g, args.seed, WARMUP_STREAM).take(WINDOW),
        },
        Step::Schedule { due },
        Step::Timed {
            window: WINDOW,
            span: peak_span,
            next: Box::new(move || peak.next_query()),
        },
    ];
    let replay = match args.trace {
        true => {
            let wave = replay_wave_queries(g, args.seed);
            let engine = QueryEngine::new(g).threads(WAVE_THREADS).max_batch(WINDOW);
            Some(replay::replay_wave(sp, g, &engine, &wave, WAVE_THREADS, 0)?)
        }
        false => None,
    };
    let t0 = Instant::now();
    let outcome = client::run(addr, steps, GRACE)?;
    Ok(Measured {
        outcome,
        phases: t0.elapsed(),
        rss_mb: crate::host::peak_rss_mb(),
        replay,
    })
}

/// One query routed through two shard workers, and the same wave stepped
/// through `ShardWave` + swire offline.
struct ShardProbe {
    partition: Duration,
    ready: Duration,
    outcome: Outcome,
    /// `(items, bytes, frames, level rounds)` from `Router::exchange_log`.
    live: (u64, u64, u64, u64),
    replay: replay::ShardReplay,
}

impl ShardProbe {
    /// The query was answered once and the live exchange equals the replay.
    fn ok(&self) -> bool {
        let r = &self.replay;
        self.outcome.count(Status::Ok) == 1
            && self.outcome.stray == 0
            && self.live == (r.items, r.bytes, r.frames, r.levels)
    }
}

/// Cuts `g` in two, serves it from a router over two workers behind
/// `serve_with`, and sends it the peak stream's first query. The router's
/// first wave has id 0, so its exchange bytes repeat exactly per seed.
fn shard_probe(sp: &mut Spans, g: &CsrGraph, seed: u64) -> io::Result<ShardProbe> {
    let (shards, partition) = sp.time("graph.partition", None, 0, || {
        (0..2).map(|i| CsrShard::cut(g, 2, i)).collect::<Vec<_>>()
    });
    let query = replay_wave_queries(g, seed)[0];
    let opts = serve_opts(WAVE_THREADS, ServeOpts::default().max_wait);
    let (ready, (outcome, log)) = with_server(g, &shards, &opts, |addr, router| {
        let step = Step::Window {
            phase: Phase::Peak,
            window: 1,
            queries: vec![query],
        };
        let outcome = client::run(addr, vec![step], GRACE)?;
        Ok((
            outcome,
            router
                .expect("the probe serves through a router")
                .exchange_log(),
        ))
    })?;
    let live = (
        log.total_items(),
        log.total_bytes(),
        log.total_frames(),
        log.levels.len() as u64,
    );
    let replay = replay::replay_shards(sp, &shards, &[query], 0);
    Ok(ShardProbe {
        partition,
        ready,
        outcome,
        live,
        replay,
    })
}

fn shard_layers(layer: &mut Metrics, p: &ShardProbe) {
    let (items, bytes, frames, levels) = p.live;
    layer.set("graph.partition_s", p.partition.as_secs_f64());
    layer.set("shard.ready_s", p.ready.as_secs_f64());
    layer.set(
        "shard.query_ms",
        p.outcome
            .records
            .first()
            .and_then(Record::latency)
            .map_or(0.0, ms),
    );
    layer.set("shard.exchange_items", items as f64);
    layer.set("shard.exchange_bytes", bytes as f64);
    layer.set("shard.exchange_frames", frames as f64);
    layer.set("shard.level_rounds", levels as f64);
    layer.set("shard.scan_ms", p.replay.scan_ms);
    layer.set("shard.apply_ms", p.replay.apply_ms);
    layer.set("shard.swire_ms", p.replay.swire_ms);
}

/// Layer metrics of a run's live requests: the replies' serving fields,
/// the client-side remainder and the generator's lateness, read off
/// `fixed` (the lightly loaded requests); wave sizes under load off `peak`;
/// shed, timeout and error counts off the whole outcome.
pub fn live_layers(layer: &mut Metrics, o: &Outcome, fixed: &[&Record], peak: &[&Record]) {
    let median_or_zero = |xs: Vec<f64>| {
        if xs.is_empty() {
            0.0
        } else {
            stats::median(&xs)
        }
    };
    let replies = |rs: &[&Record]| -> Vec<(Duration, client::Reply)> {
        rs.iter()
            .filter_map(|r| Some((r.latency()?, r.reply.clone()?)))
            .collect()
    };
    let answered = replies(fixed);
    let waves: Vec<f64> = answered
        .iter()
        .map(|(_, r)| r.wave_queries as f64)
        .collect();
    layer.set("query.wave_size", stats::mean(&waves));
    layer.set(
        "query.singleton_share",
        waves.iter().filter(|&&w| w == 1.0).count() as f64 / waves.len().max(1) as f64,
    );
    layer.set(
        "query.peak_wave_size",
        stats::mean(
            &replies(peak)
                .iter()
                .map(|(_, r)| r.wave_queries as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let field =
        |f: fn(&client::Reply) -> f64| median_or_zero(answered.iter().map(|(_, r)| f(r)).collect());
    layer.set("query.queue_ms", field(|r| r.queue_ms));
    layer.set("query.service_ms", field(|r| r.service_ms));
    layer.set(
        "serve.post_kernel_ms",
        field(|r| r.latency_ms - r.queue_ms - r.service_ms),
    );
    layer.set(
        "serve.net_ms",
        median_or_zero(
            answered
                .iter()
                .map(|(l, r)| ms(*l) - r.latency_ms)
                .collect(),
        ),
    );
    let late: Vec<f64> = fixed.iter().map(|r| ms(r.sent - r.due)).collect();
    layer.set(
        "bench.gen_late_ms",
        stats::percentile(&stats::sorted(&late), 0.99),
    );
    layer.set("serve.shed", o.count(Status::Rejected) as f64);
    layer.set("serve.timeouts", o.count(Status::Timeout) as f64);
    layer.set("serve.errors", o.count(Status::Error) as f64);
}

/// Layer metrics of a replayed wave.
pub fn replay_layers(layer: &mut Metrics, rp: &replay::WaveReplay) {
    layer.set("query.kernel_ms", rp.kernel_ms);
    layer.set("query.finish_ms", rp.finish_ms);
    layer.set("query.assemble_ms", rp.assemble_ms);
    layer.set("serve.reply_bytes", rp.reply_bytes);
    layer.set("serve.encode_ms", rp.encode_ms_per_reply);
    layer.set("serve.decode_ms", rp.decode_ms_per_reply);
    layer.set("serve.loopback_ms", rp.loopback_ms);
    layer.set("replay.wave_ms", rp.wave_ms);
    layer.set("replay.unattributed_ms", rp.unattributed_ms);
}

/// Hybrid `BfsRunner::run` from each root: median time and exact counts.
/// The first roots are searched twice and must repeat their counts.
pub fn core_layers(
    sp: &mut Spans,
    layer: &mut Metrics,
    g: &CsrGraph,
    roots: &[u32],
    threads: usize,
) {
    let runner = BfsRunner::new(g)
        .algorithm(Algorithm::hybrid())
        .threads(threads);
    let mut times = vec![];
    let (mut edges, mut levels) = (0u64, 0u64);
    for (i, &r) in roots.iter().enumerate() {
        let (res, d) = sp.time("core.bfs", None, i as u64, || runner.run(r));
        times.push(ms(d));
        edges += res.stats.edges_traversed;
        levels += res.stats.levels as u64;
    }
    for &r in roots.iter().take(4) {
        let a = runner.run(r).stats;
        let b = runner.run(r).stats;
        assert_eq!(
            (a.edges_traversed, a.levels),
            (b.edges_traversed, b.levels),
            "hybrid search counts from root {r} did not repeat"
        );
    }
    layer.set("core.bfs_ms", stats::median(&times));
    layer.set("core.edges_examined", edges as f64);
    layer.set("core.levels", levels as f64);
}

/// One span per request, send to decode, with its decode as a child.
pub fn add_client_spans(sp: &mut Spans, records: &[Record]) {
    for (tag, r) in records.iter().enumerate() {
        if let (Some(done), Some(reply)) = (r.done, &r.reply) {
            let parent = sp.record("client.request", None, tag as u64, r.sent, done);
            sp.record(
                "client.decode",
                Some(parent),
                tag as u64,
                done - reply.decode,
                done,
            );
        }
    }
}
