//! Metric names, units and the result line.

use crate::host;
use crate::spans::Spans;
use mcbfs_graph::csr::CsrGraph;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("bfs_mteps", "MTEPS"),
    ("wave_mteps", "MTEPS"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_qps", "qps"),
    ("ok_share", "ratio"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run. The
/// layer is the name's prefix; METRICS.md maps each to the end-to-end
/// metric it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.build_s", "s"),
    ("graph.partition_s", "s"),
    ("serve.ready_s", "s"),
    ("core.bfs_ms", "ms"),
    ("core.edges_examined", "count"),
    ("core.levels", "count"),
    ("query.kernel_ms", "ms"),
    ("query.finish_ms", "ms"),
    ("query.assemble_ms", "ms"),
    ("query.wave_size", "count"),
    ("query.peak_wave_size", "count"),
    ("query.singleton_share", "ratio"),
    ("query.queue_ms", "ms"),
    ("query.service_ms", "ms"),
    ("serve.post_kernel_ms", "ms"),
    ("serve.net_ms", "ms"),
    ("serve.reply_bytes", "count"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.loopback_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.errors", "count"),
    ("shard.ready_s", "s"),
    ("shard.query_ms", "ms"),
    ("shard.exchange_items", "count"),
    ("shard.exchange_bytes", "count"),
    ("shard.exchange_frames", "count"),
    ("shard.level_rounds", "count"),
    ("shard.scan_ms", "ms"),
    ("shard.apply_ms", "ms"),
    ("shard.swire_ms", "ms"),
    ("replay.wave_ms", "ms"),
    ("replay.unattributed_ms", "ms"),
    ("bench.gen_late_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// Named values.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `name`, which must be a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        assert!(value.is_finite(), "metric {name} is {value}");
        self.0.insert(name, value);
    }
}

/// One run's result.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layer: Metrics,
    /// Why `correct` is false.
    pub notes: Vec<String>,
    /// Extra facts for the record line, as raw JSON values.
    records: Vec<(&'static str, String)>,
    pub spans: Option<Spans>,
}

impl Report {
    pub fn new(correct: bool, attempted: u64, failed: u64) -> Self {
        Self {
            correct,
            attempted,
            failed,
            e2e: Metrics::new(),
            layer: Metrics::new(),
            notes: vec![],
            records: vec![],
            spans: None,
        }
    }

    /// Adds a raw JSON value to the record line.
    pub fn record(&mut self, key: &'static str, json: String) {
        self.records.push((key, json));
    }

    /// Records the graph's size against the last-level cache.
    pub fn graph(&mut self, g: &CsrGraph) {
        let l3 = host::cache_bytes()[2];
        self.record(
            "graph",
            format!(
                "{{\"vertices\":{},\"edges\":{},\"csr_bytes\":{},\"csr_over_l3\":{:.3}}}",
                g.num_vertices(),
                g.num_edges(),
                g.memory_bytes(),
                g.memory_bytes() as f64 / l3.max(1) as f64
            ),
        );
    }

    /// Prints each metric on its own line, then the record line, then the
    /// result object as the last line.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        let (list, values) = match trace {
            false => (END_TO_END, &self.e2e),
            true => (PER_LAYER, &self.layer),
        };
        let mut metrics = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let v = *values
                .0
                .get(name)
                .unwrap_or_else(|| panic!("workload {workload} did not measure {name}"));
            println!("{name:<24} {v:>16.4} {unit}");
            metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        for note in &self.notes {
            println!("check failed: {note}");
        }
        let [l1, l2, l3] = host::cache_bytes();
        let mut record = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"holdout_seed\":{},\"trace\":{trace},\
             \"commit\":\"{}\",\"nproc\":{},\"cache_bytes\":{{\"l1d\":{l1},\"l2\":{l2},\"l3\":{l3}}}",
            crate::HOLDOUT_SEED,
            host::commit(),
            host::nproc(),
        );
        for (k, v) in &self.records {
            record.push_str(&format!(",\"{k}\":{v}"));
        }
        record.push('}');
        println!("record {record}");
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}
