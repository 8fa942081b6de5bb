//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers. Nothing is recorded inside the program: a span covers
//! one public call, or one client request from send to decode.

use std::io::Write;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `query.kernel`.
    pub name: &'static str,
    /// Start, relative to the recorder's epoch.
    pub start: Duration,
    /// End, relative to the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request tag or wave id the span belongs to.
    pub id: u64,
}

/// Collects spans while enabled; a disabled recorder keeps nothing, so the
/// untraced run pays only for the `Instant` reads its metrics need anyway.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Time spent inside the recorder itself: the tracing overhead.
    cost: Duration,
}

impl Spans {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            cost: Duration::ZERO,
        }
    }

    /// Records `[start, end]` and returns its index (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let entered = Instant::now();
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            id,
        });
        self.cost += entered.elapsed();
        self.spans.len() - 1
    }

    /// Re-times span `i` (recorded early so that children can name it as
    /// their parent) to `[start, end]`.
    pub fn close(&mut self, i: usize, start: Instant, end: Instant) {
        if let Some(s) = self.spans.get_mut(i) {
            s.start = start.saturating_duration_since(self.epoch);
            s.end = end.saturating_duration_since(self.epoch);
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, id, start, end);
        (out, end - start)
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time spent recording.
    pub fn cost(&self) -> Duration {
        self.cost
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"i\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"id\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.id
            )?;
        }
        out.flush()
    }
}

/// Self time of span `i`: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_time(spans: &[Span], i: usize) -> Duration {
    let own = &spans[i];
    let mut children: Vec<(Duration, Duration)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start.max(own.start), s.end.min(own.end)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort();
    let mut covered = Duration::ZERO;
    let mut reach = own.start;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (own.end - own.start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("wave", 0, 100, None),
            span("kernel", 10, 40, Some(0)),
            // Overlaps the kernel by 10 ms: only 20 ms are new.
            span("encode", 30, 50, Some(0)),
            // A grandchild does not count against the root.
            span("inner", 12, 20, Some(1)),
            // A child that outlives its parent is clipped.
            span("late", 90, 120, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), Duration::from_millis(100 - 40 - 10));
        assert_eq!(self_time(&spans, 1), Duration::from_millis(30 - 8));
        assert_eq!(self_time(&spans, 3), Duration::from_millis(8));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut off = Spans::new(false);
        let ((), _) = off.time("x", None, 0, || ());
        assert!(off.spans().is_empty());
        let mut on = Spans::new(true);
        let (v, _) = on.time("x", None, 7, || 3);
        assert_eq!(v, 3);
        assert_eq!(on.spans().len(), 1);
        assert_eq!(on.spans()[0].id, 7);
    }
}
