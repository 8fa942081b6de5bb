//! The benchmark's own statistics. They are kept independent of the
//! program's helpers so that a change to the program cannot change how it
//! is measured.

use std::time::{Duration, Instant};

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a share `q` of all samples at or below it.
///
/// # Panics
/// Panics when `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail percentile a run reports, with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `0.99`.
    pub q: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// The highest of p99, p95 and p90 that has at least ten samples beyond
/// it. When even p90 has fewer (fewer than 100 samples), p90 is returned
/// and `beyond` shows how thin it is.
pub fn tail(sorted: &[f64]) -> Tail {
    let at = |q: f64| Tail {
        q,
        value: percentile(sorted, q),
        beyond: sorted.len() - rank(sorted.len(), q),
    };
    [0.99, 0.95, 0.90]
        .into_iter()
        .map(at)
        .find(|t| t.beyond >= 10)
        .unwrap_or_else(|| at(0.90))
}

/// Median and tail of a latency series split into consecutive blocks of at
/// least `min_block` samples (at most `max_blocks` of them): the median over
/// blocks of each block's median, and of each block's tail (by [`tail`]).
/// A burst of contention on the host then spoils one block's figures
/// instead of the run's.
pub fn blocked(series: &[f64], min_block: usize, max_blocks: usize) -> (f64, f64, Vec<Tail>) {
    let blocks = (series.len() / min_block.max(1)).clamp(1, max_blocks.max(1));
    let size = (series.len() / blocks).max(1);
    let parts: Vec<Vec<f64>> = series
        .chunks(size)
        .map(sorted)
        .filter(|b| b.len() == size)
        .collect();
    let tails: Vec<Tail> = parts.iter().map(|b| tail(b)).collect();
    let p50 = median(&parts.iter().map(|b| percentile(b, 0.5)).collect::<Vec<_>>());
    let t = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    (p50, t, tails)
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(&sorted(xs), 0.5)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Harmonic mean of positive rates — the mean a fixed amount of work per
/// sample implies (the Graph500 TEPS convention).
pub fn harmonic_mean(rates: &[f64]) -> f64 {
    rates.len() as f64 / rates.iter().map(|r| 1.0 / r).sum::<f64>()
}

/// Latency of an open-loop request, counted from when it was *due*, not
/// from when the generator got round to sending it: a stall that delays
/// later sends is charged to those requests.
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 0.91), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has rank 990 and 10 beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&big),
            Tail {
                q: 0.99,
                value: 990.0,
                beyond: 10
            }
        );
        // 999 samples: p99 has 9 beyond, so p95 (rank 950) is reported.
        let t = tail(&big[..999]);
        assert_eq!((t.q, t.value, t.beyond), (0.95, 950.0, 49));
        // 150 samples: p95 has 7 beyond, p90 has 15.
        let t = tail(&big[..150]);
        assert_eq!((t.q, t.value, t.beyond), (0.90, 135.0, 15));
        // 64 samples: nothing qualifies, p90 is reported with 6 beyond.
        let t = tail(&big[..64]);
        assert_eq!((t.q, t.value, t.beyond), (0.90, 58.0, 6));
    }

    #[test]
    fn blocked_figures_ignore_one_bad_block() {
        // Four blocks of 100; the third is ten times slower.
        let series: Vec<f64> = (0..400)
            .map(|i| {
                let v = (i % 100 + 1) as f64;
                if (200..300).contains(&i) {
                    v * 10.0
                } else {
                    v
                }
            })
            .collect();
        let (p50, t, tails) = blocked(&series, 100, 8);
        assert_eq!(tails.len(), 4);
        // Block medians 50, 50, 500, 50 -> 50; block p90s 90, 90, 900, 90.
        assert_eq!((p50, t), (50.0, 90.0));
        assert!(tails.iter().all(|t| t.q == 0.90 && t.beyond == 10));
        // A remainder too short to be a block is left out.
        let longer: Vec<f64> = series.iter().copied().chain([1.0, 1.0]).collect();
        assert_eq!(blocked(&longer, 100, 8).2.len(), 4);
        // Blocks never get smaller than asked, nor more numerous.
        assert_eq!(blocked(&series, 150, 8).2.len(), 2);
        assert_eq!(blocked(&series, 10, 3).2.len(), 3);
        assert_eq!(blocked(&[1.0, 2.0, 3.0], 100, 4).2.len(), 1);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(30);
        let done = sent + Duration::from_millis(5);
        assert_eq!(due_latency(due, done), Duration::from_millis(35));
        // A reply cannot precede its due time; clock skew clamps to zero.
        assert_eq!(due_latency(done, due), Duration::ZERO);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        // Two equal-work searches at 1 and 3 units/s take 1 + 1/3 s in
        // total: 2 searches / (4/3 s) = 1.5.
        assert!((harmonic_mean(&[1.0, 3.0]) - 1.5).abs() < 1e-12);
    }
}
