//! Order statistics from exact samples, and the two decision rules the
//! benchmark applies to them: which tail percentile a sample supports,
//! and which offered rate counts as sustained.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples. The
/// product is nudged down before rounding up, so that e.g. 99.9% of
/// 10 000 is rank 9990, not 9991 by floating-point error.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest of `candidates` (percentiles, any order) that leaves at
/// least [`MIN_TAIL_SAMPLES`] samples beyond it in a sample of `n`, or
/// `None` when even the lowest does not.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
        .fold(None, |best: Option<f64>, p| Some(best.map_or(p, |b| b.max(p))))
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency summary of one operation type: exact median and p99 plus
/// the sample count they came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// The highest of p99.9 / p99 / p90 the sample supports.
    pub tail_p: f64,
    pub tail_ns: u64,
}

/// Summarize latency samples (nanoseconds). `None` when the sample
/// cannot support a p99 with [`MIN_TAIL_SAMPLES`] beyond it — the
/// caller then has too little data to report a p99 at all.
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    let n = samples.len();
    let tail_p = highest_supported(n, &[90.0, 99.0, 99.9])?;
    if tail_p < 99.0 {
        return None;
    }
    samples.sort_unstable();
    Some(Summary {
        n,
        p50_ns: percentile(samples, 50.0),
        p99_ns: percentile(samples, 99.0),
        tail_p,
        tail_ns: percentile(samples, tail_p),
    })
}

/// One rung of the offered-rate ladder, as measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate, ops/s over all connections.
    pub rate: f64,
    /// p99 latency from due time over the rung, in microseconds (every
    /// failed request counts as missing the limit).
    pub p99_us: f64,
    /// Whether outstanding requests kept climbing through the rung.
    pub backlog_growing: bool,
    /// Requests that failed or were answered wrongly.
    pub failed: u64,
    /// Whether the generator kept to its schedule (see
    /// [`GEN_LATE_LIMIT_US`](crate::loadgen::GEN_LATE_LIMIT_US)).
    pub generator_on_time: bool,
}

impl Rung {
    /// The rung sustains its rate: tail within the limit, no growing
    /// queue, no failures, and a generator that kept its schedule.
    pub fn sustained(&self, limit_us: f64) -> bool {
        self.p99_us <= limit_us
            && !self.backlog_growing
            && self.failed == 0
            && self.generator_on_time
    }
}

/// `max_rate_ops_s`: climb the `coarse` rates (ascending) until one is
/// not sustained, then bisect in log space between the last sustained
/// and the first unsustained rate `steps` times, and return the highest
/// rate found sustained. Rates past the first coarse failure are never
/// tried — a ladder is climbed, not sampled. `None` when the first
/// coarse rate already fails; the top coarse rate when none fails.
pub fn search_max_rate(
    coarse: &[f64],
    steps: u32,
    mut sustained: impl FnMut(f64) -> bool,
) -> Option<f64> {
    let mut lo = None;
    let mut hi = None;
    for &rate in coarse {
        if sustained(rate) {
            lo = Some(rate);
        } else {
            hi = Some(rate);
            break;
        }
    }
    let (mut lo, hi) = (lo?, hi);
    if let Some(mut hi) = hi {
        for _ in 0..steps {
            let mid = (lo * hi).sqrt();
            if sustained(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }
    Some(lo)
}

/// Whether a queue sampled over time kept growing: the median of the
/// last third of the samples exceeds twice the median of the first third
/// by more than `slack` requests. Medians, because a host stall parks a
/// burst of requests for a few milliseconds without any lasting growth;
/// an overloaded queue climbs through the whole phase.
pub fn backlog_growing(samples: &[u32], slack: f64) -> bool {
    if samples.len() < 6 {
        return false;
    }
    let third = samples.len() / 3;
    let med = |s: &[u32]| median(&s.iter().map(|&x| x as f64).collect::<Vec<_>>());
    let first = med(&samples[..third]);
    let last = med(&samples[samples.len() - third..]);
    last > 2.0 * first + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000, &[90.0, 99.0, 99.9]), Some(99.0));
        // 10_000 samples support p99.9 (10 beyond).
        assert_eq!(highest_supported(10_000, &[99.9, 90.0, 99.0]), Some(99.9));
        // 999 samples leave 9 beyond p99: fall back to p90.
        assert_eq!(highest_supported(999, &[90.0, 99.0, 99.9]), Some(90.0));
        assert_eq!(highest_supported(50, &[90.0, 99.0]), None);
        assert_eq!(highest_supported(0, &[50.0]), None);
    }

    #[test]
    fn summaries_refuse_an_unsupported_p99() {
        let mut small: Vec<u64> = (0..999).collect();
        assert_eq!(summarize(&mut small), None);
        let mut ok: Vec<u64> = (0..2000).rev().collect();
        let s = summarize(&mut ok).expect("2000 samples support p99");
        assert_eq!((s.n, s.p50_ns, s.p99_ns, s.tail_p), (2000, 999, 1979, 99.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn rung(rate: f64, p99_us: f64) -> Rung {
        Rung { rate, p99_us, backlog_growing: false, failed: 0, generator_on_time: true }
    }

    #[test]
    fn max_rate_climbs_then_bisects_to_the_capacity() {
        let coarse = [10.0, 20.0, 40.0, 80.0, 160.0];
        let mut tried = Vec::new();
        let found = search_max_rate(&coarse, 4, |r| {
            tried.push(r);
            rung(r, if r <= 50.0 { 100.0 } else { 900.0 }).sustained(500.0)
        });
        let found = found.expect("the first rungs pass");
        // 4 bisections of the 40..80 octave resolve 2^(1/16).
        assert!(found <= 50.0 && found > 50.0 / 2f64.powf(1.0 / 16.0), "{found}");
        // Nothing above the first coarse failure is tried.
        assert!(tried.iter().all(|&r| r <= 80.0), "{tried:?}");
        assert_eq!(search_max_rate(&coarse, 4, |_| false), None);
        assert_eq!(search_max_rate(&coarse, 4, |_| true), Some(160.0));
    }

    #[test]
    fn a_growing_backlog_fails_a_rung_whose_p99_is_fine() {
        let ok = rung(40.0, 100.0);
        assert!(ok.sustained(500.0));
        let growing = Rung { backlog_growing: true, ..ok };
        assert!(!growing.sustained(500.0));
        assert!(!Rung { failed: 1, ..ok }.sustained(500.0));
        assert!(!Rung { generator_on_time: false, ..ok }.sustained(500.0));
        // A queue that grows from rate 30 onward caps the search there,
        // though every p99 is within the limit.
        let found = search_max_rate(&[10.0, 20.0, 40.0, 80.0], 3, |r| {
            Rung { backlog_growing: r >= 30.0, ..rung(r, 100.0) }.sustained(500.0)
        });
        let found = found.expect("10 and 20 pass");
        assert!((20.0..30.0).contains(&found), "{found}");
    }

    #[test]
    fn backlog_growth_detection() {
        let steady: Vec<u32> = (0..300).map(|i| 4 + (i % 5)).collect();
        assert!(!backlog_growing(&steady, 4.0));
        let climbing: Vec<u32> = (0..300).map(|i| i * 3).collect();
        assert!(backlog_growing(&climbing, 4.0));
        // A tiny queue that doubles is noise, not overload.
        let tiny: Vec<u32> = (0..300).map(|i| if i < 150 { 1 } else { 3 }).collect();
        assert!(!backlog_growing(&tiny, 4.0));
        // A stall late in the phase piles up requests briefly.
        let stall: Vec<u32> =
            (0..300).map(|i| if (250..260).contains(&i) { 400 } else { 5 }).collect();
        assert!(!backlog_growing(&stall, 4.0));
        assert!(!backlog_growing(&[0, 100], 0.0));
    }
}
