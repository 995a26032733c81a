//! Percentiles with their sample counts.
//!
//! A timing is reported as a median plus the highest tail percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it.  The benchmark
//! names its tail percentile up front (p90), so a run that collected too
//! few samples for it is a failed run, not a quietly noisier number.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in a sorted sample of `n`:
/// the smallest index whose cumulative share reaches `q`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, q)
}

/// Whether a sample of `n` supports reporting the `q` percentile (the
/// median always qualifies once there is one sample).
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && (q <= 0.5 || beyond(n, q) >= MIN_BEYOND)
}

/// A sorted sample.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sort `values` into a distribution (NaNs order last).
    pub fn new(mut values: Vec<f64>) -> Dist {
        values.sort_by(|a, b| a.total_cmp(b));
        Dist { sorted: values }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, or `None` when the sample cannot support
    /// it (see [`supports`]).
    pub fn pct(&self, q: f64) -> Option<f64> {
        supports(self.len(), q).then(|| self.sorted[rank(self.len(), q)])
    }

    /// The median (`None` for an empty sample).
    pub fn median(&self) -> Option<f64> {
        self.pct(0.5)
    }
}

/// Samples stamped with when they were taken (seconds from the start of
/// the measured phase).  A host that is disturbed for part of a run
/// skews that part only, so a statistic is taken within each window and
/// the median across windows is reported.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<(f64, f64)>,
}

impl Series {
    /// Add `value`, taken at `at` seconds.
    pub fn push(&mut self, at: f64, value: f64) {
        self.samples.push((at, value));
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// All values, unordered by time.
    pub fn dist(&self) -> Dist {
        Dist::new(self.samples.iter().map(|s| s.1).collect())
    }

    fn windows(&self, window_s: f64) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = Vec::new();
        for &(at, value) in &self.samples {
            let w = (at / window_s).floor().max(0.0) as usize;
            if out.len() <= w {
                out.resize(w + 1, Vec::new());
            }
            out[w].push(value);
        }
        out
    }

    /// Percentile `q` within each `window_s` window whose sample supports
    /// it, median across those windows.
    pub fn windowed_pct(&self, window_s: f64, q: f64) -> Option<f64> {
        let per_window: Vec<f64> = self
            .windows(window_s)
            .into_iter()
            .filter_map(|w| Dist::new(w).pct(q))
            .collect();
        Dist::new(per_window).median()
    }

    /// Samples per second in each whole `window_s` window of a phase that
    /// lasted `span_s`, median across windows.
    pub fn windowed_rate(&self, window_s: f64, span_s: f64) -> Option<f64> {
        let whole = (span_s / window_s).floor() as usize;
        let mut counts = vec![0usize; whole];
        for &(at, _) in &self.samples {
            if let Some(c) = counts.get_mut((at / window_s).floor().max(0.0) as usize) {
                *c += 1;
            }
        }
        Dist::new(counts.into_iter().map(|c| c as f64 / window_s).collect()).median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(d.median(), Some(50.0));
        assert_eq!(d.pct(0.9), Some(90.0));
        assert_eq!(beyond(100, 0.9), 10);
        let one = Dist::new(vec![3.0]);
        assert_eq!(one.median(), Some(3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p90 of 99 samples sits at rank 89 with 9 beyond: refused.
        assert_eq!(beyond(99, 0.9), 9);
        assert!(!supports(99, 0.9));
        assert!(Dist::new(vec![1.0; 99]).pct(0.9).is_none());
        // 100 samples leave exactly ten beyond: accepted.
        assert!(supports(100, 0.9));
        // p99 needs a thousand.
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        // The median never needs a tail.
        assert!(supports(1, 0.5));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn windowed_statistics_take_the_median_across_windows() {
        let mut s = Series::default();
        // Three 1-s windows of 100 samples; the middle one is disturbed.
        for w in 0..3 {
            for i in 0..100 {
                let slow = if w == 1 { 10.0 } else { 1.0 };
                s.push(w as f64 + i as f64 / 100.0, slow * (1.0 + i as f64 / 100.0));
            }
        }
        assert_eq!(s.len(), 300);
        let close = |got: Option<f64>, want: f64| got.is_some_and(|g| (g - want).abs() < 1e-9);
        assert!(close(s.windowed_pct(1.0, 0.9), 1.89));
        assert!(close(s.windowed_pct(1.0, 0.5), 1.49));
        // A window too small for its tail is skipped, not guessed.
        assert_eq!(s.windowed_pct(0.5, 0.9), None);
        assert_eq!(s.windowed_rate(1.0, 3.0), Some(100.0));
        assert_eq!(s.windowed_rate(1.0, 2.5), Some(100.0));
    }
}
