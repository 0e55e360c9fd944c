//! Descriptive statistics for experiment reporting.
//!
//! The paper reports averages over repeated runs (Tables 1–4 all carry an
//! "Average" row or a 10-trial mean); [`RunningStats`] provides numerically
//! stable accumulation and [`Histogram`] supports the testbed's BER/PER
//! distribution sanity checks.

/// Welford-style online mean/variance accumulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Adds every observation from an iterator.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(x);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (`n` in the denominator; 0 if fewer than 2 items).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Computes the `q`-quantile (`0 ≤ q ≤ 1`) of a sample using linear
/// interpolation between order statistics. Sorts a copy; fine for
/// experiment-sized data.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Arithmetic mean of a slice (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One-sample Kolmogorov–Smirnov statistic: the supremum distance between
/// the empirical CDF of `xs` and the reference CDF `cdf`. Sorts a copy;
/// fine for experiment-sized data. The classic 5 % critical value for
/// large `n` is `1.36 / sqrt(n)`.
pub fn ks_statistic(xs: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
    assert!(!xs.is_empty(), "KS statistic of empty sample");
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let n = v.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in v.iter().enumerate() {
        let f = cdf(x);
        // the empirical CDF jumps at x: check the gap on both sides
        let lo = (f - i as f64 / n).abs();
        let hi = ((i as f64 + 1.0) / n - f).abs();
        d = d.max(lo).max(hi);
    }
    d
}

/// Two-sample Kolmogorov–Smirnov statistic: the supremum distance
/// between the empirical CDFs of `xs` and `ys`. Sorts copies; fine for
/// experiment-sized data. The classic 5 % critical value for large
/// samples is `1.36 · sqrt((n + m) / (n · m))`.
pub fn ks_two_sample(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(
        !xs.is_empty() && !ys.is_empty(),
        "KS statistic of empty sample"
    );
    let sorted = |s: &[f64]| {
        let mut v = s.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        v
    };
    let (a, b) = (sorted(xs), sorted(ys));
    let (n, m) = (a.len() as f64, b.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d = 0.0f64;
    while i < a.len() && j < b.len() {
        // step both CDFs past the smaller value (ties jump together)
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] == x {
            i += 1;
        }
        while j < b.len() && b[j] == x {
            j += 1;
        }
        d = d.max((i as f64 / n - j as f64 / m).abs());
    }
    d
}

/// Fixed-width histogram over `[lo, hi)` with saturation buckets at the ends.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram with `bins` equal-width buckets over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Records one observation (clamped into the edge buckets).
    pub fn push(&mut self, x: f64) {
        let bins = self.counts.len();
        let idx = ((x - self.lo) / (self.hi - self.lo) * bins as f64)
            .floor()
            .clamp(0.0, (bins - 1) as f64) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Raw bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of mass in bucket `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_known_sample() {
        let mut st = RunningStats::new();
        st.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(st.count(), 8);
        assert!((st.mean() - 5.0).abs() < 1e-12);
        assert!((st.variance() - 4.0).abs() < 1e-12);
        assert!((st.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(st.min(), 2.0);
        assert_eq!(st.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = RunningStats::new();
        whole.extend(data.iter().copied());
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        a.extend(data[..300].iter().copied());
        b.extend(data[300..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-5.0); // clamps to first
        h.push(50.0); // clamps to last
        assert_eq!(h.total(), 12);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 2);
        assert!((h.fraction(5) - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn ks_statistic_accepts_its_own_law_and_rejects_another() {
        // uniform grid points against the uniform CDF: D is tiny
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.5) / 1000.0).collect();
        let d_uniform = ks_statistic(&xs, |x| x.clamp(0.0, 1.0));
        assert!(d_uniform < 1.36 / (1000f64).sqrt(), "D = {d_uniform}");
        // the same sample against x² (a different law) must reject
        let d_wrong = ks_statistic(&xs, |x| (x * x).clamp(0.0, 1.0));
        assert!(d_wrong > 1.36 / (1000f64).sqrt(), "D = {d_wrong}");
    }

    #[test]
    fn ks_statistic_bounds() {
        // a point mass far from the reference law saturates D near 1
        let xs = [100.0; 50];
        let d = ks_statistic(&xs, |x| x.clamp(0.0, 1.0));
        assert!(d <= 1.0 + 1e-12 && d > 0.9, "D = {d}");
    }

    #[test]
    fn ks_two_sample_accepts_one_law_and_rejects_another() {
        // two interleaved uniform grids are the same law: D = 1/n
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.25) / 1000.0).collect();
        let ys: Vec<f64> = (0..1000).map(|i| (i as f64 + 0.75) / 1000.0).collect();
        let crit = 1.36 * (2.0f64 / 1000.0).sqrt();
        let d_same = ks_two_sample(&xs, &ys);
        assert!((d_same - 1e-3).abs() < 1e-12, "D = {d_same}");
        // squaring one sample changes its law and must reject
        let sq: Vec<f64> = ys.iter().map(|y| y * y).collect();
        let d_wrong = ks_two_sample(&xs, &sq);
        assert!(d_wrong > crit, "D = {d_wrong}");
        // symmetric in its arguments
        assert_eq!(d_wrong, ks_two_sample(&sq, &xs));
    }

    #[test]
    fn ks_two_sample_bounds_and_ties() {
        // a sample against itself (ties everywhere) is distance 0
        let xs = [3.0, 1.0, 2.0, 2.0, 5.0];
        assert_eq!(ks_two_sample(&xs, &xs), 0.0);
        // disjoint supports saturate D at exactly 1
        assert_eq!(ks_two_sample(&[0.0, 0.5], &[2.0, 3.0, 4.0]), 1.0);
        // unequal sizes: {1} vs {1, 2} differ by ½ at x = 1
        assert_eq!(ks_two_sample(&[1.0], &[1.0, 2.0]), 0.5);
    }
}
