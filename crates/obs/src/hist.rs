//! Log-bucketed streaming histograms.
//!
//! A [`Histogram`] is a fixed-shape array of power-of-two buckets with 8
//! sub-buckets per octave (relative quantile error ≤ ~6%), covering
//! `2^-40 ≈ 0.9 ps` through `2^20 ≈ 12 days` when samples are seconds.
//! The shape is global and value-independent, which makes the type an
//! exact monoid: [`merge`](Histogram::merge) adds bucket counts and
//! [`delta`](Histogram::delta) subtracts them, so rolling windows over a
//! cumulative histogram reconcile bit-exactly on every `u64` field.
//!
//! Recording is a handful of bit operations on the `f64` representation
//! (no float compares, no search), cheap enough for per-partition hot
//! paths.

/// Smallest bucketed exponent: values below `2^MIN_EXP` (including zero
/// and negatives) land in the underflow bucket 0.
const MIN_EXP: i64 = -40;
/// One-past-largest bucketed exponent: values at or above `2^MAX_EXP`
/// land in the overflow bucket.
const MAX_EXP: i64 = 20;
/// Sub-buckets per octave (top 3 mantissa bits).
const SUB: i64 = 8;
/// Total bucket count: underflow + value buckets + overflow.
const LEN: usize = (1 + (MAX_EXP - MIN_EXP) * SUB + 1) as usize;

/// A mergeable, delta-able log-bucketed histogram of non-negative `f64`
/// samples (seconds, bytes, counts — any unit).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Bucket counts; empty until the first record (so an empty
    /// histogram costs nothing to construct or clone).
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
}

/// Bucket index for a sample. Branch-light: underflow/overflow resolve
/// via two compares, everything else is bit extraction.
#[inline]
fn index(v: f64) -> usize {
    let min = (MIN_EXP as f64).exp2();
    let max = (MAX_EXP as f64).exp2();
    if v.is_nan() || v < min {
        // Zero, negative, NaN, and subnormal-range values.
        return 0;
    }
    if v >= max {
        return LEN - 1;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let sub = ((bits >> 49) & 0x7) as i64;
    (1 + (exp - MIN_EXP) * SUB + sub) as usize
}

/// Representative value of a bucket (arithmetic midpoint of its edges),
/// used when reading quantiles back out.
fn representative(idx: usize) -> f64 {
    if idx == 0 {
        return 0.0;
    }
    if idx >= LEN - 1 {
        return (MAX_EXP as f64).exp2();
    }
    let exp = MIN_EXP + (idx as i64 - 1) / SUB;
    let sub = (idx as i64 - 1) % SUB;
    let scale = (exp as f64).exp2();
    let lo = scale * (1.0 + sub as f64 / SUB as f64);
    let hi = scale * (1.0 + (sub + 1) as f64 / SUB as f64);
    (lo + hi) / 2.0
}

/// Upper edge of a bucket (exclusive), for cumulative expositions.
fn upper_edge(idx: usize) -> f64 {
    if idx == 0 {
        return (MIN_EXP as f64).exp2();
    }
    if idx >= LEN - 1 {
        return f64::INFINITY;
    }
    let exp = MIN_EXP + (idx as i64 - 1) / SUB;
    let sub = (idx as i64 - 1) % SUB;
    (exp as f64).exp2() * (1.0 + (sub + 1) as f64 / SUB as f64)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. Non-finite samples are ignored so sums stay
    /// finite; negative samples count into the underflow bucket.
    #[inline]
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; LEN];
        }
        self.buckets[index(v)] += 1;
        self.count += 1;
        self.sum += v.max(0.0);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (negative samples clamp to 0).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean; 0.0 when empty (exact — the sum is kept
    /// alongside the buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`); 0.0 when empty. The
    /// returned value is the matched bucket's midpoint, so the relative
    /// error is bounded by half a sub-bucket (≤ ~6%).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return representative(idx);
            }
        }
        representative(LEN - 1)
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.is_empty() {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; LEN];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The window `self − base` where `base` is an earlier snapshot of
    /// the same cumulative histogram. Bucket counts subtract exactly
    /// (saturating as a guard against misuse); the sum is a float
    /// difference and therefore approximate.
    pub fn delta(&self, base: &Histogram) -> Histogram {
        if base.buckets.is_empty() {
            return self.clone();
        }
        let mut buckets = self.buckets.clone();
        if buckets.is_empty() {
            buckets = vec![0; LEN];
        }
        for (a, b) in buckets.iter_mut().zip(&base.buckets) {
            *a = a.saturating_sub(*b);
        }
        Histogram {
            buckets,
            count: self.count.saturating_sub(base.count),
            sum: (self.sum - base.sum).max(0.0),
        }
    }

    /// Non-empty buckets as `(upper_edge, cumulative_count)` pairs, the
    /// shape a Prometheus `_bucket{le=...}` exposition wants. Always ends
    /// with the `+Inf` bound when any sample exists.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((upper_edge(idx), cum));
        }
        if self.count > 0 && out.last().map(|&(le, _)| le.is_finite()).unwrap_or(false) {
            out.push((f64::INFINITY, self.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_within_sub_bucket_error() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 / 1000.0); // 1ms..1s ramp
        }
        assert_eq!(h.count(), 1000);
        for &(q, exact) in &[(0.5, 0.5), (0.99, 0.99), (1.0, 1.0)] {
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() / exact < 0.07,
                "q{q}: got {got}, exact {exact}"
            );
        }
        assert!((h.mean() - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn merge_then_delta_roundtrips() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..100 {
            a.record(0.001 * i as f64);
            b.record(0.01 * i as f64);
        }
        let mut total = a.clone();
        total.merge(&b);
        assert_eq!(total.count(), 200);
        let back = total.delta(&a);
        assert_eq!(back.count(), b.count());
        assert_eq!(back.buckets, b.buckets);
    }

    #[test]
    fn degenerate_inputs_stay_finite() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1e30); // far past the overflow edge
        assert_eq!(h.count(), 3); // NaN/inf ignored
        assert!(h.mean().is_finite());
        assert!(h.quantile(0.5).is_finite());
        assert!(h.quantile(1.0).is_finite());
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.99), 0.0);
        assert_eq!(empty.mean(), 0.0);
        assert!(empty.cumulative().is_empty());
    }

    #[test]
    fn quantile_monotone_in_q() {
        let mut h = Histogram::new();
        for i in 0..500 {
            h.record((i % 37) as f64 * 0.003 + 1e-6);
        }
        let mut last = 0.0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            assert!(v >= last, "quantile not monotone at q={q}");
            last = v;
        }
    }

    #[test]
    fn cumulative_ends_at_inf() {
        let mut h = Histogram::new();
        h.record(0.5);
        h.record(2.0);
        let cum = h.cumulative();
        assert_eq!(cum.last().unwrap().1, 2);
        assert!(cum.last().unwrap().0.is_infinite());
        // Cumulative counts are non-decreasing.
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1));
    }
}
