//! Log-linear (HDR-style) histograms: bounded relative error over the
//! full `u64` range, lock-free recording, and loss-free merging.
//!
//! # Bucket layout
//!
//! For `b` *sub-bucket bits* the value axis is covered by:
//!
//! * **singleton buckets** for every value `v < 2^b` (index `v`), and
//! * **groups** of `2^b` equal-width buckets per power of two above
//!   that: group `g >= 1` spans `[2^(b+g-1), 2^(b+g))` with bucket
//!   width `2^(g-1)`.
//!
//! Bucket width divided by bucket lower bound never exceeds `2^-b`, so
//! any value is reconstructible from its bucket with relative error at
//! most `2^-b` — the histogram's *growth factor*. Unlike a sliding
//! window, every sample since process start is counted: `count` is
//! exact, `sum` is exact, and quantiles rank over the whole stream.

use std::sync::atomic::{AtomicU64, Ordering};

/// The maximum magnitude group index for a given `b`: values up to
/// `u64::MAX` land in group `64 - b`.
fn groups(bits: u32) -> usize {
    (64 - bits) as usize
}

/// Total bucket count for `b` sub-bucket bits: the `2^b` singleton
/// buckets plus `2^b` per group.
pub(crate) fn bucket_count(bits: u32) -> usize {
    (groups(bits) + 1) << bits
}

/// The bucket index `value` falls into.
pub(crate) fn bucket_index(value: u64, bits: u32) -> usize {
    if value < (1u64 << bits) {
        return value as usize;
    }
    // 2^m <= value < 2^(m+1), with m >= bits.
    let m = 63 - value.leading_zeros();
    let g = (m - bits + 1) as usize;
    let sub = ((value >> (m - bits)) as usize) - (1usize << bits);
    (g << bits) + sub
}

/// The inclusive `[lower, upper]` value range of bucket `index`.
pub(crate) fn bucket_range(index: usize, bits: u32) -> (u64, u64) {
    let base = 1usize << bits;
    if index < base {
        return (index as u64, index as u64);
    }
    let g = (index >> bits) as u32;
    let sub = (index & (base - 1)) as u64;
    let lower = (base as u64 + sub) << (g - 1);
    let width = 1u64 << (g - 1);
    // `width - 1` first: the top bucket's `lower + width` is 2^64.
    (lower, lower + (width - 1))
}

/// Construction options for a [`Histogram`](crate::Histogram).
///
/// The defaults (6 sub-bucket bits, unit scale, no exemplars) bound the
/// relative error at `2^-6 ≈ 1.6%` with 3712 buckets (~29 KiB of
/// atomics per histogram).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramOpts {
    /// Sub-bucket bits `b` (clamped to `1..=12` at construction). Error
    /// bound and memory both scale with `2^b`.
    pub sub_bucket_bits: u32,
    /// Multiplier applied to raw recorded values when rendering (e.g.
    /// `1e-9` for nanosecond recordings exported in seconds). Purely a
    /// presentation concern: recording and merging stay integral.
    pub scale: f64,
    /// When set, each bucket additionally remembers the most recent
    /// nonzero trace id recorded into it, exported as an OpenMetrics
    /// exemplar.
    pub exemplars: bool,
}

impl Default for HistogramOpts {
    fn default() -> Self {
        HistogramOpts {
            sub_bucket_bits: 6,
            scale: 1.0,
            exemplars: false,
        }
    }
}

impl HistogramOpts {
    /// Options for recording [`Duration`](std::time::Duration)s as
    /// nanoseconds, rendered in seconds.
    pub fn nanos() -> Self {
        HistogramOpts {
            scale: 1e-9,
            ..HistogramOpts::default()
        }
    }

    /// Sets the sub-bucket bits (see
    /// [`sub_bucket_bits`](Self::sub_bucket_bits)).
    #[must_use]
    pub fn with_sub_bucket_bits(mut self, bits: u32) -> Self {
        self.sub_bucket_bits = bits;
        self
    }

    /// Enables per-bucket trace-id exemplars (see
    /// [`exemplars`](Self::exemplars)).
    #[must_use]
    pub fn with_exemplars(mut self) -> Self {
        self.exemplars = true;
        self
    }

    pub(crate) fn clamped_bits(&self) -> u32 {
        self.sub_bucket_bits.clamp(1, 12)
    }
}

/// The shared atomic state behind a [`Histogram`](crate::Histogram)
/// handle.
#[derive(Debug)]
pub(crate) struct HistCore {
    bits: u32,
    scale: f64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
    /// One trace id per bucket (0 = none), allocated only when
    /// exemplars are enabled. A single atomic per bucket — the exemplar
    /// *value* is the bucket's upper bound, which by construction lies
    /// inside the bucket, so there is no (value, id) pair to tear.
    exemplars: Option<Box<[AtomicU64]>>,
}

impl HistCore {
    pub(crate) fn new(opts: HistogramOpts) -> Self {
        let bits = opts.clamped_bits();
        let n = bucket_count(bits);
        let alloc = |n: usize| -> Box<[AtomicU64]> { (0..n).map(|_| AtomicU64::new(0)).collect() };
        HistCore {
            bits,
            scale: opts.scale,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: alloc(n),
            exemplars: opts.exemplars.then(|| alloc(n)),
        }
    }

    pub(crate) fn record(&self, value: u64, trace_id: u64) {
        let i = bucket_index(value, self.bits);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        if trace_id != 0 {
            if let Some(ex) = &self.exemplars {
                ex[i].store(trace_id, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, cell) in self.buckets.iter().enumerate() {
            let count = cell.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let (_, upper) = bucket_range(i, self.bits);
            let exemplar = self
                .exemplars
                .as_ref()
                .map(|ex| ex[i].load(Ordering::Relaxed))
                .filter(|&id| id != 0);
            buckets.push(BucketCount {
                upper,
                count,
                exemplar,
            });
        }
        HistogramSnapshot {
            sub_bucket_bits: self.bits,
            scale: self.scale,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One non-empty bucket of a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// The bucket's inclusive upper bound, in raw (unscaled) units —
    /// also the bucket's representative value for quantiles and
    /// exemplars.
    pub upper: u64,
    /// Samples recorded into this bucket (non-cumulative).
    pub count: u64,
    /// The most recent nonzero trace id recorded into this bucket, when
    /// exemplars are enabled.
    pub exemplar: Option<u64>,
}

/// A point-in-time copy of a histogram: exact `count`/`sum`/`max` plus
/// the sparse list of non-empty buckets, ascending by bound.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The sub-bucket bits the histogram was built with.
    pub sub_bucket_bits: u32,
    /// The render scale the histogram was built with.
    pub scale: f64,
    /// Exact number of samples recorded since process start.
    pub count: u64,
    /// Exact sum of all raw recorded values.
    pub sum: u64,
    /// Exact maximum recorded value (0 when empty).
    pub max: u64,
    /// Non-empty buckets, ascending by [`BucketCount::upper`].
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// An empty snapshot (what a disabled handle reports).
    pub(crate) fn empty() -> Self {
        HistogramSnapshot {
            sub_bucket_bits: 1,
            scale: 1.0,
            count: 0,
            sum: 0,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// The guaranteed quantile error bound `2^-b`: any reported
    /// quantile `r` for a true order statistic `v` satisfies
    /// `v <= r <= v * (1 + 2^-b)`.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.sub_bucket_bits) as f64
    }

    /// The nearest-rank `q`-quantile's bucket representative (the
    /// bucket's inclusive upper bound, exact for values below `2^b`).
    /// `q` is clamped to `[0, 1]`; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for bucket in &self.buckets {
            cumulative += bucket.count;
            if cumulative >= rank {
                // The top bucket's representative would overshoot the
                // exact observed maximum; clamp to it.
                return bucket.upper.min(self.max);
            }
        }
        self.max
    }

    /// The loss-free merge of two snapshots: counts add bucket-wise,
    /// `count`/`sum` add, `max` takes the maximum, and `other`'s
    /// exemplars win where both sides have one (so folding a sequence
    /// of snapshots keeps the most recently merged trace id). The
    /// operation is associative and commutative on everything except
    /// that exemplar preference, which is associative by construction
    /// (`Option::or` chains). Panics on mismatched sub-bucket bits.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(
            self.sub_bucket_bits, other.sub_bucket_bits,
            "cannot merge snapshots with different sub-bucket bits"
        );
        let mut buckets = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&x), Some(&y)) if x.upper == y.upper => {
                    buckets.push(BucketCount {
                        upper: x.upper,
                        count: x.count + y.count,
                        exemplar: y.exemplar.or(x.exemplar),
                    });
                    a.next();
                    b.next();
                }
                (Some(&x), Some(&y)) if x.upper < y.upper => {
                    buckets.push(*x);
                    a.next();
                }
                (Some(_), Some(&y)) => {
                    buckets.push(*y);
                    b.next();
                }
                (Some(&x), None) => {
                    buckets.push(*x);
                    a.next();
                }
                (None, Some(&y)) => {
                    buckets.push(*y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        HistogramSnapshot {
            sub_bucket_bits: self.sub_bucket_bits,
            scale: self.scale,
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_buckets_are_exact() {
        for bits in [1, 4, 6] {
            for v in 0..(1u64 << bits) {
                let i = bucket_index(v, bits);
                assert_eq!(i, v as usize);
                assert_eq!(bucket_range(i, bits), (v, v));
            }
        }
    }

    #[test]
    fn bucket_mapping_is_contiguous_and_monotone() {
        let bits = 3;
        let mut last = 0usize;
        for v in 0..10_000u64 {
            let i = bucket_index(v, bits);
            let (lo, hi) = bucket_range(i, bits);
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
            assert!(i == last || i == last + 1, "index jumped {last} -> {i}");
            last = i;
        }
    }

    #[test]
    fn extremes_map_into_the_table() {
        for bits in [1, 6, 12] {
            let n = bucket_count(bits);
            assert_eq!(bucket_index(0, bits), 0);
            assert_eq!(bucket_index(u64::MAX, bits), n - 1);
            let (_, hi) = bucket_range(n - 1, bits);
            assert_eq!(hi, u64::MAX);
        }
    }

    #[test]
    fn relative_error_is_bounded_by_the_growth_factor() {
        let bits = 5;
        let bound = 1.0 / 32.0;
        for v in [33u64, 100, 1_000, 123_456, 987_654_321, u64::MAX / 3] {
            let (lo, hi) = bucket_range(bucket_index(v, bits), bits);
            assert!(lo <= v && v <= hi);
            let err = (hi - lo) as f64 / lo as f64;
            assert!(err <= bound, "width/lower {err} exceeds {bound} at {v}");
        }
    }

    #[test]
    fn record_snapshot_quantile_roundtrip() {
        let core = HistCore::new(HistogramOpts::default().with_sub_bucket_bits(6));
        for v in 1..=1000u64 {
            core.record(v, 0);
        }
        let snap = core.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.sum, 500_500);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), 1000);
        for q in [0.5f64, 0.95, 0.99] {
            let exact = (q * 1000.0).ceil() as u64;
            let got = snap.quantile(q);
            assert!(got >= exact, "quantile {q}: {got} < exact {exact}");
            assert!(
                got as f64 <= exact as f64 * (1.0 + snap.relative_error()),
                "quantile {q}: {got} overshoots {exact}"
            );
        }
        assert_eq!(
            snap.quantile(1.0),
            1000,
            "max quantile clamps to the exact max"
        );
        assert_eq!(HistogramSnapshot::empty().quantile(0.5), 0);
    }

    #[test]
    fn exemplars_remember_the_latest_trace_id_per_bucket() {
        let core = HistCore::new(HistogramOpts::default().with_exemplars());
        core.record(10, 111);
        core.record(10, 222); // same bucket: latest wins
        core.record(10_000, 0); // no trace id: no exemplar
        let snap = core.snapshot();
        let small = snap.buckets.iter().find(|b| b.upper == 10).expect("bucket");
        assert_eq!(small.exemplar, Some(222));
        let large = snap.buckets.iter().find(|b| b.upper > 10).expect("bucket");
        assert_eq!(large.exemplar, None);
    }

    #[test]
    #[should_panic(expected = "different sub-bucket bits")]
    fn merging_mismatched_bits_panics() {
        let a = HistCore::new(HistogramOpts::default().with_sub_bucket_bits(4));
        let b = HistCore::new(HistogramOpts::default().with_sub_bucket_bits(5));
        let _ = a.snapshot().merge(&b.snapshot());
    }
}
