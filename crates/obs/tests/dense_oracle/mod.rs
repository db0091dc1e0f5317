//! The reference sketch the occupied-range store is differentially tested
//! against: the original dense layout, one `u64` count for each of all
//! 1920 buckets whatever the sketch holds.
//!
//! It is the original `LatencySketch` storage, kept only as an
//! independent oracle; the library itself stores just the occupied range.

use gqos_obs::nearest_rank;

/// Sub-bucket resolution: each octave is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: u64 = 1 << SUB_BITS;
/// Octaves above the linear region: exponents `SUB_BITS..64`.
const OCTAVES: usize = (64 - SUB_BITS) as usize;
/// Total bucket count: the linear region plus `SUBS` buckets per octave.
const BUCKETS: usize = SUBS as usize + OCTAVES * SUBS as usize;

/// Same bucketing, quantiles and merge as [`gqos_obs::LatencySketch`];
/// 15 KB of counts from the moment it is created.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DenseSketch {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl DenseSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        DenseSketch {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            total: 0,
            min: u64::MAX,
            max: 0,
            sum: 0,
        }
    }

    /// Maps a value to its bucket index. Pure integer arithmetic.
    pub fn bucket_index(value: u64) -> usize {
        if value < SUBS {
            value as usize
        } else {
            let e = 63 - value.leading_zeros(); // e >= SUB_BITS
            let shift = e - SUB_BITS;
            let sub = ((value >> shift) - SUBS) as usize;
            SUBS as usize + (e - SUB_BITS) as usize * SUBS as usize + sub
        }
    }

    /// The largest value mapping into bucket `index` (inclusive upper bound).
    pub fn bucket_upper(index: usize) -> u64 {
        if index < SUBS as usize {
            index as u64
        } else {
            let rel = index - SUBS as usize;
            let shift = (rel / SUBS as usize) as u32;
            let sub = (rel % SUBS as usize) as u64;
            let next = SUBS + sub + 1;
            if shift > next.leading_zeros() {
                u64::MAX
            } else {
                (next << shift) - 1
            }
        }
    }

    /// Records one latency value (nanoseconds).
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// The exact largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The exact mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`, nearest-rank convention.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.is_empty() {
            return 0;
        }
        let rank = nearest_rank(q, self.total);
        if rank == 1 {
            return self.min;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// The number of recorded values `<= threshold`, up to bucket
    /// resolution.
    pub fn count_at_most(&self, threshold: u64) -> u64 {
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 && Self::bucket_upper(i) <= threshold {
                below += c;
            }
        }
        below
    }

    /// Adds all of `other`'s recorded values into `self`.
    pub fn merge(&mut self, other: &DenseSketch) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
            .collect()
    }
}
