//! Synthetic bursty-arrival generators.
//!
//! The paper evaluates on proprietary traces (UMass WebSearch / FinTrans,
//! HP OpenMail). These generators synthesise arrival processes with the same
//! qualitative structure — a well-behaved majority plus unpredictable bursts
//! whose instantaneous rate far exceeds the long-term mean — so every
//! experiment can run self-contained. Real SPC-format traces can be dropped
//! in via [`crate::spc`] instead.
//!
//! All generators are deterministic given their seed.

mod mmpp;
mod onoff;
mod paced;
pub mod profiles;

pub use mmpp::MmppState;
pub use onoff::OnOffGen;
pub use paced::PacedGen;

use rand::Rng;

use crate::request::{LogicalBlock, Request, RequestKind};
use crate::time::{SimDuration, SimTime};
use crate::workload::Workload;

/// A source of synthetic arrival streams.
///
/// Implementations own their random state; calling [`generate`] twice
/// continues the same random sequence, so create a fresh generator (same
/// seed) to reproduce a workload.
///
/// [`generate`]: ArrivalProcess::generate
pub trait ArrivalProcess {
    /// Generates all requests arriving in `[0, duration)`.
    fn generate(&mut self, duration: SimDuration) -> Workload;
}

/// How generated requests address the device: read/write mix, address range,
/// and transfer size. Only the mechanical disk model consumes these fields;
/// the QoS algorithms treat requests as unit jobs.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct IoMix {
    /// Fraction of reads in `[0, 1]`.
    pub read_fraction: f64,
    /// Blocks are drawn uniformly from `[0, block_span)`.
    pub block_span: u64,
    /// Transfer size per request in bytes.
    pub bytes: u32,
}

impl Default for IoMix {
    fn default() -> Self {
        IoMix {
            read_fraction: 0.7,
            block_span: 1 << 30,
            bytes: crate::request::DEFAULT_REQUEST_BYTES,
        }
    }
}

impl IoMix {
    /// Materialises a request at `arrival` using this mix.
    pub fn request_at<R: Rng>(&self, arrival: SimTime, rng: &mut R) -> Request {
        let kind = if rng.gen_bool(self.read_fraction.clamp(0.0, 1.0)) {
            RequestKind::Read
        } else {
            RequestKind::Write
        };
        Request::at(arrival)
            .with_block(LogicalBlock::new(rng.gen_range(0..self.block_span.max(1))))
            .with_bytes(self.bytes)
            .with_kind(kind)
    }
}

/// Replaces each request of `workload` with a batch of requests: the batch
/// size is geometric with the given mean, and the extra copies land within
/// `spread` after the original arrival. Block-level storage traces are
/// clumpy at small timescales (one logical operation issues several block
/// requests back-to-back); batching reproduces that texture, which matters
/// for small-deadline capacity requirements.
///
/// The result has roughly `mean_batch` times the request count of the
/// input, so generators feeding this should divide their event rate
/// accordingly.
///
/// # Panics
///
/// Panics if `mean_batch < 1` or is not finite.
pub fn batch_arrivals(
    workload: &Workload,
    mean_batch: f64,
    spread: SimDuration,
    seed: u64,
) -> Workload {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    assert!(
        mean_batch.is_finite() && mean_batch >= 1.0,
        "mean batch size must be >= 1: {mean_batch}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let p = 1.0 / mean_batch;
    let mut out = Vec::with_capacity((workload.len() as f64 * mean_batch) as usize);
    for r in workload.iter() {
        out.push(*r);
        // Geometric(p) batch size: keep adding copies while the coin says so.
        while !rng.gen_bool(p) {
            let jitter = if spread.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_nanos(rng.gen_range(0..spread.as_nanos().max(1)))
            };
            out.push(Request {
                arrival: r.arrival + jitter,
                ..*r
            });
        }
    }
    Workload::from_requests(out)
}

/// Emits Poisson arrivals at `rate` ops/sec into `out` for the interval
/// `[start, end)`. Used by the ON/OFF generator.
pub(crate) fn poisson_arrivals_into<R: Rng>(
    rng: &mut R,
    mix: &IoMix,
    rate: f64,
    start: SimTime,
    end: SimTime,
    out: &mut Vec<Request>,
) {
    if rate <= 0.0 || start >= end {
        return;
    }
    let mut t = start.as_secs_f64();
    let end_s = end.as_secs_f64();
    loop {
        // Exponential inter-arrival via inverse transform.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate;
        if t >= end_s {
            break;
        }
        out.push(mix.request_at(SimTime::from_secs_f64(t), rng));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn io_mix_defaults_are_sane() {
        let mix = IoMix::default();
        assert!(mix.read_fraction > 0.0 && mix.read_fraction < 1.0);
        assert!(mix.block_span > 0);
        assert!(mix.bytes > 0);
    }

    #[test]
    fn io_mix_respects_read_fraction_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let all_reads = IoMix {
            read_fraction: 1.0,
            ..IoMix::default()
        };
        let all_writes = IoMix {
            read_fraction: 0.0,
            ..IoMix::default()
        };
        for _ in 0..32 {
            assert_eq!(
                all_reads.request_at(SimTime::ZERO, &mut rng).kind,
                RequestKind::Read
            );
            assert_eq!(
                all_writes.request_at(SimTime::ZERO, &mut rng).kind,
                RequestKind::Write
            );
        }
    }

    #[test]
    fn poisson_arrivals_hit_target_rate() {
        let mut rng = StdRng::seed_from_u64(7);
        let mix = IoMix::default();
        let mut out = Vec::new();
        poisson_arrivals_into(
            &mut rng,
            &mix,
            1000.0,
            SimTime::ZERO,
            SimTime::from_secs(50),
            &mut out,
        );
        let rate = out.len() as f64 / 50.0;
        assert!((rate - 1000.0).abs() < 50.0, "rate {rate}");
        assert!(out.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn poisson_zero_rate_or_empty_interval_is_empty() {
        let mut rng = StdRng::seed_from_u64(7);
        let mix = IoMix::default();
        let mut out = Vec::new();
        poisson_arrivals_into(
            &mut rng,
            &mix,
            0.0,
            SimTime::ZERO,
            SimTime::from_secs(10),
            &mut out,
        );
        assert!(out.is_empty());
        poisson_arrivals_into(
            &mut rng,
            &mix,
            100.0,
            SimTime::from_secs(5),
            SimTime::from_secs(5),
            &mut out,
        );
        assert!(out.is_empty());
    }
}
