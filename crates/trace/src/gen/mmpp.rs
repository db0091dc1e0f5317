//! Markov-modulated Poisson process states, shared by the paced generator
//! and the trace profiles.

use crate::time::SimDuration;

/// One state of a Markov-modulated Poisson process.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MmppState {
    /// Poisson arrival rate while in this state, in ops/sec.
    pub rate: f64,
    /// Mean (exponential) holding time of the state.
    pub mean_holding: SimDuration,
}

impl MmppState {
    /// Creates a state.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative/non-finite or `mean_holding` is zero.
    pub fn new(rate: f64, mean_holding: SimDuration) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "invalid MMPP rate: {rate}");
        assert!(
            !mean_holding.is_zero(),
            "MMPP holding time must be positive"
        );
        MmppState { rate, mean_holding }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "invalid MMPP rate")]
    fn bad_rate_rejected() {
        let _ = MmppState::new(f64::NAN, SimDuration::from_secs(1));
    }
}
