//! The open-loop arrival schedule: a pure function of the seed.
//!
//! The generator is the benchmark's own (SplitMix64) so that a change to
//! the repo's vendored `rand` cannot shift a schedule the recorded numbers
//! were measured under.

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Due times, in ns from the schedule's start, of `n` Poisson arrivals at
/// `rate_per_sec`: exponential gaps, cumulated. Independent users make an
/// open loop, and independent users arrive Poisson.
pub fn poisson_due_ns(seed: u64, rate_per_sec: f64, n: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0x0A22_17A1_5EED);
    let mean_gap_ns = 1e9 / rate_per_sec;
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += -(1.0 - rng.next_f64()).ln() * mean_gap_ns;
            at as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_due_ns(7, 2000.0, 5000);
        assert_eq!(a, poisson_due_ns(7, 2000.0, 5000));
        assert_ne!(a, poisson_due_ns(8, 2000.0, 5000));
        // A prefix of a longer schedule is the shorter schedule.
        assert_eq!(a[..100], poisson_due_ns(7, 2000.0, 100)[..]);
    }

    #[test]
    fn schedule_is_ordered_at_the_asked_rate() {
        let due = poisson_due_ns(1, 2000.0, 40_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let rate = due.len() as f64 / (*due.last().unwrap() as f64 / 1e9);
        assert!((rate / 2000.0 - 1.0).abs() < 0.02, "rate {rate}");
        // Exponential gaps: about e^-1 of them exceed the mean gap.
        let long = due.windows(2).filter(|w| w[1] - w[0] > 500_000).count();
        let share = long as f64 / (due.len() - 1) as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.02, "share {share}");
    }
}
