//! Fault injection: when a fetch fails at the DHT, when a chunk is lost,
//! and how both are counted.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded fault injector for the storage fabric: whole-fetch DHT failures
/// and per-chunk transfer loss with a bounded retry budget. Quiescent
/// unless installed via [`IpfsNetwork::install_faults`](super::IpfsNetwork::install_faults); every decision is
/// drawn from one deterministic stream, so identical call sequences yield
/// identical fault sequences.
#[derive(Debug)]
pub struct StorageFaults {
    rng: StdRng,
    /// Probability a remote fetch fails at provider resolution.
    fetch_failure_prob: f64,
    /// Probability one chunk transfer is lost (then retried).
    chunk_loss_prob: f64,
    /// Retry budget per chunk before the fetch errors out.
    pub(super) chunk_retries: u32,
    pub(super) stats: StorageFaultStats,
}

/// Cumulative accounting of injected storage faults.
///
/// Caller-level whole-fetch retries are split by outcome: every retry ends
/// in exactly one of [`StorageFaultStats::fetch_recoveries`] (the retry
/// succeeded) or [`StorageFaultStats::fetch_permanent_failures`] (the retry
/// failed too and the fetch was abandoned), so
/// `fetch_retries == fetch_recoveries + fetch_permanent_failures` once all
/// outcomes are recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageFaultStats {
    /// Whole fetches that failed at the DHT lookup.
    pub fetch_failures: u64,
    /// Whole-fetch retries requested by callers.
    pub fetch_retries: u64,
    /// Whole-fetch retries that succeeded (transient failure, recovered).
    pub fetch_recoveries: u64,
    /// Whole-fetch retries that failed again (the fetch was abandoned).
    pub fetch_permanent_failures: u64,
    /// Individual chunk transfers lost.
    pub chunk_losses: u64,
    /// Chunk retransmissions performed.
    pub chunk_retries: u64,
    /// Fetches abandoned after exhausting the chunk retry budget.
    pub exhausted_fetches: u64,
}

impl StorageFaults {
    /// Creates an injector drawing from `seed`.
    pub fn new(
        seed: u64,
        fetch_failure_prob: f64,
        chunk_loss_prob: f64,
        chunk_retries: u32,
    ) -> Self {
        StorageFaults {
            rng: StdRng::seed_from_u64(seed),
            fetch_failure_prob,
            chunk_loss_prob,
            chunk_retries,
            stats: StorageFaultStats::default(),
        }
    }

    fn roll(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.gen::<f64>() < prob
    }

    pub(super) fn roll_fetch_failure(&mut self) -> bool {
        let p = self.fetch_failure_prob;
        self.roll(p)
    }

    pub(super) fn roll_chunk_loss(&mut self) -> bool {
        let p = self.chunk_loss_prob;
        self.roll(p)
    }
}
