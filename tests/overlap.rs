//! PR 10 fetch/compute-overlap neutrality discipline: fetch-ahead warming
//! changes *when* bytes move — next-round candidate models are pulled into
//! each cluster's cache while the previous round's compute is still
//! (virtually) running — never *what* the experiment computes.
//!
//! Under the `Nominal` link mode the engines charge fixed per-fetch
//! durations regardless of cache state, so a fetch-ahead run must produce
//! a report **byte-identical** to the cold run outside the transfer
//! section (which legitimately differs: warmed pulls land as cache hits).
//! The tests strip the transfer section and compare the full `Debug`
//! rendering of everything else. Under `Physical` the warm cache is the
//! point: the round's pulls get cheaper, so time-to-finish shrinks.

use proptest::prelude::*;
use unifyfl::core::experiment::{ExperimentBuilder, ExperimentReport, LinkModel, Mode};

fn run(seed: u64, mode: Mode, link_model: LinkModel, fetch_ahead: bool) -> ExperimentReport {
    // Four rounds so rounds 2..4 each get a fetch-ahead warm-up (round 1
    // has no candidates to warm — nothing has been published yet).
    ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(4)
        .mode(mode)
        .link_model(link_model)
        .fetch_ahead(fetch_ahead)
        .run()
        .expect("valid configuration")
}

proptest! {
    /// Fetch-ahead is a report-level no-op under `Nominal`, across seeds
    /// and both orchestration modes.
    #[test]
    fn fetch_ahead_is_byte_identical_outside_transfer(
        seed in any::<u64>(),
        mode_idx in 0usize..2,
    ) {
        let mode = [Mode::Sync, Mode::Async][mode_idx];
        let cold = run(seed, mode, LinkModel::Nominal, false);
        let warmed = run(seed, mode, LinkModel::Nominal, true);
        prop_assert_eq!(
            format!("{:?}", cold.without_transfer()),
            format!("{:?}", warmed.without_transfer()),
            "fetch-ahead must be result-neutral (seed {}, {})",
            seed,
            mode
        );
    }
}

#[test]
fn fetch_ahead_is_neutral_at_pinned_seeds_and_actually_warms() {
    for mode in [Mode::Sync, Mode::Async] {
        for seed in [7u64, 42, 1234] {
            let cold = run(seed, mode, LinkModel::Nominal, false);
            let warmed = run(seed, mode, LinkModel::Nominal, true);
            // The warm-up genuinely engaged: the round's pulls found their
            // bytes cached, which a cold run at the same seed never does.
            assert!(
                warmed.transfer.cache_hits > cold.transfer.cache_hits,
                "fetch-ahead must convert round pulls into cache hits \
                 ({} vs {}, seed {seed}, {mode})",
                warmed.transfer.cache_hits,
                cold.transfer.cache_hits
            );
            assert_eq!(
                format!("{:?}", cold.without_transfer()),
                format!("{:?}", warmed.without_transfer()),
                "fetch-ahead must be result-neutral (seed {seed}, {mode})"
            );
        }
    }
}

#[test]
fn fetch_ahead_hides_physical_transfer_behind_compute() {
    // Under the Physical link model fetch time is charged from the storage
    // layer's actual transfer receipts, so pulls served from a warmed
    // cache are cheaper and the run finishes no later — strictly earlier
    // whenever any round pull would have gone remote.
    for mode in [Mode::Sync, Mode::Async] {
        for seed in [7u64, 42] {
            let cold = run(seed, mode, LinkModel::Physical, false);
            let warmed = run(seed, mode, LinkModel::Physical, true);
            assert!(
                warmed.wall_secs <= cold.wall_secs,
                "a warm cache can never slow the run down \
                 ({} vs {}, seed {seed}, {mode})",
                warmed.wall_secs,
                cold.wall_secs
            );
            assert!(
                warmed.transfer.cache_hits > cold.transfer.cache_hits,
                "fetch-ahead must engage under Physical too (seed {seed}, {mode})"
            );
        }
    }
}

#[test]
fn fetch_ahead_moves_no_more_wire_bytes_than_the_cold_run() {
    // A warm-up pulls what the round's own fetch would have pulled, the
    // same way: where the round would have moved a delta, so does the
    // warm-up. Fetch-ahead changes when the bytes move, never how many.
    for link_model in [LinkModel::Nominal, LinkModel::Physical] {
        for mode in [Mode::Sync, Mode::Async] {
            for seed in [7u64, 42, 1234] {
                let cold = run(seed, mode, link_model, false).transfer;
                let warmed = run(seed, mode, link_model, true).transfer;
                assert_eq!(
                    (warmed.physical_bytes, warmed.delta_fetches),
                    (cold.physical_bytes, cold.delta_fetches),
                    "fetch-ahead must move exactly the cold run's wire bytes \
                     and deltas (seed {seed}, {mode}, {link_model})"
                );
            }
        }
    }
}
