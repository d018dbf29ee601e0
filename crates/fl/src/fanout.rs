//! The workspace's one fork-join: an index-ordered fan-out that sizes
//! itself to the work.
//!
//! Both levels of fork-join parallelism go through [`fan_out`] — a
//! cluster's client fits ([`FlServer::run_round`](crate::FlServer::run_round))
//! and the parallel engine's per-cluster compute (`unifyfl-core`'s
//! `step::compute_all`) — and they nest: a cluster lane that reaches its
//! own `run_round` fans out again. Four rules decide how:
//!
//! 1. **Grain.** A fan-out whose estimated work is below `GRAIN_FLOPS`
//!    runs inline on the caller. The estimate is the FLOP model the
//!    virtual clock prices with ([`train_flops`] / [`eval_flops`]), taken
//!    on the *trained* parameter count.
//! 2. **Caller runs.** The calling thread takes the first chunk itself
//!    instead of sleeping in `join`.
//! 3. **Bounded lanes.** Items are split into contiguous chunks over at
//!    most `min(items, LANES_PER_CORE × available_parallelism)` lanes; a
//!    1-core host runs inline.
//! 4. **A lane has state.** The caller owns one `S` per lane — grown here,
//!    with `S::default()`, to as many as the widest fan-out so far used —
//!    and lane `k` computes every item of its chunk on `states[k]`. The
//!    lanes themselves are scoped threads that end with the phase; what a
//!    lane must keep warm across phases (a model shell,
//!    [`TrainShell`](crate::TrainShell)) lives in that state, so it is
//!    lane-many, not item-many. A caller with nothing to keep passes
//!    `Vec<()>`, which never allocates.
//!
//! Results come back in item order and every item is computed by the same
//! closure whatever the lane count — which state an item meets must not
//! show in its result — so a run's bytes never depend on the host: lane
//! count changes wall-clock and footprint only.
//!
//! One piece of work leaves the caller without a fork: an Async run's
//! global-test evaluations (`unifyfl-core`'s eval lane). Nothing in the
//! run reads their results until it finishes, so they need no join; the
//! run hands weight snapshots to one long-lived thread of its own instead,
//! on the same terms a fan-out forks on — [`offloads`] reads this grain and
//! the host's cores.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A panic payload, as `catch_unwind` and `JoinHandle::join` hand it over.
pub type Payload = Box<dyn Any + Send>;

/// Estimated work below which a fan-out runs inline.
///
/// A fork has to be paid back by the work it spreads. Measured on the
/// 2-core reference host, 3 clients fitted inline vs over 3 lanes (one
/// epoch, fastest / mean of 2,000 rounds in a hot loop, µs):
///
/// | clients × samples, model  | est. work  | inline      | 3 lanes     |
/// |---------------------------|------------|-------------|-------------|
/// | 3 × 1, mlp 16x16x4        |   6 KFLOP  |     3 / 5   |   28 / 90   |
/// | 3 × 36, mlp 16x24x4       | 0.33 MFLOP |    75 / 95  |   95 / 140  |
/// | 3 × 72, mlp 16x24x4       | 0.66 MFLOP |   145 / 195 |  160 / 225  |
/// | 3 × 216, mlp 16x24x4      |  2.0 MFLOP |   475 / 560 |  355 / 570  |
/// | 3 × 432, mlp 16x24x4      |  3.9 MFLOP |   860 / 1095|  625 / 970  |
/// | 3 × 36, mlp 16x256x128x4  |   24 MFLOP |  1990 / 2550| 1530 / 2400 |
///
/// A fork costs 30–100 µs here (≈ 280 µs per round in situ on
/// `service_burst`, with cold stacks and both cores already busy with
/// service workers), break-even is ≈ 2 MFLOP ≈ 0.5 ms of inline work, and
/// from 4 MFLOP forking wins. The benchmark's workloads sit two orders of
/// magnitude to either side (per cluster round ≈ 6 KFLOP `sharded_fleet`,
/// ≈ 0.33 MFLOP `service_burst` | ≈ 24 MFLOP `wan_transfer`, ≥ 300 MFLOP
/// `train_heavy`; rows 1, 2 and 6 are `fl/run_round_*` in
/// `benches/micro.rs`), and 3 MFLOP also keeps `unifyfl-bench`'s
/// quickstart×6 configuration honest: one cluster's round (≈ 2 MFLOP)
/// fits inline under either engine while the three-cluster phase
/// (≈ 6 MFLOP of training plus its evaluations) forks, so on it Parallel
/// differs from a truly sequential reference (pinned by
/// `quickstart_pair_straddles_the_fan_out_grain`).
const GRAIN_FLOPS: f64 = 3.0e6;

/// Lanes per hardware thread.
///
/// The default cluster has 3 clients and the reference host 2 cores: one
/// lane per core chunks every round 2 : 1 and waits for the double chunk
/// with a core idle, where three time-sliced lanes even out. Measured (3
/// clients on mlp 16x256x128x4, fastest of 1,000 rounds, 3 lanes vs 2):
/// fits of 2.2 ms 4.5 vs 5.0 ms, of 6 ms 10.7 vs 12.2 ms, of 16 ms 32.8 vs
/// 38.9 ms — 9–16 % once a fit outlasts a scheduler slice. Below one it is
/// a wash: at `wan_transfer`'s 0.65 ms fits 3 lanes measure 1.5–1.75 ms
/// against 1.35–1.55 ms on 2, and the workload's `run_s` does not resolve
/// the two caps (10 alternating pairs, 5 : 5, medians 0.863 s at 2 × vs
/// 0.852 s at 1 ×); `train_heavy` favours 2 × in 5 of 6 pairs by 1.8 %.
/// The price is memory — a model shell per lane (≈ 0.84 MB to train the
/// paper's CNN, ≈ 2.8 MB to evaluate it) and a thread with its allocator
/// arena: `train_heavy` (3 clusters × 20 clients on 2 cores) runs 3 cluster
/// lanes × 4 client lanes at 2 × and peaks at 61–62 MB, where 1 × (2 × 2
/// lanes) peaks at 42 MB, with `run_s` not resolved between them in three
/// alternating pairs (0.446 / 0.417 / 0.417 s against 0.409 / 0.422 /
/// 0.442 s).
const LANES_PER_CORE: usize = 2;

/// Estimated FLOPs of fitting `samples` samples for `epochs` epochs on a
/// model of `params` trained parameters (forward ≈ 2·params, backward
/// ≈ 4·params per sample).
pub fn train_flops(params: usize, samples: usize, epochs: usize) -> f64 {
    6.0 * params as f64 * samples as f64 * epochs as f64
}

/// Estimated FLOPs of one inference pass over `samples` samples.
pub fn eval_flops(params: usize, samples: usize) -> f64 {
    2.0 * params as f64 * samples as f64
}

/// Applies `f` to every item, on the state of the lane the item falls to,
/// and returns the results in item order, forking only where `flops` — the
/// caller's estimate of the whole fan-out's work — outweighs a fork (see
/// the module docs). `states` is grown to the lane count and never shrunk.
///
/// # Errors
///
/// If any `f` panics, every lane still runs to its end (a lane stops at
/// its own first panic) and the panic of the lowest-indexed item is
/// returned with that index — the same one under any lane count — for the
/// caller to `resume_unwind`, with or without context.
pub fn fan_out<T, S, R, F>(
    items: &mut [T],
    states: &mut Vec<S>,
    flops: f64,
    f: F,
) -> Result<Vec<R>, (usize, Payload)>
where
    T: Send,
    S: Default + Send,
    R: Send,
    F: Fn(&mut S, &mut T) -> R + Sync,
{
    run_lanes(items, states, lanes(items.len(), flops), &f)
}

/// Whether a fan-out of `items` items and `flops` estimated work is on the
/// forking side of the grain (it still runs inline on a 1-core host).
/// Public so a bench whose comparison depends on a configuration forking
/// can pin that it does.
pub fn forks(items: usize, flops: f64) -> bool {
    items >= 2 && flops >= GRAIN_FLOPS
}

/// Whether one item of `flops` estimated work pays for being handed whole
/// to a thread that is already running, while the caller goes on with
/// other work: at or above the grain, on a host with a second core. The
/// grain is a fork's; a hand-off to a live thread costs less, so this errs
/// on the side of keeping work inline.
pub fn offloads(flops: f64) -> bool {
    flops >= GRAIN_FLOPS && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// The lanes [`fan_out`] spreads `items` items of `flops` estimated work
/// over: 1 below the grain and on a 1-core host. Public so a caller that
/// gathers its items' inputs in waves can size a wave to what will run at
/// once.
pub fn lanes(items: usize, flops: f64) -> usize {
    if !forks(items, flops) {
        return 1;
    }
    // Queried only above the grain: it reads the affinity mask and the
    // cgroup quota, ≈ 11 µs a tiny round cannot afford.
    match std::thread::available_parallelism().map_or(1, |n| n.get()) {
        1 => 1,
        cores => items.min(LANES_PER_CORE * cores),
    }
}

/// [`fan_out`] at an explicit lane count: contiguous chunks of
/// `⌈items / lanes⌉`, the first on the calling thread, the rest on scoped
/// threads, chunk `k` on `states[k]`.
fn run_lanes<T, S, R, F>(
    items: &mut [T],
    states: &mut Vec<S>,
    lanes: usize,
    f: &F,
) -> Result<Vec<R>, (usize, Payload)>
where
    T: Send,
    S: Default + Send,
    R: Send,
    F: Fn(&mut S, &mut T) -> R + Sync,
{
    let chunk_len = items.len().div_ceil(lanes).max(1);
    let chunks = items.len().div_ceil(chunk_len).max(1);
    if states.len() < chunks {
        states.resize_with(chunks, S::default);
    }
    let (first_state, rest_states) = states.split_first_mut().expect("one state per chunk");
    if chunks == 1 {
        return run_chunk(0, items, first_state, f);
    }
    let (first, rest) = items.split_at_mut(chunk_len);
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .chunks_mut(chunk_len)
            .zip(rest_states)
            .enumerate()
            .map(|(k, (chunk, state))| {
                scope.spawn(move || run_chunk((k + 1) * chunk_len, chunk, state, f))
            })
            .collect();
        let head = run_chunk(0, first, first_state, f);
        // Join every lane before looking at any outcome, so a panic never
        // leaves a sibling running.
        let tails: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("a lane catches its items' panics"))
            .collect();
        let mut results = head?;
        for tail in tails {
            results.extend(tail?);
        }
        Ok(results)
    })
}

/// Runs one lane's chunk in order on the lane's state, stopping at its
/// first panic; `base` is the chunk's offset in the whole item list.
fn run_chunk<T, S, R>(
    base: usize,
    chunk: &mut [T],
    state: &mut S,
    f: &impl Fn(&mut S, &mut T) -> R,
) -> Result<Vec<R>, (usize, Payload)> {
    let mut done = Vec::with_capacity(chunk.len());
    catch_unwind(AssertUnwindSafe(|| {
        for item in chunk.iter_mut() {
            done.push(f(state, item));
        }
    }))
    .map_err(|payload| (base + done.len(), payload))?;
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    /// What a lane's state saw: the items it was handed, in order, and the
    /// threads that handed them.
    #[derive(Default)]
    struct LaneLog {
        items: Vec<usize>,
        threads: HashSet<ThreadId>,
    }

    proptest! {
        /// Any lane count returns the same results, in item order, and
        /// visits every item exactly once — each lane on a state of its
        /// own: chunk `k`'s items, all of them and only them, in order, on
        /// one thread, land on `states[k]`, and no state beyond the chunk
        /// count is made.
        #[test]
        fn every_lane_count_is_identical_and_index_ordered(
            values in proptest::collection::vec(any::<u32>(), 0..40),
        ) {
            let mut reference = values.clone();
            let expected: Vec<u64> = reference
                .iter_mut()
                .map(|v| {
                    *v = v.wrapping_add(1);
                    u64::from(*v) * 3
                })
                .collect();
            for lanes in 1..=8 {
                let mut items: Vec<(usize, u32)> = values.iter().copied().enumerate().collect();
                let mut states: Vec<LaneLog> = Vec::new();
                let got = run_lanes(&mut items, &mut states, lanes, &|log: &mut LaneLog, item| {
                    log.items.push(item.0);
                    log.threads.insert(std::thread::current().id());
                    item.1 = item.1.wrapping_add(1);
                    u64::from(item.1) * 3
                })
                .expect("no panic");
                prop_assert_eq!(&got, &expected, "lanes = {}", lanes);
                let stepped: Vec<u32> = items.iter().map(|item| item.1).collect();
                prop_assert_eq!(&stepped, &reference, "lanes = {}", lanes);

                let chunk_len = values.len().div_ceil(lanes).max(1);
                prop_assert_eq!(states.len(), values.len().div_ceil(chunk_len).max(1));
                let mut threads = HashSet::new();
                for (k, log) in states.iter().enumerate() {
                    let chunk: Vec<usize> =
                        (k * chunk_len..values.len().min((k + 1) * chunk_len)).collect();
                    prop_assert_eq!(&log.items, &chunk, "lanes = {}, state {}", lanes, k);
                    prop_assert!(log.threads.len() <= 1, "one lane per state");
                    for id in &log.threads {
                        prop_assert!(threads.insert(*id), "one state per lane");
                    }
                }
            }
        }
    }

    #[test]
    fn states_outlive_the_phase_and_only_grow() {
        // The second, narrower fan-out finds the first one's states — its
        // lanes' counters carry on — and leaves the extra ones alone.
        let count = |n: &mut usize, _: &mut u8| {
            *n += 1;
            *n
        };
        let mut states: Vec<usize> = Vec::new();
        run_lanes(&mut [0u8; 12], &mut states, 4, &count).expect("no panic");
        assert_eq!(states, [3, 3, 3, 3]);
        let got = run_lanes(&mut [0u8; 4], &mut states, 2, &count).expect("no panic");
        assert_eq!(got, [4, 5, 4, 5]);
        assert_eq!(states, [5, 5, 3, 3]);
    }

    /// Threads that ran an item of a 12-item fan-out at `lanes`.
    fn threads_used(lanes: usize) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        let mut items = [0u8; 12];
        run_lanes(&mut items, &mut Vec::new(), lanes, &|(), _| {
            seen.lock().unwrap().insert(std::thread::current().id());
        })
        .expect("no panic");
        seen.into_inner().unwrap()
    }

    #[test]
    fn the_caller_runs_the_first_chunk_and_lanes_bound_the_threads() {
        let caller = std::thread::current().id();
        assert_eq!(threads_used(1), HashSet::from([caller]));
        for lanes in 2..=8 {
            let used = threads_used(lanes);
            assert!(used.contains(&caller), "caller runs at lanes = {lanes}");
            // 12 items in chunks of ⌈12 / lanes⌉: never more chunks than
            // lanes, every chunk on a thread of its own.
            assert_eq!(used.len(), 12usize.div_ceil(12usize.div_ceil(lanes)));
            assert!(used.len() <= lanes);
        }
    }

    #[test]
    fn work_under_the_grain_stays_on_the_caller() {
        let caller = std::thread::current().id();
        let mut items = [0u8; 12];
        let on: Vec<ThreadId> =
            fan_out(&mut items, &mut Vec::new(), GRAIN_FLOPS * 0.99, |(), _| {
                std::thread::current().id()
            })
            .expect("no panic");
        assert!(on.iter().all(|id| *id == caller));
    }

    #[test]
    fn work_over_the_grain_forks_within_the_lane_cap() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut items = [0u8; 64];
        let on: HashSet<ThreadId> = fan_out(&mut items, &mut Vec::new(), GRAIN_FLOPS, |(), _| {
            std::thread::current().id()
        })
        .expect("no panic")
        .into_iter()
        .collect();
        assert!(on.contains(&std::thread::current().id()), "caller runs");
        if cores == 1 {
            assert_eq!(on.len(), 1, "a 1-core host runs inline");
        } else {
            assert!(on.len() > 1, "{cores} cores must fork");
            assert!(on.len() <= LANES_PER_CORE * cores);
        }
    }

    #[test]
    fn the_lowest_index_panic_wins_after_every_lane_finished() {
        // Items 3, 7 and 10 panic. Whatever the chunking — item 3 lands in
        // the caller's own chunk for lanes ≤ 3 and in a spawned one above —
        // the error is item 3's, and every lane without a panic of its own
        // ran to its end before it surfaced.
        for lanes in 1..=8 {
            let chunk_len = 12usize.div_ceil(lanes);
            let mut items: Vec<(usize, bool)> = (0..12).map(|i| (i, false)).collect();
            let (index, payload) = run_lanes(&mut items, &mut Vec::new(), lanes, &|(),
                                                                                   item: &mut (
                usize,
                bool,
            )| {
                if [3, 7, 10].contains(&item.0) {
                    std::panic::panic_any(item.0);
                }
                item.1 = true;
            })
            .expect_err("three items panic");
            assert_eq!(index, 3, "lanes = {lanes}");
            assert_eq!(payload.downcast_ref::<usize>(), Some(&3), "typed payload");
            for chunk in items.chunks(chunk_len) {
                let stop = chunk
                    .iter()
                    .position(|(i, _)| [3, 7, 10].contains(i))
                    .unwrap_or(chunk.len());
                assert!(chunk[..stop].iter().all(|(_, ran)| *ran), "lanes = {lanes}");
                assert!(
                    chunk[stop..].iter().all(|(_, ran)| !*ran),
                    "lanes = {lanes}"
                );
            }
        }
    }

    #[test]
    fn flop_estimates_follow_the_virtual_clock_model() {
        assert_eq!(train_flops(508, 36, 2), 6.0 * 508.0 * 36.0 * 2.0);
        assert_eq!(eval_flops(508, 68), 2.0 * 508.0 * 68.0);
    }
}
