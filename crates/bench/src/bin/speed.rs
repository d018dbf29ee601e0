//! Speed benchmark: wall-clock of the parallel two-phase engine vs. the
//! sequential reference on the 3-aggregator quickstart and the 60-client
//! scalability configurations. Prints the comparison and writes
//! `BENCH_speed.json` to the working directory (override with
//! `--out PATH`; `--seed N` to vary the seed, `--full` for paper scale).
//!
//! Asserts that both engines produce byte-identical reports everywhere,
//! and — on a host with at least `SPEEDUP_GATE_THREADS` hardware threads —
//! that the quickstart configuration reaches the ≥1.5x speedup bar. On a
//! **single**-thread host the inverse bar applies instead: the parallel
//! engine's inline fallback must stay within `ONE_CORE_OVERHEAD_FACTOR`
//! of the sequential wall (the PR 10 regression fix).
//!
//! This binary — and only this binary — installs the counting global
//! allocator, so it additionally gates the arena hot path at **zero**
//! heap allocations per steady-state training batch, and a window of warm
//! storage fetches at less than one release's worth of heap bytes.

use unifyfl_bench::speed::{
    self, GateStatus, ONE_CORE_OVERHEAD_FACTOR, WARM_GETS, WARM_GET_ALLOC_BUDGET,
};

// The whole point of this binary over the library tests: every heap
// allocation in the process is counted, so the per-batch zero gate
// measures the real hot path under the real allocator.
#[global_allocator]
static ALLOC: unifyfl_bench::alloc::CountingAllocator = unifyfl_bench::alloc::CountingAllocator;

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    let bench = speed::run(cli.scale, cli.seed);
    // Resolve the ≥1.5x bar's disposition up front and record it in the
    // JSON: a run on a small host emits an explicit `"gate": "skipped"`
    // datapoint (plus `hardware_threads`) instead of silently degrading
    // into what looks like a passed gate.
    let gate = speed::gate_status(bench.threads);
    let json = speed::render_json(&bench, cli.seed, gate);
    cli.emit("speed", &speed::render(&bench), &json);

    // Correctness bar: the engines must agree bit for bit, always.
    for pair in &bench.pairs {
        assert!(
            pair.reports_identical(),
            "{}: engines produced different reports",
            pair.label,
        );
    }
    // Allocation bar: with the counting allocator installed the probes
    // always run, and the arena path — the convolution's in-layer scratch
    // included — must hold at exactly zero heap allocations per warmed-up
    // batch.
    for (model, allocs) in [
        ("mlp", bench.train_batch_allocs),
        ("cnn", bench.cnn_train_batch_allocs),
    ] {
        let allocs = allocs.expect("counting allocator is installed in this binary");
        assert_eq!(
            allocs, 0,
            "steady-state {model} training batches performed {allocs} heap allocation(s); \
             the arena path must perform none"
        );
    }
    // Copy bar: a warm fetch hands the resident buffer on, so the whole
    // window of them stays under a fraction of one 150 KB release.
    let bytes = bench
        .warm_get_alloc_bytes
        .expect("counting allocator is installed in this binary");
    assert!(
        bytes < WARM_GET_ALLOC_BUDGET,
        "{WARM_GETS} warm fetches of a 150 KB release requested {bytes} heap bytes \
         (budget {WARM_GET_ALLOC_BUDGET}): the fetch path is copying resident content",
    );
    println!(
        "(peak live heap over the whole bench: {:.1} MB)",
        unifyfl_bench::alloc::peak_bytes() as f64 / 1e6
    );
    // Performance bar: ≥1.5x on the 3-aggregator quickstart config, on a
    // multicore host. On a single-core host the parallel engine
    // cannot win — there, the bar flips to "must not lose": the inline
    // fallback keeps its wall within ONE_CORE_OVERHEAD_FACTOR of the
    // sequential reference. The identity assertion above is never
    // skippable.
    let quickstart = &bench.pairs[0];
    match gate {
        GateStatus::Enforced => {
            assert!(
                quickstart.speedup() >= 1.5,
                "{}: speedup {:.2}x fell below the 1.5x bar on a {}-thread host",
                quickstart.label,
                quickstart.speedup(),
                bench.threads,
            );
        }
        GateStatus::SkippedThreads if bench.threads == 1 => {
            assert!(
                quickstart.parallel.wall_secs
                    <= ONE_CORE_OVERHEAD_FACTOR * quickstart.sequential.wall_secs,
                "{}: parallel {:.3}s exceeded {:.1}x the sequential {:.3}s on a 1-thread host \
                 (the inline fallback must make parallel dispatch nearly free)",
                quickstart.label,
                quickstart.parallel.wall_secs,
                ONE_CORE_OVERHEAD_FACTOR,
                quickstart.sequential.wall_secs,
            );
            println!(
                "(speedup bar replaced by the 1-core overhead bar: parallel {:.3}s vs sequential {:.3}s)",
                quickstart.parallel.wall_secs, quickstart.sequential.wall_secs,
            );
        }
        skipped => {
            println!(
                "(speedup bar skipped: {}; measured {:.2}x on {} hardware thread(s))",
                skipped.reason(),
                quickstart.speedup(),
                bench.threads,
            );
        }
    }
}
