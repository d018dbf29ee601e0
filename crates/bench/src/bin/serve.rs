//! Serve benchmark: daemon throughput and round latency under a queued
//! submission burst (60 experiments against an 8-in-flight service —
//! ≥50 queued), plus the checkpoint/restart/resume identity probe.
//! Prints the summary and writes `BENCH_serve.json` to the working
//! directory (override with `--out PATH`; `--seed N` to vary the seed).
//!
//! Asserts that every submission completes, that the burst genuinely
//! queued at least 50 submissions, and that a mid-run checkpoint resumed
//! through a fresh service reproduces the uninterrupted report byte for
//! byte.

use unifyfl_bench::serve;

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    let bench = serve::run(cli.seed);
    let json = serve::render_json(&bench, cli.seed);
    cli.emit("serve", &serve::render(&bench), &json);

    assert_eq!(
        bench.completed, bench.submissions,
        "every submission must complete under the burst"
    );
    assert!(
        bench.queued_after_inlet >= 50,
        "the burst must queue at least 50 submissions (got {})",
        bench.queued_after_inlet,
    );
    assert!(
        bench.resume_identical,
        "checkpoint/restart/resume must reproduce the uninterrupted report byte for byte"
    );
}
