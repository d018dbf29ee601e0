//! Scale benchmark: the two-tier sharded topology at two fleet sizes
//! (60/120 clusters; 500/1,000 with `--full`). Prints the summary and
//! writes `BENCH_scale.json` to the working directory (override with
//! `--out PATH`; `--seed N` to vary the seed).
//!
//! Asserts the three scale gates: sub-quadratic wire bytes (byte-curve
//! exponent < 1.5), score tasks within the O(n·k) contract bound, and
//! shards = 1 reporting byte-identical to the unsharded engine.

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    let bench = unifyfl_bench::scale::run(cli.scale, cli.seed);
    let json = unifyfl_bench::scale::render_json(&bench, cli.seed, cli.scale);
    cli.emit("scale", &unifyfl_bench::scale::render(&bench), &json);

    assert!(
        bench.sub_quadratic(),
        "byte-curve exponent {:.3} breached the {} bar",
        bench.byte_exponent(),
        unifyfl_bench::scale::BYTE_EXPONENT_BAR,
    );
    for arm in [&bench.small, &bench.large] {
        assert!(
            arm.within_task_bound(),
            "{} clusters: {} score tasks exceed the O(n*k) bound {}",
            arm.clusters,
            arm.score_tasks,
            arm.score_task_bound,
        );
    }
    assert!(
        bench.equivalence.reports_identical,
        "shards=1 must report byte-identical to the unsharded engine",
    );
}
