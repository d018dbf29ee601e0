//! Clustering benchmark: distance-driven dynamic re-clustering vs. the
//! static shard assignment under a mid-run domain drift, plus the
//! topology-epoch refactor's baseline-identity grid. Prints the summary
//! and writes `BENCH_clustering.json` to the working directory (override
//! with `--out PATH`; `--seed N` to vary the seed, `--full` for the
//! 20-round scenario).
//!
//! Asserts the three clustering gates: regrouping reaches the undrifted
//! target accuracy strictly earlier than the static assignment, the
//! regroup arm is same-seed deterministic, and with `regroup: None` every
//! pinned pre-refactor report fingerprint reproduces bit for bit under
//! both engines.

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    let bench = unifyfl_bench::clustering::run(cli.scale, cli.seed);
    let json = unifyfl_bench::clustering::render_json(&bench, cli.seed, cli.scale);
    cli.emit(
        "clustering",
        &unifyfl_bench::clustering::render(&bench),
        &json,
    );

    assert!(
        bench.regroup_beats_static(),
        "dynamic regrouping must reach {}% undrifted accuracy strictly \
         before the static assignment (static {:?}s vs regroup {:?}s)",
        unifyfl_bench::clustering::TARGET_ACCURACY_PCT,
        bench.static_arm.time_to_target_secs,
        bench.regroup_arm.time_to_target_secs,
    );
    assert!(
        bench.deterministic,
        "regroup arm must be byte-identical across same-seed runs",
    );
    assert!(
        bench.identity.identical(),
        "regroup: None must reproduce every pinned pre-refactor fingerprint; \
         mismatches: {:?}",
        bench.identity.mismatches,
    );
}
