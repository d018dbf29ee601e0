//! Transfer benchmark: bytes-on-wire with the bandwidth-aware transfer
//! layer on vs. off, at 9 and 60 clients. Prints the comparison and writes
//! `BENCH_transfer.json` to the working directory (override with
//! `--out PATH`; `--seed N` to vary the seed, `--full` for paper scale).

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    let bench = unifyfl_bench::transfer::run(cli.scale, cli.seed);
    let json = unifyfl_bench::transfer::render_json(&bench, cli.seed);
    cli.emit("transfer", &unifyfl_bench::transfer::render(&bench), &json);

    // Enforce the acceptance bars so the CI step fails loudly on
    // regression instead of publishing a quietly-degraded artifact.
    for pair in &bench.pairs {
        assert!(
            pair.reports_identical(),
            "{}-client arms diverged outside the transfer section",
            pair.clients,
        );
    }
    let largest = bench.pairs.last().expect("at least one pair");
    assert!(
        largest.reduction() >= 2.0,
        "{}-client wire reduction {:.2}x fell below the 2x bar",
        largest.clients,
        largest.reduction(),
    );
}
