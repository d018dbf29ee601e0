//! Chaos benchmark: rounds-to-converge with/without churn. Prints the
//! comparison and writes `BENCH_chaos.json` to the working directory
//! (override with `--out PATH`; `--seed N` to vary the seed).

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    let bench = unifyfl_bench::chaos::run(cli.scale, cli.seed);
    let json = unifyfl_bench::chaos::render_json(&bench, cli.seed);
    cli.emit("chaos", &unifyfl_bench::chaos::render(&bench), &json);
}
