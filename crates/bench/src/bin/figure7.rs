//! Regenerates Figure 7 (Byzantine: naive vs smart policy) as two
//! accuracy-over-time series.

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    print!("{}", unifyfl_bench::figure7::render(cli.scale, cli.seed));
}
