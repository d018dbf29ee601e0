//! Runs the ablation sweeps over the design choices ARCHITECTURE.md calls out
//! (block-latency share, sync window margin, scorer majority size).

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    print!("{}", unifyfl_bench::ablation::render(cli.seed));
}
