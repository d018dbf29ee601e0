//! Regenerates Table 1 (no-collab vs collab). `--full` for paper scale,
//! `--seed N` to vary the seed.

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    print!("{}", unifyfl_bench::table1::render(cli.scale, cli.seed));
}
