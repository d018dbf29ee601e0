//! Regenerates Table 6 (CIFAR edge-cluster runs C1–C3).
//! `--run C2` for a single run, `--full` for paper scale, `--seed N`.

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    match &cli.run {
        Some(r) => print!("{}", unifyfl_bench::table6::render(r, cli.scale, cli.seed)),
        None => print!("{}", unifyfl_bench::table6::render_all(cli.scale, cli.seed)),
    }
}
