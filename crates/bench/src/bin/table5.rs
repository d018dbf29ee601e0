//! Regenerates Table 5 (nine Tiny-ImageNet GPU-cluster runs).
//! `--run N` for a single run, `--full` for paper scale, `--seed N`.

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    let run = cli.run.as_deref().map(|r| {
        r.parse::<u32>().unwrap_or_else(|_| {
            unifyfl_bench::usage_exit(&format!("--run {r:?} is not a run number"))
        })
    });
    match run {
        Some(r) => print!("{}", unifyfl_bench::table5::render(r, cli.scale, cli.seed)),
        None => print!("{}", unifyfl_bench::table5::render_all(cli.scale, cli.seed)),
    }
}
