//! Regenerates Table 7 and the §4.2.7 daemon-overhead numbers.

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    print!("{}", unifyfl_bench::table7::render(cli.scale, cli.seed));
}
