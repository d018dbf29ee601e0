//! Regenerates the §4.2.6 scalability experiment (60 clients, 3 aggregators).

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    print!(
        "{}",
        unifyfl_bench::scalability::render(cli.scale, cli.seed)
    );
}
