//! `unifyfl-bench <name> [flags]`: every paper table, figure and trajectory
//! bench behind one binary. The rows are `unifyfl_bench::BENCHES`; a bad
//! command line prints one usage line and exits 2.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(problem) = unifyfl_bench::run(&args) {
        eprintln!("{problem}");
        std::process::exit(2);
    }
}
