//! Gossip benchmark: topology-aware dissemination vs. flat fetch at two
//! fleet sizes (60/240 fetchers; 500/1,000 with `--full`). Prints the
//! summary and writes `BENCH_gossip.json` to the working directory
//! (override with `--out PATH`; `--seed N` to vary the seed).
//!
//! Asserts the two gossip gates: the busiest node's wire bytes grow with
//! a log-log exponent below 0.5 under overlay routing (flat ≈ 1.0), and
//! overlay runs report byte-identical to flat runs outside the transfer
//! section under the `Nominal` link model.

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    let bench = unifyfl_bench::gossip::run(cli.scale, cli.seed);
    let json = unifyfl_bench::gossip::render_json(&bench, cli.seed, cli.scale);
    cli.emit("gossip", &unifyfl_bench::gossip::render(&bench), &json);

    assert!(
        bench.sub_sqrt(),
        "gossip busiest-node exponent {:.3} breached the {} bar",
        bench.gossip_exponent(),
        unifyfl_bench::gossip::GOSSIP_EXPONENT_BAR,
    );
    assert!(
        bench.equivalence.reports_identical,
        "gossip routing must report byte-identical outside the transfer section",
    );
}
