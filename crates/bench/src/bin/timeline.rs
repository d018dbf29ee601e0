//! Timeline benchmark: virtual time-to-target-accuracy on the event
//! kernel — sync vs. async × link models × transfer optimizations ×
//! elastic membership. Prints the comparison and writes
//! `BENCH_timeline.json` to the working directory (override with
//! `--out PATH`; `--seed N` to vary the seed).
//!
//! Asserts the three gates: under the physical link model, enabling the
//! transfer optimizations strictly reduces async time-to-target versus the
//! naive-link baseline; fetch-ahead cache warming strictly reduces the
//! cache-only pair's time-to-target while genuinely converting round
//! pulls into cache hits; and a cluster joining mid-run converges into the
//! founders' accuracy band.

use unifyfl_bench::timeline::{self, TARGET_ACCURACY_PCT};

fn main() {
    let cli = unifyfl_bench::Cli::from_env();
    let bench = timeline::run(cli.seed);
    let json = timeline::render_json(&bench, cli.seed);
    cli.emit("timeline", &timeline::render(&bench), &json);

    let (on, off, transfer_holds) = bench.transfer_gate(TARGET_ACCURACY_PCT);
    assert!(
        transfer_holds,
        "transfer gate failed: async physical on={on:?} vs off={off:?}"
    );
    let (warm, cold, overlap_holds) = bench.overlap_gate(TARGET_ACCURACY_PCT);
    assert!(
        overlap_holds,
        "overlap gate failed: fetch-ahead warm={warm:?} vs cold={cold:?}"
    );
    let (joiner, founders, elastic_holds) = bench.elastic_gate();
    assert!(
        elastic_holds,
        "elastic gate failed: joiner {joiner:.1}% vs founders {founders:.1}%"
    );
}
