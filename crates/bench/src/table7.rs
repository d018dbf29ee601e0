//! Table 7 + §4.2.7 — system overhead of running UnifyFL.
//!
//! Reports the duration-weighted CPU%/memory statistics of the three
//! process classes (scorer / aggregator / client) collected during a
//! Tiny-ImageNet Async run, plus the standing overhead of the Geth and
//! IPFS daemons. The paper's headline: the orchestration substrate costs
//! ~0.2 % CPU / 6 MB (Geth) and ~3.5 % CPU / 19 MB (IPFS) — negligible
//! next to the FL workload — and stays flat as the federation scales.

use unifyfl_core::experiment::{run_experiment, ExperimentReport};
use unifyfl_core::report::render_resources_table;
use unifyfl_data::WorkloadConfig;

use crate::{table5, Scale};

/// Runs the underlying experiment (Table 5 Run 2's configuration).
pub fn run(scale: Scale, seed: u64) -> ExperimentReport {
    run_experiment(&table5::config(2, scale, seed)).expect("table5 configs are valid")
}

/// Renders the table.
pub fn render(scale: Scale, seed: u64) -> String {
    let report = run(scale, seed);
    let mut out = String::new();
    out.push_str("Table 7: Systems metrics of Aggregators and Clients in UnifyFL\n");
    out.push_str(&format!(
        "(collected during {} | seed {seed})\n\n",
        report.label
    ));
    out.push_str(&render_resources_table(&report));
    out.push('\n');
    if let (Some(geth), Some(ipfs)) = (report.resources.get("geth"), report.resources.get("ipfs")) {
        out.push_str(&format!(
            "§4.2.7 daemon overhead: Geth {:.2}% CPU / {:.0} MB, IPFS {:.2}% CPU / {:.0} MB\n",
            geth.cpu_mean, geth.mem_mean, ipfs.cpu_mean, ipfs.mem_mean
        ));
    }
    out.push_str(&format!(
        "chain: {} blocks, {} txs ({} reverted), {} gas\n",
        report.chain.blocks, report.chain.txs, report.chain.failed_txs, report.chain.gas_used
    ));
    out.push_str(&format!(
        "storage fabric: {:.1} MB resident across nodes\n",
        report.storage_bytes as f64 / 1.0e6
    ));
    out.push_str(&crate::extrapolation_note(
        scale,
        &WorkloadConfig::tiny_imagenet(),
        &scale.apply(WorkloadConfig::tiny_imagenet()),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_match_paper_shape() {
        let report = run(Scale::Quick, 42);
        let geth = report.resources.get("geth").expect("geth tracked");
        let client = report.resources.get("client").expect("client tracked");
        let agg = report.resources.get("agg").expect("agg tracked");
        // Geth overhead is tiny (paper: 0.2% / 6 MB).
        assert!(geth.cpu_mean < 1.0, "geth cpu {}", geth.cpu_mean);
        assert!((geth.mem_mean - 6.0).abs() < 0.5);
        // Clients dominate CPU; aggregators dominate memory.
        assert!(client.cpu_mean > 10.0 * agg.cpu_mean.max(0.1));
        assert!(agg.mem_mean > client.mem_mean);
    }

    #[test]
    fn render_lists_process_classes() {
        let text = render(Scale::Quick, 42);
        for label in ["scorer", "agg", "client", "Geth", "IPFS"] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
