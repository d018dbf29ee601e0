//! Transfer benchmark: bytes-on-wire with the bandwidth-aware transfer
//! layer on vs. off.
//!
//! Runs the §4.2.6 scalability configuration (3 aggregators at 9 and 60
//! total clients) twice per fleet size — once with every fetch-side
//! optimization disabled (the naive re-fetch-everything baseline) and once
//! with chunk dedup, delta fetch and the fetch cache enabled — and
//! reports wire bytes, the reduction factor, and the virtual wall time
//! (like every bench here, times are simulated — output at a fixed seed is
//! byte-identical across runs and machines).
//!
//! Because the publish path is knob-independent, the two arms are required
//! to produce **bit-identical reports** outside the transfer section:
//! same accuracies, same virtual times, same chain, same resident storage.
//! The optimization changes how many bytes move, never the result.
//! `unifyfl-bench transfer` writes `BENCH_transfer.json` (schema in
//! `docs/BENCH.md`); `docs/baselines/transfer.json` pins it at quick scale.

use unifyfl_core::experiment::{run_experiment, ExperimentReport, TransferReport};
use unifyfl_core::report::{render_run_table, render_transfer_summary};
use unifyfl_core::TransferConfig;

use crate::{fixed, int, scalability, Json, Scale};

/// One (fleet size × config) measurement.
#[derive(Clone)]
pub struct Arm {
    /// The experiment report.
    pub report: ExperimentReport,
}

/// The paired baseline/optimized measurement at one fleet size.
#[derive(Clone)]
pub struct Pair {
    /// Total clients across the 3 aggregators.
    pub clients: usize,
    /// Every optimization off.
    pub off: Arm,
    /// Dedup + delta + cache on.
    pub on: Arm,
}

impl Pair {
    /// Wire-byte reduction: baseline physical bytes over optimized
    /// physical bytes.
    pub fn reduction(&self) -> f64 {
        let off = self.off.report.transfer.physical_bytes;
        let on = self.on.report.transfer.physical_bytes;
        if on == 0 {
            f64::INFINITY
        } else {
            off as f64 / on as f64
        }
    }

    /// True if the two arms' reports are bit-identical outside the
    /// transfer section (the optimization's correctness contract).
    pub fn reports_identical(&self) -> bool {
        let strip = |r: &ExperimentReport| {
            let mut r = r.clone();
            r.transfer = TransferReport::default();
            format!("{r:?}")
        };
        strip(&self.off.report) == strip(&self.on.report)
    }

    /// Mean final global accuracy (percent) of the optimized arm.
    pub fn mean_accuracy_pct(&self) -> f64 {
        let aggs = &self.on.report.aggregators;
        aggs.iter().map(|a| a.global_accuracy_pct).sum::<f64>() / aggs.len() as f64
    }
}

/// The complete benchmark result.
#[derive(Clone)]
pub struct TransferBench {
    /// One pair per fleet size (9 and 60 clients).
    pub pairs: Vec<Pair>,
}

impl TransferBench {
    /// The two transfer gates: every pair's arms report bit-identically
    /// outside the transfer section, and the largest fleet moves at least
    /// 2× fewer bytes with the optimizations on.
    ///
    /// # Panics
    ///
    /// Panics on the first gate that does not hold.
    pub fn assert_gates(&self) {
        for pair in &self.pairs {
            assert!(
                pair.reports_identical(),
                "{}-client arms diverged outside the transfer section",
                pair.clients,
            );
        }
        let largest = self.pairs.last().expect("at least one pair");
        assert!(
            largest.reduction() >= 2.0,
            "{}-client wire reduction {:.2}x fell below the 2x bar ({} -> {} bytes)",
            largest.clients,
            largest.reduction(),
            largest.off.report.transfer.physical_bytes,
            largest.on.report.transfer.physical_bytes,
        );
    }
}

fn run_arm(clients_per_agg: usize, scale: Scale, seed: u64, transfer: TransferConfig) -> Arm {
    let mut config = scalability::config(clients_per_agg, scale, seed);
    config.transfer = transfer;
    let report = run_experiment(&config).expect("scalability config is valid");
    Arm { report }
}

/// Runs one baseline/optimized pair at `clients_per_agg` clients per
/// aggregator.
pub fn run_pair(clients_per_agg: usize, scale: Scale, seed: u64) -> Pair {
    Pair {
        clients: clients_per_agg * 3,
        off: run_arm(clients_per_agg, scale, seed, TransferConfig::disabled()),
        on: run_arm(clients_per_agg, scale, seed, TransferConfig::default()),
    }
}

/// Runs both fleet sizes (9 and 60 clients).
pub fn run(scale: Scale, seed: u64) -> TransferBench {
    TransferBench {
        pairs: vec![run_pair(3, scale, seed), run_pair(20, scale, seed)],
    }
}

/// Renders the machine-readable `BENCH_transfer.json` body. An all-zero
/// optimized arm makes the reduction infinite, which renders as `null`.
pub fn render_json(bench: &TransferBench, seed: u64) -> Json {
    let arm_json = |arm: &Arm| {
        let t = &arm.report.transfer;
        Json::obj([
            ("physical_bytes", int(t.physical_bytes)),
            ("logical_bytes", int(t.logical_bytes)),
            ("dedup_chunks_skipped", int(t.dedup_chunks_skipped)),
            ("cache_hits", int(t.cache_hits)),
            ("cache_misses", int(t.cache_misses)),
            ("delta_fetches", int(t.delta_fetches)),
            ("delta_fallbacks", int(t.delta_fallbacks)),
            ("wall_secs", fixed(arm.report.wall_secs, 3)),
        ])
    };
    let pairs = bench.pairs.iter().map(|pair| {
        Json::obj([
            ("clients", int(pair.clients)),
            ("off", arm_json(&pair.off)),
            ("on", arm_json(&pair.on)),
            ("bytes_on_wire_reduction", fixed(pair.reduction(), 3)),
            ("reports_identical", Json::Bool(pair.reports_identical())),
            (
                "mean_final_accuracy_pct",
                fixed(pair.mean_accuracy_pct(), 3),
            ),
        ])
    });
    Json::obj([
        ("bench", Json::str("transfer")),
        ("seed", int(seed)),
        ("pairs", Json::Arr(pairs.collect())),
    ])
}

/// Renders the human-readable comparison.
pub fn render(bench: &TransferBench) -> String {
    let mut out = String::new();
    out.push_str("Transfer bench: bytes-on-wire, dedup/delta/cache on vs. off\n\n");
    for pair in &bench.pairs {
        out.push_str(&format!("-- {} clients --\n", pair.clients));
        out.push_str(&render_run_table(&pair.on.report));
        out.push_str("\n[off] ");
        out.push_str(&render_transfer_summary(&pair.off.report));
        out.push_str("[on]  ");
        out.push_str(&render_transfer_summary(&pair.on.report));
        out.push_str(&format!(
            "bytes-on-wire reduction: {:.2}x | reports identical outside transfer: {}\n\n",
            pair.reduction(),
            pair.reports_identical(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick-scale seed-42 run every test reads.
    fn quick() -> &'static TransferBench {
        static RUN: std::sync::OnceLock<TransferBench> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(Scale::Quick, 42))
    }

    #[test]
    fn sixty_client_reduction_is_at_least_2x_with_identical_results() {
        // The acceptance bars: ≥2x fewer bytes on the wire at the 60-client
        // scalability configuration, with bit-identical results.
        quick().assert_gates();
        let pair = &quick().pairs[1];
        assert_eq!(pair.clients, 60);
        // The mechanisms actually engaged.
        let on = &pair.on.report.transfer;
        assert!(on.delta_fetches > 0, "delta fetches must occur");
        assert!(on.delta_publishes > 0, "delta publishes must occur");
        assert!(on.logical_bytes > on.physical_bytes);
        // And the baseline arm really was naive.
        let off = &pair.off.report.transfer;
        assert_eq!(off.delta_fetches, 0);
        assert_eq!(off.cache_hits, 0);
        assert_eq!(off.dedup_chunks_skipped, 0);
    }

    #[test]
    fn nine_client_pair_also_reduces_and_matches() {
        let pair = &quick().pairs[0];
        assert_eq!(pair.clients, 9);
        assert!(pair.reports_identical());
        assert!(
            pair.reduction() > 1.5,
            "small fleet still reduces: {:.2}x",
            pair.reduction()
        );
    }

    #[test]
    fn json_rendering_is_well_formed() {
        crate::assert_matches_baseline("transfer", &render_json(quick(), 42));

        // An optimized arm that moved nothing makes the reduction infinite;
        // JSON has no `inf` token, so the field must come out as `null`.
        let mut bench = quick().clone();
        bench.pairs[0].on.report.transfer.physical_bytes = 0;
        let json = Json::parse(&render_json(&bench, 42).render()).expect("still well-formed");
        let pair = &json.get("pairs").and_then(Json::as_arr).expect("pairs")[0];
        assert_eq!(pair.get("bytes_on_wire_reduction"), Some(&Json::Null));
    }
}
