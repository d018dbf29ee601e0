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

use unifyfl_core::experiment::{run_experiment, ExperimentReport};
use unifyfl_core::report::{render_run_table, render_transfer_summary};
use unifyfl_core::TransferConfig;

use crate::{fixed, int, scalability, Json, Scale};

/// The paired baseline/optimized measurement at one fleet size.
#[derive(Clone)]
pub struct Pair {
    /// Total clients across the 3 aggregators.
    pub clients: usize,
    /// Every optimization off.
    pub off: ExperimentReport,
    /// Dedup + delta + cache on.
    pub on: ExperimentReport,
}

impl Pair {
    /// Wire-byte reduction: baseline physical bytes over optimized
    /// physical bytes.
    pub fn reduction(&self) -> f64 {
        let off = self.off.transfer.physical_bytes;
        let on = self.on.transfer.physical_bytes;
        if on == 0 {
            f64::INFINITY
        } else {
            off as f64 / on as f64
        }
    }

    /// True if the two arms' reports are bit-identical outside the
    /// transfer section (the optimization's correctness contract).
    pub fn reports_identical(&self) -> bool {
        format!("{:?}", self.off.without_transfer()) == format!("{:?}", self.on.without_transfer())
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
            largest.off.transfer.physical_bytes,
            largest.on.transfer.physical_bytes,
        );
    }
}

/// Runs one baseline/optimized pair at `clients_per_agg` clients per
/// aggregator.
pub fn run_pair(clients_per_agg: usize, scale: Scale, seed: u64) -> Pair {
    let arm = |transfer| {
        let mut config = scalability::config(clients_per_agg, scale, seed);
        config.transfer = transfer;
        run_experiment(&config).expect("scalability config is valid")
    };
    Pair {
        clients: clients_per_agg * 3,
        off: arm(TransferConfig::disabled()),
        on: arm(TransferConfig::default()),
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
pub fn render_json(bench: &TransferBench, seed: u64, scale: Scale) -> Json {
    let arm_json = |arm: &ExperimentReport| {
        let t = &arm.transfer;
        Json::obj([
            ("physical_bytes", int(t.physical_bytes)),
            ("logical_bytes", int(t.logical_bytes)),
            ("dedup_chunks_skipped", int(t.dedup_chunks_skipped)),
            ("cache_hits", int(t.cache_hits)),
            ("cache_misses", int(t.cache_misses)),
            ("delta_fetches", int(t.delta_fetches)),
            ("delta_fallbacks", int(t.delta_fallbacks)),
            ("wall_secs", fixed(arm.wall_secs, 3)),
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
                fixed(pair.on.mean_global_accuracy_pct(|_| true), 3),
            ),
        ])
    });
    Json::obj([
        ("bench", Json::str("transfer")),
        ("seed", int(seed)),
        ("scale", Json::str(scale.label())),
        ("pairs", Json::Arr(pairs.collect())),
    ])
}

/// Renders the human-readable comparison.
pub fn render(bench: &TransferBench) -> String {
    let mut out = String::new();
    out.push_str("Transfer bench: bytes-on-wire, dedup/delta/cache on vs. off\n\n");
    for pair in &bench.pairs {
        out.push_str(&format!("-- {} clients --\n", pair.clients));
        out.push_str(&render_run_table(&pair.on));
        out.push_str("\n[off] ");
        out.push_str(&render_transfer_summary(&pair.off));
        out.push_str("[on]  ");
        out.push_str(&render_transfer_summary(&pair.on));
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
        let on = &pair.on.transfer;
        assert!(on.delta_fetches > 0, "delta fetches must occur");
        assert!(on.delta_publishes > 0, "delta publishes must occur");
        assert!(on.logical_bytes > on.physical_bytes);
        // And the baseline arm really was naive.
        let off = &pair.off.transfer;
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
        crate::assert_matches_baseline("transfer", &render_json(quick(), 42, Scale::Quick));

        // An optimized arm that moved nothing makes the reduction infinite;
        // JSON has no `inf` token, so the field must come out as `null`.
        let mut bench = quick().clone();
        bench.pairs[0].on.transfer.physical_bytes = 0;
        let json = Json::parse(&render_json(&bench, 42, Scale::Quick).render())
            .expect("still well-formed");
        let pair = &json.get("pairs").and_then(Json::as_arr).expect("pairs")[0];
        assert_eq!(pair.get("bytes_on_wire_reduction"), Some(&Json::Null));
    }
}
