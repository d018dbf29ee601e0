//! Timeline benchmark: virtual **time-to-target-accuracy** on the event
//! kernel — sync vs. async orchestration × link time models × transfer
//! optimizations × elastic membership.
//!
//! All arms run WAN-attached clusters
//! ([`LinkProfile::wan`](unifyfl_storage::LinkProfile::wan)) so storage
//! traffic matters. The headline comparison runs under
//! [`LinkModel::Physical`], where the storage layer's *physical* bytes
//! moved (PR 3 chunk dedup / delta fetch / fetch cache) drive the virtual
//! clock:
//!
//! - **async physical, transfer on vs. off** — the bench's hard gate: with
//!   the PR 3 optimizations enabled, time-to-target-accuracy must be
//!   *strictly* lower than the naive-link baseline (every fetch full-size
//!   on the wire). Free-running async timing makes the savings visible
//!   directly: each cluster's round completion is the true sum of its
//!   transfer and compute durations.
//! - **sync physical, transfer on vs. off** — reported without a gate:
//!   sync round completions are quantized to the phase windows (which are
//!   sized from *nominal* costs), so byte savings shrink idle time inside
//!   the window rather than the timeline. The JSON records both arms so
//!   the quantization effect stays visible.
//! - **fetch/compute overlap (PR 10)** — a *cache-only* transfer pair
//!   (dedup/delta off, fetch cache on) that isolates fetch-ahead warming
//!   from the PR 3 byte optimizations: every cold pull is full-size on
//!   the wire, so hiding the scoring and merge pulls behind the previous
//!   round's compute shows up directly on the timeline. Gated: the async
//!   warm arm's time-to-target must be *strictly* below the cold
//!   cache-only arm, with strictly more cache hits (the warm-up genuinely
//!   engaged). A sync warm arm is reported without a gate (sync rounds
//!   are window-quantized, so warming shrinks idle time, not the clock).
//! - **elastic membership** — an async physical arm where a fourth cluster
//!   joins mid-run, bootstraps from the latest scored releases, and must
//!   converge into the founders' accuracy band (second gate).
//!
//! `unifyfl-bench timeline` writes `BENCH_timeline.json` (schema in
//! `docs/BENCH.md`); `docs/baselines/timeline.json` pins it at seed 42.

use unifyfl_core::cluster::ClusterConfig;
use unifyfl_core::experiment::{
    run_experiment, ExperimentBuilder, ExperimentConfig, ExperimentReport, LinkModel, Mode,
};
use unifyfl_core::report::render_run_table;
use unifyfl_core::TransferConfig;
use unifyfl_sim::SimDuration;
use unifyfl_storage::LinkProfile;

use crate::{fixed, int, Json};

/// Accuracy bar (percent) the time-to-target clock stops at. Chosen so
/// every arm of the quick configuration comfortably crosses it while
/// leaving rounds of headroom (the quickstart task converges near 60 %).
pub const TARGET_ACCURACY_PCT: f64 = 45.0;

/// Maximum |joiner − founders| final-accuracy gap (percentage points) the
/// elastic arm tolerates — the paper's per-aggregator accuracy spread
/// within one run (Tables 5/6) stays inside single digits.
pub const JOIN_BAND_PCT: f64 = 10.0;

/// One measured configuration; its label is the report's.
#[derive(Clone)]
pub struct TimelineArm {
    /// Whether fetch-ahead cache warming (PR 10) ran in this arm.
    pub fetch_ahead: bool,
    /// The experiment report.
    pub report: ExperimentReport,
}

impl TimelineArm {
    /// Virtual seconds until the *federation mean* global accuracy first
    /// reaches `target_pct`: per round, the mean over every cluster that
    /// recorded the round, timestamped at the slowest such cluster. `None`
    /// if the run never got there.
    pub fn time_to_target(&self, target_pct: f64) -> Option<f64> {
        let curve = self.report.round_means(|_| true);
        let reached = curve.iter().find(|m| m.global_accuracy_pct >= target_pct);
        reached.map(|m| m.time_secs)
    }
}

/// The complete benchmark result.
#[derive(Clone)]
pub struct TimelineBench {
    /// Every measured arm, in grid order.
    pub arms: Vec<TimelineArm>,
    /// Index of the async-physical transfer-on arm (gate numerator).
    pub async_on: usize,
    /// Index of the async-physical transfer-off arm (gate denominator).
    pub async_off: usize,
    /// Index of the async-physical fetch-ahead arm (overlap-gate warm side).
    pub overlap_on: usize,
    /// Index of the async-physical cache-only arm without fetch-ahead
    /// (overlap-gate cold side).
    pub overlap_cold: usize,
    /// Index of the elastic-membership arm.
    pub elastic: usize,
    /// Index of the joiner cluster inside the elastic arm.
    pub joiner: usize,
}

impl TimelineBench {
    /// The hard gate: async physical time-to-target with the transfer
    /// optimizations on, strictly below the naive-link baseline. Returns
    /// `(on_secs, off_secs, holds)`.
    pub fn transfer_gate(&self, target_pct: f64) -> (Option<f64>, Option<f64>, bool) {
        let on = self.arms[self.async_on].time_to_target(target_pct);
        let off = self.arms[self.async_off].time_to_target(target_pct);
        let holds = matches!((on, off), (Some(a), Some(b)) if a < b);
        (on, off, holds)
    }

    /// The fetch/compute-overlap gate: warming upcoming pulls into the
    /// fetch cache during compute (PR 10) must put the async cache-only
    /// warm arm's time-to-target *strictly* below its cold counterpart —
    /// and it must have genuinely engaged, visible as strictly more cache
    /// hits than the cold arm. Returns `(warm_secs, cold_secs, holds)`.
    pub fn overlap_gate(&self, target_pct: f64) -> (Option<f64>, Option<f64>, bool) {
        let warm = self.arms[self.overlap_on].time_to_target(target_pct);
        let cold = self.arms[self.overlap_cold].time_to_target(target_pct);
        let engaged = self.arms[self.overlap_on].report.transfer.cache_hits
            > self.arms[self.overlap_cold].report.transfer.cache_hits;
        let holds = engaged && matches!((warm, cold), (Some(a), Some(b)) if a < b);
        (warm, cold, holds)
    }

    /// The elastic gate: the joiner's final global accuracy lands within
    /// [`JOIN_BAND_PCT`] of the founders' mean. Returns
    /// `(joiner_pct, founders_pct, holds)`.
    pub fn elastic_gate(&self) -> (f64, f64, bool) {
        let report = &self.arms[self.elastic].report;
        let joiner = report.aggregators[self.joiner].global_accuracy_pct;
        let founders_mean = report.mean_global_accuracy_pct(|i| i != self.joiner);
        let holds = (joiner - founders_mean).abs() <= JOIN_BAND_PCT;
        (joiner, founders_mean, holds)
    }

    /// Asserts the three gates at [`TARGET_ACCURACY_PCT`].
    ///
    /// # Panics
    ///
    /// Panics on the first gate that does not hold.
    pub fn assert_gates(&self) {
        let (on, off, holds) = self.transfer_gate(TARGET_ACCURACY_PCT);
        assert!(
            holds,
            "transfer gate: async physical transfer-on ({on:?}) must reach the target \
             strictly before the naive-link baseline ({off:?})"
        );
        let (warm, cold, holds) = self.overlap_gate(TARGET_ACCURACY_PCT);
        assert!(
            holds,
            "overlap gate: the fetch-ahead arm ({warm:?}) must reach the target strictly \
             before the cold cache-only arm ({cold:?}) and convert pulls into cache hits"
        );
        let (joiner, founders, holds) = self.elastic_gate();
        assert!(
            holds,
            "elastic gate: joiner {joiner:.1}% must land within ±{JOIN_BAND_PCT}pp of \
             founders {founders:.1}%"
        );
    }
}

/// The WAN-attached configuration the whole grid derives from: the
/// quickstart task with a wider MLP, so each release blob is ~150 KB and
/// the physical link model has real bytes to charge — over
/// [`LinkProfile::wan`], byte serialization (~150 ms per full fetch)
/// dominates the fixed per-fetch latency, so the transfer layer's byte
/// savings are visible on the timeline rather than drowned in round-trips.
fn base_config(seed: u64, mode: Mode, link_model: LinkModel) -> ExperimentConfig {
    let mut config = ExperimentBuilder::quickstart()
        .seed(seed)
        .rounds(6)
        .mode(mode)
        .link_model(link_model)
        .config()
        .clone();
    config.workload.model = unifyfl_tensor::zoo::ModelSpec::mlp(16, vec![256, 128], 4);
    for c in &mut config.clusters {
        *c = c.clone().with_link(LinkProfile::wan());
    }
    config
}

fn run_arm(label: &str, mut config: ExperimentConfig, transfer: TransferConfig) -> TimelineArm {
    config.transfer = transfer;
    config.label = label.to_owned();
    TimelineArm {
        fetch_ahead: config.fetch_ahead,
        report: run_experiment(&config).expect("timeline config is valid"),
    }
}

/// Runs the full grid. `seed` parameterizes every arm identically.
pub fn run(seed: u64) -> TimelineBench {
    // Nominal-link reference points (sync vs. async), the window-
    // quantized sync physical pair (no gate), and the gated async
    // physical pair.
    let mut arms = vec![
        run_arm(
            "sync-nominal",
            base_config(seed, Mode::Sync, LinkModel::Nominal),
            TransferConfig::default(),
        ),
        run_arm(
            "async-nominal",
            base_config(seed, Mode::Async, LinkModel::Nominal),
            TransferConfig::default(),
        ),
        run_arm(
            "sync-physical-off",
            base_config(seed, Mode::Sync, LinkModel::Physical),
            TransferConfig::disabled(),
        ),
        run_arm(
            "sync-physical-on",
            base_config(seed, Mode::Sync, LinkModel::Physical),
            TransferConfig::default(),
        ),
        run_arm(
            "async-physical-off",
            base_config(seed, Mode::Async, LinkModel::Physical),
            TransferConfig::disabled(),
        ),
        run_arm(
            "async-physical-on",
            base_config(seed, Mode::Async, LinkModel::Physical),
            TransferConfig::default(),
        ),
        run_arm(
            "sync-physical-overlap",
            overlap_config(seed, Mode::Sync),
            cache_only_transfer(),
        ),
        run_arm(
            "async-physical-overlap-cold",
            base_config(seed, Mode::Async, LinkModel::Physical),
            cache_only_transfer(),
        ),
        run_arm(
            "async-physical-overlap",
            overlap_config(seed, Mode::Async),
            cache_only_transfer(),
        ),
    ];
    // Gate arms resolved by label, so reordering or extending the grid
    // can never silently point the CI gates at the wrong pair.
    let position = |arms: &[TimelineArm], label: &str| {
        arms.iter()
            .position(|a| a.report.label == label)
            .expect("gate arm present in the grid")
    };
    let async_off = position(&arms, "async-physical-off");
    let async_on = position(&arms, "async-physical-on");
    let overlap_on = position(&arms, "async-physical-overlap");
    let overlap_cold = position(&arms, "async-physical-overlap-cold");

    // Elastic membership: a fourth WAN cluster joins mid-run — 1.5
    // virtual seconds after setup, which lands inside the founders'
    // free-running schedule (their six rounds span roughly the first two
    // seconds of activity).
    let elastic = arms.len();
    let mut config = base_config(seed, Mode::Async, LinkModel::Physical);
    let joiner = config.clusters.len();
    config.clusters.push(
        ClusterConfig::edge("agg-late", config.clusters[0].client_device.clone())
            .with_link(LinkProfile::wan())
            .joining_at(SimDuration::from_millis(1500)),
    );
    arms.push(run_arm(
        "async-physical-elastic",
        config,
        TransferConfig::default(),
    ));

    TimelineBench {
        arms,
        async_on,
        async_off,
        overlap_on,
        overlap_cold,
        elastic,
        joiner,
    }
}

/// The physical-link base configuration with PR 10 fetch-ahead warming
/// enabled: upcoming merge candidates and scoring assignments are pulled
/// into each cluster's fetch cache while the previous round's compute is
/// still running, so the round's own pulls land as cache hits instead of
/// WAN transfers.
fn overlap_config(seed: u64, mode: Mode) -> ExperimentConfig {
    let mut config = base_config(seed, mode, LinkModel::Physical);
    config.fetch_ahead = true;
    config
}

/// The overlap pair's transfer layer: fetch cache on, byte optimizations
/// off. Every cold pull is a full-size WAN transfer, so the comparison
/// isolates what fetch-ahead warming hides behind compute from what the
/// PR 3 dedup/delta layer shaves off the wire (the transfer gate's job).
fn cache_only_transfer() -> TransferConfig {
    TransferConfig {
        dedup: false,
        delta: false,
        cache_bytes: TransferConfig::default().cache_bytes,
    }
}

/// An optional virtual-seconds reading for the human-readable summary.
fn fmt_secs(v: Option<f64>) -> String {
    v.map_or("null".to_owned(), |v| format!("{v:.3}"))
}

/// Renders the machine-readable `BENCH_timeline.json` body.
pub fn render_json(bench: &TimelineBench, seed: u64) -> Json {
    let secs = |v: Option<f64>| v.map_or(Json::Null, |v| fixed(v, 3));
    let arms = bench.arms.iter().map(|arm| {
        let t = &arm.report.transfer;
        Json::obj([
            ("label", Json::str(arm.report.label.clone())),
            ("mode", Json::str(arm.report.mode.to_string())),
            ("link_model", Json::str(arm.report.link_model.to_string())),
            (
                "transfer_enabled",
                Json::Bool(t.dedup || t.delta || t.cache_bytes > 0),
            ),
            ("fetch_ahead", Json::Bool(arm.fetch_ahead)),
            (
                "time_to_target_secs",
                secs(arm.time_to_target(TARGET_ACCURACY_PCT)),
            ),
            ("wall_secs", fixed(arm.report.wall_secs, 3)),
            (
                "mean_final_accuracy_pct",
                fixed(arm.report.mean_global_accuracy_pct(|_| true), 3),
            ),
            ("physical_bytes", int(t.physical_bytes)),
            ("logical_bytes", int(t.logical_bytes)),
            ("cache_hits", int(t.cache_hits)),
            ("joins", int(arm.report.membership.len())),
        ])
    });
    let (on, off, transfer_holds) = bench.transfer_gate(TARGET_ACCURACY_PCT);
    let (warm, cold, overlap_holds) = bench.overlap_gate(TARGET_ACCURACY_PCT);
    let (joiner_pct, founders_pct, elastic_holds) = bench.elastic_gate();
    let cache_hits = |arm: usize| int(bench.arms[arm].report.transfer.cache_hits);
    let gates = Json::obj([
        (
            "async_physical_transfer",
            Json::obj([
                ("on_secs", secs(on)),
                ("off_secs", secs(off)),
                ("strictly_faster", Json::Bool(transfer_holds)),
            ]),
        ),
        (
            "fetch_compute_overlap",
            Json::obj([
                ("warm_secs", secs(warm)),
                ("cold_secs", secs(cold)),
                ("warm_cache_hits", cache_hits(bench.overlap_on)),
                ("cold_cache_hits", cache_hits(bench.overlap_cold)),
                ("strictly_faster_and_engaged", Json::Bool(overlap_holds)),
            ]),
        ),
        (
            "elastic_join",
            Json::obj([
                ("joiner_final_pct", fixed(joiner_pct, 3)),
                ("founders_final_pct", fixed(founders_pct, 3)),
                ("band_pct", fixed(JOIN_BAND_PCT, 1)),
                ("within_band", Json::Bool(elastic_holds)),
            ]),
        ),
    ]);
    Json::obj([
        ("bench", Json::str("timeline")),
        ("seed", int(seed)),
        ("target_accuracy_pct", fixed(TARGET_ACCURACY_PCT, 1)),
        ("arms", Json::Arr(arms.collect())),
        ("gates", gates),
    ])
}

/// Renders the human-readable comparison.
pub fn render(bench: &TimelineBench) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Timeline bench: time to {TARGET_ACCURACY_PCT:.0}% mean global accuracy (virtual seconds)\n\n"
    ));
    for arm in &bench.arms {
        out.push_str(&format!(
            "{:<24} t->target {:>9}  wall {:>9.1}s  final {:>5.1}%  wire {:>10} B\n",
            arm.report.label,
            fmt_secs(arm.time_to_target(TARGET_ACCURACY_PCT)),
            arm.report.wall_secs,
            arm.report.mean_global_accuracy_pct(|_| true),
            arm.report.transfer.physical_bytes,
        ));
    }
    let (on, off, transfer_holds) = bench.transfer_gate(TARGET_ACCURACY_PCT);
    let (warm, cold, overlap_holds) = bench.overlap_gate(TARGET_ACCURACY_PCT);
    let (joiner_pct, founders_pct, elastic_holds) = bench.elastic_gate();
    out.push_str(&format!(
        "\ntransfer gate (async physical): on {} < off {} -> {}\n",
        fmt_secs(on),
        fmt_secs(off),
        transfer_holds,
    ));
    out.push_str(&format!(
        "overlap gate (async physical, cache-only): fetch-ahead {} < cold {} -> {}\n",
        fmt_secs(warm),
        fmt_secs(cold),
        overlap_holds,
    ));
    out.push_str(&format!(
        "elastic gate: joiner {joiner_pct:.1}% vs founders {founders_pct:.1}% (band ±{JOIN_BAND_PCT:.0}) -> {elastic_holds}\n\n"
    ));
    out.push_str(&render_run_table(&bench.arms[bench.elastic].report));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed-42 grid every test reads.
    fn quick() -> &'static TimelineBench {
        static RUN: std::sync::OnceLock<TimelineBench> = std::sync::OnceLock::new();
        RUN.get_or_init(|| run(42))
    }

    #[test]
    fn transfer_savings_show_up_as_virtual_time_savings() {
        let bench = quick();
        bench.assert_gates();
        // The optimized arm really moved fewer bytes.
        let t_on = &bench.arms[bench.async_on].report.transfer;
        let t_off = &bench.arms[bench.async_off].report.transfer;
        assert!(t_on.physical_bytes < t_off.physical_bytes);
    }

    #[test]
    fn elastic_joiner_converges_into_the_accuracy_band() {
        let bench = quick();
        bench.assert_gates();
        let report = &bench.arms[bench.elastic].report;
        assert_eq!(report.membership.len(), 1, "exactly one join recorded");
        assert!(
            report.aggregators[bench.joiner].rounds > 0,
            "the joiner trained"
        );
    }

    #[test]
    fn fetch_ahead_overlap_beats_the_cold_cache_only_arm() {
        let bench = quick();
        bench.assert_gates();
        let t_warm = &bench.arms[bench.overlap_on].report.transfer;
        let t_cold = &bench.arms[bench.overlap_cold].report.transfer;
        assert!(t_warm.cache_hits > t_cold.cache_hits);
    }

    #[test]
    fn json_rendering_is_well_formed() {
        crate::assert_matches_baseline("timeline", &render_json(quick(), 42));

        // A label is free text: quotes and backslashes must be escaped,
        // not break the document.
        let mut bench = quick().clone();
        bench.arms[0].report.label = "sync \"naive\" C:\\link".to_owned();
        let parsed = Json::parse(&render_json(&bench, 42).render()).expect("still well-formed");
        let arm = &parsed.get("arms").and_then(Json::as_arr).expect("arms")[0];
        assert_eq!(
            arm.get("label"),
            Some(&Json::str(bench.arms[0].report.label.clone()))
        );
    }
}
