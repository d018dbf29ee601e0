//! Plain-text rendering of experiment results in the paper's table
//! formats, used by the benchmark harness binaries.

use crate::baseline::BaselineRun;
use crate::experiment::ExperimentReport;

/// Width of a left-aligned text column: the longest cell, but never
/// narrower than its header (so every row of a table — 2 clusters or 20 —
/// pads identically).
///
/// Width is measured in *characters*, not bytes — `format!`'s `{:<w$}`
/// padding counts characters, so a byte-length measure would over-size
/// every column containing a non-ASCII label (e.g. "Zürich") and misalign
/// the whole table.
fn column_width<'a>(header: &str, cells: impl Iterator<Item = &'a str>) -> usize {
    cells
        .map(|c| c.chars().count())
        .chain([header.chars().count()])
        .max()
        .unwrap_or(0)
}

/// Row budget above which per-cluster renderings elide their middle. A
/// 1,000-cluster sharded run would otherwise dump a thousand rows into
/// every table; up to this many rows nothing changes (the small-run
/// snapshots stay byte-identical).
pub const ELIDE_ABOVE: usize = 24;
/// Rows kept at the top of an elided rendering.
pub const ELIDE_HEAD: usize = 12;
/// Rows kept at the bottom of an elided rendering.
pub const ELIDE_TAIL: usize = 12;

/// Deterministic head/tail elision: for `n` rows returns the head range,
/// the number of elided middle rows, and the tail range. `n ≤`
/// [`ELIDE_ABOVE`] yields `(0..n, 0, n..n)` — rendering unchanged.
///
/// Elision only kicks in once the marker actually saves space: at
/// `n = ELIDE_HEAD + ELIDE_TAIL + 1` the "middle" is a single row, and
/// replacing one row with a one-line marker hides data for zero savings,
/// so the full table renders through that point and elision starts at
/// `ELIDE_HEAD + ELIDE_TAIL + 2` rows (two or more rows elided).
fn elide(n: usize) -> (std::ops::Range<usize>, usize, std::ops::Range<usize>) {
    if n <= ELIDE_ABOVE.max(ELIDE_HEAD + ELIDE_TAIL + 1) {
        (0..n, 0, n..n)
    } else {
        (
            0..ELIDE_HEAD,
            n - ELIDE_HEAD - ELIDE_TAIL,
            n - ELIDE_TAIL..n,
        )
    }
}

/// Renders an experiment in the row format of Tables 5/6:
/// `Aggregator | Time | Policy | Acc(G/L) | Loss(G/L)`.
///
/// Text columns size themselves to the longest cell, so tables stay
/// aligned for any cluster count or label length (a 60-client scalability
/// run renders as cleanly as the 3-cluster quickstart). Past
/// [`ELIDE_ABOVE`] clusters the middle rows collapse into a
/// `… N more clusters …` marker; widths are sized from the shown rows.
pub fn render_run_table(report: &ExperimentReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== {} [{} | {} | {}] ==\n",
        report.label, report.mode, report.scorer, report.partition
    ));
    let (head, elided, tail) = elide(report.aggregators.len());
    let shown = || {
        head.clone()
            .chain(tail.clone())
            .map(|i| &report.aggregators[i])
    };
    let name_w = column_width("Aggregator", shown().map(|a| a.name.as_str()));
    let policy_w = column_width("Policy", shown().map(|a| a.policy.as_str()));
    let strategy_w = column_width("Strategy", shown().map(|a| a.strategy.as_str()));
    out.push_str(&format!(
        "{:<name_w$} {:>8} {:<policy_w$} {:<strategy_w$} {:>8} {:>8} {:>8} {:>8}\n",
        "Aggregator", "Time(s)", "Policy", "Strategy", "AccG(%)", "AccL(%)", "LossG", "LossL"
    ));
    let row = |a: &crate::experiment::AggregatorReport| {
        format!(
            "{:<name_w$} {:>8.0} {:<policy_w$} {:<strategy_w$} {:>8.2} {:>8.2} {:>8.2} {:>8.2}\n",
            a.name,
            a.time_secs,
            a.policy,
            a.strategy,
            a.global_accuracy_pct,
            a.local_accuracy_pct,
            a.global_loss,
            a.local_loss
        )
    };
    for a in &report.aggregators[head] {
        out.push_str(&row(a));
    }
    if elided > 0 {
        out.push_str(&format!("… {elided} more clusters …\n"));
    }
    for a in &report.aggregators[tail] {
        out.push_str(&row(a));
    }
    out
}

/// Renders a baseline run in the Table 1 format.
pub fn render_baseline_table(label: &str, run: &BaselineRun) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {label} ==\n"));
    out.push_str(&format!(
        "{:<14} {:>12} {:>8}\n",
        "Cluster", "Accuracy(%)", "Loss"
    ));
    for (i, c) in run.clusters.iter().enumerate() {
        let (acc, loss) = run.outcome.final_local[i];
        out.push_str(&format!(
            "{:<14} {:>12.2} {:>8.2}\n",
            c.config().name,
            acc * 100.0,
            loss
        ));
    }
    let (g_acc, g_loss) = run.outcome.global;
    out.push_str(&format!(
        "{:<14} {:>12.2} {:>8.2}\n",
        "Global Model",
        g_acc * 100.0,
        g_loss
    ));
    out
}

/// Renders the chaos section of a report: injector counters plus the
/// per-fault outcome records, in firing order.
pub fn render_chaos_summary(report: &ExperimentReport) -> String {
    let c = &report.chaos;
    if !c.enabled {
        return "chaos: disabled (happy path)\n".to_owned();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "chaos: {} planned event(s) | crashes {} | leaves {} | spikes {} | skews {}\n",
        c.planned_events, c.crashes_fired, c.leaves_fired, c.spikes_fired, c.skews_fired
    ));
    out.push_str(&format!(
        "storage: {} fetch failure(s) ({} retried: {} recovered, {} permanent) | {} chunk loss(es) ({} retransmitted, {} exhausted)\n",
        c.fetch_failures,
        c.fetch_retries,
        c.fetch_recoveries,
        c.fetch_permanent_failures,
        c.chunk_losses,
        c.chunk_retries,
        c.exhausted_fetches
    ));
    out.push_str(&format!(
        "chain:   {} missed seal(s) | {} dropped tx(s) ({} retransmitted)\n",
        c.missed_seals, c.dropped_txs, c.retried_txs
    ));
    let (head, elided, tail) = elide(c.records.len());
    let shown = || {
        head.clone()
            .chain(tail.clone())
            .map(|i| c.records[i].cluster.as_str())
    };
    let cluster_w = column_width("", shown()).max(12);
    let row = |r: &unifyfl_sim::fault::FaultRecord| {
        format!(
            "  round {:>2}  {:<cluster_w$} {:<14} {}\n",
            r.round, r.cluster, r.kind, r.outcome
        )
    };
    for r in &c.records[head] {
        out.push_str(&row(r));
    }
    if elided > 0 {
        out.push_str(&format!("  … {elided} more record(s) …\n"));
    }
    for r in &c.records[tail] {
        out.push_str(&row(r));
    }
    out
}

/// Renders the transfer section of a report: knobs, logical vs physical
/// bytes, and the per-mechanism savings.
pub fn render_transfer_summary(report: &ExperimentReport) -> String {
    let t = &report.transfer;
    let mut out = String::new();
    out.push_str(&format!(
        "transfer: dedup {} | delta {} | cache {}\n",
        if t.dedup { "on" } else { "off" },
        if t.delta { "on" } else { "off" },
        if t.cache_bytes >= 1024 * 1024 {
            format!("{} MiB", t.cache_bytes / (1024 * 1024))
        } else if t.cache_bytes > 0 {
            format!("{} B", t.cache_bytes)
        } else {
            "off".to_owned()
        },
    ));
    out.push_str(&format!(
        "bytes:    {} logical -> {} physical on the wire ({:.2}x reduction)\n",
        t.logical_bytes,
        t.physical_bytes,
        t.reduction_factor(),
    ));
    out.push_str(&format!(
        "dedup:    {} block(s) skipped, {} byte(s) saved\n",
        t.dedup_chunks_skipped, t.dedup_bytes_saved
    ));
    out.push_str(&format!(
        "cache:    {} hit(s) / {} miss(es), {} eviction(s), {} byte(s) resident\n",
        t.cache_hits, t.cache_misses, t.cache_evictions, t.cache_resident_bytes
    ));
    out.push_str(&format!(
        "delta:    {} publish(es) with a (base, delta) reference ({} full), {} delta fetch(es) ({} fallback(s)), {} byte(s) saved\n",
        t.delta_publishes,
        t.full_publishes,
        t.delta_fetches,
        t.delta_fallbacks,
        t.delta_bytes_saved
    ));
    if t.routed_fetches > 0 {
        out.push_str(&format!(
            "gossip:   {} routed fetch(es) over {} hop(s), {} byte(s) relayed\n",
            t.routed_fetches, t.route_hops, t.relayed_bytes
        ));
    }
    out
}

/// Renders resource summaries in the Table 7 format.
pub fn render_resources_table(report: &ExperimentReport) -> String {
    let mut out = String::new();
    out.push_str("Process     Type       Mean      Std/Dev\n");
    for label in ["scorer", "agg", "client", "geth", "ipfs"] {
        if let Some(s) = report.resources.get(label) {
            out.push_str(&format!(
                "{:<11} cpu %   {:>9.3} {:>9.3}\n",
                label, s.cpu_mean, s.cpu_std
            ));
            out.push_str(&format!(
                "{:<11} mem(MB) {:>9.3} {:>9.3}\n",
                "", s.mem_mean, s.mem_std
            ));
        }
    }
    out
}

/// Renders an accuracy-over-time series (Figure 7 style) as aligned
/// columns: `time  acc(agg1)  acc(agg2) …`.
///
/// Here clusters are *columns*, so past [`ELIDE_ABOVE`] aggregators the
/// middle columns collapse into a single `… N more …` column whose cells
/// render as `…`. Row times still aggregate over **all** clusters — the
/// elision is presentational, never a change to the reported numbers.
pub fn render_curves(report: &ExperimentReport) -> String {
    let mut out = String::new();
    let (col_head, elided, col_tail) = elide(report.aggregators.len());
    let shown = || {
        col_head
            .clone()
            .chain(col_tail.clone())
            .map(|i| &report.aggregators[i])
    };
    let col_w = column_width("", shown().map(|a| a.name.as_str())).max(12);
    let marker = format!("… {elided} more …");
    let marker_w = col_w.max(marker.chars().count());
    out.push_str("time(s)");
    for i in col_head.clone() {
        out.push_str(&format!(" {:>col_w$}", report.aggregators[i].name));
    }
    if elided > 0 {
        out.push_str(&format!(" {marker:>marker_w$}"));
    }
    for i in col_tail.clone() {
        out.push_str(&format!(" {:>col_w$}", report.aggregators[i].name));
    }
    out.push('\n');
    for row in report.round_means(|_| true) {
        out.push_str(&format!("{:>7.0}", row.time_secs));
        let point = |i: usize| {
            report.aggregators[i]
                .curve
                .iter()
                .find(|p| p.round == row.round)
        };
        let cell = |i: usize| match point(i) {
            Some(p) => format!(" {:>col_w$.2}", p.global_accuracy_pct),
            None => format!(" {:>col_w$}", "-"),
        };
        for i in col_head.clone() {
            out.push_str(&cell(i));
        }
        if elided > 0 {
            out.push_str(&format!(" {:>marker_w$}", "…"));
        }
        for i in col_tail.clone() {
            out.push_str(&cell(i));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentBuilder;

    fn report() -> ExperimentReport {
        ExperimentBuilder::quickstart().rounds(2).run().unwrap()
    }

    #[test]
    fn run_table_contains_all_aggregators() {
        let r = report();
        let table = render_run_table(&r);
        for a in &r.aggregators {
            assert!(table.contains(&a.name), "missing {}", a.name);
        }
        assert!(table.contains("AccG(%)"));
    }

    #[test]
    fn resources_table_lists_processes() {
        let r = report();
        let table = render_resources_table(&r);
        assert!(table.contains("client"));
        assert!(table.contains("geth"));
        assert!(table.contains("cpu %"));
    }

    #[test]
    fn chaos_summary_renders_records() {
        use unifyfl_sim::fault::{ChaosConfig, FaultEvent, FaultKind};
        let quiet = render_chaos_summary(&report());
        assert!(quiet.contains("disabled"));

        let chaotic = ExperimentBuilder::quickstart()
            .rounds(3)
            .chaos(ChaosConfig::scripted(vec![FaultEvent {
                cluster: 0,
                round: 2,
                kind: FaultKind::Crash { down_rounds: 1 },
            }]))
            .run()
            .unwrap();
        let table = render_chaos_summary(&chaotic);
        assert!(table.contains("1 planned event(s)"));
        assert!(table.contains("crash"));
        assert!(table.contains("round  2"));
    }

    #[test]
    fn run_table_snapshot_aligns_ten_plus_clusters() {
        // Hand-built report: 12 aggregators whose labels straddle the old
        // fixed 10-char column (including one longer than it), exercising
        // exactly the ≥10-cluster misalignment. "Agg Zürich" carries a
        // multi-byte character: 10 chars but 11 bytes, so the old
        // byte-length measure would widen the name column by one and
        // misalign every other row.
        let mut report = synthetic_report(12);
        report.label = "snapshot".to_owned();
        for (i, a) in (1u32..).zip(&mut report.aggregators) {
            a.name = match i {
                11 => "Agg Zürich".to_owned(),
                12 => "Aggregator Twelve".to_owned(),
                _ => format!("Agg {i}"),
            };
            a.time_secs = 100.0 * f64::from(i);
            a.global_accuracy_pct = 50.0 + f64::from(i);
            a.local_accuracy_pct = 40.0 + f64::from(i);
        }

        let table = render_run_table(&report);
        let expected = "\
== snapshot [Sync | Accuracy | IID] ==
Aggregator         Time(s) Policy Strategy  AccG(%)  AccL(%)    LossG    LossL
Agg 1                  100 All    FedAvg      51.00    41.00     1.00     1.50
Agg 2                  200 All    FedAvg      52.00    42.00     1.00     1.50
Agg 3                  300 All    FedAvg      53.00    43.00     1.00     1.50
Agg 4                  400 All    FedAvg      54.00    44.00     1.00     1.50
Agg 5                  500 All    FedAvg      55.00    45.00     1.00     1.50
Agg 6                  600 All    FedAvg      56.00    46.00     1.00     1.50
Agg 7                  700 All    FedAvg      57.00    47.00     1.00     1.50
Agg 8                  800 All    FedAvg      58.00    48.00     1.00     1.50
Agg 9                  900 All    FedAvg      59.00    49.00     1.00     1.50
Agg 10                1000 All    FedAvg      60.00    50.00     1.00     1.50
Agg Zürich            1100 All    FedAvg      61.00    51.00     1.00     1.50
Aggregator Twelve     1200 All    FedAvg      62.00    52.00     1.00     1.50
";
        assert_eq!(table, expected);
        // Every row is exactly as wide as the header row — measured in
        // characters, since that is what terminal column alignment uses
        // (the Zürich row is one *byte* longer but aligns identically).
        let lines: Vec<&str> = table.lines().skip(1).collect();
        let header_len = lines[0].chars().count();
        for l in &lines {
            assert_eq!(l.chars().count(), header_len, "misaligned row: {l:?}");
        }
    }

    /// Hand-built report with `n` uniform aggregators, each carrying a
    /// one-point curve, for exercising the elision paths at sizes no test
    /// run should actually execute.
    fn synthetic_report(n: usize) -> ExperimentReport {
        use crate::experiment::{ChainStats, ChaosReport, CurvePoint, TransferReport};
        use std::collections::BTreeMap;
        let aggregators = (1..=n)
            .map(|i| crate::experiment::AggregatorReport {
                name: format!("agg-{i}"),
                policy: "All".to_owned(),
                strategy: "FedAvg".to_owned(),
                time_secs: 10.0 * i as f64,
                global_accuracy_pct: 50.0,
                local_accuracy_pct: 40.0,
                global_loss: 1.0,
                local_loss: 1.5,
                rounds: 1,
                straggler_rounds: 0,
                rejected_scores: 0,
                curve: vec![CurvePoint {
                    round: 1,
                    time_secs: 10.0 * i as f64,
                    global_accuracy_pct: 50.0,
                    local_accuracy_pct: 40.0,
                }],
            })
            .collect();
        ExperimentReport {
            label: "elision".to_owned(),
            mode: "Sync".to_owned(),
            scorer: "Accuracy".to_owned(),
            partition: "IID".to_owned(),
            aggregators,
            resources: BTreeMap::new(),
            chain: ChainStats::default(),
            storage_bytes: 0,
            wall_secs: 0.0,
            chaos: ChaosReport::default(),
            transfer: TransferReport::default(),
            link_model: "Nominal".to_owned(),
            membership: Vec::new(),
        }
    }

    #[test]
    fn run_table_elides_middle_rows_above_threshold() {
        // At the threshold: every row renders, no marker.
        let at = render_run_table(&synthetic_report(24));
        assert_eq!(at.lines().count(), 2 + 24);
        assert!(!at.contains("more clusters"), "{at}");

        // Above it: 12 head + marker + 12 tail, deterministically.
        let over = render_run_table(&synthetic_report(1000));
        assert_eq!(over.lines().count(), 2 + 12 + 1 + 12, "{over}");
        assert!(over.contains("… 976 more clusters …"), "{over}");
        assert!(over.contains("agg-12"), "head ends at agg-12");
        assert!(over.contains("agg-989"), "tail starts at agg-989");
        assert!(!over.contains("agg-500 "), "middle rows are elided");
        // Deterministic: same report, same bytes.
        assert_eq!(over, render_run_table(&synthetic_report(1000)));
    }

    #[test]
    fn run_table_elision_boundary_is_exact() {
        // 23, 24 and 25 rows all render in full: at 25 the head+tail
        // window covers 24 of the rows and a marker line would replace a
        // single row — hiding agg-13 while saving nothing. The regression
        // this pins: the old `n > ELIDE_ABOVE` test elided at exactly 25.
        for n in [23, 24, 25] {
            let table = render_run_table(&synthetic_report(n));
            assert_eq!(table.lines().count(), 2 + n, "{table}");
            assert!(!table.contains("more clusters"), "n={n}: {table}");
            for i in 1..=n {
                assert!(table.contains(&format!("agg-{i} ")), "n={n} lost agg-{i}");
            }
        }

        // 26 is the first size where the marker saves a line: 12 head +
        // marker + 12 tail, with exactly two rows elided.
        let over = render_run_table(&synthetic_report(26));
        assert_eq!(over.lines().count(), 2 + 12 + 1 + 12, "{over}");
        assert!(over.contains("… 2 more clusters …"), "{over}");
        assert!(over.contains("agg-12 "), "head ends at agg-12");
        assert!(over.contains("agg-15 "), "tail starts at agg-15");
        assert!(!over.contains("agg-13 "), "{over}");
        assert!(!over.contains("agg-14 "), "{over}");
    }

    #[test]
    fn curves_elide_middle_columns_above_threshold() {
        let at = render_curves(&synthetic_report(24));
        assert!(!at.contains('…'), "{at}");

        let over = render_curves(&synthetic_report(30));
        assert!(over.contains("… 6 more …"), "{over}");
        let lines: Vec<&str> = over.lines().collect();
        assert_eq!(lines.len(), 2, "header + the single shared round");
        assert!(lines[1].contains('…'), "data rows carry the marker cell");
        // The time column still aggregates over ALL clusters (max over the
        // round), including the elided ones.
        assert!(lines[1].starts_with("    300"), "{over}");
        // Header and row align character-for-character.
        assert_eq!(lines[0].chars().count(), lines[1].chars().count());
    }

    #[test]
    fn chaos_summary_elides_middle_records_above_threshold() {
        let mut report = synthetic_report(3);
        report.chaos.enabled = true;
        report.chaos.records = (1..=30)
            .map(|i| unifyfl_sim::fault::FaultRecord {
                cluster: format!("agg-{}", i % 3 + 1),
                round: i,
                kind: "crash".to_owned(),
                outcome: "round lost".to_owned(),
            })
            .collect();
        let out = render_chaos_summary(&report);
        assert!(out.contains("… 6 more record(s) …"), "{out}");
        assert!(out.contains("round 12"), "head keeps the first 12");
        assert!(out.contains("round 19"), "tail keeps the last 12");
        assert!(!out.contains("round 15"), "middle records are elided");
    }

    #[test]
    fn transfer_summary_renders_knobs_and_savings() {
        let r = report();
        let summary = render_transfer_summary(&r);
        assert!(summary.contains("dedup on"), "{summary}");
        assert!(summary.contains("delta on"));
        assert!(summary.contains("reduction"));
        assert!(summary.contains("publish(es) with a (base, delta) reference"));
        // No overlay routing ran, so the gossip line stays absent.
        assert!(!summary.contains("gossip:"), "{summary}");
    }

    #[test]
    fn transfer_summary_reports_gossip_routing_when_present() {
        let mut r = synthetic_report(1);
        r.transfer.routed_fetches = 5;
        r.transfer.route_hops = 11;
        r.transfer.relayed_bytes = 4096;
        let summary = render_transfer_summary(&r);
        assert!(
            summary.contains("gossip:   5 routed fetch(es) over 11 hop(s), 4096 byte(s) relayed"),
            "{summary}"
        );
    }

    #[test]
    fn curves_have_one_row_per_round() {
        let r = report();
        let curves = render_curves(&r);
        // Header + 2 rounds.
        assert_eq!(curves.lines().count(), 3);
    }
}
