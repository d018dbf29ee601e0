//! Benchmark harness for the UnifyFL reproduction.
//!
//! One module per evaluation artifact; each regenerates the paper's rows
//! or series and returns them as printable text (the `src/bin/*` binaries
//! are thin wrappers). The default scale shrinks rounds and sample counts
//! ~10× so the whole suite runs in minutes; pass `--full` for the paper's
//! scale. Measured virtual times are reported alongside a *full-scale
//! extrapolation* (`time × round-factor × sample-factor`) so they can be
//! compared with the paper's absolute seconds.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — no-collab vs collab |
//! | [`table5`] | Table 5 — nine Tiny-ImageNet GPU-cluster runs |
//! | [`table6`] | Table 6 — three CIFAR edge-cluster runs |
//! | [`table7`] | Table 7 + §4.2.7 — resource overheads |
//! | [`figure7`] | Figure 7 — Byzantine naive vs smart policy |
//! | [`scalability`] | §4.2.6 — 60 clients across 3 aggregators |
//! | [`chaos`] | resilience trajectory — rounds-to-converge under churn |
//! | [`transfer`] | bandwidth trajectory — bytes-on-wire, dedup/delta/cache on vs. off |
//! | [`speed`] | speed trajectory — wall-clock, parallel two-phase engine vs. sequential |
//! | [`scale`] | scale trajectory — two-tier sharded federation to 1,000 clusters |
//! | [`gossip`] | gossip trajectory — busiest-node wire bytes, overlay routing vs. flat fetch |
//! | [`timeline`] | timeline trajectory — time-to-target-accuracy, sync vs. async × link models × elastic membership |
//! | [`serve`] | serve trajectory — daemon throughput and round latency under a queued submission burst |
//! | [`clustering`] | clustering trajectory — dynamic re-clustering vs. static shard assignment under domain drift |

pub mod ablation;
pub mod alloc;
pub mod chaos;
pub mod clustering;
pub mod figure7;
pub mod gossip;
pub mod scalability;
pub mod scale;
pub mod serve;
pub mod speed;
pub mod table1;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod timeline;
pub mod transfer;

pub use unifyfl_benchmark::json::Json;
use unifyfl_data::WorkloadConfig;

/// Harness scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~10× reduced rounds/samples (minutes for the whole suite).
    Quick,
    /// The paper's configuration (Table 4).
    Full,
}

impl Scale {
    /// The `scale` field of the trajectory files: `"quick"` or `"full"`.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// The reduction factor applied to a workload.
    pub fn factor(self) -> usize {
        match self {
            Scale::Quick => 10,
            Scale::Full => 1,
        }
    }

    /// Applies the scale to a paper workload.
    pub fn apply(self, workload: WorkloadConfig) -> WorkloadConfig {
        workload.scaled(self.factor())
    }

    /// Multiplier converting a measured virtual time at this scale into a
    /// full-scale estimate for `paper` (rounds × samples shrink linearly).
    pub fn extrapolation(self, paper: &WorkloadConfig, actual: &WorkloadConfig) -> f64 {
        let rounds = paper.rounds as f64 / actual.rounds as f64;
        let samples = paper.dataset.n_samples as f64 / actual.dataset.n_samples as f64;
        rounds * samples
    }
}

/// The flags the bench binaries share, parsed once: `--full`, `--seed N`
/// (default 42), `--out PATH` (trajectory bins; default `BENCH_<name>.json`
/// in the working directory) and `--run ID` (`table5` / `table6`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// `--full` selects [`Scale::Full`].
    pub scale: Scale,
    /// `--seed N`.
    pub seed: u64,
    /// `--out PATH`.
    pub out: Option<String>,
    /// `--run ID`.
    pub run: Option<String>,
}

impl Cli {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag missing its value, or a `--seed` that is
    /// not a number — a run must never misstate how it was produced by
    /// quietly falling back to a default.
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: Scale::Quick,
            seed: 42,
            out: None,
            run: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--full" => cli.scale = Scale::Full,
                "--seed" => {
                    let v = value()?;
                    cli.seed = v
                        .parse()
                        .map_err(|_| format!("--seed {v:?} is not a number"))?;
                }
                "--out" => cli.out = Some(value()?.clone()),
                "--run" => cli.run = Some(value()?.clone()),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(cli)
    }

    /// [`Cli::parse`] over the process arguments; a malformed command line
    /// goes to [`usage_exit`].
    pub fn from_env() -> Cli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Cli::parse(&args).unwrap_or_else(|problem| usage_exit(&problem))
    }

    /// Prints a trajectory bin's human-readable `summary`, writes `json`
    /// on one line to `--out` (default `BENCH_<name>.json`) and echoes it.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written.
    pub fn emit(&self, name: &str, summary: &str, json: &Json) {
        let default = format!("BENCH_{name}.json");
        let path = self.out.as_deref().unwrap_or(&default);
        let body = json.render();
        print!("{summary}");
        std::fs::write(path, format!("{body}\n")).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}:\n{body}");
    }
}

/// Prints `problem` and the flag list on one line to stderr, exits 2.
pub fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}; usage: [--full] [--seed N] [--out PATH] [--run ID]");
    std::process::exit(2)
}

/// The outcome of a neutrality arm ([`scale::run_equivalence`],
/// [`gossip::run_equivalence`]): the feature under test at its neutral
/// setting against the run without it, per seed, in both modes.
pub struct EquivalenceArm {
    /// Clusters in the equivalence fleet.
    pub clusters: usize,
    /// Seeds tested.
    pub seeds: Vec<u64>,
    /// True if every (seed, mode) pair reported byte-identically.
    pub reports_identical: bool,
}

impl EquivalenceArm {
    /// The `equivalence` object of `BENCH_scale.json` / `BENCH_gossip.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("clusters", int(self.clusters)),
            (
                "seeds",
                Json::Arr(self.seeds.iter().copied().map(int).collect()),
            ),
            ("reports_identical", Json::Bool(self.reports_identical)),
        ])
    }
}

/// A count as a JSON number (every count here is far below 2^53, where
/// `f64` stops being exact).
pub fn int<T: TryInto<u64>>(n: T) -> Json {
    let n = n.try_into().ok().expect("counts are non-negative");
    Json::Num(n as f64)
}

/// `x` as a JSON number rounded to `decimals` places, the precision
/// docs/BENCH.md states per field. A non-finite `x` stays non-finite and
/// renders as `null` (JSON has no `inf` token).
pub fn fixed(x: f64, decimals: i32) -> Json {
    let unit = 10f64.powi(decimals);
    Json::Num((x * unit).round() / unit)
}

/// Keys the next commit deletes from the trajectory files (host wall
/// clocks and proofs that tier-1 tests already hold): until then a run
/// carries them where its committed baseline does not.
#[cfg(test)]
const STRIPPED: [&str; 3] = ["wall_secs", "equivalence", "baseline_identity"];

/// The first place `run` departs from `baseline`, in the shape
/// `arms[1].wire_bytes: baseline <n>, run <m>`; `None` when they agree
/// key by key.
#[cfg(test)]
fn first_difference(path: &str, baseline: Option<&Json>, run: Option<&Json>) -> Option<String> {
    match (baseline, run) {
        (Some(base @ Json::Obj(b)), Some(new @ Json::Obj(r))) => {
            let added = r
                .iter()
                .filter(|(key, _)| base.get(key).is_none() && !STRIPPED.contains(&key.as_str()));
            b.iter().chain(added).find_map(|(key, _)| {
                let dot = if path.is_empty() { "" } else { "." };
                first_difference(&format!("{path}{dot}{key}"), base.get(key), new.get(key))
            })
        }
        (Some(Json::Arr(b)), Some(Json::Arr(r))) => (0..b.len().max(r.len()))
            .find_map(|i| first_difference(&format!("{path}[{i}]"), b.get(i), r.get(i))),
        (b, r) if b == r => None,
        (b, r) => {
            let show = |side: Option<&Json>| side.map_or("nothing".to_owned(), Json::render);
            Some(format!("{path}: baseline {}, run {}", show(b), show(r)))
        }
    }
}

/// Tier-1's drift check on a trajectory bench: the quick-scale seed-42
/// `run` must equal the committed `docs/baselines/<name>.json` exactly,
/// key by key.
///
/// # Panics
///
/// Panics with the first differing key path and both values.
#[cfg(test)]
pub(crate) fn assert_matches_baseline(name: &str, run: &Json) {
    let path = format!(
        "{}/../../docs/baselines/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let baseline = Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    if let Some(difference) = first_difference("", Some(&baseline), Some(run)) {
        panic!(
            "{name} departs from docs/baselines/{name}.json at {difference}\n(if the change is \
             intended, regenerate the file: cargo run --release -p unifyfl-bench --bin {name} \
             -- --out docs/baselines/{name}.json)"
        );
    }
}

/// Formats the standard extrapolation footer for a report.
pub fn extrapolation_note(scale: Scale, paper: &WorkloadConfig, actual: &WorkloadConfig) -> String {
    match scale {
        Scale::Full => "(full paper scale; times are directly comparable)\n".to_owned(),
        Scale::Quick => format!(
            "(quick scale: multiply times by ~{:.0}x to compare with the paper's seconds)\n",
            scale.extrapolation(paper, actual)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_parses_args() {
        assert_eq!(cli(&["--full"]).unwrap().scale, Scale::Full);
        assert_eq!(cli(&[]).unwrap().scale, Scale::Quick);
        // A typo must not silently run quick scale.
        assert!(cli(&["--ful"]).unwrap_err().contains("unknown flag"));
        assert!(cli(&["full"]).is_err());
    }

    #[test]
    fn seed_parses_args() {
        assert_eq!(cli(&["--seed", "7"]).unwrap().seed, 7);
        assert_eq!(cli(&[]).unwrap().seed, 42);
        // Neither must garbage silently become seed 42 ...
        assert!(cli(&["--seed", "abc"])
            .unwrap_err()
            .contains("not a number"));
        assert!(cli(&["--seed", "-1"]).is_err());
        // ... nor a flag with its value missing be ignored.
        for flag in ["--seed", "--out", "--run"] {
            assert!(cli(&["--full", flag])
                .unwrap_err()
                .contains("needs a value"));
        }
        let all = cli(&["--out", "x.json", "--run", "C2", "--seed", "9", "--full"]).unwrap();
        assert_eq!(all.out.as_deref(), Some("x.json"));
        assert_eq!(all.run.as_deref(), Some("C2"));
        assert_eq!((all.seed, all.scale), (9, Scale::Full));
    }

    #[test]
    fn fixed_rounds_to_the_stated_decimals_and_nulls_non_finite() {
        let doc = Json::obj([
            ("ratio", fixed(1.23456, 3)),
            ("whole", fixed(3.0, 3)),
            ("inf", fixed(f64::INFINITY, 3)),
            ("nan", fixed(f64::NAN, 1)),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"ratio": 1.235, "whole": 3, "inf": null, "nan": null}"#
        );
    }

    #[test]
    fn baseline_mismatch_names_the_first_differing_key_path() {
        let doc = |wire: f64| {
            Json::obj([
                ("bench", Json::str("scale")),
                (
                    "arms",
                    Json::Arr(vec![
                        Json::obj([("wire_bytes", int(7u64))]),
                        Json::obj([("wire_bytes", Json::Num(wire)), ("shards", int(3u64))]),
                    ]),
                ),
            ])
        };
        let diff = |run: &Json| first_difference("", Some(&doc(5.0)), Some(run));
        assert_eq!(diff(&doc(5.0)), None);
        assert_eq!(
            diff(&doc(4.0)).as_deref(),
            Some("arms[1].wire_bytes: baseline 5, run 4")
        );
        // A key or element on one side only is a difference too.
        let Json::Obj(mut pairs) = doc(5.0) else {
            unreachable!()
        };
        pairs.push(("extra".to_owned(), Json::Bool(true)));
        assert_eq!(
            diff(&Json::Obj(pairs)).as_deref(),
            Some("extra: baseline nothing, run true")
        );
        let short = Json::obj([("bench", Json::str("scale")), ("arms", Json::Arr(vec![]))]);
        assert_eq!(
            diff(&short).as_deref(),
            Some(r#"arms[0]: baseline {"wire_bytes": 7}, run nothing"#)
        );
    }

    #[test]
    fn extrapolation_combines_rounds_and_samples() {
        let paper = WorkloadConfig::cifar10();
        let actual = Scale::Quick.apply(paper.clone());
        let x = Scale::Quick.extrapolation(&paper, &actual);
        assert!((x - 100.0).abs() < 1.0, "10x rounds × 10x samples = {x}");
    }
}
