//! Benchmark harness for the UnifyFL reproduction.
//!
//! One module per evaluation artifact and one binary for all of them:
//! `unifyfl-bench <name> [flags]` looks `<name>` up in [`BENCHES`]. The
//! default scale shrinks rounds and sample counts ~10× so the whole suite
//! runs in minutes; pass `--full` for the paper's scale. Measured virtual
//! times are reported alongside a *full-scale extrapolation*
//! (`time × round-factor × sample-factor`) so they can be compared with
//! the paper's absolute seconds.
//!
//! Every number reported here is virtual time, bytes, counts or accuracy,
//! and therefore identical per seed on every host and build profile; host
//! time is measured by `crates/benchmark`, not here. The six trajectory
//! benches write one JSON file each (schema in `docs/BENCH.md`); their
//! quick-scale seed-42 output is committed under `docs/baselines/` and
//! tier-1 compares it exactly.
//!
//! | Module | Artifact |
//! |---|---|
//! | [`table1`] | Table 1 — no-collab vs collab |
//! | [`table5`] | Table 5 — nine Tiny-ImageNet GPU-cluster runs |
//! | [`table6`] | Table 6 — three CIFAR edge-cluster runs |
//! | [`table7`] | Table 7 + §4.2.7 — resource overheads |
//! | [`figure7`] | Figure 7 — Byzantine naive vs smart policy |
//! | [`scalability`] | §4.2.6 — 60 clients across 3 aggregators |
//! | [`ablation`] | sweeps over the design choices ARCHITECTURE.md calls out |
//! | [`chaos`] | resilience trajectory — rounds-to-converge under churn |
//! | [`transfer`] | bandwidth trajectory — bytes-on-wire, dedup/delta/cache on vs. off |
//! | [`timeline`] | timeline trajectory — time-to-target-accuracy, sync vs. async × link models × elastic membership |
//! | [`scale`] | scale trajectory — two-tier sharded federation to 1,000 clusters |
//! | [`gossip`] | gossip trajectory — busiest-node wire bytes, overlay routing vs. flat fetch |
//! | [`clustering`] | clustering trajectory — dynamic re-clustering vs. static shard assignment under domain drift |
//! | [`speed`] | allocation probes behind `tests/alloc_gates.rs`, on [`alloc`]'s counting allocator |

pub mod ablation;
pub mod alloc;
pub mod chaos;
pub mod clustering;
pub mod figure7;
pub mod gossip;
pub mod scalability;
pub mod scale;
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

/// The four flags of `unifyfl-bench <name> [flags]`: `--full`, `--seed N`
/// (default 42), `--out PATH` (trajectory benches; default
/// `BENCH_<name>.json` in the working directory) and `--run ID`
/// (`table5` / `table6`). Each bench reads some of them ([`Bench::reads`]).
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
    /// Parses the arguments after the bench name, for a bench that reads
    /// the flags in `reads`.
    ///
    /// # Errors
    ///
    /// An unknown flag — one the bench does not read is as unknown as a
    /// typo — a flag missing its value, or a `--seed` that is not a number:
    /// a run must never misstate how it was produced by quietly falling
    /// back to a default or ignoring what it was told.
    pub fn parse(args: &[String], reads: &[&str]) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: Scale::Quick,
            seed: 42,
            out: None,
            run: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match Some(flag.as_str()).filter(|flag| reads.contains(flag)) {
                Some("--full") => cli.scale = Scale::Full,
                Some("--seed") => {
                    let v = value()?;
                    cli.seed = v
                        .parse()
                        .map_err(|_| format!("--seed {v:?} is not a number"))?;
                }
                Some("--out") => cli.out = Some(value()?.clone()),
                Some("--run") => cli.run = Some(value()?.clone()),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(cli)
    }

    /// Prints a trajectory bench's human-readable `summary`, writes `json`
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

/// One row of the bench table.
pub struct Bench {
    /// The `<name>` argument that selects this row.
    pub name: &'static str,
    /// The flags this bench reads, of `--full`, `--seed`, `--out` and
    /// `--run`; [`Cli::parse`] refuses the others.
    pub reads: &'static [&'static str],
    /// Prints the bench's rows; a trajectory bench also writes its file
    /// and then asserts its gates (the module's `assert_gates`, the same
    /// one its tier-1 test calls), panicking on a breach. `Err` is a
    /// usage problem only the bench can see: a `--run` it does not have.
    pub run: fn(&Cli) -> Result<(), String>,
}

/// The four flags, as the usage line spells them.
const FLAGS: [(&str, &str); 4] = [
    ("--full", "[--full]"),
    ("--seed", "[--seed N]"),
    ("--out", "[--out PATH]"),
    ("--run", "[--run ID]"),
];

fn print(text: String) -> Result<(), String> {
    print!("{text}");
    Ok(())
}

/// Every bench `unifyfl-bench` runs: seven paper artifacts, then six
/// trajectories.
pub const BENCHES: &[Bench] = &[
    Bench {
        name: "table1",
        reads: &["--full", "--seed"],
        run: |cli| print(table1::render(cli.scale, cli.seed)),
    },
    Bench {
        name: "table5",
        reads: &["--full", "--seed", "--run"],
        run: |cli| match &cli.run {
            None => print(table5::render_all(cli.scale, cli.seed)),
            Some(id) => match id.parse() {
                Ok(run) if table5::RUNS.contains(&run) => {
                    print(table5::render(run, cli.scale, cli.seed))
                }
                _ => Err(format!("--run {id:?} is not a Table 5 run (1..=9)")),
            },
        },
    },
    Bench {
        name: "table6",
        reads: &["--full", "--seed", "--run"],
        run: |cli| match cli.run.as_deref() {
            None => print(table6::render_all(cli.scale, cli.seed)),
            Some(id) if table6::RUNS.contains(&id) => {
                print(table6::render(id, cli.scale, cli.seed))
            }
            Some(id) => Err(format!("--run {id:?} is not a Table 6 run (C1, C2, C3)")),
        },
    },
    Bench {
        name: "table7",
        reads: &["--full", "--seed"],
        run: |cli| print(table7::render(cli.scale, cli.seed)),
    },
    Bench {
        name: "figure7",
        reads: &["--full", "--seed"],
        run: |cli| print(figure7::render(cli.scale, cli.seed)),
    },
    Bench {
        name: "scalability",
        reads: &["--full", "--seed"],
        run: |cli| print(scalability::render(cli.scale, cli.seed)),
    },
    Bench {
        name: "ablation",
        reads: &["--seed"],
        run: |cli| print(ablation::render(cli.seed)),
    },
    Bench {
        name: "chaos",
        reads: &["--seed", "--out"],
        run: |cli| {
            let bench = chaos::run(cli.seed);
            let json = chaos::render_json(&bench, cli.seed);
            cli.emit("chaos", &chaos::render(&bench), &json);
            bench.assert_gates();
            Ok(())
        },
    },
    Bench {
        name: "transfer",
        reads: &["--full", "--seed", "--out"],
        run: |cli| {
            let bench = transfer::run(cli.scale, cli.seed);
            let json = transfer::render_json(&bench, cli.seed, cli.scale);
            cli.emit("transfer", &transfer::render(&bench), &json);
            bench.assert_gates();
            Ok(())
        },
    },
    Bench {
        name: "timeline",
        reads: &["--seed", "--out"],
        run: |cli| {
            let bench = timeline::run(cli.seed);
            let json = timeline::render_json(&bench, cli.seed);
            cli.emit("timeline", &timeline::render(&bench), &json);
            bench.assert_gates();
            Ok(())
        },
    },
    Bench {
        name: "scale",
        reads: &["--full", "--seed", "--out"],
        run: |cli| {
            let bench = scale::run(cli.scale, cli.seed);
            let json = scale::render_json(&bench, cli.seed, cli.scale);
            cli.emit("scale", &scale::render(&bench), &json);
            bench.assert_gates();
            Ok(())
        },
    },
    Bench {
        name: "gossip",
        reads: &["--full", "--seed", "--out"],
        run: |cli| {
            let bench = gossip::run(cli.scale, cli.seed);
            let json = gossip::render_json(&bench, cli.seed, cli.scale);
            cli.emit("gossip", &gossip::render(&bench), &json);
            bench.assert_gates();
            Ok(())
        },
    },
    Bench {
        name: "clustering",
        reads: &["--full", "--seed", "--out"],
        run: |cli| {
            let bench = clustering::run(cli.scale, cli.seed);
            let json = clustering::render_json(&bench, cli.seed, cli.scale);
            cli.emit("clustering", &clustering::render(&bench), &json);
            bench.assert_gates();
            Ok(())
        },
    },
];

/// The whole of `unifyfl-bench`: looks `args[0]` up in [`BENCHES`], parses
/// the rest against the flags that row reads, and runs it.
///
/// # Errors
///
/// A one-line usage message (the binary prints it and exits 2): no or an
/// unknown bench name, a flag the named bench does not read, a malformed
/// value.
pub fn run(args: &[String]) -> Result<(), String> {
    let named = args.first();
    let Some(bench) = named.and_then(|name| BENCHES.iter().find(|b| b.name == name)) else {
        let problem = named.map_or("name a bench".to_owned(), |name| {
            format!("unknown bench {name:?}")
        });
        let names: Vec<&str> = BENCHES.iter().map(|b| b.name).collect();
        return Err(format!(
            "{problem}; usage: unifyfl-bench <{}> [flags]",
            names.join("|")
        ));
    };
    let usage = |problem: String| {
        let flags = FLAGS.iter().filter(|(flag, _)| bench.reads.contains(flag));
        let flags: Vec<&str> = flags.map(|(_, usage)| *usage).collect();
        format!(
            "{problem}; usage: unifyfl-bench {} {}",
            bench.name,
            flags.join(" ")
        )
    };
    let cli = Cli::parse(&args[1..], bench.reads).map_err(usage)?;
    (bench.run)(&cli).map_err(usage)
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

/// The first place `run` departs from `baseline`, in the shape
/// `arms[1].wire_bytes: baseline <n>, run <m>`; `None` when they agree
/// key by key.
#[cfg(test)]
fn first_difference(path: &str, baseline: Option<&Json>, run: Option<&Json>) -> Option<String> {
    match (baseline, run) {
        (Some(base @ Json::Obj(b)), Some(new @ Json::Obj(r))) => {
            let added = r.iter().filter(|(key, _)| base.get(key).is_none());
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
             intended, regenerate the file: cargo run --release -p unifyfl-bench -- {name} \
             --out docs/baselines/{name}.json)"
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

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parses as a bench that reads all four flags.
    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&strings(args), &FLAGS.map(|(flag, _)| flag))
    }

    /// The benches whose row accepts `args`, in table order.
    fn accepting(args: &[&str]) -> Vec<&'static str> {
        let accepts = |bench: &&Bench| Cli::parse(&strings(args), bench.reads).is_ok();
        BENCHES.iter().filter(accepts).map(|b| b.name).collect()
    }

    #[test]
    fn scale_parses_args() {
        assert_eq!(cli(&["--full"]).unwrap().scale, Scale::Full);
        assert_eq!(cli(&[]).unwrap().scale, Scale::Quick);
        // A typo must not silently run quick scale.
        assert!(cli(&["--ful"]).unwrap_err().contains("unknown flag"));
        assert!(cli(&["full"]).is_err());
        // Nor may a bench that has no paper-scale arm accept `--full` and
        // run its one scale: `ablation`, `chaos` and `timeline` refuse it.
        let full = [
            "table1",
            "table5",
            "table6",
            "table7",
            "figure7",
            "scalability",
            "transfer",
            "scale",
            "gossip",
            "clustering",
        ];
        assert_eq!(accepting(&["--full"]), full);
        assert_eq!(
            run(&strings(&["chaos", "--full"])).unwrap_err(),
            "unknown flag \"--full\"; usage: unifyfl-bench chaos [--seed N] [--out PATH]"
        );
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
        // Every bench is seeded; only the trajectories write a file, only
        // the two multi-run tables select a run. A flag a bench would
        // ignore is refused, not dropped.
        assert_eq!(accepting(&["--seed", "7"]).len(), BENCHES.len());
        let trajectories = [
            "chaos",
            "transfer",
            "timeline",
            "scale",
            "gossip",
            "clustering",
        ];
        assert_eq!(accepting(&["--out", "x.json"]), trajectories);
        assert_eq!(accepting(&["--run", "2"]), ["table5", "table6"]);
        // A run the table does not have, and no or an unknown bench.
        for (args, problem) in [
            (&["table7", "--out", "x"][..], "unknown flag \"--out\""),
            (&["table5", "--run", "12"], "not a Table 5 run"),
            (&["table6", "--run", "C9"], "not a Table 6 run"),
            (&["tabel1"], "unknown bench \"tabel1\""),
            (&[], "name a bench"),
        ] {
            let message = run(&strings(args)).unwrap_err();
            assert!(
                message.contains(problem) && message.contains("; usage: unifyfl-bench "),
                "{message}"
            );
        }
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
