//! `unifyfl-benchmark`: the one command.
//!
//! Two ways in, one protocol. With `--trace 0|1` the process measures a
//! single workload itself and prints one JSON object as the last line of
//! standard output (what the benchmark driver calls). Without `--trace` it
//! is the operator's command: every workload (or the one named) is run in
//! a child process of its own — so `peak_rss_mb` is per workload — once
//! untraced for the end-to-end metrics and once traced for the per-layer
//! ones, `--repeat` times over, and the sets are compared against the
//! metrics' bounds.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use unifyfl_benchmark::json::Json;
use unifyfl_benchmark::metrics::{self, MetricDef};
use unifyfl_benchmark::run::{self, Options, Outcome};
use unifyfl_benchmark::workloads::Workload;
use unifyfl_benchmark::{hygiene_problems, DEFAULT_SECONDS};

const USAGE: &str = "usage: unifyfl-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat N] [--smoke]
  workloads: train_heavy wan_transfer sharded_fleet service_burst
  --trace 0|1  measure one workload in this process and print one JSON line
               (0: end-to-end metrics, 1: per-layer metrics); needs --workload
  --repeat N   run N full sets and check them against each other (default 1)
  --smoke      shrunken sizes, for a quick look";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    repeat: usize,
    smoke: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: None,
        repeat: 1,
        smoke: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_owned());
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("{problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let problems = hygiene_problems(
        |name| std::env::var_os(name).is_some(),
        cfg!(debug_assertions),
    );
    if !problems.is_empty() {
        for problem in problems {
            eprintln!("refusing to measure: {problem}");
        }
        return ExitCode::from(2);
    }
    match (args.trace, args.workload) {
        (Some(traced), Some(workload)) => measure_here(&args, workload, traced),
        _ => measure_in_children(&args),
    }
}

/// `<target dir>/benchmark`, where traces and the latest results go.
fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

fn write_output(name: &str, doc: &Json) {
    let dir = output_dir();
    let path = dir.join(name);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.render()));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Driver mode: one workload, this process, one JSON line.
fn measure_here(args: &Args, workload: Workload, traced: bool) -> ExitCode {
    let outcome = run::run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced,
        smoke: args.smoke,
    });
    eprintln!("{}: {}", workload.name(), outcome.summary);
    for failure in &outcome.failures {
        eprintln!("{}: {failure}", workload.name());
    }
    if let Some(trace) = &outcome.trace {
        write_output(
            &format!("trace-{}-seed{}.json", workload.name(), args.seed),
            &trace.chrome_trace(),
        );
    }
    let defs = if traced {
        metrics::per_layer()
    } else {
        metrics::END_TO_END.to_vec()
    };
    println!("{}", result_line(&outcome, &defs).render());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> Json {
    let metrics = outcome.metrics.iter().map(|(name, value)| {
        let unit = defs.iter().find(|d| d.name == *name).map_or("", |d| d.unit);
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One child run's parsed result line.
struct ChildResult {
    attempted: f64,
    failed: f64,
    values: Vec<(String, f64)>,
}

fn run_child(args: &Args, workload: Workload, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("child printed nothing ({})", output.status))?;
    let doc = Json::parse(line).map_err(|e| format!("child result line: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("child result line lacks {key}"))
    };
    let values = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("child result line lacks metrics")?
        .iter()
        .map(|(name, metric)| {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            (name.clone(), value)
        })
        .collect();
    Ok(ChildResult {
        attempted: number("attempted")?,
        failed: number("failed")?,
        values,
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where the numbers were taken: numbers from different hosts, toolchains
/// or commits must never be compared silently.
fn environment(args: &Args) -> Vec<(&'static str, Json)> {
    vec![
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::Num(run::hardware_threads() as f64)),
        ("worker_threads", Json::Num(run::worker_threads() as f64)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ]
}

fn print_metrics(defs: &[MetricDef], result: &ChildResult) {
    for (name, value) in &result.values {
        let def = defs.iter().find(|d| d.name == name);
        let unit = def.map_or("", |d| d.unit);
        let bound = def
            .and_then(|d| Some((d.better.as_str(), d.bound?)))
            .map_or(String::new(), |(better, bound)| {
                format!("  [{better} is better, bound {:.0}%]", bound * 100.0)
            });
        println!("  {name:34} {value:>16.6} {unit}{bound}");
    }
}

/// Operator mode: every workload in its own child, untraced then traced,
/// `--repeat` sets, and the agreement check between sets.
fn measure_in_children(args: &Args) -> ExitCode {
    let workloads: Vec<Workload> = args
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let env = environment(args);
    println!("unifyfl-benchmark");
    for (key, value) in &env {
        println!("  {key:16} {}", value.render());
    }
    let per_layer = metrics::per_layer();
    let mut ok = true;
    // sets[set][workload] = every metric value of that workload's two runs
    let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
    for set in 0..args.repeat {
        let mut results = Vec::new();
        for &workload in &workloads {
            println!(
                "\n== {} (set {}) — {}",
                workload.name(),
                set + 1,
                workload.why()
            );
            let mut values = Vec::new();
            for (traced, title, defs) in [
                (false, "end_to_end", metrics::END_TO_END),
                (true, "per_layer", per_layer.as_slice()),
            ] {
                match run_child(args, workload, traced) {
                    Ok(result) => {
                        println!(
                            "{title}: ops_attempted {} ops_failed {}",
                            result.attempted, result.failed
                        );
                        print_metrics(defs, &result);
                        ok &= result.failed == 0.0;
                        values.push((format!("{title}.ops_attempted"), result.attempted));
                        values.push((format!("{title}.ops_failed"), result.failed));
                        values.extend(result.values);
                    }
                    Err(problem) => {
                        println!("{title}: FAILED — {problem}");
                        ok = false;
                    }
                }
            }
            results.push(values);
        }
        sets.push(results);
    }
    if args.repeat > 1 {
        ok &= sets_agree(&workloads, &sets);
    }
    let sets_json = sets.iter().map(|results| {
        Json::obj(workloads.iter().zip(results).map(|(workload, values)| {
            let values = values.iter().map(|(n, v)| (n.as_str(), Json::Num(*v)));
            (workload.name(), Json::obj(values))
        }))
    });
    write_output(
        "results.json",
        &Json::obj([
            ("environment", Json::obj(env)),
            ("sets", Json::Arr(sets_json.collect())),
        ]),
    );
    println!("\n{}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How far a metric may differ between two sets of the same code: its
/// bound for host-time end-to-end metrics, nothing for simulated
/// statistics and exact counts, and `None` (not compared) for host-time
/// per-layer metrics.
fn allowed_gap(def: &MetricDef) -> Option<f64> {
    let exact = def.name.starts_with("sim_") || matches!(def.unit, "count" | "bytes" | "gas");
    if exact {
        Some(0.0)
    } else {
        def.bound
    }
}

/// Run-to-run agreement: per workload × compared metric, every set's
/// value, the relative gap between the extremes, and pass/fail.
fn sets_agree(workloads: &[Workload], sets: &[Vec<Vec<(String, f64)>>]) -> bool {
    println!("\n== agreement between {} sets", sets.len());
    let defs: Vec<MetricDef> = metrics::END_TO_END
        .iter()
        .copied()
        .chain(metrics::per_layer())
        .collect();
    let mut ok = true;
    for (w, workload) in workloads.iter().enumerate() {
        let mut exact_agreeing = 0;
        for def in &defs {
            let Some(allowed) = allowed_gap(def) else {
                continue;
            };
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| set[w].iter().find(|(n, _)| n == def.name))
                .map(|(_, v)| *v)
                .collect();
            let (min, max) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            let gap = if max == min {
                0.0
            } else {
                (max - min) / min.abs()
            };
            let pass = values.len() == sets.len() && gap <= allowed;
            ok &= pass;
            // Exact metrics that agree are the expected case: only the
            // bounded ones and the disagreements are worth a line each.
            if allowed == 0.0 && pass {
                exact_agreeing += 1;
            } else {
                let rendered: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
                println!(
                    "  {:14} {:28} {}  gap {:.2}% (allowed {:.1}%)  {}",
                    workload.name(),
                    def.name,
                    rendered.join(" "),
                    gap * 100.0,
                    allowed * 100.0,
                    if pass { "ok" } else { "FAIL" }
                );
            }
        }
        println!(
            "  {:14} {exact_agreeing} simulated statistics and exact counts identical",
            workload.name()
        );
    }
    ok
}
