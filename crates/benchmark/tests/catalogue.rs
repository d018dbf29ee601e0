//! Tier-1: `BENCHMARK.json` and the binary agree on every name, unit,
//! direction and bound, and both stay inside the benchmark contract.

use unifyfl_benchmark::json::Json;
use unifyfl_benchmark::metrics::{per_layer, MetricDef, END_TO_END};
use unifyfl_benchmark::workloads::Workload;
use unifyfl_benchmark::{hygiene_problems, DEFAULT_SECONDS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The catalogue entry as `BENCHMARK.json` spells it.
fn as_manifest_entry(def: &MetricDef) -> Json {
    let mut pairs = vec![
        ("name", Json::str(def.name)),
        ("unit", Json::str(def.unit)),
        ("better", Json::str(def.better.as_str())),
    ];
    if let Some(bound) = def.bound {
        pairs.push(("bound", Json::Num(bound)));
    }
    Json::obj(pairs)
}

#[test]
fn manifest_has_exactly_the_contract_keys() {
    let doc = manifest();
    let keys: Vec<&str> = doc
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("paths").and_then(Json::as_arr),
        Some([Json::str("crates/benchmark")].as_slice())
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
}

#[test]
fn manifest_workloads_match_the_binary() {
    let doc = manifest();
    let listed = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    let expected: Vec<Json> = Workload::ALL
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    assert_eq!(listed, expected.as_slice());
    assert!((2..=8).contains(&listed.len()));
    for w in Workload::ALL {
        assert!(well_formed_name(w.name()));
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
}

#[test]
fn manifest_metrics_match_the_catalogue() {
    let doc = manifest();
    let layers = per_layer();
    for (key, defs, most) in [
        ("end_to_end", END_TO_END, 16),
        ("per_layer", layers.as_slice(), 128),
    ] {
        let listed = doc.get(key).and_then(Json::as_arr).expect(key);
        let expected: Vec<Json> = defs.iter().map(as_manifest_entry).collect();
        assert_eq!(listed, expected.as_slice(), "{key}");
        assert!((1..=most).contains(&defs.len()), "{key} has {}", defs.len());
    }
    let mut names: Vec<&str> = END_TO_END.iter().chain(&layers).map(|d| d.name).collect();
    for def in END_TO_END.iter().chain(&layers) {
        assert!(well_formed_name(def.name), "{}", def.name);
        assert!(well_formed_unit(def.unit), "{} unit {}", def.name, def.unit);
    }
    for def in END_TO_END {
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
    }
    assert!(layers.iter().all(|d| d.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a metric name is used twice");
}

#[test]
fn hygiene_refuses_overrides_and_debug_builds() {
    assert!(hygiene_problems(|_| false, false).is_empty());
    assert_eq!(hygiene_problems(|_| false, true).len(), 1);
    let problems = hygiene_problems(|name| name == "UNIFYFL_ENGINE", false);
    assert_eq!(problems.len(), 1);
    assert!(problems[0].contains("UNIFYFL_ENGINE"));
    assert_eq!(hygiene_problems(|_| true, true).len(), 3);
}
