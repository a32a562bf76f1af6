//! The benchmark checked against its own contract: the metric and
//! workload names it emits are the ones `BENCHMARK.json` declares, and a
//! smoke-scale run of every workload passes every correctness check and
//! repeats its deterministic metrics bit for bit.

use std::collections::BTreeSet;

use masm_benchmark::report::{Decl, Outcome, END_TO_END, PER_LAYER};
use masm_benchmark::run::{run, Options};
use masm_benchmark::workload::{self, Scale};
use masm_telemetry::json::{parse, JsonValue};

fn smoke(workload: &str, seed: u64, trace: bool) -> Outcome {
    let spec = workload::by_name(workload).expect("known workload");
    let opts = Options {
        seed,
        seconds: 20,
        trace,
        scale: Scale::Smoke,
    };
    run(spec, &opts).expect("smoke run completes")
}

fn declared() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Arr(items)) => items,
        other => panic!("BENCHMARK.json: {key} is not a list: {other:?}"),
    }
}

fn text<'a>(item: &'a JsonValue, key: &str) -> &'a str {
    match item.get(key) {
        Some(JsonValue::Str(s)) => s,
        other => panic!("BENCHMARK.json: {key} is not a string: {other:?}"),
    }
}

fn well_named(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_united(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn same_set(catalogue: &[Decl], declared: &[JsonValue], what: &str) {
    let in_code: Vec<(&str, &str)> = catalogue.iter().map(|d| (d.name, d.unit)).collect();
    let in_json: Vec<(&str, &str)> = declared
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(
        in_code, in_json,
        "{what}: catalogue and BENCHMARK.json differ"
    );
    let unique: BTreeSet<&str> = in_code.iter().map(|(n, _)| *n).collect();
    assert_eq!(unique.len(), in_code.len(), "{what}: a name is used twice");
    for (name, unit) in in_code {
        assert!(well_named(name), "{what}: bad metric name {name:?}");
        assert!(well_united(unit), "{what}: bad unit {unit:?} of {name}");
    }
}

#[test]
fn names_and_units_are_the_declared_ones() {
    let doc = declared();
    same_set(&END_TO_END, list(&doc, "end_to_end"), "end_to_end");
    same_set(&PER_LAYER, list(&doc, "per_layer"), "per_layer");
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    let bounded = list(&doc, "end_to_end").iter().all(|m| {
        m.get_f64("bound").is_some_and(|b| b > 0.0 && b <= 0.25)
            && matches!(text(m, "better"), "lower" | "higher")
    });
    assert!(bounded, "every end-to-end metric has a bound in (0, 0.25]");

    let in_code: Vec<&str> = workload::all().iter().map(|s| s.name).collect();
    let in_json: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(in_code, in_json);
    assert!(in_code.iter().all(|n| well_named(n)));
    assert!(list(&doc, "workloads")
        .iter()
        .all(|w| text(w, "why").len() <= 200 && !text(w, "why").contains('\n')));
}

fn emitted(outcome: &Outcome) -> Vec<&'static str> {
    outcome.metrics.iter().map(|m| m.decl.name).collect()
}

#[test]
fn every_workload_passes_its_checks_at_smoke_scale() {
    for spec in workload::all() {
        for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let outcome = smoke(spec.name, 1, trace);
            assert_eq!(outcome.tally.failed, 0, "{} trace={trace}", spec.name);
            assert!(outcome.tally.attempted > 0);
            let declared: Vec<&str> = catalogue.iter().map(|d| d.name).collect();
            assert_eq!(emitted(&outcome), declared, "{} trace={trace}", spec.name);
            for m in &outcome.metrics {
                assert!(
                    m.value.is_finite(),
                    "{} trace={trace}: {} = {}",
                    spec.name,
                    m.decl.name,
                    m.value
                );
            }
            assert!(outcome.correct());
            assert_eq!(outcome.chrome_trace.is_some(), trace);
        }
    }
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let outcome = smoke("scan_hot", 2, false);
    let line = parse(&outcome.to_json()).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(line.get_u64("failed"), Some(0));
    assert!(line.get_u64("attempted").is_some_and(|n| n >= 1));
    let metrics = line
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .expect("metrics");
    assert_eq!(metrics.len(), END_TO_END.len());
    for d in END_TO_END {
        let m = &metrics[d.name];
        assert_eq!(text(m, "unit"), d.unit);
        assert_eq!(m.get_f64("value"), outcome.value(d.name));
    }
}

#[test]
fn one_seed_repeats_exactly_and_another_still_passes() {
    for workload in ["ingest_sustained", "mixed_online"] {
        for trace in [false, true] {
            let first = smoke(workload, 3, trace);
            let again = smoke(workload, 3, trace);
            for (a, b) in first.metrics.iter().zip(&again.metrics) {
                if a.decl.exact {
                    assert_eq!(
                        a.value.to_bits(),
                        b.value.to_bits(),
                        "{workload} trace={trace}: {} differs between two runs of one seed",
                        a.decl.name
                    );
                }
            }
            assert_eq!(first.tally.attempted, again.tally.attempted);
        }
        let other = smoke(workload, 4, false);
        assert!(other.correct(), "{workload}: seed 4 fails a check");
        let differs = END_TO_END
            .iter()
            .filter(|d| d.exact)
            .any(|d| other.value(d.name) != smoke(workload, 3, false).value(d.name));
        assert!(differs, "{workload}: the seed does not reach the inputs");
    }
}

#[test]
fn the_traced_run_writes_a_loadable_chrome_trace() {
    let outcome = smoke("scan_cold", 5, true);
    let trace = parse(
        outcome
            .chrome_trace
            .as_deref()
            .expect("traced run keeps its spans"),
    )
    .expect("Chrome trace is JSON");
    let events = list(&trace, "traceEvents");
    let names: BTreeSet<&str> = events.iter().map(|e| text(e, "name")).collect();
    for expected in ["lap", "cycle", "migrate", "begin_scan+drain", "recover"] {
        assert!(
            names.contains(expected),
            "no {expected:?} span in {names:?}"
        );
    }
    // phase -> repetition -> call: a call's parent chain reaches the lap.
    let migrate = events
        .iter()
        .find(|e| {
            text(e, "name") == "migrate" && e.get("args").is_some_and(|a| a.get("parent").is_some())
        })
        .expect("a nested migrate span");
    let mut at = migrate;
    let mut chain = vec![text(at, "name")];
    while let Some(parent) = at.get("args").and_then(|a| a.get_u64("parent")) {
        at = &events[parent as usize];
        chain.push(text(at, "name"));
    }
    assert_eq!(chain.last(), Some(&"lap"), "chain {chain:?}");
    assert!(chain.len() >= 3, "chain {chain:?}");
}
