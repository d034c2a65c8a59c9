//! Runs every workload at `--quick` sizing in both modes and checks that
//! the set of metric names and units emitted equals the set declared in
//! `BENCHMARK.json`, that both modes exit 0, and that a second seed also
//! passes the correctness gate.

use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root")
}

/// The quoted string that follows `key` in `text`.
fn string_after<'a>(text: &'a str, key: &str) -> &'a str {
    let rest = &text[text.find(key).expect("key present") + key.len()..];
    &rest[..rest.find('"').expect("closing quote")]
}

/// The workload names `BENCHMARK.json` declares.
fn workloads() -> Vec<String> {
    let names: Vec<String> = benchmark_json()
        .lines()
        .filter(|line| line.contains("\"why\""))
        .map(|line| string_after(line, "\"name\": \"").to_owned())
        .collect();
    assert_eq!(names.len(), 4);
    names
}

/// `(name, unit)` of every metric declared under `section`.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let json = benchmark_json();
    let body = &json[json
        .find(&format!("\"{section}\": ["))
        .expect("section present")..];
    body[..body.find(']').expect("section closes")]
        .lines()
        .filter(|line| line.contains("\"unit\""))
        .map(|line| {
            (
                string_after(line, "\"name\": \"").to_owned(),
                string_after(line, "\"unit\": \"").to_owned(),
            )
        })
        .collect()
}

/// Runs the benchmark binary; returns its result line.
fn run(workload: &str, seed: &str, trace: &str) -> String {
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out/test");
    let output = Command::new(env!("CARGO_BIN_EXE_ps-benchmark"))
        .args(["--quick", "--workload", workload, "--seed", seed])
        .args(["--trace", trace, "--out", out_dir])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}"
    );
    let line = stdout.lines().last().expect("a result line").to_owned();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0,"), "{line}");
    line
}

/// `(name, unit)` of every metric in a result line.
fn emitted(line: &str) -> BTreeSet<(String, String)> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    metrics
        .split('}')
        .filter(|entry| entry.contains("\"value\""))
        .map(|entry| {
            let name = string_after(entry, "\"");
            (
                name.to_owned(),
                string_after(entry, "\"unit\": \"").to_owned(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_is_rendered_from_the_catalogue() {
    let output = Command::new(env!("CARGO_BIN_EXE_ps-benchmark"))
        .arg("print-benchmark-json")
        .output()
        .expect("the benchmark binary runs");
    assert!(output.status.success());
    assert_eq!(
        String::from_utf8(output.stdout).expect("utf-8"),
        benchmark_json()
    );
}

#[test]
fn untraced_runs_emit_exactly_the_end_to_end_metrics() {
    let declared = declared("end_to_end");
    assert_eq!(declared.len(), 4);
    for workload in workloads() {
        assert_eq!(emitted(&run(&workload, "42", "0")), declared, "{workload}");
    }
}

#[test]
fn traced_runs_emit_exactly_the_per_layer_metrics() {
    let declared = declared("per_layer");
    assert_eq!(declared.len(), 65);
    for workload in workloads() {
        assert_eq!(emitted(&run(&workload, "42", "1")), declared, "{workload}");
    }
}

#[test]
fn a_second_seed_passes_the_correctness_gate() {
    for workload in workloads() {
        run(&workload, "7", "0");
    }
}
