//! Smoke test at tiny sizes: every metric `BENCHMARK.json` names is
//! emitted with its unit, on every workload, traced and untraced; and a
//! perturbed reference output shows up as failed operations.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["online", "gateway", "control"];

/// Runs the benchmark binary at tiny sizes; returns stdout's last line.
fn run(workload: &str, trace: &str, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The string value of `"key": "..."` at the start of `entry`.
fn field<'a>(entry: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\": \"");
    let at = entry
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {entry}"))
        + tag.len();
    entry[at..].split('"').next().expect("closing quote")
}

/// The `(name, unit)` pairs listed under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text.find(&format!("\"{key}\"")).expect("section present");
    let section = &text[start..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split('{')
        .skip(1)
        .map(|e| (field(e, "name").to_string(), field(e, "unit").to_string()))
        .collect()
}

fn failed(result: &str) -> u64 {
    let at = result.find("\"failed\": ").expect("failed key") + 10;
    result[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|n| n.parse().ok())
        .expect("failed count")
}

fn assert_emits(result: &str, metrics: &[(String, String)]) {
    for (name, unit) in metrics {
        let tag = format!("\"{name}\": {{\"value\": ");
        let at = result
            .find(&tag)
            .unwrap_or_else(|| panic!("{name} missing from {result}"));
        assert_eq!(field(&result[at + tag.len()..], "unit"), unit, "{name}");
    }
    let emitted = result.matches("\"unit\": ").count();
    assert_eq!(
        emitted,
        metrics.len(),
        "exactly the declared metrics: {result}"
    );
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in WORKLOADS {
        let result = run(workload, "0", &[]);
        assert_emits(&result, &end_to_end);
        assert_eq!(failed(&result), 0, "{workload}: {result}");
        assert!(result.starts_with("{\"correct\": true"), "{result}");
        let traced = run(workload, "1", &[]);
        assert_emits(&traced, &per_layer);
    }
}

#[test]
fn a_perturbed_reference_counts_as_failed() {
    for workload in WORKLOADS {
        let result = run(workload, "0", &["--corrupt"]);
        assert!(failed(&result) > 0, "{workload}: {result}");
        assert!(result.starts_with("{\"correct\": false"), "{result}");
    }
}
