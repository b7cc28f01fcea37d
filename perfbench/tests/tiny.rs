//! Runs every workload in its tiny mode, untraced and traced, and checks
//! the result line against `BENCHMARK.json`: each listed metric printed
//! with its unit, every correctness check passed, spans written.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, unit)` of every metric in one section (`end_to_end` or
/// `per_layer`) of `BENCHMARK.json`, which is written one key per line.
fn listed_metrics(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    let value = |line: &str, key: &str| {
        line.trim()
            .strip_prefix(&format!("\"{key}\": \""))
            .map(|rest| rest.trim_end_matches(',').trim_end_matches('"').to_string())
    };
    let mut current = "";
    let mut out = Vec::new();
    let mut name = None;
    for line in text.lines() {
        for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
            if line.trim_start().starts_with(s) {
                current = s;
            }
        }
        if current.trim_matches('"') != section {
            continue;
        }
        if let Some(n) = value(line, "name") {
            name = Some(n);
        }
        if let Some(u) = value(line, "unit") {
            out.push((name.take().expect("name precedes unit"), u));
        }
    }
    assert!(!out.is_empty(), "no {section} metrics in BENCHMARK.json");
    out
}

fn out_dir(workload: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("tiny-{workload}"));
    std::fs::create_dir_all(&dir).expect("test output directory");
    dir
}

/// Runs one tiny invocation and returns its last stdout line.
fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.5",
            "--tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir(workload))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool) {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{workload}: {line}"
    );
    assert!(
        line.contains("\"failed\": 0, \"metrics\": {"),
        "{workload}: {line}"
    );
    let listed = listed_metrics(if trace { "per_layer" } else { "end_to_end" });
    for (name, unit) in &listed {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let rest = &line[at + key.len()..];
        let end = rest.find(", \"unit\": ").expect("value then unit");
        let value: f64 = rest[..end].parse().expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(
            rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{workload}: {name} has the wrong unit"
        );
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
    assert_eq!(
        line.matches("\"value\": ").count(),
        listed.len(),
        "{workload}: extra metrics"
    );
    if trace {
        let spans = out_dir(workload).join(format!("spans-{workload}-seed7.json"));
        let text = std::fs::read_to_string(&spans).expect("spans file written");
        assert!(
            text.contains("\"parent\": "),
            "{workload}: empty spans file"
        );
    }
}

#[test]
fn contract_fine() {
    check("contract-fine", false);
    check("contract-fine", true);
}

#[test]
fn sim_c65h132() {
    check("sim-c65h132", false);
    check("sim-c65h132", true);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
