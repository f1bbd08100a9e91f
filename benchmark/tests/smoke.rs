//! The benchmark's self-test, on `--smoke` sizes: the manifest and the
//! code agree, every run prints exactly the manifest's names, and the
//! correctness check notices one flipped byte.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_monarch-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("valid JSON")
}

fn names(manifest: &Value, key: &str) -> Vec<String> {
    manifest[key]
        .as_array()
        .expect("manifest list")
        .iter()
        .map(|m| m["name"].as_str().expect("name").to_string())
        .collect()
}

/// The result line of a run: the last line of its standard output.
fn result_of(stdout: &str) -> Value {
    serde_json::from_str(stdout.trim_end().lines().last().expect("a result line"))
        .expect("result line is JSON")
}

#[test]
fn manifest_agrees_with_the_code() {
    let (ok, out) = bench(&["check-manifest"]);
    assert!(ok, "check-manifest failed: {out}");
    let m = manifest();
    assert!(names(&m, "end_to_end").len() <= 16 && names(&m, "per_layer").len() <= 128);
}

#[test]
fn every_run_prints_each_manifest_name_exactly_once() {
    let m = manifest();
    for workload in names(&m, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, out) = bench(&[
                "--workload",
                &workload,
                "--smoke",
                "--seconds",
                "1",
                "--trace",
                trace,
            ]);
            assert!(ok, "{workload} --trace {trace} failed: {out}");
            let result = result_of(&out);
            assert_eq!(result["correct"], true, "{workload}: {out}");
            assert_eq!(result["failed"], 0u64, "{workload}: {out}");
            assert!(result["attempted"].as_u64().expect("attempted") >= 1);
            let printed: Vec<&String> = result["metrics"]
                .as_object()
                .expect("metrics")
                .iter()
                .map(|(k, _)| k)
                .collect();
            let expected = names(&m, key);
            assert_eq!(
                printed,
                expected.iter().collect::<Vec<_>>(),
                "{workload} --trace {trace}"
            );
            for name in &expected {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad name {name}"
                );
                let table_lines = out
                    .lines()
                    .filter(|l| l.split(' ').next() == Some(name.as_str()))
                    .count();
                assert_eq!(
                    table_lines, 1,
                    "{workload} --trace {trace}: {name} printed {table_lines} times"
                );
                let v = &result["metrics"][name.as_str()];
                assert!(
                    v["value"].as_f64().is_some() && v["unit"].is_string(),
                    "{name}: {v:?}"
                );
            }
            if trace == "1" {
                let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join(format!("out/{workload}.trace.json"));
                let trace: Value =
                    serde_json::from_str(&std::fs::read_to_string(&path).expect("trace file"))
                        .expect("trace is JSON");
                assert!(!trace["traceEvents"]
                    .as_array()
                    .expect("traceEvents")
                    .is_empty());
            }
        }
    }
}

#[test]
fn one_flipped_byte_in_a_fast_tier_copy_is_reported() {
    for workload in ["warm_seq_256k", "warm_rand_4k"] {
        let (ok, out) = bench(&[
            "--workload",
            workload,
            "--smoke",
            "--seconds",
            "1",
            "--flip-byte",
        ]);
        assert!(ok, "{workload} produced no result: {out}");
        assert_eq!(
            result_of(&out)["correct"],
            false,
            "{workload}: the flipped byte went unnoticed"
        );
    }
}
