//! Fast smoke test of the benchmark on tiny shapes (`--smoke`): every
//! named metric is emitted with its unit, `BENCHMARK.json` names exactly
//! the benchmark's workloads and metrics, the simulated-time digest
//! repeats for one seed (and the cross-run gate accepts a traced run of
//! it) while a held-out seed also runs clean, and environment overrides
//! are refused.

use perfbench::catalogue::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use pim_trace::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-smoke-{tag}"))
}

fn invoke(workload: &str, seed: u64, seconds: &str, trace: u8, dir: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", seconds])
        .args(["--trace", &trace.to_string(), "--smoke", "--out-dir"])
        .arg(dir)
        .output()
        .expect("benchmark binary runs")
}

/// Run once; returns the parsed last line and the full stdout.
fn run(workload: &str, seed: u64, seconds: &str, trace: u8, dir: &PathBuf) -> (Value, String) {
    let out = invoke(workload, seed, seconds, trace, dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (serde_json::from_str(last).expect("last line is JSON"), stdout)
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("expected an object, got {v:?}"),
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let dir = out_dir("metrics");
    for workload in WORKLOADS {
        for (trace, wanted) in [(0u8, END_TO_END), (1, PER_LAYER)] {
            let (last, _) = run(workload, 3, "0", trace, &dir);
            assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{workload}");
            assert_eq!(last.get("failed").and_then(Value::as_u64), Some(0), "{workload}");
            assert!(last.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
            let metrics = last.get("metrics").expect("metrics");
            let names: Vec<&str> = wanted.iter().map(|m| m.name).collect();
            assert_eq!(keys(metrics), names, "{workload} trace {trace}");
            for m in wanted {
                let entry = metrics.get(m.name).expect("metric present");
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit), "{}", m.name);
                let v = entry.get("value").and_then(Value::as_f64).expect("numeric value");
                assert!(v.is_finite(), "{workload} {} = {v}", m.name);
            }
            if trace == 0 {
                for m in END_TO_END {
                    let v =
                        metrics.get(m.name).and_then(|e| e.get("value")).and_then(Value::as_f64);
                    assert!(
                        v.unwrap_or(0.0) > 0.0,
                        "{workload}: end-to-end {} must not be 0",
                        m.name
                    );
                }
            }
        }
    }
}

fn check_list(listed: &Value, want: &[Metric], with_bound: bool) {
    let listed = listed.as_array().expect("metric list");
    assert_eq!(listed.len(), want.len());
    for (entry, m) in listed.iter().zip(want) {
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(m.name));
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(m.unit), "{}", m.name);
        assert_eq!(entry.get("better").and_then(Value::as_str), Some(m.better), "{}", m.name);
        if with_bound {
            let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
        }
    }
}

#[test]
fn benchmark_json_names_exactly_these_workloads_and_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&spec),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    check_list(spec.get("end_to_end").expect("end_to_end"), END_TO_END, true);
    check_list(spec.get("per_layer").expect("per_layer"), PER_LAYER, false);
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
}

#[test]
fn digest_repeats_for_a_seed_and_a_held_out_seed_runs_clean() {
    let dir = out_dir("determinism");
    let digest = |stdout: &str| {
        stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix("simulated-time digest: "))
            .expect("digest line")
            .to_owned()
    };
    // 1.3 s buys `ebnn_serve` two traces untraced but one per pass traced,
    // so the two modes cover different trace sets and must still agree on
    // what they share.
    for workload in WORKLOADS {
        let (_, a) = run(workload, 5, "1.3", 0, &dir);
        let (_, b) = run(workload, 5, "1.3", 0, &dir);
        assert_eq!(digest(&a), digest(&b), "{workload}: one seed, two runs");
        run(workload, 5, "1.3", 1, &dir);
        let (held_out, c) = run(workload, 9_999, "1.3", 0, &dir);
        assert_eq!(held_out.get("correct"), Some(&Value::Bool(true)));
        assert_ne!(digest(&a), digest(&c), "{workload}: the seed must change the inputs");
    }
}

#[test]
fn environment_overrides_are_refused() {
    for var in perfbench::provenance::FORBIDDEN_ENV {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(["--workload", "ebnn_serve", "--seed", "1", "--seconds", "0", "--trace", "0"])
            .args(["--smoke", "--out-dir"])
            .arg(out_dir("env"))
            .env(var, "1")
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: no result may be printed");
    }
}
