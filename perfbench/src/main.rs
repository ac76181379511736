//! Benchmark driver.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out-dir DIR]
//! ```
//!
//! Prints a human-readable report, a provenance line, and as its last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 2 on bad arguments or a forbidden environment
//! override, 3 when the determinism gate trips, 1 when outputs are wrong.

use perfbench::bench::{self, Options, Outcome};
use perfbench::catalogue::{self, END_TO_END, PER_LAYER};
use perfbench::provenance;
use perfbench::workload::Shape;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]",
        catalogue::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse() -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = val()?,
            "--seed" => o.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--out-dir" => o.out_dir = PathBuf::from(val()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !catalogue::WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("unknown workload {:?}", o.workload));
    }
    if !(o.seconds.is_finite() && o.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    Ok(o)
}

fn print_report(o: &Options, out: &Outcome) {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        o.workload,
        o.seed,
        o.seconds,
        u8::from(o.trace)
    );
    for v in out.metrics.iter().chain(&out.extra) {
        let unit = catalogue::find(v.name).map_or("", |m| m.unit);
        println!("  {:<30} {:>18.6} {:<12} n={}", v.name, v.value, unit, v.samples);
    }
    if let Some(ok) = out.metrics.iter().chain(&out.extra).find(|v| v.name == "served_ok_frac") {
        println!(
            "  {:<30} {:>18.6} {:<12} n={}",
            "(failed_frac)",
            1.0 - ok.value,
            "share",
            ok.samples
        );
    }
    for n in &out.notes {
        println!("  {n}");
    }
    println!("  simulated-time digest: {}", out.digest);
}

fn main() -> ExitCode {
    let set = provenance::overrides_set();
    if !set.is_empty() {
        return usage(&format!("refusing to run with {} set", set.join(", ")));
    }
    let o = match parse() {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let out = match bench::run(&o) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(if e.starts_with("determinism gate") { 3 } else { 1 });
        }
    };
    print_report(&o, &out);
    let dpus = Shape::named(&o.workload, o.smoke).map_or(1, |s| s.dpus);
    println!("provenance {}", serde_json::to_string(&provenance::record(dpus)).expect("json"));

    let wanted = if o.trace { PER_LAYER } else { END_TO_END };
    let metrics = pim_trace::Value::Object(
        wanted
            .iter()
            .map(|m| {
                let v = out.metrics.iter().find(|v| v.name == m.name).map_or(0.0, |v| v.value);
                (m.name.to_owned(), serde_json::json!({"value": v, "unit": m.unit}))
            })
            .collect(),
    );
    let last = serde_json::json!({
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    });
    println!("{}", serde_json::to_string(&last).expect("json"));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: served outputs differ from the host reference");
        ExitCode::from(1)
    }
}
