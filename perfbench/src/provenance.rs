//! Where a result was measured, and the guard against environment
//! overrides that would silently change what is measured.

use pim_trace::Value;

/// Environment variables that change the simulator tier, the serving
/// knobs or the launch scheduling behind the benchmark's back.
pub const FORBIDDEN_ENV: [&str; 4] = [
    dpu_sim::Engine::ENV_VAR,
    pim_serve::MAX_BATCH_DELAY_ENV,
    pim_serve::QUEUE_DEPTH_ENV,
    pim_host::DpuSet::PARALLEL_THRESHOLD_ENV,
];

/// The forbidden variables that are set in this process's environment.
#[must_use]
pub fn overrides_set() -> Vec<&'static str> {
    FORBIDDEN_ENV.into_iter().filter(|v| std::env::var_os(v).is_some()).collect()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Machine, toolchain, build and engine-tier record for a result.
#[must_use]
pub fn record(dpus: usize) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    serde_json::json!({
        "nproc": nproc,
        "pool_workers": nproc.min(dpus),
        "cpu_model": cpu_model(),
        "rustc": env!("PERFBENCH_RUSTC"),
        "git_sha": env!("PERFBENCH_GIT_SHA"),
        "build_profile": env!("PERFBENCH_PROFILE"),
        "engine_tier": dpu_sim::Engine::effective().name(),
    })
}
