//! Every name the benchmark reports. `BENCHMARK.json` at the repository
//! root lists exactly these workloads and metrics; the smoke test checks
//! that the two agree.

/// One reported metric: its name, unit, and which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Stable metric name.
    pub name: &'static str,
    /// Unit the value is given in.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["ebnn_serve", "yolo_row_serve", "ebnn_chaos_serve"];

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("host_items_per_s", "items/s", "higher"),
    m("host_batch_ms_p50", "ms", "lower"),
    m("host_batch_ms_p90", "ms", "lower"),
    m("sim_minstr_per_s", "Minstr/s", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("vt_latency_p50_cycles", "cycles", "lower"),
    m("vt_latency_p99_cycles", "cycles", "lower"),
    m("vt_goodput_ips", "items/sim-s", "higher"),
    m("served_ok_frac", "share", "higher"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    // pim-serve
    m("serve.self_ms", "ms", "lower"),
    m("serve.batches", "count", "lower"),
    m("serve.fill_frac", "share", "higher"),
    m("serve.deadline_cut_frac", "share", "lower"),
    m("serve.queue_depth_p50", "requests", "lower"),
    m("serve.rejected", "count", "lower"),
    m("serve.breaker_trips", "count", "lower"),
    m("serve.breaker_readmits", "count", "higher"),
    // BatchEngine adapters over Tier1Engine / RowEngine
    m("engine.stage_ms", "ms", "lower"),
    m("engine.gather_ms", "ms", "lower"),
    m("engine.launch_ms", "ms", "lower"),
    m("engine.launch_ms_p50", "ms", "lower"),
    m("engine.launch_ms_p90", "ms", "lower"),
    m("engine.launch_share", "share", "lower"),
    m("engine.restore_ms", "ms", "lower"),
    m("engine.restores", "count", "lower"),
    // pim-host
    m("host.launch_ms", "ms", "lower"),
    m("host.seq_dpu_ms", "ms", "lower"),
    m("host.pool_efficiency", "share", "higher"),
    m("host.idle_instr_frac", "share", "lower"),
    m("host.snapshot_us", "us", "lower"),
    m("host.restore_us", "us", "lower"),
    m("host.scrub_us", "us", "lower"),
    m("host.quarantined_dpus", "count", "lower"),
    m("host.repaired_dpus", "count", "lower"),
    m("host.redispatched_items", "count", "lower"),
    // dpu-sim
    m("sim.reference.minstr_per_s", "Minstr/s", "higher"),
    m("sim.superblock.minstr_per_s", "Minstr/s", "higher"),
    m("sim.compiled.minstr_per_s", "Minstr/s", "higher"),
    m("sim.instr_per_item", "count", "lower"),
    m("sim.cycles_per_launch", "cycles", "lower"),
    m("sim.dma_bytes_per_item", "bytes", "lower"),
    m("sim.ecc_tax", "ratio", "lower"),
    // the traced run itself
    m("trace.overhead_frac", "share", "lower"),
];

/// Look a metric up by name in either list.
#[must_use]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
