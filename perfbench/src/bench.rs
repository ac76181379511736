//! One benchmark run: set-up samples, a pass of served traces (plus a
//! second, traced pass with `--trace 1`), kernel probes, the determinism
//! gate, and the metric values.

use crate::probe::{self, Budget, TimedLaunch};
use crate::spans::SpanLog;
use crate::stats::{digest, median, peak_rss_mib, quantile};
use crate::timed::CallLog;
use crate::workload::{self, Expected, Fixture, Kernel, Round, Shape};
use dpu_sim::Engine;
use pim_host::HostError;
use pim_trace::{keys, MetricsRegistry};
use std::path::Path;
use std::time::Duration;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time; sets how many traces are served.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny shapes and probe budgets (the smoke test).
    pub smoke: bool,
    /// Directory for the fingerprint store and trace files.
    pub out_dir: std::path::PathBuf,
}

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Value {
    /// Metric name (see [`crate::catalogue`]).
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Samples it rests on.
    pub samples: u64,
}

fn v(name: &'static str, value: f64, samples: u64) -> Value {
    Value { name, value, samples }
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output matched the host reference and every request was
    /// accounted for.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose outputs did not match the host reference.
    pub failed: u64,
    /// The metrics of this run's kind (end-to-end or per-layer).
    pub metrics: Vec<Value>,
    /// The other kind, as far as this run measured it (human report only).
    pub extra: Vec<Value>,
    /// Digest of every simulated-time figure and count of the run.
    pub digest: String,
    /// Human-readable detail lines (span self times, trace file).
    pub notes: Vec<String>,
}

fn budget(smoke: bool, reps: usize, secs: f64) -> Budget {
    if smoke {
        Budget { min_reps: 1, min_time: Duration::ZERO }
    } else {
        Budget { min_reps: reps, min_time: Duration::from_secs_f64(secs) }
    }
}

/// Set-ups timed on their own, on top of the one per served trace.
const EXTRA_SETUPS: usize = 8;
/// Fewest full-capacity kernel launches behind `sim_minstr_per_s`.
const MIN_PROBE_LAUNCHES: usize = 5;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Serve traces `0..k`, each on a fresh engine, with one full-capacity
/// kernel launch after each (spreading those samples over the run). With
/// a span log, every trace is served twice in a row, untraced then
/// traced, so both passes see the same host conditions.
fn serve_traces(
    shape: &Shape,
    o: &Options,
    k: usize,
    expected: &Expected,
    mut spans: Option<&mut SpanLog>,
    kernel: &mut Kernel,
    launches: &mut Vec<TimedLaunch>,
) -> Result<(Vec<Round>, Vec<Round>), String> {
    let (mut plain, mut traced) = (Vec::with_capacity(k), Vec::new());
    for i in 0..k {
        plain.push(workload::setup_and_serve(shape, o.seed, i, expected, None)?);
        if let Some(log) = spans.as_deref_mut() {
            traced.push(workload::setup_and_serve(shape, o.seed, i, expected, Some(log))?);
        }
        launches.push(probe::launch_once(kernel, None, "").map_err(err)?);
    }
    Ok((plain, traced))
}

fn calls_of(rounds: &[Round]) -> (CallLog, u64) {
    let mut log = CallLog::default();
    let mut wall = 0;
    for r in rounds {
        log.absorb(r.calls.clone());
        wall += r.wall_ns;
    }
    (log, wall)
}

/// Cross-run determinism gate: a trace (or probe) digest must repeat in
/// every run of the same build. Digests are kept in
/// `<out_dir>/fingerprints.txt`, keyed by workload, seed, trace and the
/// benchmark executable's identity.
fn gate_store(o: &Options, entries: &[(String, String)]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(err)?;
    let meta = std::fs::metadata(&exe).map_err(err)?;
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    std::fs::create_dir_all(&o.out_dir).map_err(err)?;
    let path: &Path = &o.out_dir.join("fingerprints.txt");
    let mut store = std::fs::read_to_string(path).unwrap_or_default();
    let mut grew = false;
    for (what, dig) in entries {
        let key = format!(
            "{} {} {} {what} {built}-{}",
            o.workload,
            o.seed,
            u8::from(o.smoke),
            meta.len()
        );
        match store.lines().find_map(|l| l.strip_prefix(&key).and_then(|r| r.strip_prefix(' '))) {
            Some(seen) if seen != dig => {
                return Err(format!(
                    "determinism gate: {what} digest {dig} differs from {seen} of an earlier run"
                ))
            }
            Some(_) => {}
            None => {
                store.push_str(&format!("{key} {dig}\n"));
                grew = true;
            }
        }
    }
    if grew {
        std::fs::write(path, store).map_err(err)?;
    }
    Ok(())
}

/// Run the benchmark once.
///
/// # Errors
/// A failed host call, or the determinism gate (differing simulated-time
/// figures or counts between the two passes of a traced run, or between
/// runs of one seed).
#[allow(clippy::too_many_lines)]
pub fn run(o: &Options) -> Result<Outcome, String> {
    let shape = Shape::named(&o.workload, o.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", o.workload))?;
    let fixture = Fixture::generate(&shape, o.seed);
    let expected = Expected::of(&fixture);
    let mut kernel = fixture.kernel(&shape).map_err(err)?;
    let cap = kernel.capacity();
    kernel.stage(cap).map_err(err)?;
    kernel.launch().map_err(err)?;

    let mut setup_ns = Vec::new();
    for _ in 0..if o.smoke { 1 } else { EXTRA_SETUPS } {
        setup_ns.push(workload::setup_only(&shape, o.seed).map_err(err)?);
    }
    let k = shape.traces(if o.trace { o.seconds / 2.0 } else { o.seconds });
    let mut launches = Vec::new();
    let mut log = SpanLog::new();
    let (plain, traced) = serve_traces(
        &shape,
        o,
        k,
        &expected,
        o.trace.then_some(&mut log),
        &mut kernel,
        &mut launches,
    )?;
    while launches.len() < MIN_PROBE_LAUNCHES && !o.smoke {
        launches.push(probe::launch_once(&mut kernel, None, "").map_err(err)?);
    }
    setup_ns.extend(plain.iter().chain(&traced).map(|r| r.setup_ns));

    if let Some((a, b)) = plain.iter().zip(&traced).find(|(a, b)| a.fingerprint != b.fingerprint) {
        return Err(format!(
            "determinism gate: trace {} gave {} untraced but {} traced",
            a.trace, a.fingerprint, b.fingerprint
        ));
    }
    let all = || plain.iter().chain(&traced);
    let correct = all().all(|r| r.mismatched == 0 && r.accounted);
    let attempted: u64 = all().map(|r| r.requests).sum();
    let failed: u64 = all().map(|r| r.mismatched).sum();

    // Simulated-time totals over the pass.
    let mut m = MetricsRegistry::new();
    for r in &plain {
        m.merge(&r.metrics);
    }
    let per_trace = |x: f64| x / k as f64;
    let batches = m.counter(keys::SERVE_BATCHES);
    let requests: u64 = plain.iter().map(|r| r.requests).sum();
    let ok: u64 = plain.iter().map(|r| r.ok).sum();
    let (pcalls, pwall) = calls_of(&plain);
    let vtime: u64 = plain.iter().map(|r| r.vtime_cycles).sum();
    let freq = pim_serve::LinkModel::default().freq_hz as f64;
    let latency = m.histogram(keys::SERVE_LATENCY_CYCLES);
    let lat_q = |q: f64| latency.and_then(|h| h.quantile(q)).unwrap_or(0.0);

    // A launch at trace 0's median fill: where its simulated instructions
    // go. Trace 0 alone, so the probe is the same whatever `K` is.
    let mut trace0 = plain[0].calls.fills.clone();
    trace0.sort_unstable();
    let fill = trace0.get(trace0.len() / 2).copied().unwrap_or(1).max(1);
    kernel.stage(fill).map_err(err)?;
    let at_fill = kernel.launch().map_err(err)?;
    let active = kernel.active_dpus(fill).min(at_fill.per_dpu.len());
    let instr = at_fill.total_instructions();
    let instr_idle: u64 = at_fill.per_dpu[active..].iter().map(|r| r.instructions).sum();
    let dma: u64 = at_fill.per_dpu.iter().map(|r| r.dma_bytes).sum();
    kernel.stage(cap).map_err(err)?;

    let rates: Vec<f64> = launches.iter().map(TimedLaunch::minstr_per_s).collect();
    let launch_ms: Vec<f64> = launches.iter().map(|l| ms(l.wall_ns)).collect();
    let batch_ms: Vec<f64> = pcalls.batch_ns.iter().map(|&n| ms(n)).collect();
    let setup_s: Vec<f64> = setup_ns.iter().map(|&n| n as f64 / 1e9).collect();
    let items_per_s = pcalls.served_items as f64 / (pwall.max(1) as f64 / 1e9);
    let e2e = vec![
        v("host_items_per_s", items_per_s, pcalls.served_items),
        v("host_batch_ms_p50", quantile(&batch_ms, 0.5).unwrap_or(0.0), batch_ms.len() as u64),
        v("host_batch_ms_p90", quantile(&batch_ms, 0.9).unwrap_or(0.0), batch_ms.len() as u64),
        v("sim_minstr_per_s", median(&rates), rates.len() as u64),
        v("setup_s", median(&setup_s), setup_s.len() as u64),
        v("peak_rss_mb", peak_rss_mib().unwrap_or(0.0), 1),
        v("vt_latency_p50_cycles", lat_q(0.50), latency.map_or(0, |h| h.count())),
        v("vt_latency_p99_cycles", lat_q(0.99), latency.map_or(0, |h| h.count())),
        v(
            "vt_goodput_ips",
            pcalls.served_items as f64 * freq / vtime.max(1) as f64,
            pcalls.served_items,
        ),
        v("served_ok_frac", ok as f64 / requests.max(1) as f64, requests),
    ];

    // Per-layer figures: counts per trace from the untraced pass (the
    // traced pass repeats them exactly), host times per trace from the
    // traced pass when there is one.
    let (calls, wall) = if o.trace { calls_of(&traced) } else { (pcalls.clone(), pwall) };
    let capacity = plain[0].metrics.gauge(keys::SERVE_CAPACITY_ITEMS).unwrap_or(cap as f64);
    let launch_calls: Vec<f64> = calls.launch_calls_ns.iter().map(|&n| ms(n)).collect();
    let count = |name, key: &str| v(name, per_trace(m.counter(key) as f64), k as u64);
    let compute = m.histogram(keys::SERVE_COMPUTE_CYCLES);
    let mut layer = vec![
        v("serve.self_ms", per_trace(ms(wall.saturating_sub(calls.engine_ns()))), k as u64),
        count("serve.batches", keys::SERVE_BATCHES),
        v(
            "serve.fill_frac",
            pcalls.fills.iter().sum::<usize>() as f64 / (batches.max(1) as f64 * capacity),
            batches,
        ),
        v(
            "serve.deadline_cut_frac",
            m.counter(keys::SERVE_CUTS_DEADLINE) as f64 / batches.max(1) as f64,
            batches,
        ),
        v(
            "serve.queue_depth_p50",
            m.histogram(keys::SERVE_QUEUE_DEPTH).and_then(|h| h.quantile(0.5)).unwrap_or(0.0),
            m.counter(keys::SERVE_ACCEPTED),
        ),
        count("serve.rejected", keys::SERVE_REJECTED),
        count("serve.breaker_trips", keys::SERVE_BREAKER_TRIPS),
        count("serve.breaker_readmits", keys::SERVE_BREAKER_READMITS),
        v("engine.stage_ms", per_trace(ms(calls.stage_ns)), k as u64),
        v("engine.gather_ms", per_trace(ms(calls.gather_ns)), k as u64),
        v("engine.launch_ms", per_trace(ms(calls.launch_ns)), k as u64),
        v(
            "engine.launch_ms_p50",
            quantile(&launch_calls, 0.5).unwrap_or(0.0),
            launch_calls.len() as u64,
        ),
        v(
            "engine.launch_ms_p90",
            quantile(&launch_calls, 0.9).unwrap_or(0.0),
            launch_calls.len() as u64,
        ),
        v("engine.launch_share", calls.launch_ns as f64 / wall.max(1) as f64, k as u64),
        v("engine.restore_ms", per_trace(ms(calls.restore_ns)), k as u64),
        v("engine.restores", per_trace(calls.restores as f64), k as u64),
        v("host.launch_ms", median(&launch_ms), launch_ms.len() as u64),
        v("host.idle_instr_frac", instr_idle as f64 / instr.max(1) as f64, 1),
        count("host.quarantined_dpus", keys::SERVE_QUARANTINED_DPUS),
        count("host.repaired_dpus", keys::SERVE_REPAIRED_DPUS),
        count("host.redispatched_items", keys::SERVE_REDISPATCHED_ITEMS),
        v("sim.instr_per_item", instr as f64 / fill as f64, 1),
        v(
            "sim.cycles_per_launch",
            compute.map_or(0.0, |h| h.sum() / h.count().max(1) as f64),
            batches,
        ),
        v("sim.dma_bytes_per_item", dma as f64 / fill as f64, 1),
    ];

    let mut notes = Vec::new();
    if o.trace {
        let (tcalls, twall) = calls_of(&traced);
        let traced_ips = tcalls.served_items as f64 / (twall.max(1) as f64 / 1e9);
        layer.push(v("trace.overhead_frac", 1.0 - traced_ips / items_per_s, k as u64));
        layer.extend(probe_layers(o, &shape, &mut kernel, &mut log).map_err(err)?);
        for (name, t) in log.totals() {
            notes.push(format!(
                "span {name:<24} calls={:<6} total_ms={:<12.3} self_ms={:.3}",
                t.calls,
                ms(t.total_ns),
                ms(t.self_ns)
            ));
        }
        let stages = log.spans().iter().filter(|s| s.name == "engine.stage");
        let fills = traced.iter().flat_map(|r| r.calls.fills.iter());
        let counters: Vec<(&str, u64, f64)> =
            stages.zip(fills).map(|(s, &f)| ("batch.fill", s.start_ns / 1000, f as f64)).collect();
        std::fs::create_dir_all(&o.out_dir).map_err(err)?;
        let path = o.out_dir.join(format!("trace-{}-{}.json", shape.name, o.seed));
        std::fs::write(&path, serde_json::to_string(&log.chrome(&counters)).map_err(err)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("chrome trace: {} ({} spans)", path.display(), log.spans().len()));
    }

    let probe_digest =
        digest(format!("fill={fill} instr={instr} idle={instr_idle} dma={dma}").as_bytes());
    let mut entries: Vec<(String, String)> =
        plain.iter().map(|r| (format!("trace{}", r.trace), r.fingerprint.clone())).collect();
    entries.push(("probe".to_owned(), probe_digest));
    gate_store(o, &entries)?;
    let all_digests: String = entries.iter().map(|(_, d)| d.as_str()).collect();

    let (metrics, extra) = if o.trace { (layer, e2e) } else { (e2e, layer) };
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        extra,
        digest: digest(all_digests.as_bytes()),
        notes,
    })
}

/// The probes only a traced run makes, all under one `probe.kernel`
/// span: per-tier launch speed, the sequential per-DPU sum against the
/// pooled launch, the ECC tax, and snapshot/restore/scrub cost. Each
/// comparison alternates its sides launch by launch, so host drift hits
/// both alike.
fn probe_layers(
    o: &Options,
    shape: &Shape,
    kernel: &mut Kernel,
    log: &mut SpanLog,
) -> Result<Vec<Value>, HostError> {
    let cap = kernel.capacity();
    let root = log.open("probe.kernel", None, cap as u64);
    let mut out = Vec::new();
    let tiers = [
        (Engine::Reference, "sim.reference.minstr_per_s", "sim.launch.reference"),
        (Engine::Superblock, "sim.superblock.minstr_per_s", "sim.launch.superblock"),
        (Engine::Compiled, "sim.compiled.minstr_per_s", "sim.launch.compiled"),
    ];
    let mut rates = [Vec::new(), Vec::new(), Vec::new()];
    let mut warm = true;
    probe::repeat(budget(o.smoke, 5, 1.5), || {
        for (j, &(tier, _, span)) in tiers.iter().enumerate() {
            kernel.set_mut().set_engine(Some(tier));
            let l = probe::launch_once(kernel, (!warm).then_some((&mut *log, root)), span)?;
            if !warm {
                rates[j].push(l.minstr_per_s());
            }
        }
        warm = false;
        Ok(())
    })?;
    kernel.set_mut().set_engine(None);
    for ((_, name, _), r) in tiers.iter().zip(&rates) {
        out.push(v(name, median(r), r.len() as u64));
    }

    // The set runs on its worker pool only from the parallel threshold
    // up; below it, launches run on the calling thread.
    let pooled = shape.dpus >= kernel.set_mut().parallel_threshold();
    let workers = if pooled {
        std::thread::available_parallelism().map_or(1, usize::from).min(shape.dpus)
    } else {
        1
    };
    let tasklets = kernel.tasklets(cap);
    let (mut seq, mut eff) = (Vec::new(), Vec::new());
    for i in 0..if o.smoke { 1 } else { 5 } {
        let launch = probe::launch_once(kernel, Some((&mut *log, root)), "host.launch")?;
        let parent = log.open("host.seq_dpus", Some(root), i);
        let seq_ns = probe::sequential_dpus_ns(kernel, tasklets, Some((&mut *log, parent)))?;
        log.close(parent);
        seq.push(ms(seq_ns));
        eff.push(seq_ns as f64 / (launch.wall_ns as f64 * workers as f64));
    }
    out.push(v("host.seq_dpu_ms", median(&seq), seq.len() as u64));
    out.push(v("host.pool_efficiency", median(&eff), eff.len() as u64));

    let mut ecc = Vec::new();
    probe::repeat(budget(o.smoke, 5, 2.0), || {
        let mut wall = [0u64; 2];
        for (i, on) in [false, true].into_iter().enumerate() {
            kernel.enable_ecc(on);
            wall[i] = probe::launch_once(kernel, None, "")?.wall_ns;
        }
        ecc.push(wall[1] as f64 / wall[0] as f64);
        Ok(())
    })?;
    kernel.enable_ecc(shape.chaos);
    out.push(v("sim.ecc_tax", median(&ecc), ecc.len() as u64));

    let reps = if o.smoke { 1 } else { 25 };
    let set = kernel.set_mut();
    let snap = set.snapshot();
    let snapshot_us = probe::median_us(reps, || drop(std::hint::black_box(set.snapshot())));
    let restore_us =
        probe::median_us(reps, || set.restore(&snap).expect("snapshot of this very set"));
    let scrub_us = probe::median_us(reps, || drop(std::hint::black_box(set.scrub_all())));
    out.push(v("host.snapshot_us", snapshot_us, reps as u64));
    out.push(v("host.restore_us", restore_us, reps as u64));
    out.push(v("host.scrub_us", scrub_us, reps as u64));
    log.close(root);
    Ok(out)
}
