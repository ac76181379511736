//! Kernel probes: timed calls into the public `Tier1Engine::launch` /
//! `RowEngine::launch`, `DpuSet` snapshot/restore/scrub and
//! `Machine::run_exec_engine`, on the workload's own program and inputs.

use crate::spans::SpanLog;
use crate::workload::Kernel;
use dpu_sim::{DpuId, Engine, ExecProgram};
use pim_host::{HostError, LaunchResult};
use std::time::{Duration, Instant};

/// How long and how often each probe repeats.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Fewest repetitions.
    pub min_reps: usize,
    /// Repeat until at least this much wall time has passed.
    pub min_time: Duration,
}

/// One timed launch: its wall time and its (deterministic) result.
#[derive(Debug, Clone)]
pub struct TimedLaunch {
    /// Host wall of the `launch` call, nanoseconds.
    pub wall_ns: u64,
    /// The launch's result.
    pub result: LaunchResult,
}

impl TimedLaunch {
    /// Simulated instructions per host second, in millions.
    #[must_use]
    pub fn minstr_per_s(&self) -> f64 {
        self.result.total_instructions() as f64 / (self.wall_ns.max(1) as f64 / 1e9) / 1e6
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Launch the staged batch once, timed; the launch becomes a `name` span
/// under the given parent.
///
/// # Errors
/// DPU faults.
pub fn launch_once(
    k: &mut Kernel,
    spans: Option<(&mut SpanLog, usize)>,
    name: &'static str,
) -> Result<TimedLaunch, HostError> {
    let t0 = Instant::now();
    let result = k.launch()?;
    let t1 = Instant::now();
    if let Some((log, parent)) = spans {
        log.record(name, Some(parent), t0, t1, result.per_dpu.len() as u64);
    }
    Ok(TimedLaunch { wall_ns: ns(t1 - t0), result })
}

/// Repeat `round` until it has run `budget.min_reps` times and
/// `budget.min_time` has passed.
///
/// # Errors
/// The first error `round` returns.
pub fn repeat(
    budget: Budget,
    mut round: impl FnMut() -> Result<(), HostError>,
) -> Result<(), HostError> {
    let start = Instant::now();
    let mut done = 0;
    while done < budget.min_reps || start.elapsed() < budget.min_time {
        round()?;
        done += 1;
    }
    Ok(())
}

/// The staged batch's DPUs simulated one after another on the calling
/// thread through `Machine::run_exec_engine` (default tier), summed wall
/// in nanoseconds. Each DPU becomes a `sim.dpu_run` span under `parent`.
///
/// # Errors
/// DPU faults.
pub fn sequential_dpus_ns(
    k: &mut Kernel,
    tasklets: usize,
    mut spans: Option<(&mut SpanLog, usize)>,
) -> Result<u64, HostError> {
    let set = k.set_mut();
    let exec =
        ExecProgram::compile(set.loaded_program().expect("probe kernels load their program"))?;
    let engine = set.engine().unwrap_or_else(Engine::effective);
    let mut total = 0u64;
    for d in 0..set.len() {
        let machine = set.system_mut().dpu_mut(DpuId(d as u32));
        let t0 = Instant::now();
        machine.run_exec_engine(&exec, tasklets, engine)?;
        let t1 = Instant::now();
        if let Some((log, parent)) = &mut spans {
            log.record("sim.dpu_run", Some(*parent), t0, t1, d as u64);
        }
        total += ns(t1 - t0);
    }
    Ok(total)
}

/// Median wall of `reps` calls of `f`, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    crate::stats::median(&samples)
}
