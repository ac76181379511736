//! A [`BatchEngine`] wrapper that times every call `serve()` makes into
//! the engine adapter, from outside the program.
//!
//! The wrapper forwards each call unchanged, so the served results and
//! every simulated-time figure are those of the wrapped engine. It
//! attributes host wall time per batch (`stage` + `launch` + `gather` of
//! the batch staged on a buffer) and, when given a [`SpanLog`], records one
//! span per call under the current `serve()` round.

use crate::spans::SpanLog;
use pim_host::HostError;
use pim_serve::{BatchEngine, BatchRun, Gathered};
use std::time::Instant;

/// Host wall time of the engine calls of one or more serve rounds.
#[derive(Debug, Clone, Default)]
pub struct CallLog {
    /// Summed `stage` wall, nanoseconds.
    pub stage_ns: u64,
    /// Summed `launch` wall, nanoseconds.
    pub launch_ns: u64,
    /// Summed `gather` wall, nanoseconds.
    pub gather_ns: u64,
    /// Summed `restore` wall, nanoseconds.
    pub restore_ns: u64,
    /// `restore` calls.
    pub restores: u64,
    /// Wall of each `launch` call, nanoseconds.
    pub launch_calls_ns: Vec<u64>,
    /// Per gathered batch: its `stage` + `launch` + `gather` wall, ns.
    pub batch_ns: Vec<u64>,
    /// Items staged per batch, in staging order.
    pub fills: Vec<usize>,
    /// Items gathered with a result (served items).
    pub served_items: u64,
}

impl CallLog {
    /// Wall spent inside the engine adapter, nanoseconds.
    #[must_use]
    pub fn engine_ns(&self) -> u64 {
        self.stage_ns + self.launch_ns + self.gather_ns + self.restore_ns
    }

    /// Fold another round's log into this one.
    pub fn absorb(&mut self, other: CallLog) {
        self.stage_ns += other.stage_ns;
        self.launch_ns += other.launch_ns;
        self.gather_ns += other.gather_ns;
        self.restore_ns += other.restore_ns;
        self.restores += other.restores;
        self.launch_calls_ns.extend(other.launch_calls_ns);
        self.batch_ns.extend(other.batch_ns);
        self.fills.extend(other.fills);
        self.served_items += other.served_items;
    }
}

/// The timing wrapper. `spans`/`round` are set for traced rounds.
pub struct Timed<'a, E> {
    inner: E,
    log: CallLog,
    /// Per buffer: the batch staged on it (index, wall so far) until it
    /// is gathered.
    open: [Option<(u64, u64)>; 2],
    active: usize,
    spans: Option<(&'a mut SpanLog, usize)>,
}

impl<'a, E: BatchEngine> Timed<'a, E> {
    /// Wrap `inner`; with `spans = Some((log, round))` every call is also
    /// recorded as a child span of span `round`.
    pub fn new(inner: E, spans: Option<(&'a mut SpanLog, usize)>) -> Self {
        Self { inner, log: CallLog::default(), open: [None; 2], active: 0, spans }
    }

    /// The call log, and the span log handed in (to close the round).
    pub fn into_parts(self) -> (CallLog, Option<(&'a mut SpanLog, usize)>) {
        (self.log, self.spans)
    }

    /// Time one call; its span carries `batch` (the batch it serves).
    fn timed<R>(
        &mut self,
        name: &'static str,
        batch: u64,
        f: impl FnOnce(&mut E) -> R,
    ) -> (R, u64) {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let t1 = Instant::now();
        if let Some((log, round)) = &mut self.spans {
            log.record(name, Some(*round), t0, t1, batch);
        }
        (r, u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX))
    }
}

impl<E: BatchEngine> BatchEngine for Timed<'_, E> {
    type Item = E::Item;
    type Output = E::Output;

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn dpus(&self) -> usize {
        self.inner.dpus()
    }

    fn buffers(&self) -> usize {
        self.inner.buffers()
    }

    fn stage(&mut self, items: &[E::Item], buf: usize) -> Result<u64, HostError> {
        let batch = self.log.fills.len() as u64;
        let (r, ns) = self.timed("engine.stage", batch, |e| e.stage(items, buf));
        self.log.stage_ns += ns;
        self.log.fills.push(items.len());
        self.open[buf] = Some((batch, ns));
        self.active = buf;
        r
    }

    fn set_live_mask(&mut self, live: &[bool]) {
        self.inner.set_live_mask(live);
    }

    fn launch(&mut self, seq: u64) -> Result<BatchRun, HostError> {
        let batch = self.open[self.active].map_or(u64::MAX, |(b, _)| b);
        let (r, ns) = self.timed("engine.launch", batch, |e| e.launch(seq));
        self.log.launch_ns += ns;
        self.log.launch_calls_ns.push(ns);
        if let Some((_, acc)) = &mut self.open[self.active] {
            *acc += ns;
        }
        r
    }

    fn gather(&mut self, buf: usize) -> Result<Gathered<E::Output>, HostError> {
        let batch = self.open[buf].map_or(u64::MAX, |(b, _)| b);
        let (r, ns) = self.timed("engine.gather", batch, |e| e.gather(buf));
        self.log.gather_ns += ns;
        if let Some((_, acc)) = self.open[buf].take() {
            self.log.batch_ns.push(acc + ns);
        }
        if let Ok((outs, _)) = &r {
            self.log.served_items += outs.iter().filter(|o| o.is_some()).count() as u64;
        }
        r
    }

    fn dirty(&self) -> bool {
        self.inner.dirty()
    }

    fn restore(&mut self) -> Result<(), HostError> {
        let (r, ns) = self.timed("engine.restore", u64::MAX, BatchEngine::restore);
        self.log.restore_ns += ns;
        self.log.restores += 1;
        r
    }

    fn recompile_hot(&mut self, min_entries: u64) -> Result<usize, HostError> {
        self.inner.recompile_hot(min_entries)
    }
}
