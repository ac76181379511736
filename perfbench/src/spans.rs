//! In-memory host-wall spans recorded around calls into each layer, with
//! self-time accounting and a Chrome trace export built on `pim-trace`'s
//! exporter.
//!
//! Spans are recorded only by the benchmark's own code, around the public
//! calls it makes: `serve()` rounds, the engine adapter's `stage`,
//! `launch`, `gather` and `restore`, and the kernel probe's per-tier
//! launches and per-DPU runs. Nothing inside the program is instrumented.

use pim_trace::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.launch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nesting depth (0 for roots); becomes the Chrome thread id.
    pub depth: u32,
    /// Free argument: batch sequence, DPU index or item count.
    pub arg: u64,
}

/// Per-name totals: calls, total duration, self duration (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// An append-only span log; spans stay in memory until exported.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span; returns its index (for use as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        arg: u64,
    ) -> usize {
        let depth = parent.map_or(0, |p| self.spans[p].depth + 1);
        let start_ns = self.ns_since_epoch(start);
        let dur_ns = self.ns_since_epoch(end).saturating_sub(start_ns);
        self.spans.push(Span { name, start_ns, dur_ns, parent, depth, arg });
        self.spans.len() - 1
    }

    /// Open a span whose end is not known yet (children may be recorded
    /// under it); close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, arg: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now, arg)
    }

    /// Close a span opened with [`SpanLog::open`] at the current time.
    pub fn close(&mut self, id: usize) {
        let end = self.ns_since_epoch(Instant::now());
        let s = &mut self.spans[id];
        s.dur_ns = end.saturating_sub(s.start_ns);
    }

    /// All spans, in recording order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name call counts, total and self time.
    #[must_use]
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.dur_ns;
            t.self_ns += s.dur_ns.saturating_sub(covered);
        }
        out
    }

    /// Chrome trace-event JSON of every span (`X` events, microsecond
    /// timestamps of host wall time, one thread per nesting depth) plus
    /// the given counter samples, on top of `pim-trace`'s exporter.
    #[must_use]
    pub fn chrome(&self, counters: &[(&str, u64, f64)]) -> Value {
        let mut trace = pim_trace::chrome_trace(&[], None);
        let Value::Object(fields) = &mut trace else { unreachable!("exporter returns an object") };
        for (key, value) in fields.iter_mut() {
            match (key.as_str(), value) {
                ("traceEvents", Value::Array(events)) => {
                    for s in &self.spans {
                        events.push(serde_json::json!({
                            "ph": "X",
                            "name": s.name,
                            "pid": 0,
                            "tid": s.depth,
                            "ts": s.start_ns as f64 / 1e3,
                            "dur": s.dur_ns as f64 / 1e3,
                            "args": {"arg": s.arg, "parent": s.parent.map_or(-1, |p| p as i64)},
                        }));
                    }
                    for &(name, ts_us, v) in counters {
                        events.push(pim_trace::counter_event(0, name, ts_us, &[("value", v)]));
                    }
                }
                ("otherData", other) => *other = serde_json::json!({"clock": "host-wall-us"}),
                _ => {}
            }
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new();
        let t0 = Instant::now();
        let root = log.record("root", None, t0, t0 + Duration::from_micros(100), 0);
        log.record("child", Some(root), t0, t0 + Duration::from_micros(30), 0);
        log.record("child", Some(root), t0, t0 + Duration::from_micros(20), 0);
        let t = log.totals();
        assert_eq!(t["root"].total_ns, 100_000);
        assert_eq!(t["root"].self_ns, 50_000);
        assert_eq!(t["child"].calls, 2);
        assert_eq!(t["child"].self_ns, 50_000);
        let chrome = log.chrome(&[("fill", 1, 2.0)]);
        let events = chrome.get("traceEvents").and_then(Value::as_array).expect("events");
        assert_eq!(events.len(), 4);
    }
}
