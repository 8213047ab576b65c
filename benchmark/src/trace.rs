//! Driver-side spans around every call the benchmark makes into the
//! repository's crates. Spans live in a pre-sized `Vec` and are written to
//! `benchmark/out/trace-<workload>.json` when the workload ends. Spans inside
//! the crates are a later change (ROADMAP item 1).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped.
const CAPACITY: usize = 1 << 17;
const NO_PARENT: i64 = -1;

/// One timed call. `parent` indexes the span that was open when this one
/// began (−1 for none); spans of one step, session or request share `op_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub op_id: u64,
}

/// Per-name totals: calls, wall time, and self time (wall minus the part the
/// span's children cover).
#[derive(Debug, Clone, PartialEq)]
pub struct NameTotal {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    sampling: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self::with_capacity(enabled, CAPACITY)
    }

    /// [`Self::new`] keeping at most `capacity` spans.
    pub fn with_capacity(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            sampling: enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::new(),
            op_id: 0,
            dropped: 0,
        }
    }

    /// Is this a traced run?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Does the current op record spans?
    pub fn sampling(&self) -> bool {
        self.sampling
    }

    /// Start the op `op_id` (a step, session, tick or probe call). A traced
    /// run records every other op, so that one run holds both traced and
    /// untraced lock-step pairs and can state what tracing costs.
    pub fn begin_op(&mut self, op_id: u64) {
        self.op_id = op_id;
        self.sampling = self.enabled && op_id.is_multiple_of(2);
    }

    /// Start an op that is recorded whenever the run is traced (requests).
    pub fn begin_op_always(&mut self, op_id: u64) {
        self.begin_probe_call(op_id, true);
    }

    /// Start a probe call; a traced run records it when `record` is set.
    pub fn begin_probe_call(&mut self, op_id: u64, record: bool) {
        self.op_id = op_id;
        self.sampling = self.enabled && record;
    }

    /// Time `f`, recording a span when the current op is sampled. Returns
    /// `f`'s value and its wall seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.sampling {
            let t0 = Instant::now();
            let value = f();
            return (value, t0.elapsed().as_secs_f64());
        }
        let handle = self.open_span(name);
        let t0 = Instant::now();
        let value = f();
        let elapsed = t0.elapsed();
        self.close_span(handle);
        (value, elapsed.as_secs_f64())
    }

    /// Open a span that encloses the calls made until [`Self::close_span`]:
    /// the parent of their spans.
    pub fn open_span(&mut self, name: &'static str) -> Option<usize> {
        if !self.sampling {
            return None;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().map_or(NO_PARENT, |&p| p as i64),
            op_id: self.op_id,
        });
        self.open.push(index);
        Some(index)
    }

    /// Close a span opened by [`Self::open_span`].
    pub fn close_span(&mut self, handle: Option<usize>) {
        let Some(index) = handle else { return };
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans close in LIFO order");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, in order of first appearance.
    pub fn totals(&self) -> Vec<NameTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: Vec<NameTotal> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let wall = s.end_ns - s.start_ns;
            let slot = match totals.iter().position(|t| t.name == s.name) {
                Some(i) => &mut totals[i],
                None => {
                    totals.push(NameTotal {
                        name: s.name,
                        calls: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    totals.last_mut().expect("just pushed")
                }
            };
            slot.calls += 1;
            slot.total_ns += wall;
            slot.self_ns += wall.saturating_sub(covered);
        }
        totals
    }

    /// Write the spans as JSON; returns how many were written.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"dropped\": {}, \"spans\": [",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.op_id
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)?;
        Ok(self.spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_op(0);
        let (v, s) = t.span("x", || 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert!(t.spans().is_empty());
        assert!(!t.sampling());
    }

    #[test]
    fn every_other_op_is_sampled_and_children_name_their_parent() {
        let mut t = Tracer::new(true);
        for op in 0..4 {
            t.begin_op(op);
            let outer = t.open_span("round");
            t.span("call", || std::hint::black_box(op));
            t.close_span(outer);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 4, "ops 0 and 2, two spans each");
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].op_id, 0);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[3].op_id, 2);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_is_wall_minus_children() {
        let mut t = Tracer::new(true);
        t.begin_op_always(1);
        let outer = t.open_span("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close_span(outer);
        let totals = t.totals();
        let outer = totals.iter().find(|x| x.name == "outer").unwrap();
        let inner = totals.iter().find(|x| x.name == "inner").unwrap();
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        let mut t = Tracer::with_capacity(true, 2);
        t.begin_op_always(0);
        for _ in 0..5 {
            t.span("x", || ());
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped, 3);
    }
}
