//! In-memory spans for the traced run.
//!
//! A span is one call into a layer, recorded by the benchmark around
//! the call: a name, the request it served, the span that caused it,
//! and start and end times in nanoseconds since the tracer started.
//! Spans stay in memory while the workload runs and are written out
//! as NDJSON when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (`0` is "no parent").
pub type SpanId = usize;

/// One recorded call.
pub struct Span {
    pub name: &'static str,
    pub rid: u64,
    pub parent: SpanId,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a run.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per call, in microseconds.
    pub fn self_us(&self) -> f64 {
        per_call_us(self.self_ns, self.calls)
    }

    /// Mean duration per call, in microseconds.
    pub fn mean_us(&self) -> f64 {
        per_call_us(self.total_ns, self.calls)
    }
}

fn per_call_us(ns: u64, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        ns as f64 / calls as f64 / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, rid: u64, parent: SpanId) -> SpanId {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            rid,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len()
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id - 1].end_ns = end;
    }

    /// Records a span whose times were taken elsewhere (on a worker
    /// thread, or around a call that had to run unborrowed).
    pub fn record(
        &mut self,
        name: &'static str,
        rid: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            rid,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len()
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        rid: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, rid, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Each span's self time: its duration minus the part its children
    /// cover (children of one span never overlap: the pipeline calls
    /// its stages one after another).
    fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                covered[s.parent - 1] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own;
        }
        out
    }

    /// Per request: the duration of its `name` span, in microseconds.
    pub fn durations_us(&self, name: &str) -> BTreeMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.rid, (s.end_ns - s.start_ns) as f64 / 1e3))
            .collect()
    }

    /// Per request: the summed self times of every span below its
    /// `root` span, in microseconds — the work the stages account for.
    pub fn stage_sums_us(&self, root: &str) -> BTreeMap<u64, f64> {
        let own = self.self_ns();
        let mut root_of = vec![0usize; self.spans.len()];
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are always recorded before their children.
            root_of[i] = if s.parent == 0 {
                if s.name == root {
                    i + 1
                } else {
                    0
                }
            } else {
                root_of[s.parent - 1]
            };
            if root_of[i] != 0 && root_of[i] != i + 1 {
                *out.entry(s.rid).or_insert(0.0) += own[i] as f64 / 1e3;
            }
        }
        out
    }

    /// Writes every span as one NDJSON line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"rid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.rid,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = tr.record("pipeline", 7, 0, ms(0), ms(10));
        let a = tr.record("stage.a", 7, root, ms(1), ms(4));
        tr.record("stage.b", 7, a, ms(2), ms(3));
        tr.record("stage.c", 7, root, ms(5), ms(9));
        let totals = tr.totals();
        assert_eq!(totals["pipeline"].self_ns, 3_000_000);
        assert_eq!(totals["stage.a"].self_ns, 2_000_000);
        assert_eq!(totals["stage.a"].total_ns, 3_000_000);
        assert_eq!(totals["stage.b"].self_ns, 1_000_000);
        let sums = tr.stage_sums_us("pipeline");
        assert_eq!(sums[&7], 7_000.0);
        assert_eq!(tr.durations_us("pipeline")[&7], 10_000.0);
    }
}
