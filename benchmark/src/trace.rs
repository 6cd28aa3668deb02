//! Spans recorded in the benchmark's own code around each call into a
//! layer's public function. Spans live in a preallocated `Vec` and are
//! written out (and aggregated) only after the measurement ends.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No span": the parent of a root span, and what a disabled tracer hands
/// out.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub parent: u32,
    /// The operation (packet, query, batch, request, script pass) the span
    /// belongs to; spans of one operation share it.
    pub op_id: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (rows returned, tuples applied, ...).
    pub count: u32,
}

/// Span recorder. Disabled, every method is one predictable branch, so the
/// untraced and the traced run execute the same workload code.
pub struct Tracer {
    spans: Vec<Span>,
    cap: usize,
    origin: Instant,
    dropped: u64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::on(0)
    }

    /// A tracer with room for `cap` spans; spans past that are counted as
    /// dropped, never reallocated for (a reallocation would land inside
    /// somebody's span).
    pub fn on(cap: usize) -> Tracer {
        Tracer {
            spans: Vec::with_capacity(cap),
            cap,
            origin: Instant::now(),
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Tracer::end).
    #[inline]
    pub fn begin(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op_id: u32,
        parent: u32,
    ) -> u32 {
        if self.cap == 0 {
            return NONE;
        }
        if self.spans.len() == self.cap {
            self.dropped += 1;
            return NONE;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            parent,
            op_id,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn end(&mut self, id: u32, count: u32) {
        if id != NONE {
            let end_ns = self.now();
            let s = &mut self.spans[id as usize];
            s.end_ns = end_ns;
            s.count = count;
        }
    }

    /// A leaf span around `f`; `f` returns its result and the span's count.
    #[inline]
    pub fn leaf<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op_id: u32,
        parent: u32,
        f: impl FnOnce() -> (T, u32),
    ) -> T {
        let id = self.begin(layer, name, op_id, parent);
        let (out, count) = f();
        self.end(id, count);
        out
    }

    /// A tracer for another thread, on the same clock and as roomy (or as
    /// disabled) as this one; hand it back with [`absorb`](Tracer::absorb).
    pub fn fork(&self) -> Tracer {
        Tracer {
            spans: Vec::with_capacity(self.cap),
            cap: self.cap,
            origin: self.origin,
            dropped: 0,
        }
    }

    /// Appends a forked tracer's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes one JSON object per span: `{id, parent, op_id, layer, name,
    /// start_ns, end_ns, count}` (`parent` is `null` for a root span).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{id},\"parent\":{parent},\"op_id\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.op_id, s.layer, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        w.flush()
    }

    /// Per `(layer, name)`: calls, total and self time, p50/p99 of the
    /// span durations, and the summed count.
    pub fn aggregate(&self) -> BTreeMap<(&'static str, &'static str), SpanStats> {
        // Self time = duration minus what the span's children cover.
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut durations: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
        let mut out: BTreeMap<(&'static str, &'static str), SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let d = s.end_ns - s.start_ns;
            let e = out.entry((s.layer, s.name)).or_default();
            e.calls += 1;
            e.total_ns += d;
            e.self_ns += d.saturating_sub(child_ns[i]);
            e.count += u64::from(s.count);
            durations
                .entry((s.layer, s.name))
                .or_default()
                .push(d as f64);
        }
        for (k, mut d) in durations {
            stats::sort(&mut d);
            let e = out.get_mut(&k).expect("same keys");
            e.p50_ns = stats::percentile(&d, 50.0);
            e.p99_ns = stats::percentile(&d, 99.0);
        }
        out
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub count: u64,
}

impl SpanStats {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.calls.max(1) as f64
    }
}

/// Renders the aggregate as the table the traced run prints.
pub fn render(agg: &BTreeMap<(&'static str, &'static str), SpanStats>) -> String {
    let mut out = format!(
        "{:<12} {:<22} {:>9} {:>12} {:>12} {:>10} {:>10} {:>10}\n",
        "layer", "span", "calls", "total_ms", "self_ms", "p50_ns", "p99_ns", "count"
    );
    for ((layer, name), s) in agg {
        out.push_str(&format!(
            "{layer:<12} {name:<22} {:>9} {:>12.3} {:>12.3} {:>10.0} {:>10.0} {:>10}\n",
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.p50_ns,
            s.p99_ns,
            s.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.begin("core", "query", 0, NONE);
        assert_eq!(id, NONE);
        t.end(id, 3);
        assert_eq!(t.leaf("core", "q", 0, NONE, || (7, 1)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children_and_overflow_is_counted() {
        let mut t = Tracer::on(3);
        let op = t.begin("bench", "op", 1, NONE);
        t.leaf("core", "query", 1, op, || ((), 2));
        t.leaf("core", "update", 1, op, || ((), 1));
        t.end(op, 0);
        assert_eq!(t.begin("core", "late", 2, NONE), NONE);
        assert_eq!(t.dropped(), 1);
        let agg = t.aggregate();
        let parent = agg[&("bench", "op")];
        let kids = agg[&("core", "query")].total_ns + agg[&("core", "update")].total_ns;
        assert_eq!(parent.self_ns, parent.total_ns - kids);
        assert_eq!(agg[&("core", "query")].count, 2);
    }
}
