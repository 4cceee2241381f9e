//! Spans the harness records around its own calls into the layers.
//!
//! A span is `{id, parent, op, name, start_ns, end_ns}`; spans of one
//! operation share `op`. They are kept in memory and written as one JSON
//! object per line when the run ends. A span's *self time* is its
//! duration minus the part its child spans cover. Spans inside the
//! product crates are a later change; these sit in the benchmark's own
//! files, at the public entry points.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Disabled recorders cost one branch per call,
/// so the same load loops serve traced and untraced phases.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `thread` keeps ids unique across the recorders of one run.
    pub fn new(origin: Instant, enabled: bool, thread: usize) -> Recorder {
        Recorder {
            origin,
            enabled,
            next_id: ((thread as u64) << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn span(
        &mut self,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Reserves an id for a parent span whose end is not known yet;
    /// finish it with [`Recorder::close`].
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn close(&mut self, id: u64, op: u64, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                id,
                parent: 0,
                op,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }
}

/// Mean self time per span name, in nanoseconds, with the span count.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
    }
    let mut totals: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for span in spans {
        let own = (span.end_ns - span.start_ns)
            .saturating_sub(child_ns.get(&span.id).copied().unwrap_or(0));
        let entry = totals.entry(span.name).or_default();
        entry.0 += own as f64;
        entry.1 += 1;
    }
    for (total, count) in totals.values_mut() {
        *total /= *count as f64;
    }
    totals
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut rec = Recorder::new(origin, true, 0);
        let root = rec.open();
        rec.span(root, 1, "child", at(10), at(40));
        rec.span(root, 1, "child", at(50), at(60));
        rec.close(root, 1, "root", at(0), at(100));
        let times = self_times(&rec.spans);
        assert_eq!(times["root"], (60_000.0, 1));
        assert_eq!(times["child"], (20_000.0, 2));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let origin = Instant::now();
        let mut rec = Recorder::new(origin, false, 0);
        let root = rec.open();
        rec.span(root, 1, "child", origin, origin);
        rec.close(root, 1, "root", origin, origin);
        assert!(rec.spans.is_empty());
    }
}
