//! Spans recorded around the benchmark's own calls into each layer: name,
//! start, end, parent and request id, kept in memory and written out as
//! JSONL when the run ends. Nothing is recorded inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_req: AtomicU64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_req: AtomicU64::new(1),
        }
    }

    /// A fresh request id.
    pub fn request(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Duration of span `id` in ms.
    pub fn duration_ms(&self, id: usize) -> f64 {
        let spans = self.spans.lock().expect("span log lock is never poisoned");
        (spans[id].end_ns - spans[id].start_ns) as f64 / 1e6
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id (a parent for others).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span log lock is never poisoned");
        spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent, req);
        (out, id)
    }

    /// Re-parents span `child` under `parent` (a parent is recorded only
    /// once it ends, after its children).
    pub fn adopt(&self, child: usize, parent: usize) {
        self.spans.lock().expect("span log lock is never poisoned")[child].parent = Some(parent);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock is never poisoned")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span in ms: its duration minus the time its
/// children cover (children of one span never overlap here: each parent
/// calls them one after another). Grouped by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        out.entry(s.name).or_default().push(own as f64 / 1e6);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let c1 = t.record("child", at(1), at(3), None, 0);
        let c2 = t.record("child", at(4), at(5), None, 0);
        let p = t.record("parent", at(0), at(10), None, 0);
        t.adopt(c1, p);
        t.adopt(c2, p);
        let st = self_times(&t.spans());
        assert!((st["parent"][0] - 7.0).abs() < 1e-6);
        assert_eq!(st["child"].len(), 2);
    }
}
