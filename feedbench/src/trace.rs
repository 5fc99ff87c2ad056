//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records name, start, end, parent span and the id of the batch
//! or cycle it belongs to. Spans are kept in memory and written out once
//! the run ends. Per-name totals (time and the work count the caller
//! attaches) are what the per-layer metrics are computed from. An
//! inactive tracer records nothing and does not read the clock.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Most spans kept for the written trace; totals keep counting past it.
const MAX_SPANS: usize = 50_000;

#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub group: u64,
}

/// Time spent in and work done by all spans of one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    pub time: Duration,
    pub calls: u64,
    pub work: u64,
}

impl Total {
    /// Microseconds per unit of work; NaN when no work was recorded.
    pub fn us_per_work(&self) -> f64 {
        self.time.as_secs_f64() * 1e6 / self.work as f64
    }
}

pub struct Tracer {
    enabled: bool,
    active: bool,
    origin: Instant,
    group: u64,
    next_id: u32,
    spans: Vec<SpanRec>,
    dropped: u64,
    open: Vec<(u32, Instant)>,
    totals: BTreeMap<&'static str, Total>,
}

/// Handle of an open span; `None` when the tracer is inactive.
#[must_use]
pub struct Open(Option<(&'static str, u32, Instant)>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            active: false,
            origin: Instant::now(),
            group: 0,
            next_id: 0,
            spans: Vec::new(),
            dropped: 0,
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start recording spans for batch or cycle `group` (if tracing is
    /// on and `traced`), or stop recording.
    pub fn select(&mut self, group: u64, traced: bool) {
        self.active = self.enabled && traced;
        self.group = group;
    }

    pub fn active(&self) -> bool {
        self.active
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.active {
            return Open(None);
        }
        let idx = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let now = Instant::now();
        self.open.push((idx, now));
        Open(Some((name, idx, now)))
    }

    /// Close `span`, crediting `work` units of work to its name.
    pub fn end(&mut self, span: Open, work: u64) {
        let Some((name, idx, start)) = span.0 else {
            return;
        };
        let end = Instant::now();
        while let Some((top, _)) = self.open.pop() {
            if top == idx {
                break;
            }
        }
        let parent = self.open.last().map(|(p, _)| *p);
        let t = self.totals.entry(name).or_default();
        t.time += end - start;
        t.calls += 1;
        t.work += work;
        if self.spans.len() < MAX_SPANS {
            self.spans.push(SpanRec {
                id: idx,
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
                parent,
                group: self.group,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Run `f` inside a span; `f` returns its result and its work count.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> R {
        let open = self.begin(name);
        let (r, work) = f();
        self.end(open, work);
        r
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Write every kept span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.group
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}

/// Wall time accumulated over start/stop segments, so work the benchmark
/// does for itself (draining member inboxes, checking) stays out of it.
#[derive(Default)]
pub struct Stopwatch {
    acc: Duration,
    since: Option<Instant>,
}

impl Stopwatch {
    pub fn started() -> Stopwatch {
        Stopwatch {
            acc: Duration::ZERO,
            since: Some(Instant::now()),
        }
    }

    pub fn start(&mut self) {
        if self.since.is_none() {
            self.since = Some(Instant::now());
        }
    }

    pub fn stop(&mut self) {
        if let Some(t) = self.since.take() {
            self.acc += t.elapsed();
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.acc + self.since.map_or(Duration::ZERO, |t| t.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_totals() {
        let mut t = Tracer::new(true);
        t.select(7, true);
        let outer = t.begin("outer");
        t.span("inner", || ((), 3));
        t.end(outer, 1);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "inner");
        assert_eq!(t.spans[0].parent, Some(t.spans[1].id));
        assert_eq!(t.spans[1].parent, None);
        assert!(t.spans.iter().all(|s| s.group == 7));
        assert_eq!(t.total("inner").work, 3);
        t.select(8, false);
        t.span("inner", || ((), 5));
        assert_eq!(t.total("inner").calls, 1, "inactive tracer records nothing");
    }
}
