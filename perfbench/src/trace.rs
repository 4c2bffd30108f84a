//! The traced run's record: spans at the layer boundaries the benchmark calls across, and
//! one record per served query.  Everything is kept in memory and written out as JSON
//! lines when the run ends; nothing is instrumented inside the program's crates.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval: `parent` is the span that caused it, and the spans of one request
/// share `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// Where a served estimate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Computed from pool anchors that survived the ε-filter.
    Pool,
    /// Replayed from the runtime's estimate cache.
    Cache,
    /// No anchor survived: the service's fallback answered.
    Fallback,
}

impl Source {
    fn name(self) -> &'static str {
        match self {
            Source::Pool => "pool",
            Source::Cache => "cache",
            Source::Fallback => "fallback",
        }
    }
}

/// One served query: what it cost, what it answered, and how wrong that was.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub request: u64,
    pub sql: String,
    pub joins: usize,
    pub latency_us: f64,
    pub estimate: f64,
    pub true_cardinality: u64,
    pub q_error: f64,
    pub source: Source,
}

/// Span and query-record sink.  A disabled tracer records nothing and takes no lock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    queries: Mutex<Vec<QueryRecord>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            queries: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id, so children can name a parent before it closes.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that ran from `start` to `end` under a pre-allocated `id`.
    pub fn record_with_id(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let span = Span {
            id,
            parent,
            request,
            name,
            start_us: at(start),
            end_us: at(end),
        };
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Records a span under a fresh id and returns the id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id();
        self.record_with_id(id, name, parent, request, start, end);
        id
    }

    pub fn record_query(&self, record: QueryRecord) {
        if self.enabled {
            self.queries
                .lock()
                .expect("query sink poisoned")
                .push(record);
        }
    }

    /// Per span name: count, total time and self time (total minus the part covered by
    /// the span's children), in microseconds.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_us, span.end_us));
            }
        }
        let mut by_name: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
        for span in spans.iter() {
            let total = span.end_us - span.start_us;
            let covered = children
                .get(&span.id)
                .map(|intervals| covered_length(intervals))
                .unwrap_or(0.0);
            let entry = by_name.entry(span.name).or_insert(SpanSummary {
                name: span.name,
                root: span.parent.is_none(),
                count: 0,
                total_us: 0.0,
                self_us: 0.0,
            });
            entry.count += 1;
            entry.total_us += total;
            entry.self_us += (total - covered).max(0.0);
        }
        by_name.into_values().collect()
    }

    /// Writes `<stem>.spans.jsonl` and `<stem>.queries.jsonl` under `dir`; returns the
    /// paths written.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let spans_path = dir.join(format!("{stem}.spans.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&spans_path)?);
        for span in self.spans.lock().expect("span sink poisoned").iter() {
            let mut line = format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}",
                span.id, span.name, span.start_us, span.end_us
            );
            if let Some(parent) = span.parent {
                let _ = write!(line, ",\"parent\":{parent}");
            }
            if let Some(request) = span.request {
                let _ = write!(line, ",\"request\":{request}");
            }
            line.push('}');
            writeln!(out, "{line}")?;
        }
        out.flush()?;

        let queries_path = dir.join(format!("{stem}.queries.jsonl"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&queries_path)?);
        for record in self.queries.lock().expect("query sink poisoned").iter() {
            writeln!(
                out,
                "{{\"request\":{},\"joins\":{},\"latency_us\":{:.3},\"estimate\":{},\
                 \"true_cardinality\":{},\"q_error\":{},\"source\":\"{}\",\"sql\":{}}}",
                record.request,
                record.joins,
                record.latency_us,
                json_number(record.estimate),
                record.true_cardinality,
                json_number(record.q_error),
                record.source.name(),
                json_string(&record.sql),
            )?;
        }
        out.flush()?;
        Ok(vec![spans_path, queries_path])
    }
}

/// Aggregate of all spans of one name.
#[derive(Debug, Clone)]
pub struct SpanSummary {
    pub name: &'static str,
    /// Whether the spans of this name have no parent.
    pub root: bool,
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

/// Length of the union of `[start, end)` intervals.
fn covered_length(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted = intervals.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in sorted {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// A JSON number, or `null` for a value JSON cannot hold.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = tracer.next_id();
        tracer.record("child", Some(root), Some(1), at(10), at(30));
        tracer.record("child", Some(root), Some(1), at(20), at(40));
        tracer.record_with_id(root, "root", None, Some(1), at(0), at(100));
        let summary = tracer.summary();
        let root = summary.iter().find(|s| s.name == "root").unwrap();
        assert!(root.root);
        assert!((root.total_us - 100.0).abs() < 1e-6);
        assert!((root.self_us - 70.0).abs() < 1e-6, "{}", root.self_us);
        let child = summary.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(child.count, 2);
        assert!(!child.root);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tracer.record("x", None, None, now, now), 0);
        assert!(tracer.summary().is_empty());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1.5), "1.5");
    }
}
