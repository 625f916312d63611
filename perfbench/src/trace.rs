//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, and written out when the run ends.
//!
//! A span has a name, start, end, parent and request id. A layer's self
//! time is its span's duration minus the part of that interval its direct
//! children cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run (never 0).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Request the span belongs to (0 for work outside any request).
    pub request: u64,
    /// Layer-qualified name, e.g. `http.parse`.
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The run's clock and span-id source, shared by every recording thread.
/// Each thread appends to its own `Vec<Span>` (no lock on the hot path);
/// the vectors are merged when the threads are joined.
#[derive(Debug)]
pub struct Clock {
    origin: Instant,
    next_id: AtomicU64,
}

impl Clock {
    /// A clock whose origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh span id (ids only need to be unique, so `Relaxed`).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record `[start_ns, end_ns]` into `log` when `log` is present (a
    /// traced run); always returns the new span's id, so children can name
    /// their parent either way.
    pub fn record(
        &self,
        log: Option<&mut Vec<Span>>,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id();
        if let Some(log) = log {
            log.push(Span {
                id,
                parent,
                request,
                name,
                start_ns,
                end_ns,
            });
        }
        id
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Per span name: (spans, total self ns).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += selfs[&s.id];
    }
    out
}

/// Spans as a JSON array (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(0, 100, &mut [(10, 20), (15, 30), (50, 60)]), 30);
        assert_eq!(covered_ns(0, 100, &mut [(90, 150)]), 10);
        assert_eq!(covered_ns(20, 40, &mut [(0, 25), (35, 60)]), 10);
        assert_eq!(covered_ns(0, 100, &mut []), 0);
        assert_eq!(
            covered_ns(0, 100, &mut [(30, 40), (10, 20)]),
            20,
            "order-independent"
        );
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, None, "wire", 0, 100),
            span(2, Some(1), "http.route", 10, 70),
            span(3, Some(2), "http.coalesce", 20, 60),
            span(4, Some(1), "http.render", 70, 80),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 60 - 10);
        assert_eq!(selfs[&2], 60 - 40, "grandchildren are the child's business");
        assert_eq!(selfs[&3], 40);
        assert_eq!(selfs[&4], 10);
        let total: u64 = selfs.values().sum();
        assert_eq!(
            total, 100,
            "self times partition the root when children nest"
        );
    }

    #[test]
    fn overlapping_children_count_once_and_never_underflow() {
        let spans = vec![
            span(1, None, "root", 0, 50),
            span(2, Some(1), "a", 0, 40),
            span(3, Some(1), "b", 20, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["a"], (1, 40));
        assert_eq!(by_name["b"], (1, 70));
    }

    #[test]
    fn clock_ids_are_unique_and_recording_is_optional() {
        let clock = Clock::new();
        let mut log = Vec::new();
        let a = clock.record(Some(&mut log), "x", None, 1, 0, 5);
        let b = clock.record(None, "y", Some(a), 1, 1, 2);
        assert_ne!(a, b);
        assert_eq!(log.len(), 1);
        assert!(to_json(&log).contains("\"name\":\"x\""));
    }
}
