//! In-memory spans of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; they stay in memory until the run ends and are then
//! written as one JSON file per workload. A span's self time is its
//! duration minus the part of that interval its child spans cover.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (op kind, op count, ΔV marks, …).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.ns(Instant::now());
    }

    /// Attach a count to an open or closed span.
    pub fn count(&mut self, id: u32, key: &'static str, value: u64) {
        self.spans[id as usize].counts.push((key, value));
    }

    /// Record an already-timed child of the innermost open span (the
    /// per-call `apply` spans, whose clock reads double as the latency
    /// sample).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        counts: Vec<(&'static str, u64)>,
    ) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            counts,
        });
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of the first span called `name`, in seconds.
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(selfs)
            .map(|(s, self_ns)| {
                let mut fields = vec![
                    ("id".to_string(), Json::Num(f64::from(s.id))),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    ("self_ns".to_string(), Json::Num(self_ns as f64)),
                ];
                fields.extend(
                    s.counts
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::Num(v as f64))),
                );
                Json::Obj(fields)
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(workload.to_string())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time per span: its duration minus the union of the intervals its
/// direct children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1: the shared [20, 30) counts once.
            span(2, Some(0), 20, 50),
            span(3, Some(0), 60, 70),
            // A grandchild takes nothing from the root.
            span(4, Some(2), 25, 45),
            // Sticks out of its parent: clipped to [90, 100).
            span(5, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 10, 20, 30]);
    }

    #[test]
    fn tracer_nests_and_records() {
        let mut t = Tracer::new();
        let root = t.enter("workload");
        let inner = t.span("drive", |t| {
            let a = Instant::now();
            t.record("apply", a, Instant::now(), vec![("ops", 1)]);
            t.open.last().copied()
        });
        t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, inner);
        assert_eq!(spans[2].counts, vec![("ops", 1)]);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let j = t.to_json("w", 1);
        assert_eq!(j.get("spans").unwrap().as_arr().unwrap().len(), 3);
    }
}
