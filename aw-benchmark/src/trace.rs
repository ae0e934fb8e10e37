//! In-memory spans around the benchmark's calls into each layer.
//!
//! Nothing inside the library is instrumented: every span starts and
//! ends in the benchmark's own code, at the boundary of one public call
//! (`SimBuilder::run`, `IdleReport::analyze`, an export, a fleet epoch
//! seen through a `FleetObserver`). Spans stay in memory and are written
//! once, when the workload ends.

use std::time::Instant;

use crate::json::JsonValue;

/// One timed call: `[start, end]` in seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, `None` for an operation's root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so the
/// untraced runs that produce the end-to-end metrics pay one branch.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, on: false, spans: Vec::new() }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished call; returns its index for children.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start, end) = (self.secs(start), self.secs(end));
        self.spans.push(Span { name, start, end, parent });
        Some(self.spans.len() - 1)
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.push(name, parent, now, now)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end = self.secs(Instant::now());
        }
    }

    /// The spans named `name` that descend from `root`.
    pub fn under<'a>(&'a self, root: usize, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| (s.name == name && self.descends(i, root)).then_some(s))
    }

    /// Total seconds of the spans named `name` under `root`.
    pub fn total(&self, root: usize, name: &str) -> f64 {
        self.under(root, name).fold(0.0, |sum, s| sum + s.secs())
    }

    fn descends(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// The spans as a JSON array (`id`, `name`, `start`, `end`,
    /// `parent`; times in seconds since the workload started).
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    JsonValue::obj(vec![
                        ("id", JsonValue::UInt(i as u64)),
                        ("name", JsonValue::str(s.name)),
                        ("start", JsonValue::Num(s.start)),
                        ("end", JsonValue::Num(s.end)),
                        ("parent", s.parent.map_or(JsonValue::Null, |p| JsonValue::UInt(p as u64))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        let id = t.open("op", None);
        assert!(id.is_none());
        assert_eq!(t.to_json().render(), "[]");
    }

    #[test]
    fn totals_follow_the_parent_chain() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        t.set_enabled(true);
        let a = t.open("op", None).unwrap();
        let b = t.open("op", None).unwrap();
        let later = origin + std::time::Duration::from_millis(5);
        let fan = t.push("fan", Some(a), origin, later);
        t.push("run", fan, origin, later);
        t.push("run", Some(b), origin, later);
        assert!((t.total(a, "run") - 0.005).abs() < 1e-9);
        assert_eq!(t.under(b, "run").count(), 1);
        assert!(t.to_json().render().contains("\"parent\":2"));
    }
}
