//! In-memory spans recorded by the traced run around each call into a
//! layer. Nothing is written until the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, from 1.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The operation (input, request or round) the span belongs to.
    pub op: u64,
    /// What was called, `layer.function`.
    pub name: &'static str,
    /// Nanoseconds from the recorder's creation.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's creation.
    pub end_ns: u64,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds. `f` receives the span id, for children.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            op,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        };
        self.spans.lock().expect("span list lock is never poisoned").push(span);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Every span recorded so far, in start order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans =
            std::mem::take(&mut *self.spans.lock().expect("span list lock is never poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Runs `f` inside a span when `spans` is given, and returns its result
/// with its duration in seconds either way. Untraced calls pass span id 0
/// to `f`.
pub fn timed<R>(
    spans: Option<&Spans>,
    name: &'static str,
    parent: u64,
    op: u64,
    f: impl FnOnce(u64) -> R,
) -> (R, f64) {
    match spans {
        Some(spans) => spans.time(name, parent, op, f),
        None => {
            let start = Instant::now();
            let out = f(0);
            (out, start.elapsed().as_secs_f64())
        }
    }
}

/// `spans` as a JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}}}{}\n",
            s.id,
            s.parent,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_name_their_parent() {
        let spans = Spans::default();
        let ((), _) = spans.time("outer", 0, 7, |id| {
            let ((), _) = spans.time("inner", id, 7, |_| {});
        });
        let all = spans.take();
        let outer = all.iter().find(|s| s.name == "outer").unwrap();
        let inner = all.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(to_json(&all).contains("\"name\": \"inner\""));
    }
}
