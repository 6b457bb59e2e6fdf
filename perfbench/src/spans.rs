//! In-memory spans recorded from the benchmark's own code, around calls
//! into the workspace's public functions. Only traced runs record; the
//! spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    rep: usize,
}

/// A span recorder. Disabled, every call is a no-op.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

/// Handle of an entered span; pass it back to [`Spans::exit`].
#[must_use]
pub struct Entered(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tags the spans entered from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Entered {
        if !self.enabled {
            return Entered(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        Entered(Some(id))
    }

    /// Closes `entered` (and any span left open inside it).
    pub fn exit(&mut self, entered: Entered) {
        let Some(id) = entered.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let entered = self.enter(name);
        let out = f();
        self.exit(entered);
        out
    }

    /// Total seconds spent in spans named `name`, one sum per repetition.
    pub fn durations_by_rep(&self, name: &str) -> Vec<f64> {
        let mut by_rep = BTreeMap::<usize, f64>::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_rep.entry(s.rep).or_default() += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
        by_rep.into_values().collect()
    }

    /// Self time of span `id`: its duration minus the part of it that its
    /// children cover (children never overlap, the recorder is serial).
    fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// One JSON object per line: id, name, start/end ns since the run
    /// began, parent id, workload, rep and self time.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"workload\": \"{workload}\", \"rep\": {}, \"self_ns\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.rep,
                self.self_ns(id)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        let outer = spans.enter("outer");
        spans.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        spans.exit(outer);
        let outer_total = spans.spans[0].end_ns - spans.spans[0].start_ns;
        assert_eq!(spans.spans[1].parent, Some(0));
        assert!(spans.self_ns(0) < outer_total);
        assert!(spans.to_jsonl("w").lines().count() == 2);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut spans = Spans::new(false);
        let e = spans.enter("x");
        spans.exit(e);
        assert!(spans.to_jsonl("w").is_empty());
    }
}
