//! The step trace: spans the benchmark records around its own calls into
//! the program (never inside it), kept in memory and written at exit as
//! Chrome trace-event JSON.

use std::time::Instant;

use crate::json::Json;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`op`, `core.assemble`, an event label, …).
    pub name: &'static str,
    /// Nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one operation share a run id.
    pub run: u32,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with a stack of open spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str, run: u32) -> usize {
        let start_ns = self.now_ns();
        self.push(name, start_ns, start_ns, run);
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the benchmark).
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Records an already finished span that started at `start_ns` and
    /// ends now — for calls whose name is only known from their result
    /// (`RunState::step` returns the event it fired).
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, run: u32) {
        let end_ns = self.now_ns();
        self.push(name, start_ns, end_ns, run);
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, run: u32) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            run,
        });
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// A span's self time: its duration minus the part of it that its
    /// direct children cover (overlapping children are not counted twice).
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .children(id)
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// The spans as a Chrome trace-event document (`chrome://tracing`,
    /// Perfetto): complete events, one track per run id.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.run))),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut rec = Recorder::new();
        for &(name, start_ns, end_ns, parent) in spans {
            rec.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                run: 0,
            });
        }
        rec
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let rec = recorder_with(&[
            ("op", 100, 1_100, None),
            ("a", 100, 300, Some(0)),
            ("b", 400, 700, Some(0)),
            // Overlaps `b`: only 700..800 is new coverage.
            ("c", 600, 800, Some(0)),
            // Grandchild: covers nothing of `op` directly.
            ("b.inner", 450, 650, Some(2)),
            // Pokes past the parent's end: clipped.
            ("d", 1_000, 1_500, Some(0)),
        ]);
        // Covered: 200 + 300 + 100 + 100 = 700 of 1000.
        assert_eq!(rec.self_ns(0), 300);
        assert_eq!(rec.self_ns(2), 100);
        assert_eq!(rec.self_ns(1), 200);
    }

    #[test]
    fn enter_exit_and_leaf_nest_under_the_open_span() {
        let mut rec = Recorder::new();
        let op = rec.enter("op", 7);
        let t0 = rec.now_ns();
        rec.leaf("step", t0, 7);
        let inner = rec.enter("finish", 7);
        rec.exit(inner);
        rec.exit(op);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(op));
        assert_eq!(spans[2].parent, Some(op));
        assert!(spans.iter().all(|s| s.run == 7 && s.end_ns >= s.start_ns));
        assert!(rec.self_ns(op) <= spans[0].duration_ns());
        let doc = rec.chrome_trace().render();
        assert!(Json::parse(&doc).is_ok());
        assert!(doc.contains("\"traceEvents\""));
    }
}
