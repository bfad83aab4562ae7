//! Outside-in tracing: one span per call the harness makes into a layer's
//! public functions. Nothing inside the program is instrumented — spans
//! are opened and closed in the harness, around the call. Spans are held
//! in memory and written out as Chrome trace-event JSON when the run ends
//! (open the file in `chrome://tracing` or <https://ui.perfetto.dev>).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One timed call (or harness phase). Times are nanoseconds since the
/// tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`; the text before the first `.` is the layer.
    pub name: &'static str,
    /// Document, window or epoch the call worked on.
    pub id: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "an open span must be closed with Tracer::end"]
pub struct OpenSpan(Option<u32>);

/// The span recorder. A disabled tracer records nothing, so set-up code
/// shared by traced and untraced runs costs a branch per call when tracing
/// is off.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Tracer { enabled: true, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Tracer::enabled() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, id: u64) -> OpenSpan {
        if !self.enabled {
            return OpenSpan(None);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span { name, id, start_ns, end_ns: start_ns, parent: self.stack.last().copied() });
        self.stack.push(index);
        OpenSpan(Some(index))
    }

    /// Close a span opened by [`begin`](Self::begin).
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order — a harness bug.
    pub fn end(&mut self, open: OpenSpan) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(index), "spans must close innermost first");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Time one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, call: impl FnOnce() -> T) -> T {
        let open = self.begin(name, id);
        let result = call();
        self.end(open);
        result
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall seconds summed over the spans called `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum::<u64>() as f64 / 1e9
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write the spans as Chrome trace-event JSON (complete `"ph":"X"`
    /// events, microsecond timestamps, the layer as the category, each
    /// span's self time among its arguments).
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, chrome_trace_json(&self.spans))
    }
}

/// Each span's self time: its duration minus the part of it that its
/// direct children cover. The tracer is single-threaded, so the children
/// of one span never overlap each other and the covered part is the sum of
/// their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let covered = span.duration_ns();
            own[parent as usize] = own[parent as usize].saturating_sub(covered);
        }
    }
    own
}

/// The trace-event document for `spans`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::with_capacity(64 + spans.len() * 144);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (index, span) in spans.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let layer = span.name.split('.').next().unwrap_or(span.name);
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"span\":{},\"parent\":{},\"id\":{},\"self_us\":{:.3}}}}}",
            span.name,
            layer,
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            index,
            parent,
            span.id,
            own[index] as f64 / 1e3
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name, id: 0, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0, 100) ── a [10, 40) ── a1 [15, 25)
        //               └─ b [50, 90)
        let spans = [
            span("x.root", 0, 100, None),
            span("x.a", 10, 40, Some(0)),
            span("x.a1", 15, 25, Some(1)),
            span("x.b", 50, 90, Some(0)),
        ];
        // root loses both siblings (30 + 40) but not the grandchild twice;
        // a loses only its own child.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration_and_never_underflows() {
        let spans = [span("x.p", 0, 10, None), span("x.c", 0, 12, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 12]);
    }

    #[test]
    fn tracer_records_parents_from_the_open_stack() {
        let mut tracer = Tracer::enabled();
        let root = tracer.begin("x.root", 1);
        let first = tracer.time("x.leaf", 2, || 7);
        let inner = tracer.begin("x.inner", 3);
        tracer.time("x.leaf", 4, || ());
        tracer.end(inner);
        tracer.end(root);
        assert_eq!(first, 7);
        let parents: Vec<Option<u32>> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert_eq!(tracer.count("x.leaf"), 2);
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(tracer.total_seconds("x.root") >= tracer.total_seconds("x.inner"));
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_call() {
        let mut tracer = Tracer::disabled();
        let open = tracer.begin("x.root", 0);
        assert_eq!(tracer.time("x.leaf", 0, || 3), 3);
        tracer.end(open);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn chrome_trace_lists_one_complete_event_per_span() {
        let spans = [
            span("docmodel.write_document", 1_000, 3_500, None),
            span("hpcsim.submit_owned", 4_000, 4_250, Some(0)),
        ];
        let json = chrome_trace_json(&spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"cat\":\"docmodel\""));
        assert!(json.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(json.contains("\"parent\":0,\"id\":0,\"self_us\":0.250"));
        assert!(
            json.contains("\"parent\":null,\"id\":0,\"self_us\":2.250"),
            "the parent loses its child's 0.25 us"
        );
        assert!(json.starts_with('{') && json.trim_end().ends_with("]}"));
    }
}
