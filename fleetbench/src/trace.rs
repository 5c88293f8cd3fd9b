//! In-memory span tracing around the benchmark's calls into each
//! layer.
//!
//! Every span records its name, start, end, the span that was open
//! when it began (its parent) and the tick it belongs to. Spans stay
//! in memory until the run ends, then [`Tracer::write_tsv`] writes
//! them out. A disabled tracer records nothing, so the untraced and
//! traced runs execute the same code and differ only by the clock
//! reads — that difference is the reported tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `ProtocolRuntime::round`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The tick (or pass/experiment index) the span belongs to.
    pub tick: u64,
}

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// Collects spans when enabled; does nothing otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    tick: u64,
}

impl Tracer {
    /// A tracer that records spans only if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            tick: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the tick id stamped on spans opened from now on.
    pub fn set_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now_ns(),
            end: 0,
            parent: self.open.last().copied(),
            tick: self.tick,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes the span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated rows to `path`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\ttick")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.tick
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its window
/// that its children cover. A child's interval is clipped to the
/// parent's window (a child may outlive its parent, e.g. work handed
/// to another thread) and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut covered: Vec<(u64, u64)> = kids
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = s.start;
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(union)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Number of spans with this name.
    pub calls: u64,
    /// Summed span durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Sums calls, durations and self times per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.end - s.start;
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            tick: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,60)
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn child_outliving_parent_is_clipped_to_the_parent_window() {
        // The child starts inside the parent and ends 50 ns after it.
        let spans = vec![
            span("parent", 0, 100, None),
            span("child", 80, 150, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![80, 70]);
        // A child entirely outside its parent's window covers nothing.
        let spans = vec![
            span("parent", 0, 100, None),
            span("late", 120, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![100, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 60, 65, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn layer_totals_sum_per_name() {
        let spans = vec![
            span("tick", 0, 100, None),
            span("round", 0, 60, Some(0)),
            span("tick", 100, 150, None),
            span("round", 100, 140, Some(2)),
        ];
        let t = layer_totals(&spans);
        assert_eq!(
            t["tick"],
            LayerTotal {
                calls: 2,
                total_ns: 150,
                self_ns: 50
            }
        );
        assert_eq!(t["round"].self_ns, 100);
    }

    #[test]
    fn tracer_links_parents_and_ticks() {
        let mut tr = Tracer::new(true);
        tr.set_tick(7);
        let outer = tr.enter("outer");
        let v = tr.span("inner", || 41 + 1);
        tr.exit(outer);
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].tick, s[1].tick), (7, 7));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.enter("x");
        tr.exit(id);
        assert!(tr.spans().is_empty());
    }
}
