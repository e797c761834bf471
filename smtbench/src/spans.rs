//! In-memory span recorder for the traced run.
//!
//! A span records a name, its start and end (nanoseconds since recording
//! began) and the index of its parent span. Spans nest strictly: a
//! [`SpanGuard`] closes its span when dropped, and guards drop in reverse
//! order of creation. Names follow `<layer>.<call>` (`pipeline.step`,
//! `runner.cell`); a name without a dot marks the benchmark's own code, whose
//! self time counts as unattributed.
//!
//! The recorder lives in a thread-local, so instrumented code (such as the
//! forwarding trace source) needs no handle to it, and code that never
//! starts recording pays nothing. The traced run is single-threaded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, or a dotless name for benchmark-owned code.
    pub name: &'static str,
    /// Start, in nanoseconds since [`start`].
    pub start_ns: u64,
    /// End, in nanoseconds since [`start`].
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to (`pipeline` for `pipeline.step`), or
    /// `None` for benchmark-owned code.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier spans.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        });
    });
}

/// Stops recording and returns every span, in order of opening.
///
/// # Panics
///
/// Panics if a span is still open.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        let recorder = r.borrow_mut().take().expect("span recording was started");
        assert!(recorder.open.is_empty(), "a span is still open");
        recorder.spans
    })
}

/// Closes its span when dropped; inert when recording is off.
pub struct SpanGuard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn enter(name: &'static str) -> SpanGuard {
    RECORDER.with(|r| {
        let mut borrow = r.borrow_mut();
        let Some(recorder) = borrow.as_mut() else {
            return SpanGuard(None);
        };
        let index = recorder.spans.len();
        let start_ns = recorder.origin.elapsed().as_nanos() as u64;
        recorder.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: recorder.open.last().copied(),
        });
        recorder.open.push(index);
        SpanGuard(Some(index))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        RECORDER.with(|r| {
            if let Some(recorder) = r.borrow_mut().as_mut() {
                recorder.spans[index].end_ns = recorder.origin.elapsed().as_nanos() as u64;
                let top = recorder.open.pop();
                debug_assert_eq!(top, Some(index), "spans must close innermost first");
            }
        });
    }
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Self time summed per layer; benchmark-owned spans are left out.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut layers = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        if let Some(layer) = span.layer() {
            *layers.entry(layer).or_insert(0) += own;
        }
    }
    layers
}

/// Share of `wall_ns` covered by no layer span: benchmark-owned self time
/// plus time outside every top-level span.
pub fn unattributed_share(spans: &[Span], wall_ns: u64) -> f64 {
    unattributed_ns(spans, wall_ns) as f64 / wall_ns.max(1) as f64
}

/// Nanoseconds of `wall_ns` covered by no layer span.
pub fn unattributed_ns(spans: &[Span], wall_ns: u64) -> u64 {
    let attributed: u64 = layer_self_ns(spans).values().sum();
    wall_ns.saturating_sub(attributed)
}

/// The span at `index` followed by all its descendants, with parents
/// re-indexed into the returned list (the first span has none). Spans are
/// stored in order of opening and nest strictly, so the descendants are
/// exactly the contiguous run of later spans whose parent chain reaches
/// `index`.
pub fn subtree(spans: &[Span], index: usize) -> Vec<Span> {
    let descends = |mut j: usize| loop {
        match spans[j].parent {
            Some(p) if p == index => return true,
            Some(p) => j = p,
            None => return false,
        }
    };
    let len = (index + 1..spans.len())
        .take_while(|&j| descends(j))
        .count();
    spans[index..=index + len]
        .iter()
        .enumerate()
        .map(|(k, span)| Span {
            parent: if k == 0 {
                None
            } else {
                span.parent.map(|p| p - index)
            },
            ..span.clone()
        })
        .collect()
}

/// Durations of every span named `name`, in order of opening.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Summed duration of every span named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    durations(spans, name).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // traced_run [0,100) > pipeline.run [10,90) > pipeline.step [20,50)
        //   > trace.refill [30,40); pipeline.run > trace.refill [60,70).
        let spans = vec![
            span("traced_run", 0, 100, None),
            span("pipeline.run", 10, 90, Some(0)),
            span("pipeline.step", 20, 50, Some(1)),
            span("trace.refill", 30, 40, Some(2)),
            span("trace.refill", 60, 70, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 20, 10, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["pipeline"], 60);
        assert_eq!(layers["trace"], 20);
        // 20 ns of benchmark-owned self time plus 20 ns outside the root.
        assert!((unattributed_share(&spans, 120) - 40.0 / 120.0).abs() < 1e-12);
        assert_eq!(subtree(&spans, 1).len(), 4);
        assert_eq!(subtree(&spans, 2).len(), 2);
        assert_eq!(subtree(&spans, 4).len(), 1);
        assert_eq!(subtree(&spans, 0), spans);
        // A subtree's self times are those of the same spans in the whole.
        assert_eq!(self_times(&subtree(&spans, 1)), self_times(&spans)[1..]);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        drop(enter("pipeline.step"));
        start();
        {
            let _outer = enter("runner.cell");
            let _inner = enter("pipeline.step");
        }
        drop(enter("runner.cell"));
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations(&spans, "runner.cell").len(), 2);
        assert_eq!(
            total_ns(&spans, "runner.cell"),
            spans[0].duration_ns() + spans[2].duration_ns()
        );
    }
}
