//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around the calls the benchmark makes into each layer,
//! kept in memory, and written once when the run ends. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover; children may nest or overlap (a collector span stream need not be
//! properly nested across threads), so the covered part is the union of the
//! children's intervals clipped to the parent.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use bts_telemetry::{ArgValue, Event, EventKind};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name; the per-layer metric stem (`circuit.cse` → `circuit.cse_s`).
    pub name: String,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: f64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: f64,
    /// Index of the parent span in the same list.
    pub parent: Option<usize>,
    /// Id shared by the spans of one design point, serve run or execution.
    pub group: u64,
}

/// Records nested spans when on; when off, [`Tracer::span`] only calls its
/// closure and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    group: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            group: 0,
        }
    }

    /// Switches recording on or off for the following spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> f64 {
        self.epoch.elapsed().as_nanos() as f64
    }

    /// Starts a new group: the spans opened from now on share its id.
    pub fn next_group(&mut self) {
        self.group += 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0.0,
            parent: self.stack.last().copied(),
            group: self.group,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Self time of each span in nanoseconds: its duration minus the union of
/// its children's intervals, each clipped to the span.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let (start, end) = (
                span.start_ns.max(parent.start_ns),
                span.end_ns.min(parent.end_ns),
            );
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut run: Option<(f64, f64)> = None;
            for &(start, end) in kids.iter() {
                run = match run {
                    Some((s, e)) if start <= e => Some((s, e.max(end))),
                    Some((s, e)) => {
                        covered += e - s;
                        Some((start, end))
                    }
                    None => Some((start, end)),
                };
            }
            if let Some((s, e)) = run {
                covered += e - s;
            }
            (span.end_ns - span.start_ns - covered).max(0.0)
        })
        .collect()
}

/// Self time in seconds summed per span name.
pub fn self_seconds_by_name(spans: &[SpanRec]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.name.clone()).or_insert(0.0) += ns * 1e-9;
    }
    out
}

/// Rebuilds spans from the global collector's wall-clock `Complete` events,
/// linking parents through their `span_id`/`parent_span_id` args and
/// shifting timestamps by `offset_ns` onto the tracer's clock.
pub fn spans_from_events(events: &[Event], offset_ns: f64) -> Vec<SpanRec> {
    let complete: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Complete { .. }) && e.process == "realtime")
        .collect();
    let index: HashMap<u64, usize> = complete
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.arg_u64("span_id").map(|id| (id, i)))
        .collect();
    complete
        .iter()
        .map(|e| SpanRec {
            name: e.name.clone(),
            start_ns: e.ts_ns + offset_ns,
            end_ns: e.end_ns() + offset_ns,
            parent: e
                .arg_u64("parent_span_id")
                .and_then(|p| index.get(&p).copied()),
            group: 0,
        })
        .collect()
}

/// The tracer's spans as Chrome trace-event records on the `perfbench`
/// process, so `bts_telemetry::chrome_trace_json` can write them beside the
/// collector's own events.
pub fn to_events(spans: &[SpanRec]) -> Vec<Event> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| Event {
            process: "perfbench".to_string(),
            track: "main".to_string(),
            name: s.name.clone(),
            ts_ns: s.start_ns,
            kind: EventKind::Complete {
                dur_ns: s.end_ns - s.start_ns,
            },
            args: vec![
                ("span_id", ArgValue::U64(i as u64 + 1)),
                (
                    "parent_span_id",
                    ArgValue::U64(s.parent.map_or(0, |p| p as u64 + 1)),
                ),
                ("group", ArgValue::U64(s.group)),
            ],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            rec("root", 0.0, 100.0, None),
            rec("a", 10.0, 30.0, Some(0)),
            rec("b", 50.0, 60.0, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70.0, 20.0, 10.0]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // The children cover [10, 55) together: the parent loses 45, not
        // the 20 + 30 + 10 = 60 their durations add up to.
        let spans = [
            rec("root", 0.0, 100.0, None),
            rec("a", 10.0, 30.0, Some(0)),
            rec("b", 20.0, 50.0, Some(0)),
            rec("c", 45.0, 55.0, Some(0)),
        ];
        let t = self_times_ns(&spans);
        assert_eq!(t[0], 100.0 - 45.0);
    }

    #[test]
    fn nested_grandchildren_only_reduce_their_own_parent() {
        let spans = [
            rec("root", 0.0, 100.0, None),
            rec("child", 10.0, 60.0, Some(0)),
            rec("grandchild", 20.0, 40.0, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50.0, 30.0, 20.0]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [rec("root", 10.0, 20.0, None), rec("a", 0.0, 15.0, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5.0);
    }

    #[test]
    fn self_seconds_sum_per_name() {
        let spans = [
            rec("root", 0.0, 4e9, None),
            rec("leaf", 0.0, 1e9, Some(0)),
            rec("leaf", 2e9, 3e9, Some(0)),
        ];
        let by_name = self_seconds_by_name(&spans);
        assert_eq!(by_name["leaf"], 2.0);
        assert_eq!(by_name["root"], 2.0);
    }

    #[test]
    fn tracer_links_parents_and_groups() {
        let mut tracer = Tracer::off();
        tracer.span("ignored", |_| ());
        assert!(tracer.spans().is_empty());
        tracer.set_on(true);
        tracer.next_group();
        tracer.span("outer", |t| t.span("inner", |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].group, spans[1].group);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn exported_spans_validate_as_a_chrome_trace() {
        let spans = [rec("root", 0.0, 100.0, None), rec("a", 10.0, 30.0, Some(0))];
        let json = bts_telemetry::chrome_trace_json(&to_events(&spans));
        let check = bts_telemetry::validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(check.events, 2);
    }

    #[test]
    fn collector_events_rebuild_their_parent_links() {
        let event = |name: &str, ts: f64, dur: f64, id: u64, parent: u64| Event {
            process: "realtime".to_string(),
            track: "main".to_string(),
            name: name.to_string(),
            ts_ns: ts,
            kind: EventKind::Complete { dur_ns: dur },
            args: vec![
                ("span_id", ArgValue::U64(id)),
                ("parent_span_id", ArgValue::U64(parent)),
            ],
        };
        // Children close (and are recorded) before their parent.
        let events = [event("ntt", 5.0, 2.0, 2, 1), event("ks", 0.0, 10.0, 1, 0)];
        let spans = spans_from_events(&events, 100.0);
        assert_eq!(spans[0].parent, Some(1));
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[1].start_ns, 100.0);
        assert_eq!(self_times_ns(&spans), vec![2.0, 8.0]);
    }
}
