//! Sim-time observability: tracing spans, per-request latency anatomy,
//! a few window counters, and a Chrome trace-event exporter.
//!
//! The paper's core results are latency *anatomies* — Figures 8/11/12
//! break one device-control operation into per-hop PCIe, doorbell, DMA
//! and engine phases. This module lets any run answer "where did the
//! nanoseconds go" without perturbing the run itself:
//!
//! * **Spans** ([`Recorder::span`], [`Recorder::span_begin`] /
//!   [`Recorder::span_end`]) record `[start, end]` intervals in *virtual*
//!   time, keyed on request IDs. No wall clock is ever read, so traces
//!   are bit-identical across same-seed runs (asserted by
//!   `tests/determinism.rs`).
//! * **Anatomy** ([`Recorder::req_begin`], [`Recorder::mark`],
//!   [`Recorder::req_end`]) records a contiguous chain of phase segments
//!   per request. Each mark closes the segment since the previous mark,
//!   so the segments telescope: their sum equals the end-to-end latency
//!   *exactly* (±0), by construction.
//! * **Window counters** ([`Recorder::count`]) count only while the
//!   recorder is on. The front end keeps three of them (`responses`,
//!   `queued`, `cache.invalidated`) because `perfbench` reads them
//!   over its traced window. Every other event count lives in
//!   `World.stats`, which counts whether or not tracing is on.
//! * **Export**: [`chrome_trace`] renders everything as Chrome
//!   trace-event JSON loadable in Perfetto (`ui.perfetto.dev`).
//!
//! Gating rule (DESIGN.md §11): instrumentation is compiled in
//! unconditionally but *runtime-gated*. Every recording method begins
//! with a single `enabled` branch and returns immediately when the
//! recorder is off — the disabled cost is one predictable branch per
//! event. Recording is purely observational: it never touches the RNG,
//! never schedules events, and never changes any simulation state, so
//! enabling it cannot change simulation behaviour.

use std::collections::BTreeMap;

use crate::time::SimTime;

pub mod json;

pub use json::Json;

/// One recorded interval in virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Component category (`"pcie"`, `"nvme"`, `"nic"`, `"hdc"`,
    /// `"host"`, `"cluster"`).
    pub cat: &'static str,
    /// Phase name within the category (`"dma"`, `"flash-read"`, …).
    pub name: &'static str,
    /// Request/command/DMA identifier the span belongs to.
    pub req: u64,
    /// Start of the interval, nanoseconds of virtual time.
    pub start_ns: u64,
    /// End of the interval, nanoseconds of virtual time.
    pub end_ns: u64,
}

/// The contiguous phase chain of one request.
///
/// Segments telescope: `begin + Σ segment = end`, so
/// `Σ segment == end - begin` exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Anatomy {
    /// Virtual time the request was submitted.
    pub begin_ns: u64,
    /// `(label, duration_ns)` segments in chronological order.
    pub segments: Vec<(&'static str, u64)>,
    /// Virtual time the request completed (`None` while in flight).
    pub end_ns: Option<u64>,
    /// End of the last closed segment (next segment starts here).
    last_ns: u64,
}

impl Anatomy {
    /// End-to-end latency, or `None` while the request is in flight.
    pub fn total_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e - self.begin_ns)
    }

    /// Sum of the recorded segments (equals [`Anatomy::total_ns`] once
    /// the request has ended).
    pub fn segment_sum_ns(&self) -> u64 {
        self.segments.iter().map(|(_, ns)| ns).sum()
    }
}

/// Named counters per component, keyed `(component, name)`.
///
/// A `BTreeMap` keeps iteration (and therefore every snapshot) in
/// deterministic name order.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<(&'static str, &'static str), u64>,
}

impl MetricsRegistry {
    /// Adds `n` to the counter `component/name`, creating it at zero.
    pub fn count(&mut self, component: &'static str, name: &'static str, n: u64) {
        *self.counters.entry((component, name)).or_insert(0) += n;
    }

    /// Snapshots every counter, in `(component, name)` order.
    pub fn snapshot(&self) -> MetricsReport {
        MetricsReport {
            entries: self
                .counters
                .iter()
                .map(|(&(component, name), &v)| MetricEntry {
                    component: component.to_string(),
                    name: name.to_string(),
                    value: MetricValue::Counter(v),
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of the registry.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Snapshotted metrics in `(component, name)` order.
    pub entries: Vec<MetricEntry>,
}

/// One snapshotted metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEntry {
    /// Owning component (`"cluster"` or `"store"`).
    pub component: String,
    /// Metric name within the component.
    pub name: String,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// The value of a snapshotted metric.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
}

/// The sim-time recorder, reachable as `world.obs` from every
/// component's [`Ctx`](crate::Ctx).
///
/// Disabled by default: every recording method costs exactly one branch
/// and records nothing until [`Recorder::enable`] is called.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    /// Open begin/end spans, keyed `(cat, name, req)`.
    open: BTreeMap<(&'static str, &'static str, u64), u64>,
    /// Per-request anatomy chains, keyed on request ID.
    requests: BTreeMap<u64, Anatomy>,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// A disabled recorder (the default in every new world).
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Turns recording off (already-recorded data is kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Discards everything recorded so far.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
        self.requests.clear();
        self.metrics = MetricsRegistry::default();
    }

    /// Records a complete span whose bounds are both already known —
    /// the common case here, since the DES computes transfer delays
    /// analytically before scheduling their completion.
    #[inline]
    pub fn span(
        &mut self,
        cat: &'static str,
        name: &'static str,
        req: u64,
        start: SimTime,
        end: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            cat,
            name,
            req,
            start_ns: start.as_nanos(),
            end_ns: end.as_nanos(),
        });
    }

    /// Opens a span keyed on `(cat, name, req)`; closed by the matching
    /// [`Recorder::span_end`]. Re-opening an open key restarts it.
    #[inline]
    pub fn span_begin(&mut self, cat: &'static str, name: &'static str, req: u64, now: SimTime) {
        if !self.enabled {
            return;
        }
        self.open.insert((cat, name, req), now.as_nanos());
    }

    /// Closes the span opened by [`Recorder::span_begin`]. A close
    /// without a matching open is ignored (the begin side may predate
    /// `enable()`, or the operation may have been dropped by a fault).
    #[inline]
    pub fn span_end(&mut self, cat: &'static str, name: &'static str, req: u64, now: SimTime) {
        if !self.enabled {
            return;
        }
        if let Some(start_ns) = self.open.remove(&(cat, name, req)) {
            self.spans.push(Span {
                cat,
                name,
                req,
                start_ns,
                end_ns: now.as_nanos(),
            });
        }
    }

    /// Starts the anatomy chain of request `req` at `now`.
    #[inline]
    pub fn req_begin(&mut self, req: u64, now: SimTime) {
        if !self.enabled {
            return;
        }
        let ns = now.as_nanos();
        self.requests.insert(
            req,
            Anatomy {
                begin_ns: ns,
                segments: Vec::new(),
                end_ns: None,
                last_ns: ns,
            },
        );
    }

    /// Closes the segment `[previous mark, now]` under `label`. Ignored
    /// for requests with no [`Recorder::req_begin`] (e.g. tracing was
    /// enabled mid-flight).
    #[inline]
    pub fn mark(&mut self, req: u64, label: &'static str, now: SimTime) {
        if !self.enabled {
            return;
        }
        if let Some(a) = self.requests.get_mut(&req) {
            let ns = now.as_nanos();
            a.segments.push((label, ns.saturating_sub(a.last_ns)));
            a.last_ns = ns;
        }
    }

    /// Closes the final segment under `label` and ends the request.
    #[inline]
    pub fn req_end(&mut self, req: u64, label: &'static str, now: SimTime) {
        if !self.enabled {
            return;
        }
        if let Some(a) = self.requests.get_mut(&req) {
            let ns = now.as_nanos();
            a.segments.push((label, ns.saturating_sub(a.last_ns)));
            a.last_ns = ns;
            a.end_ns = Some(ns);
        }
    }

    /// Adds `n` to the counter `component/name` (gated like spans).
    #[inline]
    pub fn count(&mut self, component: &'static str, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        self.metrics.count(component, name, n);
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The anatomy chain of request `req`, if one was begun.
    pub fn anatomy(&self, req: u64) -> Option<&Anatomy> {
        self.requests.get(&req)
    }

    /// Iterates `(request, anatomy)` in request-ID order.
    pub fn anatomies(&self) -> impl Iterator<Item = (u64, &Anatomy)> + '_ {
        self.requests.iter().map(|(k, v)| (*k, v))
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Renders the per-request latency-anatomy table; the segment
    /// column sums to the end-to-end total exactly.
    pub fn render_anatomy(&self, req: u64) -> Option<String> {
        let a = self.requests.get(&req)?;
        let total = a.total_ns()?;
        let mut out = format!("request {req} — latency anatomy ({total} ns end-to-end)\n");
        for (label, ns) in &a.segments {
            let pct = if total == 0 {
                0.0
            } else {
                *ns as f64 * 100.0 / total as f64
            };
            out.push_str(&format!("  {label:<28} {ns:>12} ns  {pct:>5.1}%\n"));
        }
        out.push_str(&format!(
            "  {:<28} {:>12} ns  100.0%\n",
            "total",
            a.segment_sum_ns()
        ));
        Some(out)
    }
}

/// Renders the recorder's spans and anatomies as Chrome trace-event
/// JSON (the object form: `{"traceEvents": [...], ...}`), loadable in
/// Perfetto or `chrome://tracing`.
///
/// * Each component category becomes a "process" (`pid`), each request
///   a "thread" (`tid`), so Perfetto groups rows by layer.
/// * `ts`/`dur` are microseconds per the format; the *exact* nanosecond
///   values ride along in `args` (`start_ns`, `ns`).
/// * `metadata.requests` carries each request's anatomy and end-to-end
///   latency in nanoseconds, so a consumer can check the ±0 sum
///   invariant without touching the µs fields.
pub fn chrome_trace(rec: &Recorder) -> String {
    // Deterministic pid assignment: first-seen category order, pid =
    // index + 1.
    let mut pids: Vec<&'static str> = Vec::new();
    let pid_of = |cat: &'static str, pids: &mut Vec<&'static str>| -> i128 {
        let i = pids.iter().position(|&c| c == cat).unwrap_or_else(|| {
            pids.push(cat);
            pids.len() - 1
        });
        i as i128 + 1
    };
    let us = |ns: u64| Json::Float(ns as f64 / 1000.0);
    let mut events: Vec<Json> = Vec::new();
    for s in rec.spans() {
        let pid = pid_of(s.cat, &mut pids);
        events.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(s.name.to_string())),
            ("cat".to_string(), Json::Str(s.cat.to_string())),
            ("ph".to_string(), Json::Str("X".to_string())),
            ("ts".to_string(), us(s.start_ns)),
            ("dur".to_string(), us(s.end_ns - s.start_ns)),
            ("pid".to_string(), Json::Int(pid)),
            ("tid".to_string(), Json::Int(s.req as i128)),
            (
                "args".to_string(),
                Json::Obj(vec![
                    ("req".to_string(), Json::Int(s.req as i128)),
                    ("start_ns".to_string(), Json::Int(s.start_ns as i128)),
                    ("ns".to_string(), Json::Int((s.end_ns - s.start_ns) as i128)),
                ]),
            ),
        ]));
    }
    let mut requests_meta: Vec<Json> = Vec::new();
    for (req, a) in rec.anatomies() {
        let pid = pid_of("anatomy", &mut pids);
        let mut at = a.begin_ns;
        let mut segs_meta: Vec<Json> = Vec::new();
        for (label, ns) in &a.segments {
            events.push(Json::Obj(vec![
                ("name".to_string(), Json::Str(label.to_string())),
                ("cat".to_string(), Json::Str("anatomy".to_string())),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("ts".to_string(), us(at)),
                ("dur".to_string(), us(*ns)),
                ("pid".to_string(), Json::Int(pid)),
                ("tid".to_string(), Json::Int(req as i128)),
                (
                    "args".to_string(),
                    Json::Obj(vec![
                        ("req".to_string(), Json::Int(req as i128)),
                        ("start_ns".to_string(), Json::Int(at as i128)),
                        ("ns".to_string(), Json::Int(*ns as i128)),
                    ]),
                ),
            ]));
            segs_meta.push(Json::Obj(vec![
                ("label".to_string(), Json::Str(label.to_string())),
                ("ns".to_string(), Json::Int(*ns as i128)),
            ]));
            at += ns;
        }
        let mut req_obj = vec![
            ("id".to_string(), Json::Int(req as i128)),
            ("begin_ns".to_string(), Json::Int(a.begin_ns as i128)),
            ("anatomy".to_string(), Json::Arr(segs_meta)),
        ];
        if let Some(total) = a.total_ns() {
            req_obj.push(("e2e_ns".to_string(), Json::Int(total as i128)));
        }
        requests_meta.push(Json::Obj(req_obj));
    }
    // Name each category's process row for Perfetto.
    let name_events: Vec<Json> = pids
        .iter()
        .enumerate()
        .map(|(i, cat)| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str("process_name".to_string())),
                ("ph".to_string(), Json::Str("M".to_string())),
                ("pid".to_string(), Json::Int(i as i128 + 1)),
                ("tid".to_string(), Json::Int(0)),
                (
                    "args".to_string(),
                    Json::Obj(vec![("name".to_string(), Json::Str(cat.to_string()))]),
                ),
            ])
        })
        .collect();
    let mut all = name_events;
    all.extend(events);
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(all)),
        ("displayTimeUnit".to_string(), Json::Str("ns".to_string())),
        (
            "metadata".to_string(),
            Json::Obj(vec![("requests".to_string(), Json::Arr(requests_meta))]),
        ),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new();
        r.span("pcie", "dma", 1, t(0), t(10));
        r.span_begin("nvme", "flash", 1, t(0));
        r.span_end("nvme", "flash", 1, t(5));
        r.req_begin(1, t(0));
        r.mark(1, "x", t(3));
        r.req_end(1, "y", t(9));
        r.count("store", "responses", 1);
        assert!(r.spans().is_empty());
        assert!(r.anatomy(1).is_none());
        assert!(r.metrics().snapshot().entries.is_empty());
    }

    #[test]
    fn anatomy_segments_sum_exactly_to_end_to_end() {
        let mut r = Recorder::new();
        r.enable();
        r.req_begin(7, t(100));
        r.mark(7, "parse", t(137));
        r.mark(7, "data", t(977));
        r.req_end(7, "completion", t(1003));
        let a = r.anatomy(7).expect("begun");
        assert_eq!(a.total_ns(), Some(903));
        assert_eq!(a.segment_sum_ns(), 903);
        assert_eq!(
            a.segments,
            vec![("parse", 37), ("data", 840), ("completion", 26)]
        );
        let table = r.render_anatomy(7).expect("ended");
        assert!(table.contains("903 ns end-to-end"), "{table}");
    }

    #[test]
    fn begin_end_spans_pair_by_key_and_orphan_ends_are_ignored() {
        let mut r = Recorder::new();
        r.enable();
        r.span_begin("nic", "wire", 3, t(10));
        r.span_begin("nic", "wire", 4, t(12));
        r.span_end("nic", "wire", 4, t(20));
        r.span_end("nic", "wire", 3, t(25));
        r.span_end("nic", "wire", 99, t(30)); // never opened
        assert_eq!(
            r.spans(),
            &[
                Span {
                    cat: "nic",
                    name: "wire",
                    req: 4,
                    start_ns: 12,
                    end_ns: 20
                },
                Span {
                    cat: "nic",
                    name: "wire",
                    req: 3,
                    start_ns: 10,
                    end_ns: 25
                },
            ]
        );
    }

    #[test]
    fn chrome_trace_is_valid_json_with_exact_ns_args() {
        let mut r = Recorder::new();
        r.enable();
        r.span("pcie", "dma", 1, t(0), t(1500));
        r.req_begin(1, t(0));
        r.req_end(1, "all", t(2500));
        let text = chrome_trace(&r);
        let root = Json::parse(&text).expect("valid JSON");
        let events = root
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents");
        // 2 process_name metadata + 1 span + 1 anatomy segment.
        assert_eq!(events.len(), 4, "{text}");
        let reqs = root
            .get("metadata")
            .and_then(|m| m.get("requests"))
            .and_then(Json::as_arr)
            .expect("requests");
        assert_eq!(reqs[0].get("e2e_ns").and_then(Json::as_i128), Some(2500));
    }

    #[test]
    fn enable_midstream_ignores_unknown_requests() {
        let mut r = Recorder::new();
        r.req_begin(5, t(0)); // disabled: dropped
        r.enable();
        r.mark(5, "late", t(10));
        r.req_end(5, "later", t(20));
        assert!(r.anatomy(5).is_none());
    }
}
