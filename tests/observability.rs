//! Acceptance tests for the observability layer (DESIGN.md §11): the
//! Chrome trace export that `repro --trace-out` writes must be valid
//! JSON covering every instrumented layer, and each request's anatomy
//! segments must sum to its end-to-end latency **exactly** (±0 ns).
//! Also covers the machine-readable `BENCH_fig8.json` report.

use std::collections::BTreeSet;

use dcs_bench::anatomy;
use dcs_bench::fig8;
use dcs_ctrl::sim::Json;
use dcs_ctrl::workloads::scenario::DesignUnderTest;

/// Parses the capture that `--trace-out` writes verbatim.
fn traced_capture() -> (anatomy::TraceCapture, Json) {
    let cap = anatomy::capture(DesignUnderTest::DcsCtrl);
    let json = Json::parse(&cap.trace_json).expect("trace must be valid JSON");
    (cap, json)
}

#[test]
fn trace_export_covers_at_least_four_component_categories() {
    let (_, json) = traced_capture();
    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("object form with traceEvents");
    assert!(!events.is_empty(), "trace must contain events");
    // Category names ride on the process_name metadata events.
    let mut cats = BTreeSet::new();
    for ev in events {
        if ev.get("ph").and_then(|p| p.as_str()) == Some("M") {
            if let Some(name) = ev
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|n| n.as_str())
            {
                cats.insert(name.to_string());
            }
        }
    }
    assert!(
        cats.len() >= 4,
        "expected >=4 distinct component categories, got {cats:?}"
    );
    for want in ["hdc", "nvme", "pcie", "host"] {
        assert!(cats.contains(want), "missing category {want} in {cats:?}");
    }
    // Every complete event carries exact nanoseconds alongside the µs.
    for ev in events {
        if ev.get("ph").and_then(|p| p.as_str()) == Some("X") {
            let args = ev.get("args").expect("X events carry args");
            let start = args
                .get("start_ns")
                .and_then(|v| v.as_i128())
                .expect("exact start");
            let ns = args
                .get("ns")
                .and_then(|v| v.as_i128())
                .expect("exact duration");
            assert!(start >= 0 && ns >= 0);
        }
    }
}

#[test]
fn process_rows_follow_first_seen_category_order() {
    let (_, json) = traced_capture();
    let events = json
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("object form with traceEvents");
    let str_of = |ev: &Json, key: &str| ev.get(key).and_then(|v| v.as_str()).map(String::from);
    // Process-name rows, in the order the export writes them.
    let rows: Vec<(String, i128)> = events
        .iter()
        .filter(|ev| str_of(ev, "ph").as_deref() == Some("M"))
        .map(|ev| {
            let name = ev
                .get("args")
                .and_then(|a| str_of(a, "name"))
                .expect("process_name carries a name");
            let pid = ev.get("pid").and_then(|p| p.as_i128()).expect("pid");
            (name, pid)
        })
        .collect();
    // Spans are exported first, in `spans()` order, then the anatomy
    // segments: the rows must name categories in first-seen span order,
    // then `anatomy`, with pid = position + 1.
    let mut want: Vec<String> = Vec::new();
    for ev in events {
        if str_of(ev, "ph").as_deref() != Some("X") {
            continue;
        }
        let cat = str_of(ev, "cat").expect("X events carry a category");
        if cat != "anatomy" && !want.contains(&cat) {
            want.push(cat);
        }
    }
    want.push("anatomy".to_string());
    let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, want, "process rows out of first-seen order");
    for (i, (name, pid)) in rows.iter().enumerate() {
        assert_eq!(*pid, i as i128 + 1, "pid of {name}");
    }
    // Every event sits on its category's row.
    for ev in events
        .iter()
        .filter(|ev| str_of(ev, "ph").as_deref() == Some("X"))
    {
        let cat = str_of(ev, "cat").expect("category");
        let pid = ev.get("pid").and_then(|p| p.as_i128()).expect("pid");
        let row = rows.iter().position(|(n, _)| *n == cat).expect("row");
        assert_eq!(pid, row as i128 + 1, "event of {cat} on the wrong row");
    }
}

#[test]
fn anatomy_segments_sum_to_end_to_end_latency_exactly() {
    let (cap, json) = traced_capture();
    assert!(!cap.requests.is_empty(), "capture must trace requests");
    let reqs = json
        .get("metadata")
        .and_then(|m| m.get("requests"))
        .and_then(|r| r.as_arr())
        .expect("metadata.requests present");
    assert_eq!(reqs.len(), cap.requests.len());
    for r in reqs {
        let e2e = r.get("e2e_ns").and_then(|v| v.as_i128()).expect("e2e_ns");
        let segs = r.get("anatomy").and_then(|a| a.as_arr()).expect("anatomy");
        assert!(!segs.is_empty(), "each request has segments");
        let sum: i128 = segs
            .iter()
            .map(|s| s.get("ns").and_then(|v| v.as_i128()).expect("segment ns"))
            .sum();
        // The ±0 invariant: sim-time segments telescope exactly.
        assert_eq!(sum, e2e, "segments must sum to the end-to-end latency");
    }
}

#[test]
fn bench_fig8_json_parses_and_contains_expected_keys() {
    let rows = fig8::collect(true);
    let body = fig8::json_report(&rows).render();
    let json = Json::parse(&body).expect("BENCH_fig8.json must parse");
    assert_eq!(
        json.get("experiment").and_then(|e| e.as_str()),
        Some("fig8"),
        "experiment key"
    );
    assert!(json.get("unit").and_then(|u| u.as_str()).is_some());
    let designs = json.get("designs").expect("designs key");
    for label in ["Linux", "SW opt", "DCS-ctrl"] {
        let d = designs
            .get(label)
            .unwrap_or_else(|| panic!("missing design {label}"));
        let total = d
            .get("total_fraction_of_cores")
            .and_then(|t| t.as_f64())
            .expect("total is a number");
        assert!(total.is_finite() && total >= 0.0);
        assert!(
            d.get("breakdown").is_some(),
            "per-category breakdown present"
        );
    }
}
