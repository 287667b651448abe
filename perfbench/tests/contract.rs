//! The benchmark's own checks: its printed metrics match
//! `BENCHMARK.json`, its deterministic outputs repeat exactly, tracing is
//! observational, and the seed changes the traffic but not the report
//! shape.

use std::collections::BTreeMap;
use std::process::Command;

use dcs_perfbench::{
    config, layer_counts, modelled, percentile_us, run_window, Target, Window, Workload,
    END_TO_END, HELD_OUT_SEED, PER_LAYER,
};
use dcs_sim::{Histogram, Json, Rng};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better)` rows of one metric list in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String, String)> {
    benchmark_json()
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect("string field");
            (
                field("name").into(),
                field("unit").into(),
                field("better").into(),
            )
        })
        .collect()
}

fn table(defs: &[dcs_perfbench::MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|&(n, u, b)| (n.into(), u.into(), b.label().into()))
        .collect()
}

#[test]
fn metric_tables_and_workloads_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), table(END_TO_END));
    assert_eq!(declared("per_layer"), table(PER_LAYER));
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name").into())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(workloads, ours);
}

/// Runs the benchmark binary and returns its result line's metrics as
/// `name -> unit`.
fn printed(workload: &str, trace: &str) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_dcs-perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the last line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    assert!(result.get("attempted").and_then(Json::as_i128) >= Some(1));
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics object in {last}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn names_units(defs: &[(String, String, String)]) -> Vec<(String, String)> {
    defs.iter()
        .map(|(n, u, _)| (n.clone(), u.clone()))
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    assert_eq!(
        printed("store-read", "0"),
        names_units(&declared("end_to_end"))
    );
    assert_eq!(
        printed("store-read", "1"),
        names_units(&declared("per_layer"))
    );
}

#[test]
fn bad_arguments_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_dcs-perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

/// A short window of `w`: enough traffic to exercise every layer the
/// workload touches, small enough for a test.
fn short(w: Workload, seed: u64) -> Target {
    let mut t = config(w, seed, 0);
    match &mut t {
        Target::Rack(c) => {
            c.duration_ns = dcs_sim::time::ms(8);
            c.warmup_ns = dcs_sim::time::ms(2);
        }
        Target::Store(c) => {
            c.duration_ns = dcs_sim::time::ms(6);
            c.warmup_ns = dcs_sim::time::ms(2);
        }
    }
    t
}

/// Every deterministic metric of a traced window (host times left out).
fn deterministic(w: &Window) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<_, _> = layer_counts(w).into_iter().collect();
    m.extend(modelled(&[w]));
    m
}

#[test]
fn two_in_process_runs_are_identical() {
    for w in Workload::ALL {
        let t = short(w, 1);
        let a = run_window(&t, true);
        let b = run_window(&t, true);
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(deterministic(&a), deterministic(&b), "{}", w.name());
    }
}

#[test]
fn chunked_window_matches_an_uninterrupted_run() {
    for w in [Workload::RackSwift, Workload::StoreUpdate] {
        let t = short(w, 4);
        let chunked = run_window(&t, false);
        let mut sim = match &t {
            Target::Rack(cfg) => dcs_cluster::build_cluster(cfg).sim,
            Target::Store(cfg) => dcs_store::build_store(cfg).sim,
        };
        sim.run();
        let report = match &t {
            Target::Rack(_) => sim
                .world_mut()
                .remove::<dcs_cluster::ClusterOutcome>()
                .map(|o| o.0),
            Target::Store(_) => sim
                .world_mut()
                .remove::<dcs_store::StoreOutcome>()
                .map(|o| o.0),
        }
        .expect("a report");
        assert_eq!(chunked.sim_ns, sim.now().as_nanos(), "{}", w.name());
        assert_eq!(chunked.total_events, sim.delivered_events(), "{}", w.name());
        assert_eq!(format!("{:?}", chunked.report), format!("{report:?}"));
    }
}

#[test]
fn tracing_does_not_change_the_digest() {
    for w in Workload::ALL {
        let t = short(w, 2);
        let plain = run_window(&t, false);
        let traced = run_window(&t, true);
        assert_eq!(plain.digest, traced.digest, "{}", w.name());
        assert_eq!(plain.events, traced.events, "{}", w.name());
        assert!(traced.trace.as_ref().is_some_and(|t| t.spans > 0));
    }
}

#[test]
fn another_seed_changes_the_digest_but_not_the_metric_set() {
    for w in [Workload::RackSwift, Workload::StoreRead] {
        let a = run_window(&short(w, 1), true);
        let b = run_window(&short(w, HELD_OUT_SEED), true);
        assert_ne!(a.digest, b.digest, "{}", w.name());
        let names = |x: &Window| deterministic(x).into_keys().collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
    }
}

#[test]
fn linux_rack_leaves_the_hdc_engine_idle() {
    let w = run_window(&short(Workload::RackSwiftLinux, 1), true);
    let m = deterministic(&w);
    assert_eq!(m["hdc.cmds_admitted"], 0.0);
    assert_eq!(m["hdc.jobs_done"], 0.0);
    assert!(m["gpu.kernels"] > 0.0 && m["executor.jobs_done"] > 0.0);
    let dcs = deterministic(&run_window(&short(Workload::RackSwift, 1), true));
    assert!(dcs["hdc.jobs_done"] > 0.0 && dcs["gpu.kernels"] == 0.0);
}

#[test]
fn interpolated_percentiles_stay_inside_the_histogram_bucket() {
    let mut rng = Rng::new(11);
    for n in [1u64, 7, 100, 5000] {
        let mut h = Histogram::new();
        let mut samples: Vec<u64> = (0..n).map(|_| 1 + rng.gen_range(0..50_000_000)).collect();
        samples.iter().for_each(|&s| h.record(s));
        samples.sort_unstable();
        for p in [50.0, 99.0] {
            let rank = ((n as f64 * p / 100.0).ceil() as usize).clamp(1, n as usize);
            let exact = samples[rank - 1] as f64;
            let ours = percentile_us(&h, p) * 1000.0;
            let upper = h.percentile(p).expect("non-empty") as f64;
            assert!(ours <= upper + 1e-6, "n {n} p {p}: {ours} above {upper}");
            assert!(
                (ours - exact).abs() <= exact / 32.0 + 1.0,
                "n {n} p {p}: {ours} vs exact {exact}"
            );
        }
    }
}
