//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures every traffic stream of the seed once, then keeps
//! cycling through them while the next window fits in `--seconds` of
//! host time, and prints the end-to-end metrics; `--trace 1` runs one untraced and one traced window plus the
//! per-layer host-cost probes and prints the per-layer metrics. Every
//! window is checked; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dcs_perfbench::{
    attempted, combined_digest, config, hashed_bytes, host_speed, layer_counts, median, modelled,
    peak_rss_mb, probes, ratio, run_window, setup_seconds, Checks, Target, Window, Workload,
    END_TO_END, PER_LAYER, STREAMS,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Attempted and failed requests over `windows`. A window that fails a
/// correctness check counts every request it attempted as failed.
fn tally(windows: &[&Window], digest_stable: bool) -> (u64, u64, bool) {
    let mut tried = 0;
    let mut failed = 0;
    let mut correct = digest_stable;
    for w in windows {
        let r = &w.report;
        let n = attempted(r);
        tried += n;
        let checks = Checks::of(w);
        if checks.passed() {
            failed += r.rejected + r.failures + r.lost;
        } else {
            eprintln!("check failed: {checks:?}");
            correct = false;
            failed += n;
        }
    }
    (tried, failed, correct)
}

fn print_result(
    metrics: &[(&'static str, f64)],
    defs: &[dcs_perfbench::MetricDef],
    correct: bool,
    tried: u64,
    failed: u64,
) {
    let mut body = Vec::new();
    for &(name, unit, _) in defs {
        let value = metrics
            .iter()
            .find(|m| m.0 == name)
            .map(|m| m.1)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<28} {value:>18.6} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {tried}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn describe(args: &Args, stream: usize, w: &Window) {
    let r = &w.report;
    println!(
        "# {} seed {} stream {stream}: sim_digest {:#018x}, {} completed ({} beyond p99), {} attempted, {} events, sim_ns {}",
        args.workload.name(),
        args.seed,
        w.digest,
        r.requests,
        r.latency.count() / 100,
        attempted(r),
        w.events,
        w.sim_ns
    );
}

/// Set-up repetitions on top of the one each window pays, so the set-up
/// median rests on many samples even when windows are few. The host speed
/// is sampled before every stream's batch.
const EXTRA_SETUPS_PER_STREAM: usize = 10;

fn end_to_end(args: &Args) {
    // dcs-lint: allow(wall-clock) — the run length is host time by contract; the simulations themselves never read it
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let targets: Vec<Target> = (0..STREAMS)
        .map(|k| config(args.workload, args.seed, k))
        .collect();
    let mut setups = Vec::new();
    for target in &targets {
        let speed = host_speed();
        setups.extend((0..EXTRA_SETUPS_PER_STREAM).map(|_| setup_seconds(target, speed)));
    }
    // Windows cycle through the streams; another cycle starts only while
    // it is expected to end inside the budget.
    let mut per_stream: Vec<Vec<Window>> = targets.iter().map(|_| Vec::new()).collect();
    let mut last = Duration::ZERO;
    let mut i = 0;
    while i < targets.len() || start.elapsed() + last <= budget {
        // dcs-lint: allow(wall-clock) — the run length is host time by contract; the simulations themselves never read it
        let t = Instant::now();
        let w = run_window(&targets[i % targets.len()], false);
        last = t.elapsed();
        setups.push(w.setup_s);
        per_stream[i % targets.len()].push(w);
        i += 1;
    }
    let all: Vec<&Window> = per_stream.iter().flatten().collect();
    let digest_stable = per_stream
        .iter()
        .all(|ws| ws.iter().all(|w| w.digest == ws[0].digest));
    let (tried, failed, correct) = tally(&all, digest_stable);
    let firsts: Vec<&Window> = per_stream.iter().map(|ws| &ws[0]).collect();
    for (k, w) in firsts.iter().enumerate() {
        describe(args, k, w);
    }
    println!(
        "# {} windows, digest stable: {digest_stable}, run sim_digest {:#018x}",
        all.len(),
        combined_digest(&firsts)
    );
    let raw: Vec<f64> = all.iter().map(|w| w.raw_wall_s).collect();
    let speeds: Vec<f64> = all.iter().map(|w| w.wall_s / w.raw_wall_s).collect();
    println!(
        "# unscaled window wall_s median {:.4}, host speed median {:.3}",
        median(&raw),
        median(&speeds)
    );
    println!("{:<28} {:>18.6} ratio", "failed_frac", ratio(failed, tried));
    let walls: Vec<f64> = per_stream
        .iter()
        .map(|ws| median(&ws.iter().map(|w| w.wall_s).collect::<Vec<_>>()))
        .collect();
    let mut metrics = vec![
        ("wall_s", walls.iter().sum::<f64>() / walls.len() as f64),
        ("setup_s", median(&setups)),
        ("peak_rss_mb", peak_rss_mb()),
        ("served_frac", 1.0 - ratio(failed, tried)),
    ];
    metrics.extend(modelled(&firsts));
    print_result(&metrics, END_TO_END, correct, tried, failed);
}

fn per_layer(args: &Args) {
    let target = &config(args.workload, args.seed, 0);
    let plain = run_window(target, false);
    let traced = run_window(target, true);
    let digest_stable = plain.digest == traced.digest;
    let (tried, failed, correct) = tally(&[&plain, &traced], digest_stable);
    describe(args, 0, &plain);
    println!("# traced sim_digest {:#018x}", traced.digest);

    let mut metrics = layer_counts(&traced);
    let wall_s = plain.wall_s;
    metrics.push(("sim.wall_ns_per_event", wall_s * 1e9 / plain.events as f64));

    let (md5, crc, sha) = probes::ndp_gbps(target, args.seed);
    let dma_ops = plain.counters.get("pcie.dma_ops").copied().unwrap_or(0);
    let dma_bytes = plain.counters.get("pcie.dma_bytes").copied().unwrap_or(0);
    let mean_dma = dma_bytes.checked_div(dma_ops).unwrap_or(4096) as usize;
    let copy = probes::mem_copy_gbps(mean_dma, args.seed);
    metrics.extend([
        ("ndp.md5_gbps", md5),
        ("ndp.crc32_gbps", crc),
        ("ndp.sha256_gbps", sha),
        ("pcie.mem_copy_gbps", copy),
        ("nic.frame_ns", probes::frame_ns(args.seed)),
        ("core.cmd_codec_ns", probes::cmd_codec_ns()),
        ("core.buffer_ns", probes::buffer_ns()),
        (
            "cluster.ring_lookup_ns",
            probes::ring_lookup_ns(target, args.seed),
        ),
        ("store.cache_op_ns", probes::cache_op_ns(target, args.seed)),
        ("store.wfq_op_ns", probes::wfq_op_ns(target)),
        ("workloads.op_gen_ns", probes::op_gen_ns(target, args.seed)),
        ("sim.ns_per_event", probes::ns_per_event()),
    ]);
    // Estimates until the simulator can attribute its own wall time:
    // operation volume × probed unit cost ÷ measured window, all three
    // as the host clock read them.
    let hashed = hashed_bytes(target, &plain.report) as f64;
    let raw = plain.raw_wall_s;
    metrics.push(("ndp.est_share", hashed * 8.0 / (md5 * 1e9) / raw));
    metrics.push((
        "pcie.est_share",
        dma_bytes as f64 * 8.0 / (copy * 1e9) / raw,
    ));
    metrics.push(("trace.overhead_frac", traced.wall_s / wall_s - 1.0));
    let spans = traced.trace.as_ref().map_or(0, |t| t.spans);
    metrics.push(("trace.spans", spans as f64));
    print_result(&metrics, PER_LAYER, correct, tried, failed);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        per_layer(&args);
    } else {
        end_to_end(&args);
    }
    ExitCode::SUCCESS
}
