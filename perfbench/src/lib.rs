//! # dcs-perfbench — the repository benchmark
//!
//! One seed-driven, self-checking benchmark that every performance claim
//! about the simulator is measured with. It drives the public entry
//! points [`dcs_cluster::build_cluster`] and [`dcs_store::build_store`],
//! reads host time only here (never inside a simulation crate), and
//! reports at two levels:
//!
//! * **end to end** ([`END_TO_END`]) — what a user of the simulator waits
//!   for (host seconds, host memory) and what the modelled system delivers
//!   (simulated latency, goodput, served fraction), from untraced runs;
//! * **per layer** ([`PER_LAYER`]) — deterministic per-layer counts read
//!   from `World.stats` / `World.obs`, simulated busy time per span
//!   category, host cost per call of each layer's public functions, and
//!   the tracing overhead, from one traced run.
//!
//! See `perfbench/README.md` for the workloads, why each was chosen, and
//! which end-to-end metric each layer metric should move.

use std::collections::BTreeMap;
use std::time::Instant;

use dcs_cluster::{build_cluster, ClusterConfig, ClusterOutcome, ClusterReport, LbPolicy};
use dcs_pcie::PhysMemory;
use dcs_sim::{fnv1a64, Histogram, SimTime, Simulator};
use dcs_store::cache::{Admission, CacheConfig};
use dcs_store::{build_store, StoreConfig, StoreOutcome, TenantSpec};
use dcs_workloads::ycsb::YcsbWorkload;
use dcs_workloads::{DesignUnderTest, TestbedConfig};

pub mod probes;

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark prints: name, unit, and which way is better.
pub type MetricDef = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    ("wall_s", "s", Lower),
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
    ("sim_p50_us", "us", Lower),
    ("sim_p99_us", "us", Lower),
    ("sim_goodput_gbps", "Gbps", Higher),
    ("served_frac", "ratio", Higher),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    // Deterministic counts over the measured window.
    ("sim.events", "count", Lower),
    ("sim.batched_frac", "ratio", Higher),
    ("sim.wall_ns_per_event", "ns", Lower),
    ("pcie.dma_ops", "count", Lower),
    ("pcie.dma_bytes", "bytes", Lower),
    ("pcie.msi", "count", Lower),
    ("pcie.resident_mb", "MB", Lower),
    ("pcie.resident_kb_per_req", "KB", Lower),
    ("nvme.completions", "count", Lower),
    ("nic.tx_frames", "count", Lower),
    ("wire.bytes", "bytes", Lower),
    ("nic.retransmits", "count", Lower),
    ("hdc.cmds_admitted", "count", Lower),
    ("hdc.jobs_done", "count", Lower),
    ("gpu.kernels", "count", Lower),
    ("gpu.bytes", "bytes", Lower),
    ("executor.jobs_done", "count", Lower),
    ("cluster.hedged", "count", Lower),
    ("cluster.hedge_win_ratio", "ratio", Higher),
    ("cluster.node_slow", "count", Lower),
    ("store.cache_hit_ratio", "ratio", Higher),
    ("store.cache_invalidated", "count", Lower),
    ("store.queued", "count", Lower),
    // Simulated busy time per span category.
    ("pcie.sim_busy_us", "us", Lower),
    ("nvme.sim_busy_us", "us", Lower),
    ("nic.sim_busy_us", "us", Lower),
    ("hdc.sim_busy_us", "us", Lower),
    ("host.sim_busy_us", "us", Lower),
    ("cluster.sim_busy_us", "us", Lower),
    ("store.sim_busy_us", "us", Lower),
    // Host cost per call of each layer's public functions.
    ("ndp.md5_gbps", "Gbps", Higher),
    ("ndp.crc32_gbps", "Gbps", Higher),
    ("ndp.sha256_gbps", "Gbps", Higher),
    ("pcie.mem_copy_gbps", "Gbps", Higher),
    ("nic.frame_ns", "ns", Lower),
    ("core.cmd_codec_ns", "ns", Lower),
    ("core.buffer_ns", "ns", Lower),
    ("cluster.ring_lookup_ns", "ns", Lower),
    ("store.cache_op_ns", "ns", Lower),
    ("store.wfq_op_ns", "ns", Lower),
    ("workloads.op_gen_ns", "ns", Lower),
    ("sim.ns_per_event", "ns", Lower),
    // Estimated share of wall_s (op count × probed unit cost ÷ wall_s).
    ("ndp.est_share", "ratio", Lower),
    ("pcie.est_share", "ratio", Lower),
    // Tracing itself.
    ("trace.overhead_frac", "ratio", Lower),
    ("trace.spans", "count", Lower),
];

/// Span categories and the metric reporting their simulated busy time.
const SPAN_CATEGORIES: &[(&str, &str)] = &[
    ("pcie", "pcie.sim_busy_us"),
    ("nvme", "nvme.sim_busy_us"),
    ("nic", "nic.sim_busy_us"),
    ("hdc", "hdc.sim_busy_us"),
    ("host", "host.sim_busy_us"),
    ("cluster", "cluster.sim_busy_us"),
    ("store", "store.sim_busy_us"),
];

/// Requests a window must complete so that its p99 has at least ten
/// samples beyond it.
pub const MIN_COMPLETED: u64 = 1000;

/// Seed that later performance claims must also hold on; it is not one of
/// the seeds used while tuning the benchmark (1..=10).
pub const HELD_OUT_SEED: u64 = 9001;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Multi-node DCS-ctrl rack serving the Swift GET/PUT mix of large
    /// objects: the HDC data plane (NVMe → PCIe → engine → MD5 → NIC).
    RackSwift,
    /// 4-node store, one YCSB-C tenant, Zipfian 16 KiB point reads with
    /// the scan-resistant cache on: many small requests, mostly hits.
    StoreRead,
    /// The same store running YCSB-A (50% updates): the write path.
    StoreUpdate,
    /// `RackSwift`'s traffic and seed on `DesignUnderTest::Linux` nodes:
    /// host stacks and GPU hashing, the HDC engine idle.
    RackSwiftLinux,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::RackSwift,
        Workload::StoreRead,
        Workload::StoreUpdate,
        Workload::RackSwiftLinux,
    ];

    /// The command-line / `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RackSwift => "rack-swift",
            Workload::StoreRead => "store-read",
            Workload::StoreUpdate => "store-update",
            Workload::RackSwiftLinux => "rack-swift-linux",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A generated simulator input: the rack or the store configuration.
#[derive(Clone, Debug)]
pub enum Target {
    /// A `dcs-cluster` rack.
    Rack(ClusterConfig),
    /// A `dcs-store` deployment.
    Store(StoreConfig),
}

impl Target {
    /// Warm-up excluded from the measured window, and the whole traffic
    /// window (warm-up included), ns of simulated time.
    pub fn warmup_and_duration_ns(&self) -> (u64, u64) {
        match self {
            Target::Rack(c) => (c.warmup_ns, c.duration_ns),
            Target::Store(c) => (c.warmup_ns, c.duration_ns),
        }
    }

    /// Simulated time between two host-speed samples inside a measured
    /// window: about a third of a second of host time on either kind.
    pub fn chunk_ns(&self) -> u64 {
        match self {
            Target::Rack(_) => dcs_sim::time::ms(10),
            Target::Store(_) => dcs_sim::time::ms(25),
        }
    }
}

/// SplitMix64 finalizer: spreads a small benchmark seed over the whole
/// simulator seed space.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent traffic streams one run measures. The rack's objects
/// follow the heavy-tailed Swift size mix, so one window's work and
/// latency depend visibly on the seed; a run measures several streams and
/// aggregates them.
pub const STREAMS: u64 = 4;

/// Generates the simulator input of traffic stream `stream` (below
/// [`STREAMS`]) of workload `w` for benchmark seed `seed`. The seed and
/// stream are the only varying inputs; the two rack workloads share their
/// generated traffic, as do the two store workloads.
pub fn config(w: Workload, seed: u64, stream: u64) -> Target {
    let sim_seed = mix(seed.wrapping_mul(STREAMS).wrapping_add(stream));
    let testbed = TestbedConfig {
        seed: sim_seed,
        ..TestbedConfig::default()
    };
    match w {
        Workload::RackSwift | Workload::RackSwiftLinux => Target::Rack(ClusterConfig {
            nodes: 4,
            design: if w == Workload::RackSwift {
                DesignUnderTest::DcsCtrl
            } else {
                DesignUnderTest::Linux
            },
            policy: LbPolicy::JoinShortestQueue,
            offered_gbps_per_node: 4.0,
            duration_ns: dcs_sim::time::ms(145),
            warmup_ns: dcs_sim::time::ms(10),
            testbed,
            seed: sim_seed,
            ..ClusterConfig::default()
        }),
        Workload::StoreRead | Workload::StoreUpdate => {
            let ycsb = if w == Workload::StoreRead {
                YcsbWorkload::C
            } else {
                YcsbWorkload::A
            };
            let mut tenant = TenantSpec::new(ycsb.letter(), ycsb);
            tenant.keys = 4096;
            tenant.offered_gbps = 8.0;
            Target::Store(StoreConfig {
                nodes: 4,
                tenants: vec![tenant],
                cache: CacheConfig {
                    capacity_bytes: 64 << 20,
                    admission: Admission::ScanResistant,
                },
                duration_ns: dcs_sim::time::ms(100),
                warmup_ns: dcs_sim::time::ms(10),
                testbed,
                seed: sim_seed,
                ..StoreConfig::default()
            })
        }
    }
}

/// What the traced run recorded through `World.obs` over the measured
/// window.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Spans recorded.
    pub spans: u64,
    /// Summed span durations per category, ns of simulated time.
    pub busy_ns: BTreeMap<&'static str, u64>,
    /// Observability counters, keyed `component.name`.
    pub counters: BTreeMap<String, u64>,
}

/// One measured window: set-up, warm-up (untimed), then the timed rest of
/// the simulation until the calendar drains.
#[derive(Debug)]
pub struct Window {
    /// Host seconds to build the rack/store and settle device bring-up,
    /// scaled to the calibration machine (see [`host_speed`]).
    pub setup_s: f64,
    /// Host seconds from the end of warm-up until the calendar drained,
    /// scaled to the calibration machine chunk by chunk.
    pub wall_s: f64,
    /// `wall_s` as the host clock read it.
    pub raw_wall_s: f64,
    /// The front end's report over the measured window.
    pub report: ClusterReport,
    /// Events delivered after warm-up.
    pub events: u64,
    /// Of those, events delivered in a same-time/same-dst batch.
    pub batched: u64,
    /// Events delivered over the whole run, bring-up included.
    pub total_events: u64,
    /// Final simulated time, ns.
    pub sim_ns: u64,
    /// `World.stats` counters, growth over the measured window.
    pub counters: BTreeMap<&'static str, u64>,
    /// `World.stats` counters at the end of the run (cumulative).
    pub counters_total: BTreeMap<&'static str, u64>,
    /// Modelled PCIe memory materialized when warm-up ended, bytes.
    pub resident_warm: usize,
    /// Modelled PCIe memory materialized at the end of the run, bytes.
    pub resident_end: usize,
    /// The calendar drained (no event left pending).
    pub drained: bool,
    /// Hash over every deterministic output of the run.
    pub digest: u64,
    /// Observability data, for traced runs.
    pub trace: Option<Trace>,
}

fn resident(sim: &Simulator) -> usize {
    sim.world()
        .get::<PhysMemory>()
        .map_or(0, PhysMemory::resident_bytes)
}

fn host_seconds(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Host speed right now relative to the calibration machine: the
/// reference workload's nominal time over its measured time (above 1 when
/// the host runs faster than nominal). Host times multiplied by it read as
/// host seconds on the calibration machine.
pub fn host_speed() -> f64 {
    REFERENCE_NOMINAL_S / reference_seconds()
}

/// Host seconds to build `target` and settle device bring-up, scaled by
/// `speed` (see [`host_speed`]); the simulator is dropped untouched.
pub fn setup_seconds(target: &Target, speed: f64) -> f64 {
    // dcs-lint: allow(wall-clock) — the benchmark times the simulator from outside; no reading feeds back into a simulation
    let t0 = Instant::now();
    let sim = build(target);
    let s = host_seconds(t0);
    drop(sim);
    s * speed
}

fn build(target: &Target) -> Simulator {
    match target {
        Target::Rack(cfg) => build_cluster(cfg).sim,
        Target::Store(cfg) => build_store(cfg).sim,
    }
}

/// Builds `target`, runs the warm-up, then times the rest of the run.
/// With `traced`, the `dcs_sim::obs` recorder is enabled for the measured
/// window; recording is observational, so the digest does not change.
///
/// The measured window runs in chunks of [`Target::chunk_ns`] simulated
/// time up to the window's close, then drains in one last chunk. The
/// reference workload runs between chunks, and each chunk's host time is
/// scaled by the mean host speed of the samples on either side of it.
/// Chunk boundaries sit at fixed simulated times and the drain runs to
/// completion, so the run's events and final clock equal those of one
/// uninterrupted run.
pub fn run_window(target: &Target, traced: bool) -> Window {
    let mut speed = host_speed();
    // dcs-lint: allow(wall-clock) — the benchmark times the simulator from outside; no reading feeds back into a simulation
    let t0 = Instant::now();
    let mut sim = build(target);
    let setup_s = host_seconds(t0) * speed;
    let (warmup_ns, duration_ns) = target.warmup_and_duration_ns();
    let start = sim.now().as_nanos();
    let window_end = start + duration_ns;
    sim.run_until(SimTime::from_nanos(start + warmup_ns));
    let resident_warm = resident(&sim);
    let before: BTreeMap<&'static str, u64> = sim.world().stats.iter().collect();
    let (events0, batched0) = (sim.delivered_events(), sim.batched_events());
    if traced {
        sim.world_mut().obs.enable();
    }
    let (mut wall_s, mut raw_wall_s) = (0.0, 0.0);
    let mut deadline = start + warmup_ns;
    loop {
        let last = deadline >= window_end;
        deadline = window_end.min(deadline + target.chunk_ns());
        // dcs-lint: allow(wall-clock) — the benchmark times the simulator from outside; no reading feeds back into a simulation
        let t = Instant::now();
        if last {
            sim.run();
        } else {
            sim.run_until(SimTime::from_nanos(deadline));
        }
        let host = host_seconds(t);
        let after = host_speed();
        raw_wall_s += host;
        wall_s += host * (speed + after) / 2.0;
        speed = after;
        if last {
            break;
        }
    }
    let drained = sim.is_idle();
    let report = match target {
        Target::Rack(_) => sim.world_mut().remove::<ClusterOutcome>().map(|o| o.0),
        Target::Store(_) => sim.world_mut().remove::<StoreOutcome>().map(|o| o.0),
    }
    .expect("the front end leaves its report in the world when the window closes");
    let counters_total: BTreeMap<&'static str, u64> = sim.world().stats.iter().collect();
    let counters = counters_total
        .iter()
        .map(|(&k, &v)| (k, v - before.get(k).copied().unwrap_or(0)))
        .collect();
    let trace = traced.then(|| {
        let obs = &sim.world().obs;
        let mut t = Trace {
            spans: obs.spans().len() as u64,
            ..Trace::default()
        };
        for s in obs.spans() {
            *t.busy_ns.entry(s.cat).or_default() += s.end_ns - s.start_ns;
        }
        for e in obs.metrics().snapshot().entries {
            if let dcs_sim::MetricValue::Counter(v) = e.value {
                t.counters.insert(format!("{}.{}", e.component, e.name), v);
            }
        }
        t
    });
    let mut w = Window {
        setup_s,
        wall_s,
        raw_wall_s,
        report,
        events: sim.delivered_events() - events0,
        batched: sim.batched_events() - batched0,
        total_events: sim.delivered_events(),
        sim_ns: sim.now().as_nanos(),
        counters,
        counters_total,
        resident_warm,
        resident_end: resident(&sim),
        drained,
        digest: 0,
        trace,
    };
    w.digest = digest(&w);
    w
}

/// FNV-1a over every deterministic output of a window: event counts,
/// final simulated time, the full report, every `World.stats` counter and
/// the modelled resident memory. Host times and observability data are
/// left out, so a traced run hashes like an untraced one.
fn digest(w: &Window) -> u64 {
    let mut text = format!(
        "events={} batched={} total_events={} sim_ns={} drained={} resident={}/{}\n{:?}\n",
        w.events,
        w.batched,
        w.total_events,
        w.sim_ns,
        w.drained,
        w.resident_warm,
        w.resident_end,
        w.report
    );
    for (k, v) in &w.counters_total {
        text.push_str(&format!("{k}={v}\n"));
    }
    fnv1a64(text.as_bytes())
}

/// Host seconds [`reference_seconds`] takes on the machine the benchmark
/// was calibrated on (a 2-vCPU Intel Xeon sandbox). Host times are
/// reported scaled to that machine's speed, so that the shared host's
/// speed drift does not swamp a change in the simulator.
const REFERENCE_NOMINAL_S: f64 = 0.035;

/// Runs the benchmark's fixed reference workload and returns its host
/// seconds. It is benchmark-local code that no change to the simulator
/// touches, with the simulator's memory behaviour in miniature: ordered-map
/// inserts and lookups over a working set larger than the caches, and
/// page-sized buffer copies. Timed next to each window, it tracks how fast
/// the shared host runs at that moment.
fn reference_seconds() -> f64 {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // dcs-lint: allow(wall-clock) — the benchmark times its reference workload from outside any simulation
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..60_000u64 {
        map.insert(next(), i);
    }
    let mut sum = 0u64;
    for _ in 0..60_000 {
        let k = next();
        sum = sum.wrapping_add(map.range(k..).next().map_or(0, |(_, v)| *v));
    }
    let mut pages: Vec<Vec<u8>> = (0..2048).map(|i| vec![i as u8; 4096]).collect();
    for _ in 0..10_000 {
        let r = next();
        let page = pages[(r % 2048) as usize].clone();
        pages[((r >> 20) % 2048) as usize].copy_from_slice(&page);
    }
    std::hint::black_box((sum, &pages));
    host_seconds(t0)
}

/// Requests resolved in the window: served, shed or unroutable, failed,
/// or lost with a failed node.
pub fn attempted(r: &ClusterReport) -> u64 {
    r.get_ok + r.get_denied + r.put_ok + r.put_denied
}

/// The correctness checks every window must pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checks {
    /// The calendar drained.
    pub drained: bool,
    /// completed + shed + failed + lost = attempted, and the served
    /// GET/PUT split adds up to the completed count.
    pub conserved: bool,
    /// No cached GET returned bytes older than the committed version.
    pub stale_free: bool,
    /// The latency histogram holds every completed request, and there
    /// are at least [`MIN_COMPLETED`] of them.
    pub enough_samples: bool,
}

impl Checks {
    /// Runs the checks on `w`.
    pub fn of(w: &Window) -> Checks {
        let r = &w.report;
        Checks {
            drained: w.drained,
            conserved: r.requests + r.rejected + r.failures + r.lost == attempted(r)
                && r.get_ok + r.put_ok == r.requests,
            stale_free: r.stale_served == 0,
            enough_samples: r.latency.count() == r.requests && r.requests >= MIN_COMPLETED,
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.drained && self.conserved && self.stale_free && self.enough_samples
    }
}

/// Width of the histogram's sub-buckets: every power-of-two octave above
/// 32 is split into 32 linear buckets (see `dcs_sim::Histogram`).
const SUB_BITS: u32 = 5;

/// Inclusive value range `[lo, hi]` of histogram bucket `idx`.
fn bucket_range(idx: usize) -> (u64, u64) {
    let sub = 1usize << SUB_BITS;
    if idx < 2 * sub {
        return (idx as u64, idx as u64);
    }
    let shift = (idx / sub - 1) as u32;
    let lo = ((idx % sub + sub) as u64) << shift;
    (lo, lo + (1u64 << shift) - 1)
}

/// Percentile `p` (in percent) of `h`, in microseconds, interpolated
/// linearly by rank inside the 1/32-octave bucket that holds it (the
/// histogram keeps counts, not samples), clamped to the observed range.
pub fn percentile_us(h: &Histogram, p: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let target = ((count as f64 * p / 100.0).ceil() as u64).clamp(1, count);
    let mut seen = 0;
    for (idx, n) in h.nonzero_buckets() {
        if seen + n >= target {
            let (lo, hi) = bucket_range(idx);
            let frac = (target - seen) as f64 / n as f64;
            let v = lo as f64 + frac * (hi - lo) as f64;
            let lo_obs = h.min().unwrap_or(0) as f64;
            let hi_obs = h.max().unwrap_or(0) as f64;
            return v.clamp(lo_obs, hi_obs) / 1000.0;
        }
        seen += n;
    }
    h.max().unwrap_or(0) as f64 / 1000.0
}

/// Peak resident memory of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The modelled end-to-end metrics over the windows of a run's traffic
/// streams (deterministic per seed): latency percentiles of all their
/// requests, and served payload over their summed measured spans.
pub fn modelled(windows: &[&Window]) -> Vec<(&'static str, f64)> {
    let mut latency = Histogram::new();
    let (mut bytes, mut span_ns) = (0u64, 0u64);
    for w in windows {
        latency.merge(&w.report.latency);
        bytes += w.report.bytes;
        span_ns += w.report.span_ns;
    }
    vec![
        ("sim_p50_us", percentile_us(&latency, 50.0)),
        ("sim_p99_us", percentile_us(&latency, 99.0)),
        (
            "sim_goodput_gbps",
            bytes as f64 * 8.0 / span_ns.max(1) as f64,
        ),
    ]
}

/// One digest for a run: FNV-1a over its streams' window digests.
pub fn combined_digest(windows: &[&Window]) -> u64 {
    let bytes: Vec<u8> = windows
        .iter()
        .flat_map(|w| w.digest.to_le_bytes())
        .collect();
    fnv1a64(&bytes)
}

/// Fraction of `part` over `whole`, 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The deterministic per-layer counts of a traced window.
pub fn layer_counts(w: &Window) -> Vec<(&'static str, f64)> {
    let c = |k: &str| w.counters.get(k).copied().unwrap_or(0) as f64;
    let trace = w
        .trace
        .as_ref()
        .expect("layer counts come from a traced window");
    let o = |k: &str| trace.counters.get(k).copied().unwrap_or(0);
    let r = &w.report;
    let served_total = o("cluster.responses") + o("store.responses");
    let growth = w.resident_end.saturating_sub(w.resident_warm) as u64;
    let mut out = vec![
        ("sim.events", w.events as f64),
        ("sim.batched_frac", ratio(w.batched, w.events)),
        ("pcie.dma_ops", c("pcie.dma_ops")),
        ("pcie.dma_bytes", c("pcie.dma_bytes")),
        ("pcie.msi", c("pcie.msi")),
        (
            "pcie.resident_mb",
            w.resident_end as f64 / (1u64 << 20) as f64,
        ),
        (
            "pcie.resident_kb_per_req",
            ratio(growth, served_total) / 1024.0,
        ),
        ("nvme.completions", c("nvme.completions")),
        ("nic.tx_frames", c("nic.tx_frames")),
        ("wire.bytes", c("wire.bytes")),
        ("nic.retransmits", c("nic.retransmits")),
        ("hdc.cmds_admitted", c("hdc.cmds_admitted")),
        ("hdc.jobs_done", c("hdc.jobs_done")),
        ("gpu.kernels", c("gpu.kernels")),
        ("gpu.bytes", c("gpu.bytes")),
        ("executor.jobs_done", c("executor.jobs_done")),
        ("cluster.hedged", r.hedged as f64),
        ("cluster.hedge_win_ratio", ratio(r.hedge_wins, r.hedged)),
        ("cluster.node_slow", c("cluster.node_slow")),
        (
            "store.cache_hit_ratio",
            ratio(r.cache_hits, r.cache_hits + r.cache_misses),
        ),
        (
            "store.cache_invalidated",
            o("store.cache.invalidated") as f64,
        ),
        ("store.queued", o("store.queued") as f64),
    ];
    for &(cat, metric) in SPAN_CATEGORIES {
        let us = trace.busy_ns.get(cat).copied().unwrap_or(0) as f64 / 1000.0;
        out.push((metric, us));
    }
    out
}

/// Payload bytes the NDP hash kernels processed in the window: every
/// served rack object is hashed once (by the HDC engine or, on Linux
/// nodes, by the GPU); store hits skip the hash, misses and writes do
/// not.
pub fn hashed_bytes(target: &Target, r: &ClusterReport) -> u64 {
    match target {
        Target::Rack(_) => r.bytes,
        Target::Store(cfg) => {
            let value = cfg.tenants[0].value_bytes as u64;
            (r.cache_misses + r.put_ok) * value
        }
    }
}
