//! The front end: open-loop traffic generation, load balancing,
//! admission control, failure tolerance, and end-to-end measurement.
//!
//! One [`ClusterDriver`] component plays the role of the datacenter's
//! front-end tier, for the rack and the store alike. The two are
//! configurations of one driver that differ only in their [`OpSource`]:
//! the Swift GET/PUT mix (one tenant, arrival-order admission) or
//! per-tenant YCSB streams (per-node read caches, QoS admission). Each
//! stream draws Poisson arrivals at its offered load; each request
//! resolves through the consistent-hash [`HashRing`], a replica is picked
//! (a cached replica first for point reads, else the configured
//! [`LbPolicy`]), and the request crosses the [`TorSwitch`] to run as
//! real simulated [`D2dJob`]s on that node's devices (SSD → MD5 → NIC for
//! reads, the reverse for writes — the Swift workload's shapes).
//!
//! Overload is handled at admission: each node serves at most
//! `max_outstanding` requests with at most `queue_cap` more per tenant
//! parked in its [`QosQueue`]; beyond that, requests are shed
//! immediately. Shedding bounds every queue in the system, so p99
//! latency of *served* requests degrades gracefully instead of growing
//! without bound as offered load passes saturation.
//!
//! Whole-node failures ([`NodeFault`]: a crash or a hang) are tolerated by
//! the health layer (see [`crate::health`]):
//!
//! - every node is heartbeat-probed over the switch's strict-priority
//!   control lane; consecutive missed deadlines walk it Healthy → Suspect
//!   → Dead, at which point routing skips it, its in-flight requests are
//!   re-dispatched to surviving replicas (bounded retry budget), its
//!   admission queue is re-routed, and re-replication starts;
//! - GETs may be *hedged*: after a p99-derived delay a second copy goes to
//!   another replica and the first completion wins;
//! - writes whose primary is unroutable fall back to a surviving replica
//!   (write availability), counted as `put_fallbacks`;
//! - re-replication copies the dead node's shard ranges to ring successors
//!   as a bandwidth-capped chunk stream that contends with foreground
//!   traffic on the switch ports;
//! - a restarted node comes back empty and rejoins through anti-entropy
//!   repair (plus a versioned cache warm-up when it has a cache).
//!
//! Availability is accounted at *resolution*: every generated request ends
//! as served, denied (shed or unroutable), or lost (stranded on a failed
//! node with its retry budget spent), which is what the failover sweep's
//! before/during/after phase split reports.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dcs_host::cpu::{CpuJob, CpuJobDone, CpuStats};
use dcs_host::job::{D2dDone, D2dJob, D2dOp};
use dcs_ndp::NdpFunction;
use dcs_nic::TcpFlow;
use dcs_sim::{Bandwidth, Component, Ctx, Histogram, Msg, Rng, SimTime};
use dcs_workloads::gen::SizeDistribution;
use dcs_workloads::scenario::NodeRef;
use dcs_workloads::ycsb::{StoreOp, StoreOpKind};

use crate::cache::ReadCache;
use crate::health::{HealthConfig, HealthMonitor, NodeState, SlowTransition, Transition};
use crate::policy::{LbPolicy, NodeLoad};
use crate::qos::{QosPolicy, QosQueue};
use crate::report::{ClusterReport, NodePerf, PhasePerf, TenantPerf};
use crate::shard::HashRing;
use crate::source::{lba_for, object_id, Labels, OpSource, Pending, Traffic, KEY_BITS};
use crate::switch::{SwitchConfig, TorSwitch};

/// Bytes of a read request on the wire (headers only).
const READ_REQ_BYTES: usize = 512;
/// Header overhead on a write request (the payload rides along).
const WRITE_REQ_OVERHEAD: usize = 512;
/// Response overhead on a read (headers + integrity digest).
const READ_RESP_OVERHEAD: usize = 256;
/// Bytes of a write acknowledgement.
const WRITE_ACK_BYTES: usize = 128;

/// A mid-run node degradation: at `at_ns`, `node`'s switch port drops to
/// `factor` of its line rate (a flapping cable / half-dead transceiver).
/// Queue-aware policies reroute around it; round-robin keeps feeding it.
#[derive(Clone, Copy, Debug)]
pub struct Degrade {
    /// Node to degrade.
    pub node: usize,
    /// When to degrade it (absolute simulation time, ns).
    pub at_ns: u64,
    /// Remaining fraction of port speed (e.g. 0.1).
    // dcs-lint: allow(float-in-sim-state) — an input knob set before the run and never mutated
    pub factor: f64,
}

/// A whole-node failure injected mid-run. Unlike [`Degrade`] (a slow port)
/// or a [`FaultPlan`](dcs_sim::FaultPlan) (retried device errors), these
/// take requests down with the node — the cases the health layer exists
/// for.
#[derive(Clone, Copy, Debug)]
pub enum NodeFault {
    /// At `at_ns` (after traffic start) the node stops dead: requests in
    /// flight there are lost, nothing is accepted or completed afterwards.
    /// With `restart_at_ns` set the node comes back *empty* at that time
    /// and runs the rejoin lifecycle: `Joining` (unroutable, acks probes)
    /// → anti-entropy shard repair from surviving replicas → routable.
    Crash {
        /// Node to crash.
        node: usize,
        /// When to crash it, ns after traffic start.
        at_ns: u64,
        /// When (ns after traffic start, must be after `at_ns`) the node
        /// restarts and begins rejoining; `None` = it stays down.
        restart_at_ns: Option<u64>,
    },
    /// At `at_ns` the node freezes for `for_ns`: it keeps accepting bytes
    /// but completes nothing — and acks no probes — until the hang ends,
    /// at which point everything it swallowed resumes.
    Hang {
        /// Node to hang.
        node: usize,
        /// When to hang it, ns after traffic start.
        at_ns: u64,
        /// Hang duration, ns.
        for_ns: u64,
    },
    /// A *gray* failure: from `at_ns` for `for_ns` the node serves every
    /// request `factor`× slower (a dying SSD, thermal throttling, a
    /// runaway background job) while still acking every probe on time —
    /// the timeout detector is provably blind to it; only the
    /// differential (median-relative EWMA) detector sees it.
    FailSlow {
        /// Node to slow.
        node: usize,
        /// When the slowdown starts, ns after traffic start.
        at_ns: u64,
        /// Slowdown duration, ns.
        for_ns: u64,
        /// Service-latency multiplier (e.g. 10 = everything takes 10×).
        factor: u64,
    },
    /// A degraded ToR port: from `at_ns` for `for_ns` the node's switch
    /// port runs at `speed_pct`% of line rate (a flapping transceiver).
    /// Mild enough that probe acks still make their deadlines — another
    /// gray failure only the differential detector catches.
    LinkDegrade {
        /// Node whose port degrades.
        node: usize,
        /// When the degradation starts, ns after traffic start.
        at_ns: u64,
        /// Degradation duration, ns.
        for_ns: u64,
        /// Remaining port speed, percent of line rate (1..=100).
        speed_pct: u64,
    },
}

impl NodeFault {
    /// The faulted node.
    pub fn node(&self) -> usize {
        match *self {
            NodeFault::Crash { node, .. }
            | NodeFault::Hang { node, .. }
            | NodeFault::FailSlow { node, .. }
            | NodeFault::LinkDegrade { node, .. } => node,
        }
    }

    /// When the fault fires, ns after traffic start.
    pub fn at_ns(&self) -> u64 {
        match *self {
            NodeFault::Crash { at_ns, .. }
            | NodeFault::Hang { at_ns, .. }
            | NodeFault::FailSlow { at_ns, .. }
            | NodeFault::LinkDegrade { at_ns, .. } => at_ns,
        }
    }

    /// When the fault clears (ns after traffic start), for faults with a
    /// bounded window. `None` for a crash (a restart is a new lifecycle
    /// phase, not the fault clearing on its own).
    pub fn end_ns(&self) -> Option<u64> {
        match *self {
            NodeFault::Crash { .. } => None,
            NodeFault::Hang { at_ns, for_ns, .. }
            | NodeFault::FailSlow { at_ns, for_ns, .. }
            | NodeFault::LinkDegrade { at_ns, for_ns, .. } => Some(at_ns + for_ns),
        }
    }
}

/// Full description of a cluster experiment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of DCS server nodes.
    pub nodes: usize,
    /// Design each node runs (the HDC Engine, or a software baseline).
    pub design: dcs_workloads::DesignUnderTest,
    /// Load-balancing policy at the front end.
    pub policy: LbPolicy,
    /// Replica count per object (GETs choose among these).
    pub replication: usize,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes_per_node: usize,
    /// Size of the object-id space ([`OpSource::Swift`]).
    pub objects: u64,
    /// Fraction of requests that are GETs ([`OpSource::Swift`]).
    pub get_fraction: f64,
    /// Object-size distribution ([`OpSource::Swift`]).
    pub sizes: SizeDistribution,
    /// Offered load per node, Gbps (cluster offered load is this × N;
    /// [`OpSource::Swift`]).
    pub offered_gbps_per_node: f64,
    /// Total run length.
    pub duration_ns: u64,
    /// Warm-up trimmed from measurements.
    pub warmup_ns: u64,
    /// Per-node concurrent request limit (admission control).
    pub max_outstanding: usize,
    /// Per-node, per-tenant admission queue bound; beyond it requests
    /// are shed. FIFO shares `queue_cap × tenants` across tenants, WFQ
    /// gives each tenant its own `queue_cap`.
    pub queue_cap: usize,
    /// Top-of-rack switch provisioning.
    pub switch: SwitchConfig,
    /// Per-node testbed parameters (SSD count, node wire).
    pub testbed: dcs_workloads::TestbedConfig,
    /// Simulation seed (drives arrivals, sizes, and any fault plan).
    pub seed: u64,
    /// If positive, installs `FaultPlan::uniform(rate)` over every
    /// injection site in every node before traffic starts.
    pub fault_rate: f64,
    /// Optional mid-run node degradation.
    pub degrade: Option<Degrade>,
    /// Whole-node failures to inject.
    pub node_faults: Vec<NodeFault>,
    /// The failure-tolerance layer (probing, failover, hedging, repair);
    /// [`HealthConfig::disabled`] is the ablation arm.
    pub health: HealthConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            design: dcs_workloads::DesignUnderTest::DcsCtrl,
            policy: LbPolicy::JoinShortestQueue,
            replication: 2,
            // Placement spread shrinks like 1/sqrt(vnodes); 256 keeps the
            // hottest node within ~10% of the mean, which matters because
            // PUTs are pinned to primaries and cannot be rerouted.
            vnodes_per_node: 256,
            objects: 4096,
            get_fraction: 0.67,
            sizes: SizeDistribution::default(),
            offered_gbps_per_node: 6.0,
            duration_ns: dcs_sim::time::ms(30),
            warmup_ns: dcs_sim::time::ms(5),
            // The node pipeline (SSD → hash → NIC, 48-deep wire interleave)
            // needs ~48 concurrent requests to reach line rate; the queue
            // bound keeps worst-case sojourn a small multiple of service.
            max_outstanding: 48,
            queue_cap: 64,
            switch: SwitchConfig::default(),
            testbed: dcs_workloads::TestbedConfig::default(),
            seed: 0xDC5C,
            fault_rate: 0.0,
            degrade: None,
            node_faults: vec![],
            health: HealthConfig::default(),
        }
    }
}

/// The finished report, left in the world when the window closes (or, if a
/// repair stream outlives the window, when the repair completes).
#[derive(Debug)]
pub struct ClusterOutcome(pub ClusterReport);

/// One cluster node as the front end sees it: the measured server and its
/// rack-side access peer (the opposite end of the node's downlink wire).
#[derive(Clone, Debug)]
pub struct ClusterNode {
    /// The DCS server.
    pub server: NodeRef,
    /// The access endpoint terminating the node's downlink at the rack.
    pub access: NodeRef,
}

/// Kickoff event for the front end (sent once by
/// [`build_front_end`](crate::build_front_end)).
#[derive(Debug)]
pub struct Start;
/// Sent by [`Cluster::run`](crate::Cluster::run) once the calendar has
/// drained: every request leg must have resolved by then.
#[derive(Debug)]
pub struct Drained;
/// The front end's own timers and in-flight notifications: every
/// message it sends itself.
#[derive(Debug)]
enum Event {
    /// The next open-loop arrival of one op-source stream.
    Arrival {
        stream: usize,
    },
    WarmupOver,
    WindowOver,
    DegradeNow,
    /// The request's bytes finished arriving at the node port: submit its
    /// jobs.
    Delivered {
        req: u64,
    },
    /// The response's bytes finished arriving back at the front end.
    Response {
        req: u64,
    },
    /// Heartbeat cadence: probe every node, then re-arm.
    ProbeTick,
    /// A probe frame finished arriving at the node.
    ProbeDelivered {
        node: usize,
        seq: u64,
    },
    /// A probe ack finished arriving back at the front end.
    ProbeAck {
        node: usize,
        seq: u64,
    },
    /// The probe's deadline: no ack by now counts as a miss.
    ProbeDeadline {
        node: usize,
        seq: u64,
    },
    /// Fire the `idx`-th configured [`NodeFault`].
    NodeFaultAt {
        idx: usize,
    },
    /// A [`NodeFault::Hang`] elapsed: the node resumes where it froze.
    HangOver {
        node: usize,
    },
    /// A [`NodeFault::FailSlow`] window elapsed: service latency
    /// normalizes.
    FailSlowOver {
        node: usize,
    },
    /// A [`NodeFault::LinkDegrade`] window elapsed: the port recovers
    /// line rate.
    LinkRestore {
        node: usize,
    },
    /// A crashed node's configured restart time: begin the rejoin
    /// lifecycle.
    RestartAt {
        node: usize,
    },
    /// The hedge delay for `req` elapsed: issue the second GET if the
    /// first has not resolved.
    HedgeFire {
        req: u64,
    },
    /// Pacing tick of a bulk stream: ship the next chunk.
    BulkChunk(Bulk),
    /// A bulk stream's last chunk was delivered.
    BulkDone(Bulk),
}

/// The two bulk streams between nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Bulk {
    /// Re-replication of a dead node's shards to ring successors.
    Repair,
    /// Anti-entropy repair streaming a restarted node's shards back.
    Rejoin,
}

/// A bandwidth-capped transfer stream between nodes: queued `(src, dst,
/// bytes)` transfers drain over the switch in paced chunks, contending
/// with foreground traffic on the ports.
#[derive(Debug, Default)]
struct BulkStream {
    queue: VecDeque<(usize, usize, u64)>,
    bytes_sent: u64,
    last_delivery: SimTime,
    start_at: Option<SimTime>,
    done_at: Option<SimTime>,
    active: bool,
}

impl BulkStream {
    /// Start-to-finish latency, once the stream has finished.
    fn elapsed(&self) -> Option<u64> {
        Some(self.done_at? - self.start_at?)
    }
}

/// A dispatched request leg (a hedged GET has two, linked by `partner`).
#[derive(Debug)]
struct InFlight {
    tenant: usize,
    op: StoreOp,
    node: usize,
    slot: usize,
    len: usize,
    arrival: SimTime,
    /// When this leg left the front end for its node. Per-leg latency is
    /// measured from here, not from `arrival`: a hedge leg fired after a
    /// long hedge delay must not charge that wait to the healthy node
    /// serving it, or every node's EWMA rises with the victim's and the
    /// differential detector loses its outlier.
    dispatched_at: SimTime,
    /// When the node actually started serving (jobs submitted); the
    /// fail-slow hold scales the span between this and job completion.
    served_at: SimTime,
    pending_jobs: usize,
    failed: bool,
    /// This leg is the hedged second copy.
    is_hedge: bool,
    /// The other leg of the same logical request, while both are live.
    partner: Option<u64>,
    retries_left: u32,
    /// The other leg already resolved the request: on completion just
    /// release resources, tally nothing.
    orphaned: bool,
    /// Served from the node's read cache (NVMe path skipped).
    cache_hit: bool,
    /// Committed version of the object at the cache decision.
    decision_version: u64,
}

impl InFlight {
    fn object(&self) -> u64 {
        object_id(self.tenant, self.op.key)
    }

    fn is_write(&self) -> bool {
        self.op.kind.is_write()
    }
}

/// Why a node is coming back: the distinction only matters for the
/// counters (`cluster.node_revived` vs `cluster.node_rejoined`); the
/// resume mechanics are one shared path (`ClusterDriver::resume_node`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ResumeKind {
    /// A hang elapsed: the node resumes where it froze.
    Revived,
    /// A crash-restart finished its rejoin lifecycle (anti-entropy repair
    /// complete): the node is routable again.
    Rejoined,
}

/// One resolved request, kept (only when node faults are configured) for
/// the before/during/after phase split.
#[derive(Clone, Copy, Debug)]
struct Rec {
    /// Arrival time, absolute ns.
    at_ns: u64,
    ok: bool,
    latency_ns: u64,
}

/// The per-node read-cache layer of a tenant source. The front end owns
/// the caches, so it can route a GET to a replica that holds the key.
///
/// Consistency is enforced by version: every entry records the version it
/// was admitted at, a hit is only served when that version equals the
/// committed version, and a write's commit invalidates every node's copy
/// before its ack is even on the wire.
struct CacheLayer {
    nodes: Vec<ReadCache>,
    /// Committed version per object (absent = 0, never written).
    committed: BTreeMap<u64, u64>,
    /// Entries gathered from survivors when a node restarts, admitted
    /// when its rejoin stream lands: `(object, len, version)`.
    warm_plan: Vec<(u64, u64, u64)>,
}

impl CacheLayer {
    /// Committed version of an object (0 = never written).
    fn version(&self, object: u64) -> u64 {
        self.committed.get(&object).copied().unwrap_or(0)
    }
}

/// The front-end component.
pub struct ClusterDriver {
    cfg: ClusterConfig,
    nodes: Vec<ClusterNode>,
    traffic: Traffic,
    labels: &'static Labels,
    switch: TorSwitch,
    ring: HashRing,
    // Admission state, indexed by node.
    outstanding: Vec<usize>,
    queues: Vec<QosQueue<Pending>>,
    free_slots: Vec<Vec<usize>>,
    rr_cursor: usize,
    cache: Option<CacheLayer>,
    // Request tracking.
    inflight: BTreeMap<u64, InFlight>,
    job_to_req: BTreeMap<u64, u64>,
    next_req: u64,
    next_job_id: u64,
    // Health and node-fault state, indexed by node.
    health: HealthMonitor,
    crashed: Vec<bool>,
    hung_until: Vec<Option<SimTime>>,
    /// Requests delivered to a hung node, waiting for it to wake.
    held_jobs: Vec<Vec<u64>>,
    /// Responses computed on a node that hung before shipping them.
    held_responses: Vec<Vec<u64>>,
    /// Probe seqs swallowed by a hung node, acked when it wakes.
    held_probes: Vec<Vec<u64>>,
    probe_seq: u64,
    last_ack: Vec<u64>,
    /// Nodes that failed a request since the last probe tick (exhausted-
    /// burst attribution).
    node_fail_marks: Vec<bool>,
    last_exhausted: u64,
    /// Nodes that served a request since the last probe tick (contained-
    /// burst attribution).
    node_serve_marks: Vec<bool>,
    last_contained: u64,
    /// First configured fault, for detection/phase accounting.
    fault_at_abs: u64,
    fault_node: usize,
    detected_at: Option<SimTime>,
    /// When the first fault's window clears (hang / fail-slow / link
    /// degrade), for the phase split.
    fault_end_abs: Option<u64>,
    /// Active fail-slow multiplier per node.
    fail_slow: Vec<Option<u64>>,
    /// When the first fault's node was marked Slow by the differential
    /// detector (gray-failure detection latency).
    slow_detected_at: Option<SimTime>,
    /// Re-replication off dead nodes, and whether each node's has begun.
    repair: BulkStream,
    repair_started: Vec<bool>,
    /// Rejoin anti-entropy (the reverse stream: survivors → the restarted
    /// node).
    rejoin: BulkStream,
    /// The node currently rejoining (at most one crash-restart per run is
    /// scheduled by the sweeps, but the queue tags (src, dst) anyway).
    rejoin_node: Option<usize>,
    /// Report built at window close while repair was still streaming.
    report_pending: Option<ClusterReport>,
    // Measurement.
    measuring: bool,
    window_closed: bool,
    measure_start: SimTime,
    /// The report's counters, histograms and per-node/per-tenant rows,
    /// accumulated in place; window close stamps the span and the
    /// detection and repair figures onto a copy.
    tally: ClusterReport,
    records: Vec<Rec>,
}

impl ClusterDriver {
    /// Creates the front end over `nodes` (one entry per cluster node),
    /// offering `source`'s traffic under `labels`. `rng` seeds the arrival
    /// streams.
    pub fn new(
        cfg: ClusterConfig,
        source: OpSource,
        labels: &'static Labels,
        nodes: Vec<ClusterNode>,
        rng: Rng,
    ) -> ClusterDriver {
        assert_eq!(cfg.nodes, nodes.len(), "node list must match config");
        assert!(cfg.max_outstanding > 0, "admission needs at least one slot");
        let n = nodes.len();
        let (qos, weights, cache) = match &source {
            OpSource::Swift => (QosPolicy::Fifo, vec![1.0], None),
            OpSource::Tenants {
                tenants,
                cache,
                qos,
            } => (
                *qos,
                tenants.iter().map(|t| t.weight).collect(),
                Some(CacheLayer {
                    nodes: (0..n).map(|_| ReadCache::new(cache)).collect(),
                    committed: BTreeMap::new(),
                    warm_plan: vec![],
                }),
            ),
        };
        let tally = ClusterReport {
            per_node: vec![NodePerf::default(); n],
            per_tenant: source
                .tenants()
                .iter()
                .map(|t| TenantPerf {
                    name: t.name.clone(),
                    slo_ns: t.slo_ns,
                    ..Default::default()
                })
                .collect(),
            ..ClusterReport::default()
        };
        let traffic = Traffic::new(source, &cfg, rng);
        assert!(
            traffic.slot_bytes as u64 * 8 <= 4 << 30,
            "object window sizing assumes objects of at most 512 MiB"
        );
        ClusterDriver {
            traffic,
            labels,
            switch: TorSwitch::new(n, cfg.switch.clone()),
            ring: HashRing::new(n, cfg.vnodes_per_node, cfg.replication),
            outstanding: vec![0; n],
            queues: (0..n)
                .map(|_| QosQueue::new(qos, &weights, cfg.queue_cap))
                .collect(),
            free_slots: (0..n)
                .map(|_| (0..cfg.max_outstanding).rev().collect())
                .collect(),
            rr_cursor: 0,
            cache,
            inflight: BTreeMap::new(),
            job_to_req: BTreeMap::new(),
            next_req: 1,
            next_job_id: 1,
            health: HealthMonitor::new(&cfg.health, n),
            crashed: vec![false; n],
            hung_until: vec![None; n],
            held_jobs: vec![Vec::new(); n],
            held_responses: vec![Vec::new(); n],
            held_probes: vec![Vec::new(); n],
            probe_seq: 0,
            last_ack: vec![0; n],
            node_fail_marks: vec![false; n],
            last_exhausted: 0,
            node_serve_marks: vec![false; n],
            last_contained: 0,
            fault_at_abs: u64::MAX,
            fault_node: usize::MAX,
            detected_at: None,
            fault_end_abs: None,
            fail_slow: vec![None; n],
            slow_detected_at: None,
            repair: BulkStream::default(),
            repair_started: vec![false; n],
            rejoin: BulkStream::default(),
            rejoin_node: None,
            report_pending: None,
            measuring: false,
            window_closed: false,
            measure_start: SimTime::ZERO,
            tally,
            records: Vec::new(),
            cfg,
            nodes,
        }
    }

    fn loads(&self) -> Vec<NodeLoad> {
        self.outstanding
            .iter()
            .zip(&self.queues)
            .enumerate()
            .map(|(n, (&o, q))| NodeLoad {
                outstanding: o,
                queued: q.len(),
                // A Slow node stays routable but queue-aware policies see
                // it carrying phantom load, steering new work to faster
                // replicas first.
                penalty: if self.cfg.health.enabled && self.health.state(n) == NodeState::Slow {
                    self.cfg.health.slow_load_penalty
                } else {
                    0
                },
            })
            .collect()
    }

    fn tally_active(&self) -> bool {
        self.measuring && !self.window_closed
    }

    /// Is the node currently swallowing work (crashed or mid-hang)?
    fn stuck(&self, node: usize) -> bool {
        self.crashed[node] || self.hung_until[node].is_some()
    }

    fn push_record(&mut self, arrival: SimTime, ok: bool, latency_ns: u64) {
        if self.cfg.node_faults.is_empty() {
            return;
        }
        self.records.push(Rec {
            at_ns: arrival.as_nanos(),
            ok,
            latency_ns,
        });
    }

    /// A request resolved without being served: shed/unroutable (`lost ==
    /// false`) or gone down with a failed node (`lost == true`).
    fn note_denied(
        &mut self,
        tenant: usize,
        is_write: bool,
        node: Option<usize>,
        arrival: SimTime,
        lost: bool,
    ) {
        if !self.tally_active() {
            return;
        }
        if is_write {
            self.tally.put_denied += 1;
        } else {
            self.tally.get_denied += 1;
        }
        if let Some(t) = self.tally.per_tenant.get_mut(tenant) {
            t.denied += 1;
        }
        if lost {
            self.tally.lost += 1;
            if let Some(n) = node {
                self.tally.per_node[n].lost += 1;
            }
        } else {
            self.tally.rejected += 1;
            if let Some(n) = node {
                self.tally.per_node[n].rejected += 1;
            }
        }
        self.push_record(arrival, false, 0);
    }

    /// Picks a replica for `pend` (skipping Dead / Joining / breaker-open
    /// nodes), then admits, queues, or sheds it.
    fn route_and_admit(&mut self, ctx: &mut Ctx<'_>, pend: Pending) {
        let mask = if self.cfg.health.enabled {
            self.health.unroutable_mask(ctx.now())
        } else {
            vec![false; self.nodes.len()]
        };
        let object = pend.object();
        let is_write = pend.op.kind.is_write();
        let node = if !is_write {
            let candidates = self.ring.replicas_excluding(object, &mask);
            if candidates.is_empty() {
                ctx.world().stats.counter("cluster.unroutable").add(1);
                self.note_denied(pend.tenant, false, None, pend.arrival, false);
                return;
            }
            // Cache affinity: a point read goes to a replica already
            // holding the current version, if any.
            let affine = match &self.cache {
                Some(c) if pend.op.kind == StoreOpKind::Get => {
                    let cur = c.version(object);
                    candidates
                        .iter()
                        .copied()
                        .find(|&n| c.nodes[n].peek(object) == Some(cur))
                }
                _ => None,
            };
            match affine {
                Some(n) => n,
                None => {
                    let loads = self.loads();
                    self.cfg
                        .policy
                        .choose(&candidates, &loads, &mut self.rr_cursor)
                }
            }
        } else {
            // Writes pin to the primary; with the primary unroutable they
            // fall back to the next surviving replica in ring order. A
            // Slow primary keeps its in-flight work but takes no *new*
            // write leadership while a faster replica survives.
            let replicas = self.ring.replicas(object);
            let not_slow = |n: usize| self.health.state(n) != NodeState::Slow;
            let Some(&node) = replicas
                .iter()
                .find(|&&n| !mask[n] && not_slow(n))
                .or_else(|| replicas.iter().find(|&&n| !mask[n]))
            else {
                ctx.world().stats.counter("cluster.unroutable").add(1);
                self.note_denied(pend.tenant, true, None, pend.arrival, false);
                return;
            };
            if node != replicas[0] && self.tally_active() {
                self.tally.put_fallbacks += 1;
            }
            node
        };
        if self.outstanding[node] < self.cfg.max_outstanding {
            self.dispatch(ctx, node, pend, None);
            return;
        }
        let (tenant, cost) = (pend.tenant, pend.len as f64);
        match self.queues[node].try_push(tenant, cost, pend) {
            Ok(()) => ctx.world().obs.count(self.labels.cat, "queued", 1),
            Err(shed) => {
                // The queue bound is full: shed at the front end, bounded
                // queues, graceful overload.
                ctx.world().stats.counter("cluster.shed").add(1);
                self.note_denied(shed.tenant, is_write, Some(node), shed.arrival, false);
            }
        }
    }

    /// Takes the cache decision for `pend` on `node` and sends the
    /// request's bytes through the switch; its jobs are submitted when
    /// the transfer completes. `hedge_of` links a hedged second leg back
    /// to its primary.
    fn dispatch(
        &mut self,
        ctx: &mut Ctx<'_>,
        node: usize,
        pend: Pending,
        hedge_of: Option<u64>,
    ) -> u64 {
        let slot = self.free_slots[node]
            .pop()
            .expect("outstanding < max implies a free slot");
        self.outstanding[node] += 1;
        if self.cfg.health.enabled {
            self.health.on_dispatch(node);
            self.node_serve_marks[node] = true;
        }
        let req = self.next_req;
        self.next_req += 1;
        let (cache_hit, decision_version) = self.cache_decision(ctx, node, &pend);
        let is_write = pend.op.kind.is_write();
        self.inflight.insert(
            req,
            InFlight {
                tenant: pend.tenant,
                op: pend.op,
                node,
                slot,
                len: pend.len,
                arrival: pend.arrival,
                dispatched_at: ctx.now(),
                served_at: pend.arrival,
                pending_jobs: 0,
                failed: false,
                is_hedge: hedge_of.is_some(),
                partner: hedge_of,
                retries_left: pend.retries_left,
                orphaned: false,
                cache_hit,
                decision_version,
            },
        );
        let wire_bytes = if is_write {
            pend.len + WRITE_REQ_OVERHEAD
        } else {
            READ_REQ_BYTES
        };
        let lane = self.traffic.lane(pend.tenant);
        let deliver = self.switch.to_node_lane(ctx.now(), node, wire_bytes, lane);
        let now = ctx.now();
        ctx.world()
            .obs
            .span(self.labels.cat, "uplink", req, now, deliver);
        ctx.send_at(deliver, ctx.self_id(), Event::Delivered { req });
        let h = &self.cfg.health;
        if h.enabled && h.hedge && !is_write && hedge_of.is_none() && self.ring.replication() > 1 {
            ctx.send_self_in(self.hedge_delay(node), Event::HedgeFire { req });
        }
        req
    }

    /// The cache decision for `pend` on `node`: `(hit, committed
    /// version)`. Only point reads are eligible, and only a
    /// version-current entry may be served. A version mismatch here is
    /// the `stale_served` tripwire — it means an invalidation was missed
    /// and the old bytes *would* have been served.
    fn cache_decision(&mut self, ctx: &mut Ctx<'_>, node: usize, pend: &Pending) -> (bool, u64) {
        let Some(cache) = &mut self.cache else {
            return (false, 0);
        };
        let object = pend.object();
        let cur = cache.version(object);
        if pend.op.kind != StoreOpKind::Get {
            return (false, cur);
        }
        let mut hit = false;
        if let Some(v) = cache.nodes[node].lookup(object) {
            if v == cur {
                hit = true;
            } else {
                self.tally.stale_served += 1;
                cache.nodes[node].evict_stale(object);
                ctx.world().stats.counter("cluster.stale_lookup").add(1);
            }
        }
        (hit, cur)
    }

    /// How long to wait before hedging a GET on `node`: the minimum
    /// against a Suspect, Degraded, or Slow node, else the measured p99
    /// (clamped) once the histogram has signal, else the configured
    /// default.
    fn hedge_delay(&self, node: usize) -> u64 {
        let h = &self.cfg.health;
        if matches!(
            self.health.state(node),
            NodeState::Suspect | NodeState::Degraded | NodeState::Slow
        ) {
            return h.hedge_min_ns;
        }
        if self.tally.latency.count() >= 64 {
            if let Some(p99) = self.tally.latency.percentile(99.0) {
                return p99.clamp(h.hedge_min_ns, h.hedge_max_ns);
            }
        }
        h.hedge_default_ns
    }

    /// The hedge delay elapsed: issue the second leg if the primary is
    /// still unresolved and another replica has a free slot.
    fn on_hedge_fire(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        if self.window_closed {
            return;
        }
        let pend = match self.inflight.get(&req) {
            Some(r) if !r.orphaned && r.partner.is_none() => Pending {
                tenant: r.tenant,
                op: r.op,
                len: r.len,
                arrival: r.arrival,
                retries_left: 0,
            },
            _ => return,
        };
        let node = self.inflight[&req].node;
        let mask = self.health.unroutable_mask(ctx.now());
        let candidates: Vec<usize> = self
            .ring
            .replicas_excluding(pend.object(), &mask)
            .into_iter()
            .filter(|&n| n != node && self.outstanding[n] < self.cfg.max_outstanding)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let loads = self.loads();
        let target = self
            .cfg
            .policy
            .choose(&candidates, &loads, &mut self.rr_cursor);
        let hedge = self.dispatch(ctx, target, pend, Some(req));
        self.inflight
            .get_mut(&req)
            .expect("primary leg is in flight")
            .partner = Some(hedge);
        if self.tally_active() {
            self.tally.hedged += 1;
        }
        ctx.world().stats.counter("cluster.hedged").add(1);
    }

    /// The request reached the node port. A healthy node runs it; a
    /// crashed node swallows it (stranded until failover sweeps it); a
    /// hung node parks it until the hang ends.
    fn on_delivered(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let Some(r) = self.inflight.get(&req) else {
            assert!(
                !self.cfg.node_faults.is_empty(),
                "delivered request is in flight"
            );
            return;
        };
        let node = r.node;
        if self.crashed[node] {
            return;
        }
        if self.hung_until[node].is_some() {
            self.held_jobs[node].push(req);
            return;
        }
        self.submit_jobs(ctx, req);
    }

    /// Runs the request as real device jobs on its node: reads are
    /// SSD → integrity hash → downlink on the server (or DRAM → downlink
    /// on a cache hit) received at the rack-side access node; writes
    /// stream the body from the access node while the server receives,
    /// verifies, and persists it.
    fn submit_jobs(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let r = self
            .inflight
            .get(&req)
            .expect("submitted request is in flight");
        let (node, slot, len, is_write, cache_hit) =
            (r.node, r.slot, r.len, r.is_write(), r.cache_hit);
        let lba = lba_for(self.traffic.slot_bytes, r.object(), !is_write);
        let labels = self.labels;
        let server = &self.nodes[node].server;
        let access = &self.nodes[node].access;
        let reply_to = ctx.self_id();
        let mut id = || {
            let i = self.next_job_id;
            self.next_job_id += 1;
            i
        };
        let slot16 = u16::try_from(slot).expect("slot fits a port");
        let jobs: Vec<(dcs_sim::ComponentId, D2dJob)> = if is_write {
            let flow = TcpFlow::example(2, 1, 30_000 + slot16, 8_100 + slot16);
            vec![
                (
                    server.submit_to,
                    D2dJob {
                        id: id(),
                        ops: vec![
                            D2dOp::NicRecv {
                                flow: flow.reversed(),
                                len,
                            },
                            D2dOp::Process {
                                function: NdpFunction::Md5,
                                aux: vec![],
                            },
                            D2dOp::SsdWrite { ssd: 0, lba },
                        ],
                        reply_to,
                        tag: labels.write,
                    },
                ),
                (
                    access.submit_to,
                    D2dJob {
                        id: id(),
                        ops: vec![
                            D2dOp::SsdRead { ssd: 0, lba, len },
                            D2dOp::NicSend { flow, seq: 0 },
                        ],
                        reply_to,
                        tag: "access",
                    },
                ),
            ]
        } else {
            let flow = TcpFlow::example(1, 2, 20_000 + slot16, 8_000 + slot16);
            let server_ops = if cache_hit {
                // The value comes straight from host DRAM; flash and the
                // integrity hash are skipped (hashed at admission).
                vec![D2dOp::MemRead { len }, D2dOp::NicSend { flow, seq: 0 }]
            } else {
                vec![
                    D2dOp::SsdRead { ssd: 0, lba, len },
                    D2dOp::Process {
                        function: NdpFunction::Md5,
                        aux: vec![],
                    },
                    D2dOp::NicSend { flow, seq: 0 },
                ]
            };
            vec![
                (
                    access.submit_to,
                    D2dJob {
                        id: id(),
                        ops: vec![D2dOp::NicRecv {
                            flow: flow.reversed(),
                            len,
                        }],
                        reply_to,
                        tag: "access",
                    },
                ),
                (
                    server.submit_to,
                    D2dJob {
                        id: id(),
                        ops: server_ops,
                        reply_to,
                        tag: if cache_hit {
                            labels.read_hit
                        } else {
                            labels.read
                        },
                    },
                ),
            ]
        };
        // Front-end/application CPU work on the server (request parsing,
        // HTTP), identical across designs.
        ctx.send_now(
            server.cpu,
            CpuJob {
                token: u64::MAX - req,
                cost_ns: 80_000 + (len / 10) as u64,
                tag: if is_write {
                    labels.app_write
                } else {
                    labels.app_read
                },
                reply_to,
            },
        );
        let r = self.inflight.get_mut(&req).expect("still in flight");
        r.pending_jobs = jobs.len();
        r.served_at = ctx.now();
        {
            let now = ctx.now();
            ctx.world()
                .obs
                .span_begin(labels.cat, "node-serve", req, now);
        }
        for (target, job) in jobs {
            self.job_to_req.insert(job.id, req);
            ctx.send_now(target, job);
        }
    }

    fn on_job_done(&mut self, ctx: &mut Ctx<'_>, done: D2dDone) {
        let Some(req) = self.job_to_req.remove(&done.id) else {
            // Jobs of a failed-over request: its legs were swept already.
            assert!(
                !self.cfg.node_faults.is_empty(),
                "completion for unknown job {}",
                done.id
            );
            return;
        };
        let finished = {
            let r = self.inflight.get_mut(&req).expect("live request");
            r.pending_jobs -= 1;
            r.failed |= !done.ok;
            r.pending_jobs == 0
        };
        if !finished {
            return;
        }
        let node = self.inflight[&req].node;
        if self.crashed[node] {
            // The response dies with the node.
            return;
        }
        if self.hung_until[node].is_some() {
            self.held_responses[node].push(req);
            return;
        }
        self.ship_response(ctx, req);
    }

    /// All jobs done: ship the response back up through the switch. On a
    /// fail-slow node the response is *held* first: the node's whole
    /// service span is stretched by the configured factor (while its
    /// probe acks, which never touch the data path, stay on time).
    fn ship_response(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let r = &self.inflight[&req];
        let (node, served_at, lane) = (r.node, r.served_at, self.traffic.lane(r.tenant));
        let resp_bytes = if r.is_write() {
            WRITE_ACK_BYTES
        } else {
            r.len + READ_RESP_OVERHEAD
        };
        let arrive = self
            .switch
            .to_frontend_lane(ctx.now(), node, resp_bytes, lane);
        let arrive = match self.fail_slow[node] {
            // factor × span: the span already elapsed once, so the hold
            // adds the remaining (factor - 1) multiples. Pure integer
            // arithmetic keeps the schedule bit-identical across runs.
            Some(factor) => arrive + ctx.now().saturating_since(served_at) * (factor - 1),
            None => arrive,
        };
        {
            let now = ctx.now();
            let obs = &mut ctx.world().obs;
            obs.span_end(self.labels.cat, "node-serve", req, now);
            obs.span(self.labels.cat, "downlink", req, now, arrive);
        }
        ctx.send_at(arrive, ctx.self_id(), Event::Response { req });
    }

    fn on_response(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let Some(r) = self.inflight.remove(&req) else {
            // The leg was swept by failover between completion and arrival.
            assert!(
                !self.cfg.node_faults.is_empty(),
                "responding request is in flight"
            );
            return;
        };
        self.free_leg(&r);
        ctx.world().obs.count(self.labels.cat, "responses", 1);
        // The freed slot admits the queue's next pick.
        if !self.window_closed {
            if let Some((_, pend)) = self.queues[r.node].pop() {
                self.dispatch(ctx, r.node, pend, None);
            }
        }
        // Every completed leg — orphaned hedges included — is a genuine
        // observation of its node's service speed; a fail-slow node's
        // legs mostly lose their hedges, so skipping orphans would starve
        // exactly the EWMA that needs the signal. Measured per leg (from
        // dispatch, not request arrival) so a slow node's waits are
        // charged only to it — see `InFlight::dispatched_at`.
        if self.cfg.health.enabled && !r.failed {
            self.health
                .record_latency(r.node, ctx.now().saturating_since(r.dispatched_at));
        }
        if !r.failed {
            self.commit_effects(ctx, &r);
        }
        if r.orphaned {
            // The other leg already resolved the request.
            return;
        }
        // This leg wins: the partner (if still live) becomes the orphan.
        if let Some(p) = r.partner {
            if let Some(pr) = self.inflight.get_mut(&p) {
                pr.orphaned = true;
                pr.partner = None;
            }
        }
        if self.cfg.health.enabled {
            if r.failed {
                self.health.on_request_failure(r.node, ctx.now());
                self.node_fail_marks[r.node] = true;
            } else {
                self.health.on_request_success(r.node);
            }
        }
        if !self.tally_active() {
            return;
        }
        let perf = &mut self.tally.per_node[r.node];
        let tenant = self.tally.per_tenant.get_mut(r.tenant);
        if r.failed {
            self.tally.failures += 1;
            perf.failures += 1;
            if r.is_write() {
                self.tally.put_denied += 1;
            } else {
                self.tally.get_denied += 1;
            }
            if let Some(t) = tenant {
                t.denied += 1;
            }
            self.push_record(r.arrival, false, 0);
            return;
        }
        self.tally.requests += 1;
        self.tally.bytes += r.len as u64;
        perf.requests += 1;
        perf.bytes += r.len as u64;
        let lat = ctx.now() - r.arrival;
        self.tally.latency.record(lat);
        if r.is_write() {
            self.tally.put_ok += 1;
        } else {
            self.tally.get_ok += 1;
        }
        if r.is_hedge {
            self.tally.hedge_wins += 1;
        }
        // Tenant rows (and with them the cache layer) exist for tenant
        // sources only.
        if let Some(t) = tenant {
            t.ok += 1;
            t.bytes += r.len as u64;
            t.latency.record(lat);
            if t.slo_ns == 0 || lat <= t.slo_ns {
                t.slo_met += 1;
            }
            if r.op.kind == StoreOpKind::Get {
                if r.cache_hit {
                    self.tally.cache_hits += 1;
                    t.cache_hits += 1;
                } else {
                    self.tally.cache_misses += 1;
                    t.cache_misses += 1;
                }
            }
        }
        self.push_record(r.arrival, true, lat);
    }

    /// Cache-layer effects of a *successful* response: writes commit
    /// (version bump + cache invalidation everywhere), reads feed the
    /// serving node's cache. Runs regardless of the measurement window —
    /// cache and version state must never depend on when we happen to
    /// measure.
    fn commit_effects(&mut self, ctx: &mut Ctx<'_>, r: &InFlight) {
        let Some(cache) = &mut self.cache else {
            return;
        };
        let object = r.object();
        match r.op.kind {
            StoreOpKind::Put
            | StoreOpKind::Insert
            | StoreOpKind::ReadModifyWrite
            | StoreOpKind::Delete => {
                let v = cache.version(object) + 1;
                cache.committed.insert(object, v);
                let dropped: u64 = cache
                    .nodes
                    .iter_mut()
                    .map(|c| u64::from(c.invalidate(object)))
                    .sum();
                if dropped > 0 {
                    ctx.world()
                        .obs
                        .count(self.labels.cat, "cache.invalidated", dropped);
                }
            }
            StoreOpKind::Get => {
                if !r.cache_hit && cache.version(object) == r.decision_version {
                    // The flash bytes are still current: offer them.
                    cache.nodes[r.node].admit(object, r.len as u64, r.decision_version, false);
                }
            }
            StoreOpKind::Scan { keys } => {
                // Scan traffic is offered too — AdmitAll lets it flush
                // the hot set (the pollution ablation), ScanResistant
                // refuses it wholesale.
                let value = self.traffic.source.tenants()[r.tenant].value_bytes as u64;
                for key in
                    (r.op.key..r.op.key.saturating_add(keys)).take_while(|&k| k < 1 << KEY_BITS)
                {
                    let obj = object_id(r.tenant, key);
                    let cur = cache.version(obj);
                    cache.nodes[r.node].admit(obj, value, cur, true);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Probing and node-fault handling.
    // ------------------------------------------------------------------

    fn on_probe_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.window_closed {
            return;
        }
        // A jump in the cluster-wide retry-exhaustion tally is a fault
        // storm: nodes that failed requests since the last tick turn
        // Suspect immediately instead of waiting out probe deadlines.
        let cur = dcs_sim::fault::exhausted_total(ctx.world_ref());
        if cur.saturating_sub(self.last_exhausted) >= self.cfg.health.exhausted_burst {
            for node in 0..self.nodes.len() {
                if self.node_fail_marks[node] {
                    self.health.on_exhausted_burst(node, ctx.now());
                }
            }
        }
        self.last_exhausted = cur;
        self.node_fail_marks.iter_mut().for_each(|m| *m = false);
        // A jump in the *contained*-fault tally (corruptions detected and
        // recovered in place: ECRC replays, completion-entry rewrites,
        // device resets) marks the nodes that were serving Degraded — not
        // Suspect, and never Dead: every one of those errors was caught.
        let contained = dcs_sim::fault::contained_total(ctx.world_ref());
        if contained.saturating_sub(self.last_contained) >= self.cfg.health.contained_burst {
            for node in 0..self.nodes.len() {
                if self.node_serve_marks[node] {
                    if self.health.state(node) == NodeState::Healthy {
                        ctx.world().stats.counter("cluster.nodes_degraded").add(1);
                        self.tally.degraded_marks += 1;
                    }
                    self.health.on_contained_burst(node);
                }
            }
        }
        self.last_contained = contained;
        self.node_serve_marks.iter_mut().for_each(|m| *m = false);
        // Differential gray-failure detection: one median-relative EWMA
        // evaluation per tick, with hysteresis inside the monitor.
        for t in self.health.evaluate_slow() {
            match t {
                SlowTransition::Slowed(node) => {
                    ctx.world().stats.counter("cluster.node_slow").add(1);
                    self.tally.slow_evictions += 1;
                    if self.slow_detected_at.is_none() && node == self.fault_node {
                        self.slow_detected_at = Some(ctx.now());
                    }
                }
                SlowTransition::Readmitted(_) => {
                    ctx.world().stats.counter("cluster.node_readmitted").add(1);
                    self.tally.slow_readmissions += 1;
                }
            }
        }
        for node in 0..self.nodes.len() {
            self.probe_seq += 1;
            let seq = self.probe_seq;
            let oneway = self
                .switch
                .control_oneway_ns(node, self.cfg.health.probe_bytes);
            ctx.send_self_in(oneway, Event::ProbeDelivered { node, seq });
            ctx.send_self_in(
                self.cfg.health.probe_timeout_ns,
                Event::ProbeDeadline { node, seq },
            );
        }
        ctx.send_self_in(self.cfg.health.probe_period_ns, Event::ProbeTick);
    }

    fn on_probe_delivered(&mut self, ctx: &mut Ctx<'_>, node: usize, seq: u64) {
        if self.crashed[node] {
            return;
        }
        if self.hung_until[node].is_some() {
            self.held_probes[node].push(seq);
            return;
        }
        let oneway = self
            .switch
            .control_oneway_ns(node, self.cfg.health.probe_bytes);
        ctx.send_self_in(oneway, Event::ProbeAck { node, seq });
    }

    fn on_probe_ack(&mut self, ctx: &mut Ctx<'_>, node: usize, seq: u64) {
        if seq > self.last_ack[node] {
            self.last_ack[node] = seq;
        }
        // The Revived transition flips the routing state by itself; the
        // resume counters live in `resume_node`, the single code path
        // through which every node comes back (hang wake-up or crash
        // rejoin).
        let _: Option<Transition> = self.health.on_probe_ack(node, ctx.now());
    }

    fn on_probe_deadline(&mut self, ctx: &mut Ctx<'_>, node: usize, seq: u64) {
        if self.last_ack[node] >= seq {
            return;
        }
        if self.health.on_probe_miss(node, ctx.now()) == Some(Transition::Died) {
            self.on_node_dead(ctx, node);
        }
    }

    /// The suspicion score crossed the kill threshold: fail over
    /// everything the node holds and start re-replicating its shards.
    fn on_node_dead(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        if self.detected_at.is_none() && node == self.fault_node {
            self.detected_at = Some(ctx.now());
        }
        ctx.world().stats.counter("cluster.node_dead").add(1);
        self.evacuate(ctx, node);
        self.start_repair(ctx, node);
    }

    /// Takes every request off `node`: its in-flight legs fail over (or
    /// count lost), whatever it held for a hang is dropped, and its
    /// admission queue re-routes (the caller has already made the node
    /// unroutable, unless the health layer is off).
    fn evacuate(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        let swept: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, r)| r.node == node)
            .map(|(&k, _)| k)
            .collect();
        for req in swept {
            self.fail_over(ctx, req);
        }
        self.held_jobs[node].clear();
        self.held_responses[node].clear();
        self.held_probes[node].clear();
        for (_, pend) in self.queues[node].drain() {
            self.route_and_admit(ctx, pend);
        }
    }

    /// Releases one in-flight leg of a failed node and re-dispatches or
    /// resolves the request it carried. Only the health layer retries;
    /// without it the request is lost.
    fn fail_over(&mut self, ctx: &mut Ctx<'_>, req: u64) {
        let Some(r) = self.inflight.remove(&req) else {
            return;
        };
        self.free_leg(&r);
        self.job_to_req.retain(|_, v| *v != req);
        if r.orphaned {
            return;
        }
        // A live hedge partner finishes the request on its own.
        if let Some(p) = r.partner {
            if let Some(pr) = self.inflight.get_mut(&p) {
                pr.partner = None;
                return;
            }
        }
        if self.cfg.health.enabled && r.retries_left > 0 {
            if self.tally_active() {
                self.tally.retried += 1;
            }
            ctx.world().stats.counter("cluster.retried").add(1);
            let pend = Pending {
                tenant: r.tenant,
                op: r.op,
                len: r.len,
                arrival: r.arrival,
                retries_left: r.retries_left - 1,
            };
            self.route_and_admit(ctx, pend);
        } else {
            self.note_denied(r.tenant, r.is_write(), Some(r.node), r.arrival, true);
        }
    }

    fn on_node_fault(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        match self.cfg.node_faults[idx] {
            NodeFault::Crash { node, .. } => {
                self.crashed[node] = true;
                // The node's DRAM, and with it its read cache, is gone.
                if let Some(cache) = &mut self.cache {
                    cache.nodes[node].clear();
                }
                ctx.world().stats.counter("cluster.node_crash").add(1);
            }
            NodeFault::Hang { node, for_ns, .. } => {
                self.hung_until[node] = Some(ctx.now() + for_ns);
                ctx.send_self_in(for_ns, Event::HangOver { node });
                ctx.world().stats.counter("cluster.node_hang").add(1);
            }
            NodeFault::FailSlow {
                node,
                for_ns,
                factor,
                ..
            } => {
                self.fail_slow[node] = Some(factor);
                ctx.send_self_in(for_ns, Event::FailSlowOver { node });
                ctx.world().stats.counter("cluster.node_fail_slow").add(1);
            }
            NodeFault::LinkDegrade {
                node,
                for_ns,
                speed_pct,
                ..
            } => {
                self.switch
                    .set_node_speed_factor(node, speed_pct as f64 / 100.0);
                ctx.send_self_in(for_ns, Event::LinkRestore { node });
                ctx.world().stats.counter("cluster.link_degraded").add(1);
            }
        }
    }

    /// The single path through which an unavailable node comes back:
    /// everything it swallowed resumes — parked requests run, finished
    /// responses ship, swallowed probes ack (which revives a node already
    /// declared Dead) — and the matching lifecycle counter fires.
    fn resume_node(&mut self, ctx: &mut Ctx<'_>, node: usize, kind: ResumeKind) {
        self.hung_until[node] = None;
        let held = std::mem::take(&mut self.held_jobs[node]);
        for req in held {
            if self.inflight.contains_key(&req) {
                self.submit_jobs(ctx, req);
            }
        }
        let resp = std::mem::take(&mut self.held_responses[node]);
        for req in resp {
            if self.inflight.contains_key(&req) {
                self.ship_response(ctx, req);
            }
        }
        let probes = std::mem::take(&mut self.held_probes[node]);
        let oneway = self
            .switch
            .control_oneway_ns(node, self.cfg.health.probe_bytes);
        for seq in probes {
            ctx.send_self_in(oneway, Event::ProbeAck { node, seq });
        }
        let counter = match kind {
            ResumeKind::Revived => "cluster.node_revived",
            ResumeKind::Rejoined => "cluster.node_rejoined",
        };
        ctx.world().stats.counter(counter).add(1);
    }

    // ------------------------------------------------------------------
    // Re-replication.
    // ------------------------------------------------------------------

    /// Plans the repair of `node`'s shards: for every object replicated on
    /// it, a surviving replica streams a copy to the first ring successor
    /// outside the replica set. Transfers aggregate per (src, dst) pair
    /// and drain as a bandwidth-capped chunk stream.
    fn start_repair(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        if self.repair_started[node] {
            return;
        }
        self.repair_started[node] = true;
        let mut transfers: BTreeMap<(usize, usize), u64> = BTreeMap::new();
        for (object, bytes) in self.traffic.objects(&self.cfg) {
            let replicas = self.ring.replicas(object);
            if !replicas.contains(&node) {
                continue;
            }
            let alive = |n: usize| self.health.state(n) != NodeState::Dead;
            let Some(&src) = replicas.iter().find(|&&n| n != node && alive(n)) else {
                continue; // every replica is gone: nothing left to copy
            };
            let pref = self.ring.preference_list(object, self.nodes.len());
            let Some(&dst) = pref.iter().find(|&&n| !replicas.contains(&n) && alive(n)) else {
                continue; // no surviving successor to hold the new copy
            };
            *transfers.entry((src, dst)).or_insert(0) += bytes;
        }
        if transfers.is_empty() {
            return;
        }
        self.repair.start_at.get_or_insert(ctx.now());
        let transfers = transfers.into_iter().map(|((src, dst), b)| (src, dst, b));
        self.enqueue(ctx, Bulk::Repair, transfers);
    }

    /// Queues transfers on a bulk stream, starting its pacing if it was
    /// idle.
    fn enqueue(
        &mut self,
        ctx: &mut Ctx<'_>,
        bulk: Bulk,
        transfers: impl Iterator<Item = (usize, usize, u64)>,
    ) {
        let stream = self.stream(bulk);
        let was_active = stream.active;
        stream.queue.extend(transfers);
        stream.active = true;
        if !was_active {
            ctx.send_now(ctx.self_id(), Event::BulkChunk(bulk));
        }
    }

    fn stream(&mut self, bulk: Bulk) -> &mut BulkStream {
        match bulk {
            Bulk::Repair => &mut self.repair,
            Bulk::Rejoin => &mut self.rejoin,
        }
    }

    /// Ships a bulk stream's next chunk over the switch, then paces the
    /// one after: the ports may drain a chunk faster, but the stream never
    /// offers more than its configured rate on average.
    fn on_bulk_chunk(&mut self, ctx: &mut Ctx<'_>, bulk: Bulk) {
        let h = &self.cfg.health;
        let (max_chunk, gbps) = match bulk {
            Bulk::Repair => (h.repair_chunk_bytes as u64, h.repair_gbps),
            Bulk::Rejoin => (h.repair_chunk_bytes as u64, h.rejoin_gbps),
        };
        let stream = match bulk {
            Bulk::Repair => &mut self.repair,
            Bulk::Rejoin => &mut self.rejoin,
        };
        let Some(&(src, dst, remaining)) = stream.queue.front() else {
            return;
        };
        let chunk = remaining.min(max_chunk);
        let delivered = self
            .switch
            .node_to_node(ctx.now(), src, dst, chunk as usize);
        stream.last_delivery = stream.last_delivery.max(delivered);
        stream.bytes_sent += chunk;
        if remaining > chunk {
            stream.queue.front_mut().expect("front still queued").2 = remaining - chunk;
        } else {
            stream.queue.pop_front();
        }
        if stream.queue.is_empty() {
            ctx.send_at(stream.last_delivery, ctx.self_id(), Event::BulkDone(bulk));
        } else {
            let pace = Bandwidth::gbps(gbps).transfer_time(chunk as usize).max(1);
            ctx.send_self_in(pace, Event::BulkChunk(bulk));
        }
    }

    fn on_bulk_done(&mut self, ctx: &mut Ctx<'_>, bulk: Bulk) {
        if !self.stream(bulk).queue.is_empty() {
            // More transfers were queued after the finish was scheduled
            // (a second failure): keep streaming.
            self.on_bulk_chunk(ctx, bulk);
            return;
        }
        match bulk {
            Bulk::Repair => {
                self.repair.active = false;
                self.repair.done_at = Some(ctx.now());
                self.maybe_emit_report(ctx);
            }
            Bulk::Rejoin => self.finish_rejoin(ctx),
        }
    }

    fn stamp_repair(&self, report: &mut ClusterReport) {
        report.repair_bytes = self.repair.bytes_sent;
        report.repair_ns = self.repair.elapsed();
        report.rejoin_bytes = self.rejoin.bytes_sent;
        report.rejoin_ns = self.rejoin.elapsed();
        report.warmup_bytes = self.tally.warmup_bytes;
    }

    fn maybe_emit_report(&mut self, ctx: &mut Ctx<'_>) {
        if self.repair.active || self.rejoin.active {
            return;
        }
        if let Some(mut report) = self.report_pending.take() {
            self.stamp_repair(&mut report);
            (self.labels.deposit)(ctx.world(), report);
        }
    }

    // ------------------------------------------------------------------
    // Rejoin: a restarted node's anti-entropy repair, the re-replication
    // path run in reverse (survivors stream the node's shards back).
    // ------------------------------------------------------------------

    /// The crashed node's configured restart time arrived: it comes back
    /// *empty*. Whatever it swallowed while down is gone, so its legs
    /// fail over now — a node that restarts before the detector declared
    /// it Dead would otherwise strand them. With the health layer on it
    /// enters `Joining` (alive to probes, unroutable) and anti-entropy
    /// repair begins; with the layer off — the ablation — its legs count
    /// lost and it simply starts serving again, lifecycle unmanaged.
    fn on_restart(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        assert!(self.crashed[node], "restart of a node that never crashed");
        self.crashed[node] = false;
        // A later crash of the same node must be able to re-replicate
        // again from scratch.
        self.repair_started[node] = false;
        ctx.world().stats.counter("cluster.node_restart").add(1);
        if self.cfg.health.enabled {
            self.health.begin_join(node);
        }
        self.evacuate(ctx, node);
        if self.cfg.health.enabled {
            self.start_rejoin(ctx, node);
        }
    }

    /// Plans the rejoin stream: for every object replicated on `node`, a
    /// surviving replica streams the shard back — and, with a cache
    /// layer, every survivor streams its resident entries for those
    /// objects at their committed versions (the cache warm-up). Transfers
    /// aggregate per source and drain as a bandwidth-capped chunk stream,
    /// exactly like re-replication but pointed at the rejoining node.
    fn start_rejoin(&mut self, ctx: &mut Ctx<'_>, node: usize) {
        let alive = |n: usize| {
            n != node
                && !self.crashed[n]
                && !matches!(self.health.state(n), NodeState::Dead | NodeState::Joining)
        };
        let mut transfers: BTreeMap<usize, u64> = BTreeMap::new();
        for (object, bytes) in self.traffic.objects(&self.cfg) {
            let replicas = self.ring.replicas(object);
            if !replicas.contains(&node) {
                continue;
            }
            let Some(&src) = replicas.iter().find(|&&n| alive(n)) else {
                continue; // no surviving replica holds this shard
            };
            *transfers.entry(src).or_insert(0) += bytes;
        }
        if let Some(cache) = &mut self.cache {
            // Donors in node order, each cache in key order, deduped by
            // object: deterministic.
            let mut seen = BTreeSet::new();
            cache.warm_plan.clear();
            for donor in (0..self.nodes.len()).filter(|&d| alive(d)) {
                for (object, len, version) in cache.nodes[donor].warm_set() {
                    if self.ring.replicas(object).contains(&node)
                        && version == cache.version(object)
                        && seen.insert(object)
                    {
                        *transfers.entry(donor).or_insert(0) += len;
                        cache.warm_plan.push((object, len, version));
                    }
                }
            }
        }
        self.rejoin_node = Some(node);
        self.rejoin.start_at = Some(ctx.now());
        if transfers.is_empty() {
            // Nothing to copy (degenerate ring): the node joins at once.
            self.finish_rejoin(ctx);
            return;
        }
        let transfers = transfers.into_iter().map(|(src, b)| (src, node, b));
        self.enqueue(ctx, Bulk::Rejoin, transfers);
    }

    /// Anti-entropy complete: the warm-up entries still at their committed
    /// version land in the node's cache (writes during the stream
    /// invalidate by simply not being admitted), and the node leaves
    /// `Joining` through the unified resume path, routable again.
    fn finish_rejoin(&mut self, ctx: &mut Ctx<'_>) {
        let node = self.rejoin_node.take().expect("a rejoin was running");
        self.rejoin.active = false;
        self.rejoin.done_at = Some(ctx.now());
        if let Some(cache) = &mut self.cache {
            for (object, len, version) in std::mem::take(&mut cache.warm_plan) {
                if version == cache.version(object) {
                    self.tally.warmup_bytes += len;
                    cache.nodes[node].admit_warm(object, len, version);
                }
            }
        }
        self.health.complete_join(node);
        self.resume_node(ctx, node, ResumeKind::Rejoined);
        self.maybe_emit_report(ctx);
    }

    // ------------------------------------------------------------------
    // Window close and the report.
    // ------------------------------------------------------------------

    fn free_leg(&mut self, r: &InFlight) {
        self.outstanding[r.node] -= 1;
        self.free_slots[r.node].push(r.slot);
    }

    /// Availability split into before / during / after the failure, with
    /// "during" ending at detection (crash, fail-slow) or at the fault's
    /// scheduled end (hang, link degrade, undetected slow window).
    fn phases(&self, end_ns: u64) -> [PhasePerf; 3] {
        let fault_at = self.fault_at_abs;
        let recovery = self
            .detected_at
            .map(|t| t.as_nanos())
            .or(self.slow_detected_at.map(|t| t.as_nanos()))
            .or(self.fault_end_abs)
            .unwrap_or(end_ns)
            .max(fault_at);
        let mut phases = [PhasePerf::default(); 3];
        let mut hists = [Histogram::new(), Histogram::new(), Histogram::new()];
        for rec in &self.records {
            let idx = if rec.at_ns < fault_at {
                0
            } else if rec.at_ns < recovery {
                1
            } else {
                2
            };
            phases[idx].requests += 1;
            if rec.ok {
                phases[idx].ok += 1;
                hists[idx].record(rec.latency_ns);
            }
        }
        for (p, h) in phases.iter_mut().zip(&hists) {
            p.p99_ns = h.percentile(99.0).unwrap_or(0);
        }
        phases
    }

    fn close_window(&mut self, ctx: &mut Ctx<'_>) {
        // Resolve work stranded on failed nodes while tallies still
        // count: with the health layer off this is where every loss
        // surfaces (the ablation's availability gap).
        let stranded: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, r)| self.stuck(r.node))
            .map(|(&k, _)| k)
            .collect();
        for req in stranded {
            let Some(r) = self.inflight.get(&req) else {
                continue;
            };
            if r.orphaned {
                let r = self.inflight.remove(&req).expect("checked above");
                self.free_leg(&r);
                continue;
            }
            // A live partner on a healthy node will finish the request
            // after the window (excluded from tallies either way).
            let partner_completes = r
                .partner
                .and_then(|p| self.inflight.get(&p))
                .is_some_and(|pr| !self.stuck(pr.node));
            if let Some(p) = r.partner {
                if let Some(pr) = self.inflight.get_mut(&p) {
                    pr.orphaned = true;
                    pr.partner = None;
                }
            }
            let r = self.inflight.remove(&req).expect("checked above");
            self.free_leg(&r);
            self.job_to_req.retain(|_, v| *v != req);
            if !partner_completes {
                self.note_denied(r.tenant, r.is_write(), Some(r.node), r.arrival, true);
            }
        }
        for node in 0..self.nodes.len() {
            if self.stuck(node) {
                for (_, pend) in self.queues[node].drain() {
                    self.note_denied(
                        pend.tenant,
                        pend.op.kind.is_write(),
                        Some(node),
                        pend.arrival,
                        true,
                    );
                }
            }
        }
        self.window_closed = true;
        // Parked requests on healthy nodes are abandoned: nothing was
        // submitted for them.
        for q in &mut self.queues {
            q.drain();
        }
        let span = ctx.now() - self.measure_start;
        let stats = ctx.world_ref().get::<CpuStats>();
        for (i, node) in self.nodes.iter().enumerate() {
            self.tally.per_node[i].cpu_utilization = stats
                .map(|s| s.utilization(&node.server.cpu_key, span))
                .unwrap_or(0.0);
        }
        let now = ctx.now().as_nanos();
        let mut report = ClusterReport {
            span_ns: span,
            detection_ns: self
                .detected_at
                .map(|t| t.as_nanos().saturating_sub(self.fault_at_abs)),
            slow_detection_ns: self
                .slow_detected_at
                .map(|t| t.as_nanos().saturating_sub(self.fault_at_abs)),
            phases: (!self.cfg.node_faults.is_empty()).then(|| self.phases(now)),
            ..self.tally.clone()
        };
        if self.repair.active || self.rejoin.active {
            // Repair or rejoin outlives the window: emit once the stream
            // drains so the report can carry the true time-to-repair.
            self.report_pending = Some(report);
        } else {
            self.stamp_repair(&mut report);
            (self.labels.deposit)(ctx.world(), report);
        }
    }

    /// Kickoff: arm every stream's first arrival, the window timers, the
    /// configured faults, and the heartbeat.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for stream in 0..self.traffic.streams() {
            let gap = self.traffic.next_gap(stream);
            ctx.send_self_in(gap, Event::Arrival { stream });
        }
        ctx.send_self_in(self.cfg.warmup_ns, Event::WarmupOver);
        ctx.send_self_in(self.cfg.duration_ns, Event::WindowOver);
        if let Some(d) = self.cfg.degrade {
            assert!(d.node < self.nodes.len(), "degraded node out of range");
            ctx.send_self_in(d.at_ns, Event::DegradeNow);
        }
        for (idx, f) in self.cfg.node_faults.iter().enumerate() {
            assert!(f.node() < self.nodes.len(), "faulted node out of range");
            match *f {
                NodeFault::Crash {
                    node,
                    at_ns,
                    restart_at_ns: Some(restart),
                } => {
                    assert!(restart > at_ns, "restart must follow the crash");
                    ctx.send_self_in(restart, Event::RestartAt { node });
                }
                NodeFault::FailSlow { factor, .. } => {
                    assert!(factor >= 1, "fail-slow factor must be >= 1");
                }
                NodeFault::LinkDegrade { speed_pct, .. } => {
                    assert!(
                        (1..=100).contains(&speed_pct),
                        "link speed_pct must be in 1..=100"
                    );
                }
                _ => {}
            }
            ctx.send_self_in(f.at_ns(), Event::NodeFaultAt { idx });
        }
        if let Some(first) = self
            .cfg
            .node_faults
            .iter()
            .min_by_key(|f| f.at_ns())
            .copied()
        {
            self.fault_at_abs = ctx.now().as_nanos() + first.at_ns();
            self.fault_node = first.node();
            self.fault_end_abs = first.end_ns().map(|e| ctx.now().as_nanos() + e);
        }
        if self.cfg.health.enabled {
            ctx.send_self_in(self.cfg.health.probe_period_ns, Event::ProbeTick);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Arrival { stream } => {
                if !self.window_closed {
                    let pend = self.traffic.next_op(stream, &self.cfg, ctx.now());
                    self.route_and_admit(ctx, pend);
                    let gap = self.traffic.next_gap(stream);
                    ctx.send_self_in(gap, Event::Arrival { stream });
                }
            }
            Event::WarmupOver => {
                self.measuring = true;
                self.measure_start = ctx.now();
                if let Some(stats) = ctx.world().get_mut::<CpuStats>() {
                    stats.reset();
                }
            }
            Event::WindowOver => self.close_window(ctx),
            Event::DegradeNow => {
                let d = self
                    .cfg
                    .degrade
                    .expect("DegradeNow only fires when configured");
                self.switch.set_node_speed_factor(d.node, d.factor);
                ctx.world().stats.counter("cluster.degraded").add(1);
            }
            Event::Delivered { req } => self.on_delivered(ctx, req),
            Event::Response { req } => self.on_response(ctx, req),
            Event::ProbeTick => self.on_probe_tick(ctx),
            Event::ProbeDelivered { node, seq } => self.on_probe_delivered(ctx, node, seq),
            Event::ProbeAck { node, seq } => self.on_probe_ack(ctx, node, seq),
            Event::ProbeDeadline { node, seq } => self.on_probe_deadline(ctx, node, seq),
            Event::NodeFaultAt { idx } => self.on_node_fault(ctx, idx),
            Event::HangOver { node } => self.resume_node(ctx, node, ResumeKind::Revived),
            Event::FailSlowOver { node } => self.fail_slow[node] = None,
            Event::LinkRestore { node } => self.switch.set_node_speed_factor(node, 1.0),
            Event::RestartAt { node } => self.on_restart(ctx, node),
            Event::HedgeFire { req } => self.on_hedge_fire(ctx, req),
            Event::BulkChunk(bulk) => self.on_bulk_chunk(ctx, bulk),
            Event::BulkDone(bulk) => self.on_bulk_done(ctx, bulk),
        }
    }
}

impl Component for ClusterDriver {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<Event>() {
            Ok(ev) => return self.on_event(ctx, ev),
            Err(m) => m,
        };
        let msg = match msg.downcast::<D2dDone>() {
            Ok(done) => return self.on_job_done(ctx, done),
            Err(m) => m,
        };
        let msg = match msg.downcast::<CpuJobDone>() {
            Ok(_) => return, // application-charge completion: nothing to do
            Err(m) => m,
        };
        let msg = match msg.downcast::<Start>() {
            Ok(Start) => return self.on_start(ctx),
            Err(m) => m,
        };
        match msg.downcast::<Drained>() {
            Ok(Drained) => assert!(
                self.inflight.is_empty() && self.job_to_req.is_empty(),
                "{} request legs outlived the drain",
                self.inflight.len()
            ),
            Err(other) => panic!("ClusterDriver received unexpected message: {other:?}"),
        }
    }
}
