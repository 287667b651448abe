//! Op sources: where the front end's requests come from.
//!
//! The rack and the store are two configurations of one
//! [`ClusterDriver`](crate::ClusterDriver). They differ only in the
//! traffic they offer and in the per-node layers that come with it:
//!
//! * [`OpSource::Swift`] — the rack: one open-loop Poisson stream of the
//!   Swift-style GET/PUT mix the [`ClusterConfig`] describes (object
//!   space, size distribution, GET fraction, offered load per node). It
//!   is a single tenant in arrival-order admission, with no read cache.
//! * [`OpSource::Tenants`] — the store: one stream per [`TenantSpec`],
//!   each walking its YCSB op mix over its own namespace at its own
//!   offered load, with per-node versioned read caches and QoS admission.
//!
//! A tenant's keys map onto one global object id (tenant in the top 16
//! bits, see [`object_id`]), so the ring, replication and flash layout
//! apply unchanged while namespaces stay disjoint by construction. The
//! Swift mix is tenant 0, whose object ids are its keys.

use dcs_sim::{Rng, SimTime, World};
use dcs_workloads::ycsb::{StoreOp, StoreOpKind, YcsbGenerator, YcsbWorkload};

use crate::cache::CacheConfig;
use crate::driver::{ClusterConfig, ClusterOutcome};
use crate::qos::QosPolicy;
use crate::report::ClusterReport;
use crate::switch::Lane;

/// Bits of the global object id holding the per-tenant key.
pub const KEY_BITS: u32 = 48;

/// Payload bytes of a DELETE (a tombstone record).
const TOMBSTONE_BYTES: usize = 512;

/// Packs a tenant's key into the global object-id space.
///
/// # Panics
///
/// Panics if `key` overflows the 48-bit per-tenant keyspace.
pub fn object_id(tenant: usize, key: u64) -> u64 {
    assert!(
        key < 1 << KEY_BITS,
        "key {key} overflows the tenant keyspace"
    );
    ((tenant as u64) << KEY_BITS) | key
}

/// One tenant of the store.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Namespace name (report label).
    pub name: String,
    /// The tenant's YCSB workload letter.
    pub workload: YcsbWorkload,
    /// Initial keyspace size (inserts grow it).
    pub keys: u64,
    /// Zipfian skew of the tenant's key popularity.
    pub theta: f64,
    /// Value size, bytes (YCSB uses fixed-size values).
    pub value_bytes: usize,
    /// The tenant's offered load, Gbps of value payload.
    pub offered_gbps: f64,
    /// Fair-queueing weight (share of a contended node's service).
    pub weight: f64,
    /// Latency objective for the SLO-attainment tally, ns (0 = no SLO).
    pub slo_ns: u64,
    /// Ride the ToR's strict-priority lane instead of the bulk queues.
    pub priority: bool,
}

impl TenantSpec {
    /// A tenant with defaults matching the standard YCSB shape: 16 Ki
    /// keys, theta 0.99, 16 KiB values, 1 Gbps offered, weight 1, a 10 ms
    /// SLO, bulk lane.
    pub fn new(name: &str, workload: YcsbWorkload) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            workload,
            keys: 16 * 1024,
            theta: 0.99,
            value_bytes: 16 * 1024,
            offered_gbps: 1.0,
            weight: 1.0,
            slo_ns: dcs_sim::time::ms(10),
            priority: false,
        }
    }
}

/// What traffic the front end offers, and the per-node layers that come
/// with it. See the module docs.
#[derive(Clone, Debug)]
pub enum OpSource {
    /// The rack's Swift GET/PUT mix, drawn from the [`ClusterConfig`].
    Swift,
    /// The store's per-tenant YCSB streams.
    Tenants {
        /// The tenants sharing the store.
        tenants: Vec<TenantSpec>,
        /// Per-node read-cache provisioning.
        cache: CacheConfig,
        /// Admission-queue ordering on contended nodes.
        qos: QosPolicy,
    },
}

/// How one configuration of the front end names itself: the `obs`
/// span/metric category, the simulator names of its nodes and front end,
/// the device-job and CPU tags of its requests, and the world resource
/// its finished report is deposited under. The rack's are [`RACK`]; the
/// store crate supplies its own.
#[derive(Debug)]
pub struct Labels {
    /// `obs` category of the front end's spans and metrics.
    pub cat: &'static str,
    /// Node `i` is named `{node_prefix}{i}` (its access peer
    /// `{node_prefix}{i}-fe`), which keys its CPU-stats pool.
    pub node_prefix: &'static str,
    /// Simulator name of the front-end component.
    pub frontend: &'static str,
    /// Server job tag of a read served from flash.
    pub read: &'static str,
    /// Server job tag of a read served from the node's read cache.
    pub read_hit: &'static str,
    /// Server job tag of a write.
    pub write: &'static str,
    /// CPU tag of a read's application work.
    pub app_read: &'static str,
    /// CPU tag of a write's application work.
    pub app_write: &'static str,
    /// Leaves the finished report in the world.
    pub deposit: fn(&mut World, ClusterReport),
    /// Takes the deposited report back out of the world.
    pub take: fn(&mut World) -> Option<ClusterReport>,
}

/// The rack's labels: its report is a [`ClusterOutcome`].
pub const RACK: Labels = Labels {
    cat: "cluster",
    node_prefix: "n",
    frontend: "cluster-frontend",
    read: "kernel-get",
    read_hit: "kernel-get",
    write: "kernel-put",
    app_read: "app-get",
    app_write: "app-put",
    deposit: |world, report| {
        world.insert(ClusterOutcome(report));
    },
    take: |world| world.remove::<ClusterOutcome>().map(|o| o.0),
};

impl OpSource {
    /// The tenants (empty for the Swift mix, which reports no tenant
    /// rows).
    pub(crate) fn tenants(&self) -> &[TenantSpec] {
        match self {
            OpSource::Swift => &[],
            OpSource::Tenants { tenants, .. } => tenants,
        }
    }
}

/// A generated request not yet dispatched (parked at admission).
#[derive(Debug)]
pub(crate) struct Pending {
    pub tenant: usize,
    pub op: StoreOp,
    /// Payload bytes.
    pub len: usize,
    pub arrival: SimTime,
    /// Remaining failover re-dispatches if the serving node dies.
    pub retries_left: u32,
}

impl Pending {
    pub fn object(&self) -> u64 {
        object_id(self.tenant, self.op.key)
    }
}

/// The live state of an [`OpSource`]: one RNG, mean gap and (for
/// tenants) op generator per stream.
pub(crate) struct Traffic {
    pub source: OpSource,
    gens: Vec<YcsbGenerator>,
    rngs: Vec<Rng>,
    // dcs-lint: allow(float-in-sim-state) — derived once from the offered load at build; read-only thereafter
    mean_gap_ns: Vec<f64>,
    /// Flash slot size per object: the largest value any stream writes.
    pub slot_bytes: usize,
}

impl Traffic {
    /// The Swift mix draws from `rng` directly; tenants each fork their
    /// own stream from it, in tenant order.
    pub fn new(source: OpSource, cfg: &ClusterConfig, mut rng: Rng) -> Traffic {
        match &source {
            OpSource::Swift => {
                let total_gbps = cfg.offered_gbps_per_node * cfg.nodes as f64;
                Traffic {
                    gens: vec![],
                    rngs: vec![rng],
                    mean_gap_ns: vec![cfg.sizes.mean_estimate() * 8.0 / total_gbps],
                    slot_bytes: cfg.sizes.max,
                    source,
                }
            }
            OpSource::Tenants { tenants, .. } => {
                assert!(!tenants.is_empty(), "a store needs at least one tenant");
                assert!(tenants.len() < 1 << 16, "tenant id must fit 16 bits");
                assert!(
                    tenants.iter().all(|t| t.value_bytes > 0),
                    "tenant values must be non-empty"
                );
                // Scans move (1 + max)/2 values per op on average; fold
                // that into the per-op payload so `offered_gbps` is the
                // tenant's *byte* rate, not its op rate.
                let scan_factor = (1.0 + YcsbGenerator::DEFAULT_MAX_SCAN as f64) / 2.0 - 1.0;
                Traffic {
                    gens: tenants
                        .iter()
                        .map(|t| YcsbGenerator::new(t.workload, t.keys, t.theta))
                        .collect(),
                    rngs: tenants.iter().map(|_| rng.fork()).collect(),
                    mean_gap_ns: tenants
                        .iter()
                        .map(|t| {
                            let scans = 1.0 + t.workload.mix().scan * scan_factor;
                            t.value_bytes as f64 * scans * 8.0 / t.offered_gbps
                        })
                        .collect(),
                    slot_bytes: tenants.iter().map(|t| t.value_bytes).max().unwrap_or(1),
                    source,
                }
            }
        }
    }

    /// Number of independent arrival streams.
    pub fn streams(&self) -> usize {
        self.rngs.len()
    }

    /// The next exponential inter-arrival gap of `stream`, ns.
    pub fn next_gap(&mut self, stream: usize) -> u64 {
        (self.rngs[stream].gen_exp(self.mean_gap_ns[stream]) as u64).max(1)
    }

    /// Draws `stream`'s next request arriving at `now`.
    pub fn next_op(&mut self, stream: usize, cfg: &ClusterConfig, now: SimTime) -> Pending {
        let rng = &mut self.rngs[stream];
        let (op, len) = match &self.source {
            OpSource::Swift => {
                let key = rng.gen_range(0..cfg.objects);
                let len = cfg.sizes.sample(rng);
                let kind = if rng.gen_bool(cfg.get_fraction) {
                    StoreOpKind::Get
                } else {
                    StoreOpKind::Put
                };
                (StoreOp { kind, key }, len)
            }
            OpSource::Tenants { tenants, .. } => {
                let op = self.gens[stream].next_op(rng);
                let value = tenants[stream].value_bytes;
                let len = match op.kind {
                    StoreOpKind::Scan { keys } => {
                        let lba = lba_for(self.slot_bytes, object_id(stream, op.key), true);
                        // A long scan must not run off the GET window.
                        let room = (WINDOW_BLOCKS - lba) * 4096;
                        (keys as usize * value).min(room as usize)
                    }
                    StoreOpKind::Delete => TOMBSTONE_BYTES.min(value),
                    _ => value,
                };
                (op, len)
            }
        };
        Pending {
            tenant: stream,
            op,
            len,
            arrival: now,
            retries_left: cfg.health.request_retries,
        }
    }

    /// Every object the source can address, with its size: what
    /// re-replication and rejoin repair copy for a node's shards.
    pub fn objects(&self, cfg: &ClusterConfig) -> Vec<(u64, u64)> {
        match &self.source {
            OpSource::Swift => {
                let bytes = cfg.sizes.mean_estimate().ceil() as u64;
                (0..cfg.objects).map(|o| (o, bytes)).collect()
            }
            OpSource::Tenants { tenants, .. } => tenants
                .iter()
                .zip(&self.gens)
                .enumerate()
                .flat_map(|(t, (spec, gen))| {
                    (0..gen.keys()).map(move |k| (object_id(t, k), spec.value_bytes as u64))
                })
                .collect(),
        }
    }

    /// The switch lane `tenant`'s traffic rides.
    pub fn lane(&self, tenant: usize) -> Lane {
        match self.source.tenants().get(tenant) {
            Some(t) if t.priority => Lane::Priority,
            _ => Lane::Bulk,
        }
    }
}

/// Blocks in one flash window: GETs and PUTs use disjoint 4 GiB windows
/// so reads never race writes.
const WINDOW_BLOCKS: u64 = (4u64 << 30) / 4096;

/// Maps an object to its LBA inside a node's flash window, with one
/// `slot_bytes` slot per object.
pub(crate) fn lba_for(slot_bytes: usize, object: u64, is_read: bool) -> u64 {
    let blocks_per_object = slot_bytes.div_ceil(4096) as u64;
    let slots = (WINDOW_BLOCKS / blocks_per_object).max(1);
    let base = if is_read { 0 } else { WINDOW_BLOCKS };
    base + (object % slots) * blocks_per_object
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_ids_keep_namespaces_disjoint() {
        assert_eq!(object_id(0, 7), 7);
        assert_ne!(object_id(1, 7), object_id(2, 7));
        assert_eq!(object_id(3, 0) >> KEY_BITS, 3);
        // Different tenants can never collide, whatever their keys.
        assert_ne!(object_id(0, (1 << KEY_BITS) - 1), object_id(1, 0));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn oversized_keys_are_rejected() {
        object_id(0, 1 << KEY_BITS);
    }
}
