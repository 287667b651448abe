//! # dcs-store — a multi-tenant object-store service layer over the DCS rack
//!
//! `dcs-cluster` answers *what does the HDC Engine buy a rack*; this crate
//! answers the next question up the stack: *what does it buy a serving
//! system with real tenants?* It layers a typed object-store service —
//! GET/PUT/DELETE/SCAN over per-tenant namespaces — on top of the cluster
//! substrate (consistent-hash sharding, ToR switch, per-node admission),
//! and adds the three mechanisms a shared store lives or dies by:
//!
//! * **Workloads** — each tenant runs one of the YCSB A–F mixes
//!   ([`dcs_workloads::ycsb`]) over its own keyspace with its own zipfian
//!   skew, offered load, and arrival process.
//! * **Read caching** — every node fronts its flash with a byte-bounded,
//!   deterministic-LRU read cache ([`ReadCache`]); a hit serves the value
//!   from host DRAM as a `MemRead → NicSend` pipeline, skipping NVMe and
//!   the integrity hash entirely. A scan-resistant admission policy keeps
//!   YCSB-E range scans from flushing the hot set, and version-checked
//!   lookups (invalidated at write commit) keep every hit current — the
//!   report's `stale_served` tripwire counts any would-be violation.
//! * **QoS** — when a node saturates, parked requests are ordered by
//!   start-time weighted fair queueing with per-tenant bounds
//!   ([`FairQueue`]), so a noisy neighbor cannot starve a compliant
//!   tenant of queue space or dispatch share; FIFO is the ablation arm.
//!   Latency-critical tenants may additionally ride the ToR's
//!   strict-priority lane ([`Lane::Priority`](dcs_cluster::Lane)). Each
//!   tenant's p50/p99/p999 and SLO attainment land in the
//!   [`ClusterReport`]'s per-tenant rows.
//!
//! The store is a configuration of the rack's own front end
//! ([`dcs_cluster::ClusterDriver`] with an [`OpSource::Tenants`] source),
//! so it shares the rack's health layer: a crashed node is found by
//! heartbeats, its in-flight requests fail over, and a restarted node
//! rejoins through anti-entropy repair plus a versioned cache warm-up.
//!
//! ```
//! use dcs_store::{run_store, StoreConfig, TenantSpec};
//! use dcs_store::cache::{Admission, CacheConfig};
//! use dcs_workloads::ycsb::YcsbWorkload;
//!
//! let report = run_store(&StoreConfig {
//!     nodes: 2,
//!     tenants: vec![TenantSpec::new("hot", YcsbWorkload::C)],
//!     cache: CacheConfig { capacity_bytes: 64 << 20, admission: Admission::ScanResistant },
//!     duration_ns: dcs_sim::time::ms(3),
//!     warmup_ns: dcs_sim::time::ms(1),
//!     ..StoreConfig::default()
//! });
//! assert_eq!(report.stale_served, 0);
//! ```

pub use dcs_cluster::{cache, qos};
pub use dcs_cluster::{
    object_id, Admission, CacheConfig, FairQueue, QosPolicy, QosQueue, ReadCache, TenantSpec,
};

use dcs_cluster::{Cluster, ClusterConfig, ClusterReport, HealthConfig, Labels, LbPolicy};
use dcs_cluster::{NodeFault, OpSource, SwitchConfig};
use dcs_workloads::ycsb::YcsbWorkload;
use dcs_workloads::{DesignUnderTest, TestbedConfig};

/// A built (but not yet run) store.
pub type Store = Cluster;

/// The finished store report, left in the world when the window closes
/// (or, if a node's repair or rejoin outlives the window, when it ends).
#[derive(Debug)]
pub struct StoreOutcome(pub ClusterReport);

/// The store's names: nodes `s{i}` / `s{i}-fe`, `store`-category spans and
/// metrics, `store-*` job tags, and a [`StoreOutcome`] report.
const STORE: Labels = Labels {
    cat: "store",
    node_prefix: "s",
    frontend: "store-frontend",
    read: "store-read",
    read_hit: "store-read-hit",
    write: "store-write",
    app_read: "store-app-read",
    app_write: "store-app-write",
    deposit: |world, report| {
        world.insert(StoreOutcome(report));
    },
    take: |world| world.remove::<StoreOutcome>().map(|o| o.0),
};

/// Full description of a store experiment.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of store nodes.
    pub nodes: usize,
    /// Design each node runs (the HDC Engine, or a software baseline).
    pub design: DesignUnderTest,
    /// Load-balancing policy for reads without cache affinity.
    pub policy: LbPolicy,
    /// Replica count per object.
    pub replication: usize,
    /// Virtual nodes per physical node on the hash ring.
    pub vnodes_per_node: usize,
    /// The tenants sharing the store.
    pub tenants: Vec<TenantSpec>,
    /// Per-node read-cache provisioning.
    pub cache: CacheConfig,
    /// Admission-queue ordering on contended nodes.
    pub qos: QosPolicy,
    /// Total run length.
    pub duration_ns: u64,
    /// Warm-up trimmed from measurements.
    pub warmup_ns: u64,
    /// Per-node concurrent request limit (admission control).
    pub max_outstanding: usize,
    /// Per-tenant admission-queue bound per node (FIFO shares
    /// `queue_cap × tenants`; WFQ gives each tenant its own `queue_cap`).
    pub queue_cap: usize,
    /// Top-of-rack switch provisioning.
    pub switch: SwitchConfig,
    /// Per-node testbed parameters (SSD count, node wire).
    pub testbed: TestbedConfig,
    /// Simulation seed (drives every tenant's arrivals and key draws).
    pub seed: u64,
    /// Whole-node failures to inject. The health layer detects them by
    /// heartbeat, fails in-flight requests over (one retry each), and
    /// runs a restarted node's rejoin, cache warm-up included.
    pub node_faults: Vec<NodeFault>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            nodes: 4,
            design: DesignUnderTest::DcsCtrl,
            policy: LbPolicy::JoinShortestQueue,
            replication: 2,
            vnodes_per_node: 256,
            tenants: vec![TenantSpec::new("default", YcsbWorkload::C)],
            cache: CacheConfig::default(),
            qos: QosPolicy::Wfq,
            duration_ns: dcs_sim::time::ms(30),
            warmup_ns: dcs_sim::time::ms(5),
            max_outstanding: 48,
            queue_cap: 64,
            switch: SwitchConfig::default(),
            testbed: TestbedConfig::default(),
            seed: 0x570E,
            node_faults: vec![],
        }
    }
}

/// Builds the store: `cfg` lowered onto the shared front end with a
/// tenant op source (nodes `s{i}` / `s{i}-fe`). Device bring-up is
/// settled before traffic begins.
///
/// # Panics
///
/// Panics if `cfg.nodes` is zero or `cfg.tenants` is empty.
pub fn build_store(cfg: &StoreConfig) -> Store {
    // The store serves with the full health layer, minus hedging, and
    // retries a failed-over request once.
    let health = HealthConfig {
        hedge: false,
        request_retries: 1,
        ..HealthConfig::default()
    };
    let rack = ClusterConfig {
        nodes: cfg.nodes,
        design: cfg.design,
        policy: cfg.policy,
        replication: cfg.replication,
        vnodes_per_node: cfg.vnodes_per_node,
        duration_ns: cfg.duration_ns,
        warmup_ns: cfg.warmup_ns,
        max_outstanding: cfg.max_outstanding,
        queue_cap: cfg.queue_cap,
        switch: cfg.switch.clone(),
        testbed: cfg.testbed.clone(),
        seed: cfg.seed,
        node_faults: cfg.node_faults.clone(),
        health,
        ..ClusterConfig::default()
    };
    dcs_cluster::build_front_end(
        &rack,
        OpSource::Tenants {
            tenants: cfg.tenants.clone(),
            cache: cfg.cache,
            qos: cfg.qos,
        },
        &STORE,
    )
}

/// Builds the store, runs it to completion, and returns the measured
/// report (per-tenant rows populated).
///
/// # Panics
///
/// Panics if the simulation fails to drain or no report was produced.
pub fn run_store(cfg: &StoreConfig) -> ClusterReport {
    build_store(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_workloads::ycsb::YcsbWorkload;

    fn quick_cfg(tenants: Vec<TenantSpec>) -> StoreConfig {
        StoreConfig {
            nodes: 2,
            tenants,
            duration_ns: dcs_sim::time::ms(4),
            warmup_ns: dcs_sim::time::ms(1),
            ..StoreConfig::default()
        }
    }

    #[test]
    fn two_tenant_smoke_populates_per_tenant_rows() {
        let mut gold = TenantSpec::new("gold", YcsbWorkload::C);
        gold.offered_gbps = 1.5;
        let mut mixed = TenantSpec::new("mixed", YcsbWorkload::A);
        mixed.offered_gbps = 1.0;
        let r = run_store(&quick_cfg(vec![gold, mixed]));
        assert!(r.requests > 0, "{}", r.render("smoke"));
        assert_eq!(r.per_tenant.len(), 2);
        assert_eq!(r.per_tenant[0].name, "gold");
        assert!(r.per_tenant[0].ok > 0, "gold saw traffic");
        assert!(r.per_tenant[1].ok > 0, "mixed saw traffic");
        assert_eq!(r.stale_served, 0);
        // Workload C issues no writes; A is half writes.
        assert!(r.put_ok > 0, "workload A writes landed");
        assert!(r.get_ok > r.put_ok, "reads dominate the combined mix");
        // The render includes the tenant rows.
        let text = r.render("store");
        assert!(text.contains("tenant gold"), "{text}");
    }

    #[test]
    fn read_cache_serves_hits_and_cuts_latency() {
        let mut hot = TenantSpec::new("hot", YcsbWorkload::C);
        hot.keys = 64;
        hot.theta = 0.99;
        hot.offered_gbps = 4.0;
        let base = StoreConfig {
            duration_ns: dcs_sim::time::ms(6),
            warmup_ns: dcs_sim::time::ms(2),
            ..quick_cfg(vec![hot])
        };
        let cold = run_store(&base);
        let warm = run_store(&StoreConfig {
            cache: CacheConfig {
                capacity_bytes: 256 << 20,
                admission: Admission::AdmitAll,
            },
            ..base
        });
        assert_eq!(cold.cache_hits, 0, "no cache, no hits");
        assert!(
            warm.cache_hit_rate() > 0.5,
            "zipfian C over 512 keys should mostly hit: {:.2}",
            warm.cache_hit_rate()
        );
        assert_eq!(warm.stale_served, 0);
        assert!(
            warm.latency_us(50.0) < cold.latency_us(50.0),
            "hits skip flash: p50 {} vs {} us",
            warm.latency_us(50.0),
            cold.latency_us(50.0)
        );
    }

    #[test]
    fn writes_invalidate_and_never_serve_stale() {
        // Update-heavy A with a cache: every PUT must invalidate, and the
        // version tripwire must stay silent.
        let mut t = TenantSpec::new("ab", YcsbWorkload::A);
        t.keys = 256;
        t.offered_gbps = 1.5;
        let r = run_store(&StoreConfig {
            cache: CacheConfig {
                capacity_bytes: 64 << 20,
                admission: Admission::AdmitAll,
            },
            ..quick_cfg(vec![t])
        });
        assert!(r.put_ok > 0);
        assert!(r.cache_hits > 0, "the read half still hits between writes");
        assert_eq!(
            r.stale_served, 0,
            "invalidation on commit keeps hits current"
        );
    }

    #[test]
    fn store_run_is_deterministic() {
        let mut t = TenantSpec::new("det", YcsbWorkload::B);
        t.offered_gbps = 1.2;
        let cfg = StoreConfig {
            cache: CacheConfig {
                capacity_bytes: 32 << 20,
                admission: Admission::ScanResistant,
            },
            ..quick_cfg(vec![t])
        };
        let a = run_store(&cfg);
        let b = run_store(&cfg);
        assert_eq!(a.render("x"), b.render("x"), "byte-identical reports");
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.cache_hits, b.cache_hits);
    }

    #[test]
    fn priority_lane_tenant_runs_end_to_end() {
        let mut prio = TenantSpec::new("prio", YcsbWorkload::C);
        prio.priority = true;
        prio.offered_gbps = 0.5;
        let r = run_store(&quick_cfg(vec![prio]));
        assert!(r.requests > 0);
        assert_eq!(r.stale_served, 0);
    }
}
