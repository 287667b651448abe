//! # dcs-cluster — multi-node DCS serving over a simulated datacenter rack
//!
//! The paper evaluates DCS-ctrl on a single server; this crate scales the
//! question up one level: *what does the HDC Engine buy a whole rack?* It
//! instantiates N independent DCS server nodes — each a full host with its
//! own PCIe fabric, NVMe SSDs, NIC, and HDC Engine (or a software-baseline
//! stack), exactly the testbed `dcs-workloads` measures — inside one
//! deterministic [`Simulator`] world, and joins them through a modeled
//! top-of-rack switch ([`TorSwitch`]) with per-port serialization, fixed
//! switching latency, and output queueing.
//!
//! In front of the rack sits a [`ClusterDriver`]: an open-loop traffic
//! generator scaling the Swift-style GET/PUT mix to the cluster's offered
//! load (or, for the `dcs-store` serving layer, per-tenant YCSB streams —
//! see [`OpSource`]), a consistent-hash object shard map with R-way replication
//! ([`HashRing`]), a pluggable load balancer ([`LbPolicy`]: round-robin,
//! least-outstanding, join-shortest-queue over a GET's replica set), and
//! per-node admission control (bounded outstanding + bounded queue, then
//! shed) so overload degrades tail latency gracefully instead of
//! collapsing.
//!
//! Everything composes with the fault layer from `dcs-sim`: a
//! [`FaultPlan`] injects wire/flash/PCIe faults inside
//! any node, and [`Degrade`] slows one node's switch port mid-run — the
//! queue-aware policies observe the backlog and reroute, which is the
//! cluster-level payoff the `repro cluster` sweep quantifies.
//!
//! Whole-node failures ([`NodeFault`]: crashes and hangs) are handled by
//! the failure-tolerance layer in [`health`]: heartbeat probing over the
//! switch's strict-priority control lane, a per-node circuit breaker,
//! replica failover with bounded retries, hedged GETs, PUT fallback to
//! surviving replicas, and bandwidth-capped re-replication of the dead
//! node's shards — the `repro cluster-failover` sweep measures detection
//! time, availability through the failure, and time-to-repair.
//!
//! ```
//! use dcs_cluster::{run_cluster, ClusterConfig, LbPolicy};
//!
//! let report = run_cluster(&ClusterConfig {
//!     nodes: 2,
//!     policy: LbPolicy::JoinShortestQueue,
//!     duration_ns: dcs_sim::time::ms(3),
//!     warmup_ns: dcs_sim::time::ms(1),
//!     ..ClusterConfig::default()
//! });
//! assert!(report.requests > 0);
//! ```

pub mod cache;
pub mod driver;
pub mod health;
pub mod policy;
pub mod qos;
pub mod report;
pub mod shard;
pub mod source;
pub mod switch;

pub use cache::{Admission, CacheConfig, ReadCache};
pub use driver::{ClusterConfig, ClusterDriver, ClusterNode, ClusterOutcome, Degrade, NodeFault};
pub use health::{
    BreakerState, HealthConfig, HealthMonitor, NodeState, SlowTransition, Transition,
};
pub use policy::{LbPolicy, NodeLoad};
pub use qos::{FairQueue, QosPolicy, QosQueue};
pub use report::{ClusterReport, NodePerf, PhasePerf, TenantPerf};
pub use shard::HashRing;
pub use source::{object_id, Labels, OpSource, TenantSpec, RACK};
pub use switch::{Lane, SwitchConfig, TorSwitch};

use dcs_sim::{ComponentId, FaultPlan, Simulator};
use dcs_workloads::build_testbed_nodes;

/// A built (but not yet run) cluster or store.
pub struct Cluster {
    /// The simulator holding every node and the front end.
    pub sim: Simulator,
    /// The front-end driver component.
    pub frontend: ComponentId,
    /// The nodes, indexed consistently with the shard map and report.
    pub nodes: Vec<ClusterNode>,
    /// The configuration's labels (they say where the report lands).
    labels: &'static Labels,
}

impl Cluster {
    /// Runs the simulation to completion and returns the measured report.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails to drain, a request leg outlives
    /// the drain (it would vanish from the availability accounting), or
    /// no report was produced.
    pub fn run(mut self) -> ClusterReport {
        self.sim.run();
        self.sim.kickoff(self.frontend, driver::Drained);
        self.sim.run();
        assert!(self.sim.is_idle(), "simulation must drain");
        (self.labels.take)(self.sim.world_mut())
            .expect("the front end leaves a report in the world")
    }
}

/// Builds the rack: the Swift GET/PUT mix over `cfg` (see
/// [`build_front_end`]).
///
/// # Panics
///
/// Panics if `cfg.nodes` is zero.
pub fn build_cluster(cfg: &ClusterConfig) -> Cluster {
    build_front_end(cfg, OpSource::Swift, &RACK)
}

/// Builds N server/access node pairs (named after `labels`), the optional
/// fault plan, and the started front end offering `source`'s traffic.
/// Device bring-up is settled before traffic begins.
///
/// # Panics
///
/// Panics if `cfg.nodes` is zero, or a tenant source has no tenants.
pub fn build_front_end(cfg: &ClusterConfig, source: OpSource, labels: &'static Labels) -> Cluster {
    assert!(cfg.nodes > 0, "a cluster needs at least one node");
    let mut sim = Simulator::new(cfg.seed);
    let mut nodes = Vec::with_capacity(cfg.nodes);
    for i in 0..cfg.nodes {
        let name = format!("{}{i}", labels.node_prefix);
        let (server, access) = build_testbed_nodes(
            &mut sim,
            cfg.design,
            &cfg.testbed,
            &name,
            &format!("{name}-fe"),
        );
        nodes.push(ClusterNode { server, access });
    }
    // Settle bring-up (queue attach, ring config) before traffic starts.
    sim.run();
    if cfg.fault_rate > 0.0 {
        let rng = sim.world_mut().rng.fork();
        sim.world_mut()
            .insert(FaultPlan::uniform(cfg.fault_rate, rng));
    }
    let rng = sim.world_mut().rng.fork();
    let frontend = sim.add(
        labels.frontend,
        ClusterDriver::new(cfg.clone(), source, labels, nodes.clone(), rng),
    );
    sim.kickoff(frontend, driver::Start);
    Cluster {
        sim,
        frontend,
        nodes,
        labels,
    }
}

/// Builds the rack, runs it to completion, and returns the measured
/// report.
///
/// # Panics
///
/// Panics if the simulation fails to drain (a stuck request) or no report
/// was produced.
pub fn run_cluster(cfg: &ClusterConfig) -> ClusterReport {
    build_cluster(cfg).run()
}
