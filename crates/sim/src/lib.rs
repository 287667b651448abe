//! # dcs-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the DCS-ctrl reproduction: a small,
//! deterministic, single-threaded discrete-event simulator on which the PCIe
//! fabric, the peripheral devices, the host software stack, and the HDC
//! Engine itself are built.
//!
//! The design is component/message based:
//!
//! * A [`Simulator`] owns a calendar queue of timestamped [`Msg`]s and a set
//!   of [`Component`]s addressed by [`ComponentId`].
//! * Components react to messages in [`Component::handle`] and schedule new
//!   messages through the [`Ctx`] handed to them.
//! * Shared, cross-component state (physical memories, global statistics)
//!   lives in the [`World`], a typed singleton store accessible from `Ctx`.
//!
//! Determinism: events with equal timestamps are delivered in scheduling
//! order (a monotone sequence number breaks ties), and the only randomness
//! is the seedable [`rng::Rng`] kept in the `World`. Running the same
//! scenario twice yields identical results — a property the experiment
//! harness relies on and the test suite asserts.
//!
//! ```
//! use dcs_sim::{Simulator, Component, Ctx, Msg, SimTime};
//!
//! #[derive(Debug)]
//! struct Ping(u32);
//!
//! struct Counter { seen: u32 }
//! impl Component for Counter {
//!     fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
//!         let ping = msg.downcast::<Ping>().expect("only pings are sent here");
//!         self.seen += ping.0;
//!         if self.seen < 3 {
//!             ctx.send_self_in(dcs_sim::time::us(1), Ping(1));
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(42);
//! let counter = sim.add("counter", Counter { seen: 0 });
//! sim.kickoff(counter, Ping(1));
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_us(2));
//! ```

pub(crate) mod calendar;
pub mod component;
pub mod engine;
pub mod event;
pub mod fault;
pub mod fuzz;
pub mod integrity;
pub mod obs;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod world;

pub use component::{Component, ComponentId};
pub use engine::{Ctx, Simulator};
pub use event::{Msg, Payload};
pub use fault::{FaultPlan, FaultSpec, RecoveryConfig};
pub use fuzz::{Counterexample, FuzzCase, FuzzConfig, FuzzReport, RunOutcome, Violation};
pub use integrity::{fnv1a64, AuditEntry, IntegrityAudit};
pub use obs::{
    chrome_trace, Anatomy, Json, MetricEntry, MetricValue, MetricsRegistry, MetricsReport,
    Recorder, Span,
};
pub use queue::{FifoServer, LineServer, ServerBank};
pub use rng::Rng;
pub use stats::{BusyTracker, Counter, Histogram};
pub use time::{Bandwidth, SimTime};
pub use trace::{Breakdown, Category};
pub use world::World;
