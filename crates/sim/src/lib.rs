//! Deterministic virtual-time cluster simulator.
//!
//! This crate provides the execution substrate for the Midway DSM
//! reproduction: a fixed set of simulated processors, each with its own
//! virtual cycle clock, communicating only through a simulated
//! message-passing network (modelled on the ATM cluster used in the paper).
//!
//! # Determinism
//!
//! Every simulated processor is a future, and [`Cluster::run_async`] polls
//! them all on the calling thread. The scheduler delivers a pending
//! message only when *every* processor is parked (awaiting a receive) or
//! finished, and it always delivers the globally minimal event under the
//! total order `(delivery time, source, per-source sequence number)`. A
//! woken processor advances its clock to the delivery time before it can
//! send again, so deliveries are nondecreasing in virtual time and the
//! entire execution — every clock value, counter, and message — is a pure
//! function of the program being simulated. The threaded [`Cluster::run`]
//! (a thread per processor) drives the same scheduler to the same result.
//!
//! # Examples
//!
//! ```
//! use midway_sim::{Cluster, ClusterConfig, NetModel, ProcHandle};
//!
//! // Two processors play ping-pong once.
//! let cfg = ClusterConfig::new(2).net(NetModel::ideal());
//! let outcome = Cluster::run_async(cfg, async |p: &mut ProcHandle<&str>| {
//!     if p.id() == 0 {
//!         p.send(1, "ping", 4);
//!         let (_t, _src, msg) = p.recv_async().await;
//!         assert_eq!(msg, "pong");
//!     } else {
//!         let (_t, _src, msg) = p.recv_async().await;
//!         assert_eq!(msg, "ping");
//!         p.send(0, "pong", 4);
//!     }
//!     p.id()
//! })
//! .unwrap();
//! assert_eq!(outcome.results, vec![0, 1]);
//! ```

mod clock;
mod cluster;
mod event;
mod fault;
mod net;
mod rng;
mod sched;
mod time;

pub use clock::{Category, CpuClock, CATEGORY_COUNT};
pub use cluster::{Cluster, ClusterConfig, ProcHandle, ProcReport, RunOutcome, SimError};
pub use fault::{CrashEvent, FaultDecision, FaultPlan, FaultStats, MAX_CRASHES};
pub use net::NetModel;
pub use rng::SplitMix64;
pub use sched::SchedStats;
pub use time::VirtualTime;
