//! Discrete-event simulation kernel for the UnifyFL reproduction.
//!
//! The paper evaluates UnifyFL on two physical testbeds (a 4-node GPU cluster
//! and a heterogeneous edge cluster). This crate replaces those testbeds with
//! a deterministic virtual-time substrate:
//!
//! - [`clock`] — virtual time ([`SimTime`], [`SimDuration`]) with millisecond
//!   resolution.
//! - [`engine`] — a generic, deterministic [`EventQueue`] that orders events
//!   by time with FIFO tie-breaking. Besides the
//!   per-experiment kernels, the core service layer reuses it keyed by run
//!   id as the cross-run scheduler that leases worker slices to whichever
//!   run sits earliest in virtual time.
//! - [`device`] — [`DeviceProfile`]s describing compute/network capabilities
//!   of the paper's node types (GPU node, edge CPU, Raspberry Pi 400, Jetson
//!   Nano, Docker container) and converting work (flops, bytes) to virtual
//!   durations.
//! - [`resources`] — per-process CPU%/memory accounting used to regenerate
//!   Table 7 of the paper.
//! - [`rng`] — a [`SeedTree`] that fans a single experiment seed out into
//!   independent, labelled deterministic RNG streams.
//! - [`fault`] — the seeded fault-injection vocabulary ([`ChaosConfig`] →
//!   [`FaultPlan`]): cluster crash/restart/leave, latency spikes, clock
//!   skew, plus the knobs the storage and chain injectors consume.
//!
//! # Example
//!
//! ```
//! use unifyfl_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(5), "train-done");
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(2), "block-sealed");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "block-sealed");
//! assert_eq!(t.as_secs_f64(), 2.0);
//! ```

pub mod clock;
pub mod device;
pub mod engine;
pub mod fault;
pub mod resources;
pub mod rng;

pub use clock::{SimDuration, SimTime};
pub use device::DeviceProfile;
pub use engine::EventQueue;
pub use fault::{ChaosConfig, FaultEvent, FaultKind, FaultPlan, FaultRecord};
pub use resources::{ResourceMonitor, ResourceSummary};
pub use rng::SeedTree;
