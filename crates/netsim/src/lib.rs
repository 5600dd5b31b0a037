//! # rb-netsim
//!
//! A deterministic discrete-event network simulator for three-party IoT
//! topologies: devices and companion apps live on home LANs behind a
//! firewall, the cloud and the attacker live on the WAN.
//!
//! The simulator enforces the paper's adversary model structurally
//! (Section III-A): "we assume the adversary cannot access user's local
//! networks" — a WAN-only node can neither receive LAN broadcasts nor
//! deliver packets to a LAN-only port. All the attacks in `rb-attack`
//! therefore travel the same WAN path a real remote attacker would use.
//!
//! ## Model
//!
//! * [`Simulation`] owns a set of [`Actor`]s, a virtual clock measured in
//!   [`Tick`]s, and a priority queue of scheduled events.
//! * Actors communicate only by sending byte payloads through their
//!   [`Ctx`]; the network applies per-domain latency, jitter, and loss from
//!   [`LinkQuality`], all drawn from one seeded RNG, so a given seed always
//!   produces the identical execution.
//! * Node connectivity ([`NodeConfig`]) defines LAN membership and WAN
//!   access; [`Simulation::set_power`] and [`Simulation::partition_wan`]
//!   model power-offs and connection disruptions.
//!
//! ## Example
//!
//! ```rust
//! use bytes::Bytes;
//! use rb_netsim::{Actor, Ctx, Dest, NodeConfig, Simulation, Tick};
//!
//! struct Echo;
//! impl Actor for Echo {
//!     fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: rb_netsim::NodeId, payload: &Bytes) {
//!         let mut reply = payload.to_vec();
//!         reply.reverse();
//!         ctx.send(Dest::Unicast(from), reply);
//!     }
//! }
//!
//! struct Probe { got: Option<Vec<u8>>, peer: rb_netsim::NodeId }
//! impl Actor for Probe {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(Dest::Unicast(self.peer), b"ping".to_vec());
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: rb_netsim::NodeId, payload: &Bytes) {
//!         self.got = Some(payload.to_vec());
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let echo = sim.add_node(NodeConfig::wan_only("echo"), Box::new(Echo));
//! let probe = sim.add_node(NodeConfig::wan_only("probe"), Box::new(Probe { got: None, peer: echo }));
//! sim.run_until(Tick(1000));
//! let probe_actor = sim.actor::<Probe>(probe).unwrap();
//! assert_eq!(probe_actor.got.as_deref(), Some(&b"gnip"[..]));
//! ```

mod actor;
mod fault;
mod quality;
mod retry;
mod rng;
mod sim;
mod time;
mod topology;
mod trace;

pub use actor::{Actor, Ctx, TimerKey};
pub use fault::{Fault, FaultPlan};
pub use quality::LinkQuality;
pub use retry::{Retry, RetryPolicy};
pub use rng::SimRng;
pub use sim::{Dest, NodeConfig, Simulation};
pub use time::Tick;
pub use topology::{LanId, NodeId};
pub use trace::{TraceCtx, TraceEntry, TraceEvent, TraceParseError};

// Re-exported so actors and harnesses can record into the simulation's
// registry without naming the telemetry crate themselves.
pub use rb_telemetry::{self as telemetry, Telemetry};

// Likewise for the phase profiler the simulation can carry.
pub use rb_prof::{self as prof, Profiler};
