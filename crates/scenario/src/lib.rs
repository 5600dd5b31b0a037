//! # rb-scenario
//!
//! Builds complete, reproducible worlds: a vendor cloud, one or more homes
//! (each a LAN with a companion app and a device), and a WAN-only attacker
//! endpoint — the exact topology of the paper's experimental setup
//! (Section VI-A), with the adversary model enforced by the network
//! simulator.
//!
//! ```rust
//! use rb_core::vendors;
//! use rb_scenario::WorldBuilder;
//!
//! let mut world = WorldBuilder::new(vendors::d_link(), 42).build();
//! world.run_setup();
//! assert!(world.app(0).is_bound());
//! ```

mod chaos;
mod forensic;
mod lifecycle;
mod observe;
mod prof;
mod raw;
mod world;

pub use chaos::ChaosProfile;
pub use forensic::{capture, trace_run};
pub use observe::{defended_metrics_run, metrics_run, metrics_run_with, monitor_run, MonitorRun};
pub use prof::{prof_run, ProfRun};
pub use raw::RawEndpoint;
pub use world::{Home, World, WorldBuilder, ATTACKER_ID, ATTACKER_PW};
