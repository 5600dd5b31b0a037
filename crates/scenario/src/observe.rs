//! The canonical observability scenarios.
//!
//! [`metrics_run`] drives one home through the canonical binding life
//! cycle ([`crate::lifecycle`]: setup, a control round-trip, an unbind, a
//! factory reset, a re-bind, and a quiesce period) with every layer (sim
//! engine, cloud, app, device) recording into one shared [`Telemetry`]
//! registry. `rbsim metrics`, the pinned Prometheus golden, and the
//! `exp_observability` bench all consume this exact scenario, so a metric
//! that drifts shows up identically in all three.
//!
//! The monitor-enabled counterpart, one benign home plus a scripted WAN
//! attacker under the hardened defense policy, is `rb_attack::monitor_run`:
//! this crate builds worlds and forges nothing.
//!
//! Determinism: each run is a pure function of its arguments. Two
//! invocations with the same arguments produce byte-identical JSON and
//! Prometheus exports (asserted in `tests/telemetry.rs`).

use rb_cloud::DefensePolicy;
use rb_core::design::VendorDesign;
use rb_netsim::Telemetry;

use crate::lifecycle::run_lifecycle;
use crate::{ChaosProfile, WorldBuilder};

/// Runs the canonical binding life cycle (setup, control, unbind, factory
/// reset, re-bind, quiesce) on a pristine world and returns the shared
/// metrics registry.
pub fn metrics_run(design: &VendorDesign, seed: u64) -> Telemetry {
    metrics_run_with(design, seed, None)
}

/// Like [`metrics_run`], optionally disturbed by a [`ChaosProfile`] fault
/// plan (the chaos experiments compare profiles through their telemetry).
pub fn metrics_run_with(
    design: &VendorDesign,
    seed: u64,
    profile: Option<ChaosProfile>,
) -> Telemetry {
    defended_metrics_run(design, seed, profile, DefensePolicy::disabled())
}

/// Like [`metrics_run_with`], with a [`DefensePolicy`] installed — the
/// precision leg of `exp_defense`: the benign lifecycle under the hardened
/// monitor must raise zero alerts and draw zero interventions, chaos or
/// not. Passing [`DefensePolicy::disabled`] reproduces [`metrics_run_with`]
/// byte-for-byte.
pub fn defended_metrics_run(
    design: &VendorDesign,
    seed: u64,
    profile: Option<ChaosProfile>,
    policy: DefensePolicy,
) -> Telemetry {
    let mut world = WorldBuilder::new(design.clone(), seed)
        .defense(policy)
        .build();
    run_lifecycle(&mut world, seed, profile);
    world.telemetry().clone()
}
