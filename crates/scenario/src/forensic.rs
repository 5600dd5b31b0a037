//! Forensic capture: snapshotting a world's causal trace for
//! `rb-forensics`.
//!
//! [`capture`] freezes a traced world into a [`Capture`] (trace + role
//! map); [`trace_run`] drives the canonical benign binding life cycle —
//! the same script as [`crate::metrics_run`] — with tracing and cloud
//! forensic marks enabled, producing the benign ground-truth capture the
//! classifier must stay silent on.

use rb_core::design::VendorDesign;
use rb_forensics::{Capture, HomeRoles, RoleMap};

use crate::lifecycle::run_lifecycle;
use crate::{ChaosProfile, World, WorldBuilder};

/// Snapshots the world's trace and role assignments as a [`Capture`].
/// The world must have been built with [`WorldBuilder::trace`], or the
/// capture will be empty.
pub fn capture(world: &World) -> Capture {
    let mut node_names = vec![(world.cloud, "cloud".to_string())];
    let mut homes = Vec::new();
    for (i, home) in world.homes.iter().enumerate() {
        node_names.push((home.device, format!("device{i}")));
        node_names.push((home.app, format!("app{i}")));
        homes.push(HomeRoles {
            app: home.app,
            device: home.device,
            // Rendered exactly as the cloud's marks render them, so the
            // classifier's string joins line up.
            dev_id: home.dev_id.to_string(),
            user: home.user_id.to_string(),
        });
    }
    node_names.push((world.attacker, "attacker".to_string()));
    node_names.sort_by_key(|(id, _)| id.0);
    Capture {
        vendor: world.design.vendor.clone(),
        seed: world.seed(),
        trace: world.sim.trace().to_vec(),
        roles: RoleMap {
            cloud: world.cloud,
            attacker: Some(world.attacker),
            homes,
            node_names,
        },
    }
}

/// Runs the canonical benign binding life cycle — setup, one control
/// round-trip, an unbind, a reset-and-re-pair, a quiesce period — with
/// causal tracing on, and returns the capture. Pure function of
/// `(design, seed, profile)`.
pub fn trace_run(design: &VendorDesign, seed: u64, profile: Option<ChaosProfile>) -> Capture {
    let mut world = WorldBuilder::new(design.clone(), seed).trace().build();
    run_lifecycle(&mut world, seed, profile);
    capture(&world)
}
