//! Forensic capture: snapshotting a world's causal trace for
//! `rb-forensics`.
//!
//! [`capture`] freezes a traced world into a [`Capture`] (trace + role
//! map); [`trace_run`] drives the canonical benign binding life cycle —
//! the same phases as [`crate::metrics_run`] — with tracing and cloud
//! forensic marks enabled, producing the benign ground-truth capture the
//! classifier must stay silent on.

use rb_core::design::VendorDesign;
use rb_forensics::{Capture, HomeRoles, RoleMap};
use rb_wire::messages::ControlAction;

use crate::{ChaosProfile, World, WorldBuilder};

/// How long each post-setup phase of the canonical traced scenario runs
/// (matches `metrics_run`).
const PHASE_TICKS: u64 = 10_000;

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
    if let Some(profile) = profile {
        let plan = profile.plan(&world, seed);
        world.apply_fault_plan(&plan);
    }
    let converged = world.try_run_setup(300_000);
    if converged {
        world.app_mut(0).queue_control(ControlAction::TurnOn);
        world.run_for(PHASE_TICKS);
        world.app_mut(0).queue_unbind();
        world.run_for(PHASE_TICKS);
        world.device_mut(0).queue_reset();
        world.run_for(PHASE_TICKS);
        world.app_mut(0).restart_setup();
        world.try_run_setup(300_000);
    }
    world.run_for(PHASE_TICKS);
    capture(&world)
}
