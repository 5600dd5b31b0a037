//! The canonical binding life cycle, scripted once.
//!
//! The paper explains each Table III outcome by replaying one binding life
//! cycle (§IV–V). [`run_lifecycle`] is that replay: setup, one control
//! round-trip, an unbind, a factory reset, a re-bind, and a quiesce period.
//! [`crate::metrics_run`], [`crate::trace_run`] and [`crate::prof_run`]
//! each build a world with their own record switched on, run this script,
//! and read that record — so the metrics, the causal trace and the phase
//! profile describe the same run.

use rb_prof::phase;
use rb_wire::messages::ControlAction;

use crate::{ChaosProfile, World};

/// How long each post-setup phase of the canonical life cycle runs.
pub(crate) const PHASE_TICKS: u64 = 10_000;

/// Tick budget for a setup (and the re-bind) to converge.
const SETUP_TICKS: u64 = 300_000;

/// Drives the canonical life cycle on `world`, first scheduling the fault
/// plan of `profile` (drawn from `seed`) when one is given. Each phase is
/// bracketed as `scenario.<phase>` on the world's profiler, which records
/// nothing unless the world was built with a recording one. Returns
/// whether the first setup converged; when it did not, the run skips to
/// the quiesce phase.
pub(crate) fn run_lifecycle(world: &mut World, seed: u64, profile: Option<ChaosProfile>) -> bool {
    if let Some(profile) = profile {
        let plan = profile.plan(world, seed);
        world.apply_fault_plan(&plan);
    }
    let prof = world.sim.profiler().clone();

    // Setup. Under chaos this may legitimately not converge; the records
    // then hold the give-ups and retries instead.
    let converged = phase!(
        prof,
        world.now().as_u64(),
        "scenario.setup",
        world.try_run_setup(SETUP_TICKS)
    );
    world
        .telemetry()
        .register_gauge("scenario_setup_converged")
        .set(i64::from(converged));

    if converged {
        // One control round-trip (Bound → Control and a device command).
        phase!(prof, world.now().as_u64(), "scenario.control", {
            world.app_mut(0).queue_control(ControlAction::TurnOn);
            world.run_for(PHASE_TICKS);
        });

        // Unbind ("remove device" in the app).
        phase!(prof, world.now().as_u64(), "scenario.unbind", {
            world.app_mut(0).queue_unbind();
            world.run_for(PHASE_TICKS);
        });

        // Factory reset. A cloud-side unbind does not make a device-bind
        // design re-send its Bind, so "remove device, reset it, add it
        // again" is the re-pairing flow every design supports. The reset
        // executes on the device's next heartbeat; let it land before the
        // user re-opens the app, or the fresh pairing material would be
        // wiped mid-provisioning.
        phase!(prof, world.now().as_u64(), "scenario.reset", {
            world.device_mut(0).queue_reset();
            world.run_for(PHASE_TICKS);
        });

        // Re-bind from scratch, populating the unbind-to-rebind window.
        phase!(prof, world.now().as_u64(), "scenario.rebind", {
            world.app_mut(0).restart_setup();
            world.try_run_setup(SETUP_TICKS);
        });
    }

    // Quiesce: heartbeats keep flowing, so steady-state counters separate
    // from the setup burst.
    phase!(
        prof,
        world.now().as_u64(),
        "scenario.quiesce",
        world.run_for(PHASE_TICKS)
    );
    converged
}
