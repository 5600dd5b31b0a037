//! The canonical profiling scenario behind `rbsim prof`.
//!
//! [`prof_run`] drives the same binding life cycle as
//! [`metrics_run`](crate::metrics_run) — setup, a control round-trip, an
//! unbind, a factory reset, a re-bind, and a quiesce period — but with a
//! recording [`Profiler`] threaded through every tick-consuming layer. The
//! result answers "where do the ticks go": scenario phases at the root,
//! the sim's per-event phases (`sim.deliver`, `sim.timer`, …) nested
//! underneath, and the cloud's codec/dispatch tallies under those.
//!
//! Determinism: the run is sim-clocked, so the folded-stack export and the
//! hot-phase table are byte-identical across reruns of the same
//! `(design, seed)` — asserted in `tests/prof.rs` and pinned by the
//! `tp_link_folded.txt` golden.

use rb_core::design::VendorDesign;
use rb_prof::{PhaseProfile, Profiler};

use crate::lifecycle::run_lifecycle;
use crate::WorldBuilder;

/// The artifacts of one [`prof_run`].
#[derive(Debug, Clone)]
pub struct ProfRun {
    /// The accumulated phase tree (scenario phases at the root).
    pub profile: PhaseProfile,
    /// Whether setup converged within the tick budget.
    pub converged: bool,
    /// Simulated time when the run finished.
    pub end_tick: u64,
}

/// Runs the canonical binding life cycle with profiling on and returns
/// the phase tree.
pub fn prof_run(design: &VendorDesign, seed: u64) -> ProfRun {
    let profiler = Profiler::new();
    let mut world = WorldBuilder::new(design.clone(), seed)
        .with_profiler(profiler.clone())
        .build();
    let converged = run_lifecycle(&mut world, seed, None);
    ProfRun {
        profile: profiler.snapshot(),
        converged,
        end_tick: world.now().as_u64(),
    }
}
