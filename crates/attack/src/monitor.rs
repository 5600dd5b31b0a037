//! The canonical monitor-enabled scenario: one benign home plus a
//! scripted WAN attacker, with the hardened [`DefensePolicy`] installed.
//!
//! Determinism: each run is a pure function of `(design, seed)`. Two
//! invocations produce byte-identical alert streams, state renders and
//! Prometheus exports (pinned in `tests/monitor.rs`).

use rb_cloud::DefensePolicy;
use rb_core::design::VendorDesign;
use rb_netsim::Telemetry;
use rb_scenario::{World, WorldBuilder, PHASE_TICKS};
use rb_wire::ids::DevId;

use crate::acts::AtkStep;
use crate::adversary::Adversary;

/// The artifacts of one [`monitor_run`]: byte-stable renders of the
/// streaming monitor's output plus the shared metrics registry. Two runs
/// with the same `(design, seed)` produce identical strings — the
/// determinism gate `exp_defense` enforces at 1, 4, and 8 threads.
#[derive(Debug, Clone)]
pub struct MonitorRun {
    /// The shared metrics registry (alert counters, detection-latency
    /// histograms, mitigation counters all live here).
    pub telemetry: Telemetry,
    /// `t=<tick> <alert>` lines, one per alert, in raise order.
    pub alert_stream: String,
    /// The monitor's deterministic state summary.
    pub state: String,
    /// Whether benign setup converged before the attacker script ran.
    pub converged: bool,
}

/// Runs the scripted attacker against one benign home of `design`.
///
/// The attacker logs into its own account, walks the ID space
/// (enumeration), forges a device registration (session move / impossible
/// transition on register-reset designs), fires an unauthorized unbind,
/// and binds with its own account where the design's bind shape permits
/// — so every detector the design can feasibly trip is exercised. Every
/// message comes from the forger ([`AtkStep::forge`]) and goes through
/// one [`Adversary`]. `rbsim monitor`, the monitor-enabled Prometheus
/// golden, and `exp_defense` all consume this exact scenario.
///
/// # Panics
///
/// Panics if the attacker's login fails (a harness bug: the world builder
/// always provisions the attacker account).
pub fn monitor_run(design: &VendorDesign, seed: u64) -> MonitorRun {
    let mut world = WorldBuilder::new(design.clone(), seed)
        .defense(DefensePolicy::hardened())
        .build();
    let converged = world.try_run_setup(300_000);
    let dev_id = world.homes[0].dev_id.clone();
    let mut adv = Adversary::new();
    let token = Some(adv.login(&mut world));
    let mut send = |world: &mut World, step: AtkStep, dev_id: &DevId, wait: u64| {
        if let Some(msg) = step.forge(design, dev_id, token) {
            adv.request_wait(world, msg, wait);
        }
    };

    // ID-space sweep: ten token unbinds against sequential (mostly
    // unknown) DevIds — the enumeration-rate signature.
    for i in 1..=10u64 {
        let probe = design.id_scheme.id_at(1_000 + i);
        send(&mut world, AtkStep::UnbindToken, &probe, 500);
    }

    // A forged device registration from the WAN (session move; on
    // register-reset designs also the impossible shadow transition).
    send(&mut world, AtkStep::Register, &dev_id, 2_000);

    // An unauthorized unbind against the victim's device.
    let unbind = if design.unbind.dev_id_only {
        AtkStep::UnbindBare
    } else {
        AtkStep::UnbindToken
    };
    send(&mut world, unbind, &dev_id, 2_000);

    // Repeated binds with the attacker's own account (contested-binding on
    // rejecting designs, displacement + remote-only-bind on replacing
    // ones). The capability shape needs a device round trip the WAN
    // attacker does not have, so the forger has nothing to send there.
    for _ in 0..3 {
        send(&mut world, AtkStep::Bind, &dev_id, 1_000);
    }

    // Quiesce for one life-cycle phase: the victim's device keeps
    // heartbeating and defenses settle.
    world.run_for(PHASE_TICKS);

    let monitor = world.cloud().monitor();
    MonitorRun {
        alert_stream: monitor.render_alert_stream(),
        state: monitor.render_state(),
        telemetry: world.telemetry().clone(),
        converged,
    }
}
