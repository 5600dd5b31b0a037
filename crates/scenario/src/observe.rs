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
//! [`monitor_run`] is the monitor-enabled counterpart: one benign home
//! plus a scripted WAN attacker under the hardened defense policy.
//!
//! Determinism: each run is a pure function of its arguments. Two
//! invocations with the same arguments produce byte-identical JSON and
//! Prometheus exports (asserted in `tests/telemetry.rs`).

use rb_cloud::DefensePolicy;
use rb_core::design::{BindScheme, VendorDesign};
use rb_netsim::Telemetry;
use rb_wire::envelope::CorrId;
use rb_wire::messages::{
    BindPayload, DeviceAttributes, Message, Response, StatusAuth, StatusPayload, UnbindPayload,
};
use rb_wire::tokens::{UserId, UserPw, UserToken};

use crate::lifecycle::{run_lifecycle, PHASE_TICKS};
use crate::{ChaosProfile, World, WorldBuilder, ATTACKER_ID, ATTACKER_PW};

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

/// The canonical monitor-enabled scenario: one benign home plus a scripted
/// WAN attacker, with the hardened [`DefensePolicy`] installed.
///
/// The attacker walks the ID space (enumeration), forges a device
/// registration (session move / impossible transition on register-reset
/// designs), fires an unauthorized unbind, and binds with its own account
/// where the design's bind shape permits — so every detector the design
/// can feasibly trip is exercised. `rbsim monitor`, the monitor-enabled
/// Prometheus golden, and `exp_defense` all consume this exact scenario.
pub fn monitor_run(design: &VendorDesign, seed: u64) -> MonitorRun {
    let mut world = WorldBuilder::new(design.clone(), seed)
        .defense(DefensePolicy::hardened())
        .build();
    let converged = world.try_run_setup(300_000);
    let dev_id = world.homes[0].dev_id.clone();
    let attacker = world.attacker;
    let mut corr = 1_000;
    let mut ask = |world: &mut World, msg: Message, wait: u64| {
        corr += 1;
        world.request_from(attacker, CorrId(corr), msg, wait)
    };

    // Attacker signs in with its own (legitimately created) account.
    let login = Message::Login {
        user_id: UserId::new(ATTACKER_ID),
        user_pw: UserPw::new(ATTACKER_PW),
    };
    let token = match ask(&mut world, login, 2_000) {
        Some(Response::LoginOk { user_token }) => user_token,
        _ => UserToken::from_entropy(0),
    };

    // ID-space sweep: ten probes against sequential (mostly unknown)
    // DevIds — the enumeration-rate signature.
    for i in 1..=10u64 {
        let probe = design.id_scheme.id_at(1_000 + i);
        let _ = ask(
            &mut world,
            Message::Unbind(UnbindPayload::DevIdUserToken {
                dev_id: probe,
                user_token: token,
            }),
            500,
        );
    }

    // A forged device registration from the WAN (session move; on
    // register-reset designs also the impossible shadow transition).
    let _ = ask(
        &mut world,
        Message::Status(StatusPayload::register(
            StatusAuth::DevId(dev_id.clone()),
            dev_id.clone(),
            DeviceAttributes::default(),
        )),
        2_000,
    );

    // An unauthorized unbind against the victim's device.
    let unbind = if design.unbind.dev_id_only {
        UnbindPayload::DevIdOnly {
            dev_id: dev_id.clone(),
        }
    } else {
        UnbindPayload::DevIdUserToken {
            dev_id: dev_id.clone(),
            user_token: token,
        }
    };
    let _ = ask(&mut world, Message::Unbind(unbind), 2_000);

    // Repeated binds with the attacker's own account (contested-binding on
    // rejecting designs, displacement + remote-only-bind on replacing
    // ones). The capability shape needs a device round trip the WAN
    // attacker does not have, so it is skipped there.
    let bind = match design.bind {
        BindScheme::AclApp => Some(BindPayload::AclApp {
            dev_id: dev_id.clone(),
            user_token: token,
        }),
        BindScheme::AclDevice => Some(BindPayload::AclDevice {
            dev_id: dev_id.clone(),
            user_id: UserId::new(ATTACKER_ID),
            user_pw: UserPw::new(ATTACKER_PW),
        }),
        BindScheme::Capability => None,
    };
    if let Some(payload) = bind {
        for _ in 0..3 {
            let _ = ask(&mut world, Message::Bind(payload.clone()), 1_000);
        }
    }

    // Quiesce: the victim's device keeps heartbeating, defenses settle.
    world.run_for(PHASE_TICKS);

    let monitor = world.cloud().monitor();
    MonitorRun {
        alert_stream: monitor.render_alert_stream(),
        state: monitor.render_state(),
        telemetry: world.telemetry().clone(),
        converged,
    }
}
