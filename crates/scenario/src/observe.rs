//! The canonical observability scenario.
//!
//! [`metrics_run`] drives one home through the full binding life cycle —
//! setup, a control round-trip, an unbind, a re-bind, and a quiesce period
//! — with every layer (sim engine, cloud, app, device) recording into one
//! shared [`Telemetry`] registry. `rbsim metrics`, the pinned Prometheus
//! golden, and the `exp_observability` bench all consume this exact
//! scenario, so a metric that drifts shows up identically in all three.
//!
//! Determinism: the run is a pure function of `(design, seed, profile)`.
//! Two invocations with the same arguments produce byte-identical JSON and
//! Prometheus exports (asserted in `tests/telemetry.rs`).

use rb_cloud::DefensePolicy;
use rb_core::design::{BindScheme, VendorDesign};
use rb_netsim::{Dest, Telemetry};
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::messages::{
    BindPayload, ControlAction, DeviceAttributes, Message, Response, StatusAuth, StatusPayload,
    UnbindPayload,
};
use rb_wire::tokens::{UserId, UserPw, UserToken};

use crate::{ChaosProfile, World, WorldBuilder};

/// How long each post-setup phase of the canonical scenario runs.
const PHASE_TICKS: u64 = 10_000;

/// Runs the canonical binding-life-cycle scenario on a pristine world and
/// returns the shared metrics registry.
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
    lifecycle_run(&mut world, seed, profile)
}

/// Drives the canonical binding life cycle on an already-built world.
fn lifecycle_run(world: &mut World, seed: u64, profile: Option<ChaosProfile>) -> Telemetry {
    if let Some(profile) = profile {
        let plan = profile.plan(world, seed);
        world.apply_fault_plan(&plan);
    }
    // Phase 1: setup. Under chaos this may legitimately not converge;
    // the registry then records the give-ups and retries instead.
    let converged = world.try_run_setup(300_000);
    world
        .telemetry()
        .gauge_set("scenario_setup_converged", i64::from(converged));

    if converged {
        // Phase 2: one control round-trip (Bound → Control transition and
        // a device command).
        world.app_mut(0).queue_control(ControlAction::TurnOn);
        world.run_for(PHASE_TICKS);

        // Phase 3: unbind ("remove device" in the app) ...
        world.app_mut(0).queue_unbind();
        world.run_for(PHASE_TICKS);

        // Phase 4: ... and re-bind, populating the unbind-to-rebind
        // window histogram. The device is factory-reset first — a
        // cloud-side unbind does not make a device-bind design re-send
        // its Bind, so "remove device, reset it, add it again" is the
        // realistic re-pairing flow for every design.
        world.device_mut(0).queue_reset();
        // The reset executes on the device's next heartbeat tick; let it
        // land before the user re-opens the app, or the fresh pairing
        // material would be wiped mid-provisioning.
        world.run_for(PHASE_TICKS);
        world.app_mut(0).restart_setup();
        world.try_run_setup(300_000);
    }

    // Phase 5: quiesce — heartbeats keep flowing so steady-state counters
    // separate from the setup burst.
    world.run_for(PHASE_TICKS);

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

/// Sends one forged request from the world's raw attacker endpoint and
/// waits for the matching reply.
fn attacker_request(world: &mut World, corr: u64, msg: Message, wait: u64) -> Option<Response> {
    let cloud = world.cloud;
    world.attacker_mut().queue(
        Dest::Unicast(cloud),
        Envelope::Request {
            corr: CorrId(corr),
            msg,
        }
        .encode(),
    );
    world.run_for(wait);
    for (_, bytes) in world.attacker_mut().take_inbox() {
        if let Ok(Envelope::Response { corr: c, rsp }) = Envelope::decode(&bytes) {
            if c == CorrId(corr) {
                return Some(rsp);
            }
        }
    }
    None
}

/// The canonical monitor-enabled scenario: one benign home plus a scripted
/// WAN attacker, with the hardened [`DefensePolicy`] installed and the
/// netsim stream tap on.
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
        .stream_tap()
        .build();
    let converged = world.try_run_setup(300_000);
    let dev_id = world.homes[0].dev_id.clone();
    let mut corr = 1_000;
    let mut next = || {
        corr += 1;
        corr
    };

    // Attacker signs in with its own (legitimately created) account.
    let token = match attacker_request(
        &mut world,
        next(),
        Message::Login {
            user_id: UserId::new("attacker@evil.example"),
            user_pw: UserPw::new("attacker-pw"),
        },
        2_000,
    ) {
        Some(Response::LoginOk { user_token }) => Some(user_token),
        _ => None,
    };
    let token = token.unwrap_or_else(|| UserToken::from_entropy(0));

    // ID-space sweep: ten probes against sequential (mostly unknown)
    // DevIds — the enumeration-rate signature.
    for i in 1..=10u64 {
        let probe = design.id_scheme.id_at(1_000 + i);
        let _ = attacker_request(
            &mut world,
            next(),
            Message::Unbind(UnbindPayload::DevIdUserToken {
                dev_id: probe,
                user_token: token,
            }),
            500,
        );
    }

    // A forged device registration from the WAN (session move; on
    // register-reset designs also the impossible shadow transition).
    let _ = attacker_request(
        &mut world,
        next(),
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
    let _ = attacker_request(&mut world, next(), Message::Unbind(unbind), 2_000);

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
            user_id: UserId::new("attacker@evil.example"),
            user_pw: UserPw::new("attacker-pw"),
        }),
        BindScheme::Capability => None,
    };
    if let Some(payload) = bind {
        for _ in 0..3 {
            let _ = attacker_request(&mut world, next(), Message::Bind(payload.clone()), 1_000);
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
