//! One executor per attack of Table II.
//!
//! Each executor builds a fresh world for its vendor design, drives the
//! victim to the attack's *targeted state*, performs the forgery over the
//! WAN, and classifies the outcome from observable evidence — the same
//! methodology as the paper's Section VI (response messages and end-to-end
//! effects), including the honesty rule that attacks requiring unknown
//! device-message formats are reported `O` (unconfirmable), not guessed.
//!
//! Every message an executor sends comes from the forger
//! ([`crate::acts`]); the executors decide only what the attacker knows
//! (the knowledge gates), when to send, and what the replies prove.

use rb_cloud::DefensePolicy;
use rb_core::attacks::{AttackId, Feasibility};
use rb_core::design::{BindScheme, DeviceAuthScheme, FirmwareKnowledge, VendorDesign};
use rb_core::shadow::ShadowState;
use rb_forensics::Capture;
use rb_netsim::{FaultPlan, Telemetry};
use rb_scenario::{World, WorldBuilder};
use rb_wire::messages::{ControlAction, Response};
use rb_wire::telemetry::{ScheduleEntry, TelemetryFrame};
use rb_wire::tokens::UserId;

use crate::acts::{forged_control, forged_heartbeat, AtkStep};
use crate::adversary::{Adversary, ATTACKER_ID};

/// The record of one executed (or refused) attack.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackRun {
    /// Which attack.
    pub id: AttackId,
    /// The observed outcome, in the paper's ✓/✗/O vocabulary.
    pub outcome: Feasibility,
    /// Evidence lines for the experiment log.
    pub evidence: Vec<String>,
    /// The forensic capture of the run (trace + role map), when
    /// [`AttackOpts::capture`] was set. Feed it to `rb_forensics::classify`
    /// to reconstruct the attack from the trace alone.
    pub capture: Option<Box<Capture>>,
    /// Defensive interventions (token rotations, quarantines, bind
    /// rate-limits) the victim cloud recorded during this run. Always 0
    /// under the default disabled [`AttackOpts::defense`] policy.
    pub mitigations: u64,
}

impl AttackRun {
    fn new(id: AttackId, outcome: Feasibility, evidence: Vec<String>) -> Self {
        AttackRun {
            id,
            outcome,
            evidence,
            capture: None,
            mitigations: 0,
        }
    }

    fn feasible(id: AttackId, evidence: Vec<String>) -> Self {
        AttackRun::new(id, Feasibility::Feasible, evidence)
    }

    fn blocked(id: AttackId, by: impl Into<String>, evidence: Vec<String>) -> Self {
        AttackRun::new(id, Feasibility::blocked(by), evidence)
    }

    fn unconfirmable(id: AttackId, reason: impl Into<String>) -> Self {
        AttackRun::new(id, Feasibility::unconfirmable(reason), Vec::new())
    }

    /// Whether the victim cloud's online defenses intervened.
    pub fn mitigated(&self) -> bool {
        self.mitigations > 0
    }
}

/// Environment options for an attack run. The default is the pristine
/// world every Table III campaign uses; the chaos suite passes a benign
/// fault plan to check attack outcomes are fault-invariant.
#[derive(Debug, Clone, Default)]
pub struct AttackOpts {
    /// Faults injected into the victim world from the start of the run.
    pub fault_plan: FaultPlan,
    /// Metrics registry shared with the victim world. Campaign drivers
    /// pass one handle across all runs to get per-family attempt/success
    /// counters; the default is a private registry.
    pub telemetry: Telemetry,
    /// Record a forensic capture: the victim world runs with causal
    /// tracing and cloud forensic marks enabled, and the run returns the
    /// full trace + role map in [`AttackRun::capture`].
    pub capture: bool,
    /// The victim cloud's active-response policy. The default is fully
    /// disabled — the baseline Table III campaign attacks an undefended
    /// cloud; `exp_defense` reruns the grid under `DefensePolicy::hardened()`
    /// to measure detection and mitigation.
    pub defense: DefensePolicy,
}

/// `attack_attempts_total{family=…}`, indexed by
/// [`AttackFamily`](rb_core::attacks::AttackFamily) in declaration order.
const ATTEMPTS: [&str; 4] = [
    "attack_attempts_total{family=\"A1\"}",
    "attack_attempts_total{family=\"A2\"}",
    "attack_attempts_total{family=\"A3\"}",
    "attack_attempts_total{family=\"A4\"}",
];

/// `attack_success_total{family=…}`, indexed like [`ATTEMPTS`].
const SUCCESSES: [&str; 4] = [
    "attack_success_total{family=\"A1\"}",
    "attack_success_total{family=\"A2\"}",
    "attack_success_total{family=\"A3\"}",
    "attack_success_total{family=\"A4\"}",
];

/// `attack_outcomes_total{id=…,outcome=…}`, indexed by [`AttackId`] in
/// declaration order, then by [`outcome_index`].
const OUTCOMES: [[&str; 3]; 9] = [
    [
        "attack_outcomes_total{id=\"A1\",outcome=\"feasible\"}",
        "attack_outcomes_total{id=\"A1\",outcome=\"blocked\"}",
        "attack_outcomes_total{id=\"A1\",outcome=\"unconfirmable\"}",
    ],
    [
        "attack_outcomes_total{id=\"A2\",outcome=\"feasible\"}",
        "attack_outcomes_total{id=\"A2\",outcome=\"blocked\"}",
        "attack_outcomes_total{id=\"A2\",outcome=\"unconfirmable\"}",
    ],
    [
        "attack_outcomes_total{id=\"A3-1\",outcome=\"feasible\"}",
        "attack_outcomes_total{id=\"A3-1\",outcome=\"blocked\"}",
        "attack_outcomes_total{id=\"A3-1\",outcome=\"unconfirmable\"}",
    ],
    [
        "attack_outcomes_total{id=\"A3-2\",outcome=\"feasible\"}",
        "attack_outcomes_total{id=\"A3-2\",outcome=\"blocked\"}",
        "attack_outcomes_total{id=\"A3-2\",outcome=\"unconfirmable\"}",
    ],
    [
        "attack_outcomes_total{id=\"A3-3\",outcome=\"feasible\"}",
        "attack_outcomes_total{id=\"A3-3\",outcome=\"blocked\"}",
        "attack_outcomes_total{id=\"A3-3\",outcome=\"unconfirmable\"}",
    ],
    [
        "attack_outcomes_total{id=\"A3-4\",outcome=\"feasible\"}",
        "attack_outcomes_total{id=\"A3-4\",outcome=\"blocked\"}",
        "attack_outcomes_total{id=\"A3-4\",outcome=\"unconfirmable\"}",
    ],
    [
        "attack_outcomes_total{id=\"A4-1\",outcome=\"feasible\"}",
        "attack_outcomes_total{id=\"A4-1\",outcome=\"blocked\"}",
        "attack_outcomes_total{id=\"A4-1\",outcome=\"unconfirmable\"}",
    ],
    [
        "attack_outcomes_total{id=\"A4-2\",outcome=\"feasible\"}",
        "attack_outcomes_total{id=\"A4-2\",outcome=\"blocked\"}",
        "attack_outcomes_total{id=\"A4-2\",outcome=\"unconfirmable\"}",
    ],
    [
        "attack_outcomes_total{id=\"A4-3\",outcome=\"feasible\"}",
        "attack_outcomes_total{id=\"A4-3\",outcome=\"blocked\"}",
        "attack_outcomes_total{id=\"A4-3\",outcome=\"unconfirmable\"}",
    ],
];

/// `attack_mitigated_total{id=…}`, indexed by [`AttackId`] in declaration
/// order.
const MITIGATED: [&str; 9] = [
    "attack_mitigated_total{id=\"A1\"}",
    "attack_mitigated_total{id=\"A2\"}",
    "attack_mitigated_total{id=\"A3-1\"}",
    "attack_mitigated_total{id=\"A3-2\"}",
    "attack_mitigated_total{id=\"A3-3\"}",
    "attack_mitigated_total{id=\"A3-4\"}",
    "attack_mitigated_total{id=\"A4-1\"}",
    "attack_mitigated_total{id=\"A4-2\"}",
    "attack_mitigated_total{id=\"A4-3\"}",
];

/// The outcome's column in [`OUTCOMES`].
fn outcome_index(outcome: &Feasibility) -> usize {
    match outcome {
        Feasibility::Feasible => 0,
        Feasibility::Infeasible { .. } => 1,
        Feasibility::Unconfirmable { .. } => 2,
    }
}

/// Runs one attack against one design. Dispatches to the specific
/// executor; `seed` controls the whole world's randomness. The victim
/// world records no metrics: no caller can read them.
pub fn run_attack(design: &VendorDesign, id: AttackId, seed: u64) -> AttackRun {
    let opts = AttackOpts {
        telemetry: Telemetry::disabled(),
        ..AttackOpts::default()
    };
    run_attack_opts(design, id, seed, &opts)
}

/// Like [`run_attack`], with explicit environment options.
pub fn run_attack_opts(
    design: &VendorDesign,
    id: AttackId,
    seed: u64,
    opts: &AttackOpts,
) -> AttackRun {
    let family = id.family() as usize;
    opts.telemetry.register_counter(ATTEMPTS[family]).incr();
    // The targeted state decides the starting world: A2 and A4-2 attack
    // a device that is still in its box (victim paused), everything else
    // a fully set-up home. Construction lives here — not in the
    // executors — so the forensic capture wraps the *whole* run.
    let paused = matches!(id, AttackId::A2 | AttackId::A4_2);
    let mut world = build_world(design, seed, opts, paused);
    let (Ok(mut run) | Err(mut run)) = match id {
        AttackId::A1 => run_a1(design, &mut world),
        AttackId::A2 => run_a2(design, &mut world),
        AttackId::A3_1 => run_a3_1(design, &mut world),
        AttackId::A3_2 => run_a3_2(design, &mut world),
        AttackId::A3_3 => run_a3_3(design, &mut world),
        AttackId::A3_4 => run_a3_4(design, &mut world),
        AttackId::A4_1 => run_a4_1(design, &mut world),
        AttackId::A4_2 => run_a4_2(design, &mut world),
        AttackId::A4_3 => run_a4_3(design, &mut world),
    };
    if run.outcome == Feasibility::Feasible {
        opts.telemetry.register_counter(SUCCESSES[family]).incr();
    }
    let outcomes = OUTCOMES[id as usize][outcome_index(&run.outcome)];
    opts.telemetry.register_counter(outcomes).incr();
    // Every run builds its own world, so its cloud's count is this run's.
    run.mitigations = world.cloud().mitigations();
    if run.mitigations > 0 {
        opts.telemetry
            .register_counter(MITIGATED[id as usize])
            .incr();
    }
    if opts.capture {
        run.capture = Some(Box::new(rb_scenario::capture(&world)));
    }
    run
}

/// Builds the victim world with the run's environment options applied.
fn build_world(design: &VendorDesign, seed: u64, opts: &AttackOpts, paused: bool) -> World {
    let mut builder = WorldBuilder::new(design.clone(), seed)
        .fault_plan(opts.fault_plan.clone())
        .with_telemetry(opts.telemetry.clone())
        .defense(opts.defense.clone());
    if paused {
        builder = builder.victim_paused();
    }
    if opts.capture {
        builder = builder.trace();
    }
    builder.build()
}

// ---------------------------------------------------------------------------
// Shared pieces.
// ---------------------------------------------------------------------------

/// Knowledge gate for device-originated status forgery: returns the
/// ✗-or-O verdict when the attacker cannot construct the message.
fn status_forgery_gate(design: &VendorDesign, id: AttackId) -> Option<AttackRun> {
    if design.status_forgeable() {
        return None;
    }
    if design.status_forgery_unconfirmable() {
        Some(AttackRun::unconfirmable(
            id,
            "unable to confirm due to firmware challenges (device message format unknown)",
        ))
    } else {
        Some(AttackRun::blocked(
            id,
            format!("{} device authentication is unforgeable", design.auth),
            Vec::new(),
        ))
    }
}

/// Knowledge gate for bind forgery: the ✗-or-O verdict when the attacker
/// cannot construct the design's bind message.
fn bind_forgery_gate(design: &VendorDesign) -> Option<Feasibility> {
    match design.bind {
        BindScheme::AclApp => None,
        BindScheme::AclDevice if design.firmware == FirmwareKnowledge::Opaque => Some(
            Feasibility::unconfirmable("device-sent bind format unknown without firmware"),
        ),
        BindScheme::AclDevice => None,
        BindScheme::Capability => Some(Feasibility::blocked(
            "capability-based binding: the BindToken never leaves the victim's LAN",
        )),
    }
}

/// `attack_forged_*_total`: the counter one forged `step` increments.
fn forged_counter(step: AtkStep) -> &'static str {
    match step {
        AtkStep::Register => "attack_forged_registers_total",
        AtkStep::Bind => "attack_forged_binds_total",
        AtkStep::UnbindToken | AtkStep::UnbindBare => "attack_forged_unbinds_total",
    }
}

/// Forges `step` against the victim's device, counts it, sends it and
/// returns the accepting reply. A bind the attacker cannot construct ends
/// the run with [`bind_forgery_gate`]'s verdict before anything is sent;
/// any other reply ends it blocked, with the note `"{denied}: {reason}"`
/// for a denial or `"{other}{reply:?}"` for anything else. Either way the
/// run keeps the evidence so far. A bound reply hands its session token
/// to the adversary.
fn forged_exchange(
    world: &mut World,
    adv: &mut Adversary,
    id: AttackId,
    step: AtkStep,
    [denied, other]: [&str; 2],
    evidence: &mut Vec<String>,
) -> Result<Response, AttackRun> {
    if step == AtkStep::Bind {
        if let Some(outcome) = bind_forgery_gate(&world.design) {
            return Err(AttackRun::new(id, outcome, std::mem::take(evidence)));
        }
    }
    let Some(msg) = step.forge(&world.design, &world.homes[0].dev_id, adv.user_token) else {
        unreachable!("{id}: the knowledge gates and the login precede every {step}")
    };
    world
        .telemetry()
        .register_counter(forged_counter(step))
        .incr();
    let note = match adv.request(world, msg) {
        Some(rsp) if step.accepted_by(&rsp) => {
            if let Response::Bound { session } = rsp {
                adv.hijack_session = session;
            }
            return Ok(rsp);
        }
        Some(Response::Denied { reason }) => format!("{denied}: {reason}"),
        reply => format!("{other}{reply:?}"),
    };
    Err(AttackRun::blocked(id, note, std::mem::take(evidence)))
}

/// Summarizes the alerts the victim cloud's passive monitor raised during
/// the attack — what a watchful vendor *could* have noticed.
fn alert_summary(world: &World) -> String {
    let alerts = world.cloud().monitor().alerts();
    if alerts.is_empty() {
        return "cloud monitor: no alerts".to_owned();
    }
    let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for a in alerts {
        *counts.entry(a.kind()).or_default() += 1;
    }
    let parts: Vec<String> = counts.iter().map(|(k, n)| format!("{k}×{n}")).collect();
    format!("cloud monitor: {}", parts.join(", "))
}

/// Downgrades a mechanically successful hijack-control to the paper's "O"
/// when the vendor channel was never inspected: the simulator's optimistic
/// model of an unknown channel is not evidence.
fn control_feasibility(design: &VendorDesign, works: bool, blocked_note: &str) -> Feasibility {
    if !works {
        return Feasibility::blocked(blocked_note.to_owned());
    }
    if design.auth == DeviceAuthScheme::Opaque {
        Feasibility::unconfirmable(
            "whether control is relayed cannot be confirmed without inspecting the vendor channel",
        )
    } else {
        Feasibility::Feasible
    }
}

/// The attacker attempts to actually drive the device after acquiring a
/// binding: sends `TurnOn` and checks the physical relay.
fn control_check(world: &mut World, adv: &mut Adversary, evidence: &mut Vec<String>) -> bool {
    world
        .telemetry()
        .register_counter("attack_control_attempts_total")
        .incr();
    let Some(user_token) = adv.user_token else {
        unreachable!("the adversary logs in before attempting control")
    };
    let control = forged_control(&world.homes[0].dev_id, user_token, adv.hijack_session);
    let rsp = adv.request(world, control);
    world.run_for(5_000);
    match rsp {
        Some(Response::ControlOk { .. }) => {
            let on = world.device(0).is_on();
            if on {
                world
                    .telemetry()
                    .register_counter("attack_control_relayed_total")
                    .incr();
            }
            evidence.push(format!("control accepted by cloud; device relay on = {on}"));
            evidence.push(alert_summary(world));
            on
        }
        Some(Response::Denied { reason }) => {
            evidence.push(format!("control denied: {reason}"));
            evidence.push(alert_summary(world));
            false
        }
        other => {
            evidence.push(format!("control got {other:?}"));
            false
        }
    }
}

/// The executors' bodies return the blocked run early through `?`.
type Exec = Result<AttackRun, AttackRun>;

// ---------------------------------------------------------------------------
// A1: data injection and stealing.
// ---------------------------------------------------------------------------

fn run_a1(design: &VendorDesign, world: &mut World) -> Exec {
    const ID: AttackId = AttackId::A1;
    if let Some(run) = status_forgery_gate(design, ID) {
        return Ok(run);
    }
    world.run_setup();
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    // Open a forged device session.
    forged_exchange(
        world,
        &mut adv,
        ID,
        AtkStep::Register,
        ["forged registration denied", "no registration response: "],
        &mut evidence,
    )?;
    evidence.push("forged registration accepted".into());
    // If the registration nuked the binding, there is no user left to
    // deceive (TP-LINK: the forgery lands as A3-4 instead).
    if world.cloud().bound_user(&world.homes[0].dev_id) != Some(world.homes[0].user_id.clone()) {
        return Ok(AttackRun::blocked(
            ID,
            "registration reset the binding; no bound user left to deceive (see A3-4)",
            evidence,
        ));
    }

    // Injection: report an absurd power reading and check it reaches the
    // victim's app.
    let marker = TelemetryFrame::PowerMilliwatts(999_000_000);
    let heartbeat = forged_heartbeat(&world.homes[0].dev_id, vec![marker.clone()]);
    world
        .telemetry()
        .register_counter("attack_forged_heartbeats_total")
        .incr();
    adv.request(world, heartbeat);
    world.run_for(5_000);
    let injected = world.app(0).events.iter().any(|e| match e {
        rb_app::AppEvent::Telemetry(frames) => frames.contains(&marker),
        _ => false,
    });
    evidence.push(format!("fake telemetry reached the victim app: {injected}"));

    // Stealing: the victim stores a schedule; the forged device session
    // receives the push meant for the real device.
    let secret_entry = ScheduleEntry {
        at_tick: 0x5EC2E7,
        turn_on: false,
    };
    world
        .app_mut(0)
        .queue_control(ControlAction::SetSchedule(secret_entry.clone()));
    world.run_for(10_000);
    adv.drain(world, None);
    let stolen = adv.saw_push(|rsp| {
        matches!(rsp, Response::ControlPush { action: ControlAction::SetSchedule(e), .. } if *e == secret_entry)
    });
    evidence.push(format!(
        "victim's schedule exfiltrated to the attacker: {stolen}"
    ));

    evidence.push(alert_summary(world));
    Ok(if injected && stolen {
        AttackRun::feasible(ID, evidence)
    } else {
        AttackRun::blocked(
            ID,
            "forged session did not carry user data both ways",
            evidence,
        )
    })
}

// ---------------------------------------------------------------------------
// A2: binding denial-of-service.
// ---------------------------------------------------------------------------

fn run_a2(_design: &VendorDesign, world: &mut World) -> Exec {
    const ID: AttackId = AttackId::A2;
    // The world arrives paused: the device is manufactured and its ID
    // leaked, but the victim has not set it up yet (the *initial* state).
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    forged_exchange(
        world,
        &mut adv,
        ID,
        AtkStep::Bind,
        ["pre-emptive bind denied", "no bind response: "],
        &mut evidence,
    )?;
    evidence.push("attacker's pre-emptive binding accepted".into());

    // Now the victim unboxes the device and tries to set it up.
    world.resume_victims();
    let converged = world.try_run_setup(150_000);
    let holder = world.cloud().bound_user(&world.homes[0].dev_id);
    evidence.push(format!(
        "victim setup converged: {converged}; binding holder: {holder:?}"
    ));
    evidence.push(alert_summary(world));
    Ok(if !converged && holder == Some(UserId::new(ATTACKER_ID)) {
        AttackRun::feasible(ID, evidence)
    } else {
        AttackRun::blocked(
            ID,
            "the victim completed binding anyway (replacement semantics or re-bind)",
            evidence,
        )
    })
}

// ---------------------------------------------------------------------------
// A3-1 / A3-2: device unbinding by forged unbind messages.
// ---------------------------------------------------------------------------

fn run_a3_1(_design: &VendorDesign, world: &mut World) -> Exec {
    const ID: AttackId = AttackId::A3_1;
    world.run_setup();
    let mut adv = Adversary::new();
    let mut evidence = Vec::new();
    forged_exchange(
        world,
        &mut adv,
        ID,
        AtkStep::UnbindBare,
        ["denied", "no response: "],
        &mut evidence,
    )?;
    let unbound = world.cloud().bound_user(&world.homes[0].dev_id).is_none();
    evidence.push(format!(
        "cloud accepted Unbind:DevId; binding revoked: {unbound}"
    ));
    Ok(revoked(world, ID, unbound, evidence))
}

fn run_a3_2(_design: &VendorDesign, world: &mut World) -> Exec {
    const ID: AttackId = AttackId::A3_2;
    world.run_setup();
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();
    forged_exchange(
        world,
        &mut adv,
        ID,
        AtkStep::UnbindToken,
        ["denied", "no response: "],
        &mut evidence,
    )?;
    let unbound = world.cloud().bound_user(&world.homes[0].dev_id).is_none();
    evidence.push(format!(
        "cloud accepted the attacker's token on unbind; binding revoked: {unbound}"
    ));
    Ok(revoked(world, ID, unbound, evidence))
}

/// The verdict of an accepted forged unbind: feasible iff the binding is
/// really gone.
fn revoked(world: &World, id: AttackId, unbound: bool, mut evidence: Vec<String>) -> AttackRun {
    evidence.push(alert_summary(world));
    if unbound {
        AttackRun::feasible(id, evidence)
    } else {
        AttackRun::blocked(id, "binding survived", evidence)
    }
}

// ---------------------------------------------------------------------------
// A3-3: device unbinding via replacing bind (no control).
// ---------------------------------------------------------------------------

fn run_a3_3(design: &VendorDesign, world: &mut World) -> Exec {
    const ID: AttackId = AttackId::A3_3;
    world.run_setup();
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    forged_exchange(
        world,
        &mut adv,
        ID,
        AtkStep::Bind,
        ["replacing bind denied", "no bind response: "],
        &mut evidence,
    )?;
    evidence.push("attacker's replacing bind accepted".into());
    world.run_for(5_000);
    let victim_disconnected = !world.app(0).is_bound();
    evidence.push(format!(
        "victim app lost its binding: {victim_disconnected}"
    ));
    if !victim_disconnected {
        return Ok(AttackRun::blocked(ID, "victim binding survived", evidence));
    }
    // If the replacement also yields *confirmed* control, the stronger
    // A4-1 classification applies and this run does not count as A3-3.
    let works = control_check(world, &mut adv, &mut evidence);
    Ok(if works && design.auth != DeviceAuthScheme::Opaque {
        AttackRun::blocked(
            ID,
            "subsumed by A4-1: the replacement yields control",
            evidence,
        )
    } else {
        AttackRun::feasible(ID, evidence)
    })
}

// ---------------------------------------------------------------------------
// A3-4: device unbinding via forged status.
// ---------------------------------------------------------------------------

fn run_a3_4(design: &VendorDesign, world: &mut World) -> Exec {
    const ID: AttackId = AttackId::A3_4;
    if let Some(run) = status_forgery_gate(design, ID) {
        return Ok(run);
    }
    world.run_setup();
    let mut adv = Adversary::new();
    let mut evidence = Vec::new();
    forged_exchange(
        world,
        &mut adv,
        ID,
        AtkStep::Register,
        ["forged registration denied", "no response: "],
        &mut evidence,
    )?;
    evidence.push("forged registration accepted".into());
    world.run_for(2_000);
    let unbound = world.cloud().bound_user(&world.homes[0].dev_id).is_none();
    evidence.push(format!("binding revoked by the registration: {unbound}"));
    evidence.push(alert_summary(world));
    Ok(if unbound {
        AttackRun::feasible(ID, evidence)
    } else {
        AttackRun::blocked(
            ID,
            "a fresh registration does not reset the binding",
            evidence,
        )
    })
}

// ---------------------------------------------------------------------------
// A4-1: hijack via replacing bind in the control state.
// ---------------------------------------------------------------------------

fn run_a4_1(design: &VendorDesign, world: &mut World) -> Exec {
    const ID: AttackId = AttackId::A4_1;
    world.run_setup();
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    forged_exchange(
        world,
        &mut adv,
        ID,
        AtkStep::Bind,
        ["replacing bind denied", "no bind response: "],
        &mut evidence,
    )?;
    evidence.push("attacker's replacing bind accepted".into());
    let works = control_check(world, &mut adv, &mut evidence);
    let outcome = control_feasibility(design, works, "binding replaced but control is not relayed");
    Ok(AttackRun::new(ID, outcome, evidence))
}

// ---------------------------------------------------------------------------
// A4-2: hijack by racing the setup window.
// ---------------------------------------------------------------------------

fn run_a4_2(design: &VendorDesign, world: &mut World) -> Exec {
    const ID: AttackId = AttackId::A4_2;
    // The world arrives paused (the setup has not happened yet).
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    // Can the attacker even construct a bind?
    if let Some(outcome) = bind_forgery_gate(design) {
        return Ok(AttackRun::new(ID, outcome, evidence));
    }
    let Some(bind) = AtkStep::Bind.forge(design, &world.homes[0].dev_id, adv.user_token) else {
        unreachable!("the bind gate passes only forgeable binds")
    };

    // The victim starts setting up; the attacker fires binds blindly at a
    // realistic probe cadence, hoping to land inside the online-unbound
    // window.
    world.resume_victims();
    let mut occupied = false;
    let probes = world
        .telemetry()
        .register_counter("attack_window_probes_total");
    for _round in 0..600 {
        probes.incr();
        adv.fire(world, bind.clone());
        // The victim presses the button through setup, as
        // `World::try_run_setup` does, so local-proof designs can bind.
        if !world.app(0).is_bound() {
            world.press_setup_button(0);
        }
        world.run_for(250);
        if let Some(Response::Bound { session }) = latest_bind_response(&mut adv, world) {
            adv.hijack_session = session;
            occupied = true;
            break;
        }
        if world.app(0).is_bound() && world.shadow_state(0) == ShadowState::Control {
            // The victim won the race and holds a sticky binding.
            if !world.design.bind_replaces() {
                break;
            }
        }
    }
    if !occupied {
        evidence.push("never landed inside the online-unbound window".into());
        return Ok(AttackRun::blocked(
            ID,
            "setup window unexploitable",
            evidence,
        ));
    }
    evidence.push("bound inside the setup window".into());
    // Let the victim finish flailing; with sticky semantics their binds are
    // now rejected.
    world.try_run_setup(60_000);
    let holder = world.cloud().bound_user(&world.homes[0].dev_id);
    evidence.push(format!("final binding holder: {holder:?}"));
    if holder != Some(UserId::new(ATTACKER_ID)) {
        return Ok(AttackRun::blocked(
            ID,
            "the victim displaced the attacker's binding",
            evidence,
        ));
    }
    let works = control_check(world, &mut adv, &mut evidence);
    let outcome = control_feasibility(design, works, "window won but control is not relayed");
    Ok(AttackRun::new(ID, outcome, evidence))
}

/// The newest `Bound` reply among those the drain adds to the stash. The
/// probe loop stops at the first `Bound`, so older entries hold none and
/// each round scans only its own replies.
fn latest_bind_response(adv: &mut Adversary, world: &mut World) -> Option<Response> {
    let seen = adv.stashed_responses().len();
    adv.drain(world, None);
    adv.stashed_responses()[seen..]
        .iter()
        .rev()
        .map(|(_, r)| r)
        .find(|r| matches!(r, Response::Bound { .. }))
        .cloned()
}

// ---------------------------------------------------------------------------
// A4-3: hijack by unbind-then-bind.
// ---------------------------------------------------------------------------

fn run_a4_3(design: &VendorDesign, world: &mut World) -> Exec {
    const ID: AttackId = AttackId::A4_3;
    world.run_setup();
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    // Step 1: revoke the victim's binding over the reset channel where
    // the design has one, else with the attacker's own token.
    let unbind = if design.unbind.dev_id_only {
        AtkStep::UnbindBare
    } else {
        AtkStep::UnbindToken
    };
    forged_exchange(
        world,
        &mut adv,
        ID,
        unbind,
        ["step 1 (unbind) denied", "step 1 got "],
        &mut evidence,
    )?;
    evidence.push("step 1: victim unbound".into());

    // Step 2: bind the now-unbound device to the attacker.
    forged_exchange(
        world,
        &mut adv,
        ID,
        AtkStep::Bind,
        ["step 2 (bind) denied", "step 2 got "],
        &mut evidence,
    )?;
    evidence.push("step 2: attacker bound".into());

    // Step 3: absolute control.
    let works = control_check(world, &mut adv, &mut evidence);
    let outcome = control_feasibility(
        design,
        works,
        "bound but control is not relayed to the device",
    );
    Ok(AttackRun::new(ID, outcome, evidence))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acts::playbooks;
    use rb_core::attacks::AttackFamily;
    use rb_core::vendors::vendor_designs;

    #[test]
    fn every_feasible_run_forges_one_of_its_playbooks() {
        let mut checked = 0;
        for design in vendor_designs() {
            for id in AttackId::ALL {
                let opts = AttackOpts::default();
                if run_attack_opts(&design, id, 1, &opts).outcome != Feasibility::Feasible {
                    continue;
                }
                let sent = |name: &str| opts.telemetry.counter(name);
                // A4-2 fires its one bind again and again as window probes.
                let probed = u64::from(sent("attack_window_probes_total") > 0);
                let counts = [
                    sent(forged_counter(AtkStep::Register)),
                    sent(forged_counter(AtkStep::Bind)) + probed,
                    sent(forged_counter(AtkStep::UnbindBare)),
                ];
                let matches = playbooks(id).iter().any(|book| {
                    let steps = |kinds: &[AtkStep]| {
                        book.iter().filter(|s| kinds.contains(s)).count() as u64
                    };
                    counts
                        == [
                            steps(&[AtkStep::Register]),
                            steps(&[AtkStep::Bind]),
                            steps(&[AtkStep::UnbindBare, AtkStep::UnbindToken]),
                        ]
                });
                assert!(matches, "{} {id}: forged {counts:?}", design.vendor);
                checked += 1;
            }
        }
        assert_eq!(checked, 15, "the fifteen feasible Table III cells");
    }

    #[test]
    fn counter_tables_name_the_labels_they_replace() {
        for (i, family) in AttackFamily::ALL.into_iter().enumerate() {
            assert_eq!(family as usize, i);
            assert_eq!(
                ATTEMPTS[i],
                format!("attack_attempts_total{{family=\"{family}\"}}")
            );
            assert_eq!(
                SUCCESSES[i],
                format!("attack_success_total{{family=\"{family}\"}}")
            );
        }
        let outcomes = [
            Feasibility::Feasible,
            Feasibility::blocked("x"),
            Feasibility::unconfirmable("x"),
        ];
        for (i, id) in AttackId::ALL.into_iter().enumerate() {
            assert_eq!(id as usize, i);
            assert_eq!(
                MITIGATED[i],
                format!("attack_mitigated_total{{id=\"{id}\"}}")
            );
            for (outcome, label) in outcomes
                .iter()
                .zip(["feasible", "blocked", "unconfirmable"])
            {
                assert_eq!(
                    OUTCOMES[i][outcome_index(outcome)],
                    format!("attack_outcomes_total{{id=\"{id}\",outcome=\"{label}\"}}")
                );
            }
        }
    }
}
