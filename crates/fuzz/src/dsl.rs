//! The lifecycle DSL: user-level acts over a device's binding life cycle,
//! compiled onto the product machine.
//!
//! An [`Act`] is a step a *person* (or the attacker, or the network)
//! takes: "set the device up", "sell it on", "reinstall the vendor app",
//! "run attack A3-1", "inject chaos". Each act compiles to zero or more
//! [`McAct`]s of the rb-mc product machine — the same vocabulary the
//! model checker explores and the replayer realizes as packets — so any
//! act sequence is simultaneously a model trajectory (checkable against
//! the oracle set) and a live schedule (interpretable onto a
//! [`rb_scenario::World`]).
//!
//! **Legality.** An act is legal in a state iff every product action it
//! compiles to is enabled there in order ([`rb_mc::model::step`] accepts
//! it), and its own context guard holds (an attack act only fires in the
//! shadow states Table II says it targets; a household join needs an
//! established user binding). The generator only emits legal
//! interleavings; the shrinker only keeps candidates that stay legal.

use rb_attack::acts::playbooks;
use rb_core::attacks::AttackId;
use rb_core::design::{BindScheme, VendorDesign};
use rb_core::shadow::ShadowState;
use rb_core::spec::Party;
use rb_mc::model::{self, McAct, PState};
use rb_scenario::ChaosProfile;
use std::fmt;

/// One step of a device's binding life cycle, as a person would name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// The owner unboxes/configures the device and powers it on; it
    /// registers, and the binding completes over the design's channel
    /// (embedded in registration, or a follow-up app bind).
    Setup,
    /// The owner exercises the binding: a pure observation step (no
    /// product action; the live interpreter just lets time pass).
    Control,
    /// The owner revokes the binding through an honest channel.
    Unbind,
    /// The device is factory-reset: its session drops and the reset
    /// channel's bare unbind clears the binding where the design has one.
    FactoryReset,
    /// The device loses power/Wi-Fi and its cloud session expires.
    PowerOff,
    /// The owner re-establishes the binding (app re-bind, or a
    /// reconfigure-and-power-cycle on device-channel designs).
    Rebind,
    /// Second-hand transfer: the seller unbinds what they can, powers the
    /// device off, and the buyer's household runs a fresh setup.
    Resale,
    /// Another resident of an established household binds through the
    /// vendor app (app-channel designs).
    HouseholdJoin,
    /// The vendor app is wiped and reinstalled: fresh login, re-bind
    /// (app-channel designs).
    AppReinstall,
    /// The attacker runs one of the nine Table II executors' playbooks.
    Attack(AttackId),
    /// The network misbehaves: a named chaos profile's benign envelope is
    /// injected (a model no-op — chaos must never change an outcome).
    Chaos(ChaosProfile),
}

impl Act {
    /// Every act, in the canonical generation order (attack acts in
    /// Table II order, chaos acts in profile order).
    pub(crate) fn all() -> Vec<Act> {
        let mut acts = vec![
            Act::Setup,
            Act::Control,
            Act::Unbind,
            Act::FactoryReset,
            Act::PowerOff,
            Act::Rebind,
            Act::Resale,
            Act::HouseholdJoin,
            Act::AppReinstall,
        ];
        acts.extend(AttackId::ALL.into_iter().map(Act::Attack));
        acts.extend(ChaosProfile::ALL.into_iter().map(Act::Chaos));
        acts
    }

    /// The act's index in [`Act::all`] — a stable ordinal the corpus
    /// digest hashes.
    pub(crate) fn ordinal(self) -> u8 {
        #[allow(clippy::unwrap_used)] // every act is in all(); pinned by test
        Act::all()
            .into_iter()
            .position(|a| a == self)
            .map(|i| i as u8)
            .unwrap()
    }

    /// Whether the act compiles to no product action (pure live-world
    /// effect). Such acts can never be load-bearing in a minimal witness.
    pub fn is_model_noop(self) -> bool {
        matches!(self, Act::Control | Act::Chaos(_))
    }
}

impl fmt::Display for Act {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Act::Setup => f.write_str("setup"),
            Act::Control => f.write_str("control"),
            Act::Unbind => f.write_str("unbind"),
            Act::FactoryReset => f.write_str("factory-reset"),
            Act::PowerOff => f.write_str("power-off"),
            Act::Rebind => f.write_str("rebind"),
            Act::Resale => f.write_str("resale"),
            Act::HouseholdJoin => f.write_str("household-join"),
            Act::AppReinstall => f.write_str("app-reinstall"),
            Act::Attack(id) => write!(f, "attack:{id}"),
            Act::Chaos(p) => write!(f, "chaos:{}", p.name()),
        }
    }
}

/// One compiled act: the DSL act and the product steps it expanded to,
/// each with its surrounding model states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledAct {
    /// The DSL act.
    pub(crate) act: Act,
    /// The product steps, in order: `(action, pre-state, post-state)`.
    /// Empty for model no-ops ([`Act::Control`], [`Act::Chaos`]).
    pub steps: Vec<(McAct, PState, PState)>,
}

impl CompiledAct {
    /// The model state after the act (equals the pre-state for no-ops).
    pub(crate) fn end(&self, start: PState) -> PState {
        self.steps.last().map_or(start, |&(_, _, post)| post)
    }
}

/// Tries to advance `s` by `act`, appending the step.
fn push(
    design: &VendorDesign,
    steps: &mut Vec<(McAct, PState, PState)>,
    s: &mut PState,
    act: McAct,
) -> bool {
    match model::step(design, *s, act) {
        Some(n) => {
            steps.push((act, *s, n));
            *s = n;
            true
        }
        None => false,
    }
}

/// The shadow state a product state projects to (the paper's Figure 2
/// grid the attack taxonomy targets).
pub(crate) fn shadow_of(s: PState) -> ShadowState {
    ShadowState::from_flags(s.src.online(), s.bound.is_some())
}

/// Compiles `act` in state `s`. `None` when the act is illegal there;
/// otherwise the compiled steps (possibly empty for model no-ops).
pub(crate) fn compile_act(design: &VendorDesign, s: PState, act: Act) -> Option<CompiledAct> {
    let mut cur = s;
    let mut steps = Vec::new();
    let ok = match act {
        Act::Setup => {
            // Registration always succeeds; on app-channel designs the
            // owner follows up with the app bind where the cloud lets
            // them (a sticky cloud holding an attacker binding denies
            // it — the setup "completes" unbound, which is the A2 DoS).
            let registered = push(design, &mut steps, &mut cur, McAct::DevRegister);
            if registered && design.bind == BindScheme::AclApp {
                let _ = push(design, &mut steps, &mut cur, McAct::UserBind);
            }
            registered
        }
        Act::Control | Act::Chaos(_) => true,
        Act::Unbind => push(design, &mut steps, &mut cur, McAct::UserUnbind),
        Act::FactoryReset => {
            // The wipe drops the session; the reset channel's bare
            // unbind clears the binding only on designs that have it.
            let dropped = push(design, &mut steps, &mut cur, McAct::DevOffline);
            let unbound = design.unbind.dev_id_only
                && cur.bound.is_some()
                && push(design, &mut steps, &mut cur, McAct::UserUnbind);
            dropped || unbound
        }
        Act::PowerOff => push(design, &mut steps, &mut cur, McAct::DevOffline),
        Act::Rebind => {
            if design.bind == BindScheme::AclApp {
                push(design, &mut steps, &mut cur, McAct::UserBind)
            } else {
                push(design, &mut steps, &mut cur, McAct::DevRegister)
            }
        }
        Act::Resale => {
            let _ = push(design, &mut steps, &mut cur, McAct::UserUnbind);
            let _ = push(design, &mut steps, &mut cur, McAct::DevOffline);
            let registered = push(design, &mut steps, &mut cur, McAct::DevRegister);
            if registered && design.bind == BindScheme::AclApp {
                let _ = push(design, &mut steps, &mut cur, McAct::UserBind);
            }
            registered
        }
        Act::HouseholdJoin => {
            // A second resident joins an *established* household.
            s.bound == Some(Party::User)
                && design.bind == BindScheme::AclApp
                && push(design, &mut steps, &mut cur, McAct::UserBind)
        }
        Act::AppReinstall => {
            design.bind == BindScheme::AclApp && push(design, &mut steps, &mut cur, McAct::UserBind)
        }
        Act::Attack(id) => {
            // The attack strikes only in the shadow states Table II says
            // it targets, via the first fully-enabled executor playbook.
            id.targeted_states().contains(&shadow_of(s))
                && playbooks(id).iter().any(|playbook| {
                    let mut trial = s;
                    let mut trial_steps = Vec::new();
                    let all_enabled = playbook
                        .iter()
                        .all(|&step| push(design, &mut trial_steps, &mut trial, step.into()));
                    if all_enabled {
                        steps = trial_steps;
                        cur = trial;
                    }
                    all_enabled
                })
        }
    };
    ok.then_some(CompiledAct { act, steps })
}

/// Compiles a whole sequence from the initial state. `None` when any act
/// is illegal where it occurs — the sequence is not a legal interleaving.
pub fn compile_seq(design: &VendorDesign, acts: &[Act]) -> Option<Vec<CompiledAct>> {
    let mut s = PState::initial();
    let mut compiled = Vec::with_capacity(acts.len());
    for &act in acts {
        let c = compile_act(design, s, act)?;
        s = c.end(s);
        compiled.push(c);
    }
    Some(compiled)
}

/// The acts legal in state `s`, in canonical order.
pub(crate) fn legal_acts(design: &VendorDesign, s: PState) -> Vec<Act> {
    Act::all()
        .into_iter()
        .filter(|&act| compile_act(design, s, act).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::vendors::*;

    #[test]
    fn ordinals_are_stable_and_unique() {
        let all = Act::all();
        assert_eq!(all.len(), 9 + 9 + 5);
        for (i, act) in all.iter().enumerate() {
            assert_eq!(act.ordinal() as usize, i);
        }
    }

    #[test]
    fn setup_compiles_per_binding_channel() {
        // Device-channel: one registration carrying the bind.
        let c = compile_act(&tp_link(), PState::initial(), Act::Setup).expect("legal");
        assert_eq!(c.steps.len(), 1);
        assert_eq!(c.steps[0].0, McAct::DevRegister);
        assert_eq!(c.end(PState::initial()).bound, Some(Party::User));
        // App-channel: registration then the app bind.
        let c = compile_act(&e_link(), PState::initial(), Act::Setup).expect("legal");
        let acts: Vec<McAct> = c.steps.iter().map(|s| s.0).collect();
        assert_eq!(acts, [McAct::DevRegister, McAct::UserBind]);
    }

    #[test]
    fn attacks_fire_only_in_their_targeted_shadow_states() {
        let d = weakest_design();
        // A2 targets the initial (boxed) state only.
        assert!(compile_act(&d, PState::initial(), Act::Attack(AttackId::A2)).is_some());
        let setup = compile_act(&d, PState::initial(), Act::Setup).expect("legal");
        let bound = setup.end(PState::initial());
        assert_eq!(shadow_of(bound), ShadowState::Control);
        assert!(
            compile_act(&d, bound, Act::Attack(AttackId::A2)).is_none(),
            "A2 does not fire in the control state"
        );
        // A4-1 targets exactly that control state.
        assert!(compile_act(&d, bound, Act::Attack(AttackId::A4_1)).is_some());
    }

    #[test]
    fn a4_3_compiles_to_unbind_then_bind() {
        let d = tp_link();
        let setup = compile_act(&d, PState::initial(), Act::Setup).expect("legal");
        let bound = setup.end(PState::initial());
        let c = compile_act(&d, bound, Act::Attack(AttackId::A4_3)).expect("feasible");
        let acts: Vec<McAct> = c.steps.iter().map(|s| s.0).collect();
        assert_eq!(acts, [McAct::AtkUnbindBare, McAct::AtkBind]);
        assert_eq!(c.end(bound).bound, Some(Party::Attacker));
    }

    #[test]
    fn references_admit_no_attack_acts() {
        for d in [capability_reference(), public_key_reference()] {
            let mut s = PState::initial();
            // Walk a few honest acts; no attack is ever legal anywhere.
            for act in [Act::Setup, Act::PowerOff, Act::Rebind] {
                for id in AttackId::ALL {
                    assert!(
                        compile_act(&d, s, Act::Attack(id)).is_none(),
                        "{}: {id} should be disabled",
                        d.vendor
                    );
                }
                if let Some(c) = compile_act(&d, s, act) {
                    s = c.end(s);
                }
            }
        }
    }

    #[test]
    fn legal_acts_always_include_the_noops() {
        for d in vendor_designs() {
            let legal = legal_acts(&d, PState::initial());
            assert!(legal.contains(&Act::Control));
            assert!(legal.contains(&Act::Chaos(rb_scenario::ChaosProfile::DropStorm)));
            assert!(legal.contains(&Act::Setup));
        }
    }
}
