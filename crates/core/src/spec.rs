//! Bounded model checking of remote-binding designs.
//!
//! The paper closes its related-work discussion with: "those homemade
//! solutions are not formally verified. It is our future work to formally
//! verify their security properties." This module does that verification
//! for the design space the paper maps: it builds, per [`VendorDesign`], a
//! finite transition system over an *abstract* cloud state (who is bound,
//! who speaks as the device, who holds which session token), explores every
//! reachable state under all interleavings of honest and adversarial
//! actions, and decides three safety properties:
//!
//! * **ATTACKER-BOUND** — can the attacker ever hold the binding?
//! * **ATTACKER-CONTROL** — can the attacker's commands ever reach the
//!   real device's relay?
//! * **USER-DISCONNECT** — can an adversarial action ever destroy an
//!   established user binding?
//!
//! Because the model is untimed, it explores schedules no live run would
//! hit (e.g. a user who never finishes setup) — which is exactly what makes
//! it *stronger* than testing: the checker found the A2→control escalation
//! on bind-first designs that Table III's accounting does not chart.
//!
//! The checker is a third, independent implementation of the semantics
//! (besides the analyzer's predicate logic and the cloud's executable
//! handlers); `spec::tests` proves all three agree.

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::design::{BindScheme, ControlVerdict, VendorDesign};

/// A protocol principal in the abstract model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Party {
    /// The legitimate owner.
    User,
    /// The WAN adversary.
    Attacker,
}

/// Who currently speaks as the device at the cloud.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DeviceSrc {
    /// No live session.
    None,
    /// Only the real device.
    Real,
    /// Only a forged session.
    Forged,
    /// Both (concurrent-session clouds).
    Both,
}

impl DeviceSrc {
    /// Whether the real device currently holds a live session.
    pub fn includes_real(self) -> bool {
        matches!(self, DeviceSrc::Real | DeviceSrc::Both)
    }

    /// Whether *any* session (real or forged) speaks as the device.
    pub fn online(self) -> bool {
        self != DeviceSrc::None
    }
}

/// The abstract cloud state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AbsState {
    /// Who speaks as the device.
    pub src: DeviceSrc,
    /// Who holds the binding.
    pub bound: Option<Party>,
    /// Whose bind minted the current binding-session token (post-binding
    /// designs).
    pub binding_session: Option<Party>,
    /// Whose mint the *real device* currently presents (the token only
    /// travels over the LAN, so only the user can refresh it).
    pub device_token: Option<Party>,
}

impl AbsState {
    /// The factory state.
    pub fn initial() -> Self {
        AbsState {
            src: DeviceSrc::None,
            bound: None,
            binding_session: None,
            device_token: None,
        }
    }
}

/// The actions of the abstract protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Act {
    /// The real device registers (power-on / reconnect).
    DevRegister,
    /// The real device goes offline (power-off / heartbeat expiry).
    DevOffline,
    /// The user completes a binding (through whichever channel the design
    /// uses).
    UserBind,
    /// The user revokes their binding.
    UserUnbind,
    /// The attacker forges a registration (`Status`).
    AtkRegister,
    /// The attacker forges a binding.
    AtkBind,
    /// The attacker forges `Unbind:(DevId,UserToken)` with their own token.
    AtkUnbindToken,
    /// The attacker forges `Unbind:DevId`.
    AtkUnbindBare,
}

impl Act {
    /// All actions.
    pub(crate) const ALL: [Act; 8] = [
        Act::DevRegister,
        Act::DevOffline,
        Act::UserBind,
        Act::UserUnbind,
        Act::AtkRegister,
        Act::AtkBind,
        Act::AtkUnbindToken,
        Act::AtkUnbindBare,
    ];

    /// Whether the action is adversarial.
    pub(crate) fn is_adversarial(self) -> bool {
        matches!(
            self,
            Act::AtkRegister | Act::AtkBind | Act::AtkUnbindToken | Act::AtkUnbindBare
        )
    }
}

/// Applies `act` in `s` under `design`; `None` when the cloud rejects it
/// (or the attacker cannot construct the message).
pub fn step(design: &VendorDesign, s: AbsState, act: Act) -> Option<AbsState> {
    let mut n = s;
    match act {
        Act::DevRegister => {
            if design.checks.register_resets_binding && s.bound.is_some() {
                n.bound = None;
                n.binding_session = None;
            }
            n.src = match s.src {
                DeviceSrc::Forged | DeviceSrc::Both if design.checks.concurrent_device_sessions => {
                    DeviceSrc::Both
                }
                _ => DeviceSrc::Real,
            };
            Some(n)
        }
        Act::DevOffline => {
            n.src = match s.src {
                DeviceSrc::Real => DeviceSrc::None,
                DeviceSrc::Both => DeviceSrc::Forged,
                other => other,
            };
            (n != s).then_some(n)
        }
        Act::UserBind => {
            // The user can always satisfy local-presence proofs; device-
            // and capability-channel binds need the real device online.
            let needs_real = design.checks.bind_requires_online_device
                || matches!(design.bind, BindScheme::AclDevice | BindScheme::Capability);
            if needs_real && !s.src.includes_real() {
                return None;
            }
            if design.checks.reject_bind_when_bound && s.bound == Some(Party::Attacker) {
                return None;
            }
            n.bound = Some(Party::User);
            if design.checks.post_binding_session {
                n.binding_session = Some(Party::User);
                // The app (or the device itself, for device-channel binds)
                // delivers the fresh token locally.
                n.device_token = Some(Party::User);
            }
            Some(n)
        }
        Act::UserUnbind => {
            if !design.unbind.any() || s.bound != Some(Party::User) {
                return None;
            }
            n.bound = None;
            n.binding_session = None;
            Some(n)
        }
        Act::AtkRegister => {
            if !design.status_forgeable() {
                return None;
            }
            if design.checks.register_resets_binding && s.bound.is_some() {
                n.bound = None;
                n.binding_session = None;
            }
            n.src = match s.src {
                DeviceSrc::Real | DeviceSrc::Both if design.checks.concurrent_device_sessions => {
                    DeviceSrc::Both
                }
                _ => DeviceSrc::Forged,
            };
            Some(n)
        }
        Act::AtkBind => {
            if !design.bind_forgeable() {
                return None;
            }
            if design.checks.bind_requires_online_device && !s.src.online() {
                return None;
            }
            if design.checks.reject_bind_when_bound && s.bound == Some(Party::User) {
                return None;
            }
            n.bound = Some(Party::Attacker);
            if design.checks.post_binding_session {
                n.binding_session = Some(Party::Attacker);
                // The attacker cannot make the LAN hop: the real device
                // keeps whatever token it had.
            }
            Some(n)
        }
        Act::AtkUnbindToken => {
            if !design.unbind.dev_id_user_token
                || design.checks.verify_unbind_is_bound_user
                || s.bound.is_none()
            {
                return None;
            }
            n.bound = None;
            n.binding_session = None;
            Some(n)
        }
        Act::AtkUnbindBare => {
            if !design.unbind.dev_id_only || s.bound.is_none() {
                return None;
            }
            n.bound = None;
            n.binding_session = None;
            Some(n)
        }
    }
}

/// Whether the attacker's control commands are relayed to the real device
/// in state `s` — the paper's "absolute control".
pub fn attacker_controls(design: &VendorDesign, s: AbsState) -> bool {
    if s.bound != Some(Party::Attacker) || !s.src.includes_real() {
        return false;
    }
    if design.checks.post_binding_session {
        // Both ends must present the attacker's mint; the real device
        // cannot be updated remotely.
        if s.binding_session != Some(Party::Attacker) || s.device_token != Some(Party::Attacker) {
            return false;
        }
    }
    matches!(design.hijack_control_verdict(), ControlVerdict::Relayed)
}

/// Whether the transition `pre --act--> post` *is* a USER-DISCONNECT
/// event: an adversarial action destroys an established user binding.
///
/// This is the single definition of the paper's disconnection property at
/// the step level. The bounded checker, the product-machine explorer
/// (`rb-mc`), and the lifecycle fuzzer (`rb-fuzz`) all evaluate their
/// trajectories through it, so the three tools cannot drift apart on what
/// counts as a disconnection.
pub fn user_disconnect_step(pre: AbsState, act: Act, post: AbsState) -> bool {
    act.is_adversarial() && pre.bound == Some(Party::User) && post.bound != Some(Party::User)
}

/// The checker's verdict for one design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecReport {
    /// Reachable abstract states.
    pub reachable: usize,
    /// A trace to a state where the attacker holds the binding, if any.
    pub attacker_bound: Option<Vec<Act>>,
    /// A trace to a state where the attacker controls the real device.
    pub attacker_control: Option<Vec<Act>>,
    /// A trace in which an adversarial action destroys an established user
    /// binding.
    pub user_disconnect: Option<Vec<Act>>,
}

impl SpecReport {
    /// Whether no adversarial property is reachable.
    pub fn is_secure(&self) -> bool {
        self.attacker_bound.is_none()
            && self.attacker_control.is_none()
            && self.user_disconnect.is_none()
    }
}

/// Exhaustively explores the design's transition system (BFS, so witness
/// traces are minimal).
///
/// ```rust
/// use rb_core::spec::check;
/// use rb_core::vendors;
///
/// // E-Link's replace-on-bind cloud is provably hijackable…
/// let spec = check(&vendors::e_link());
/// assert!(spec.attacker_control.is_some());
/// // …while the capability reference verifies secure.
/// let spec = check(&vendors::capability_reference());
/// assert!(spec.is_secure());
/// ```
pub fn check(design: &VendorDesign) -> SpecReport {
    let mut paths: HashMap<AbsState, Vec<Act>> = HashMap::new();
    let mut queue = VecDeque::new();
    paths.insert(AbsState::initial(), Vec::new());
    queue.push_back(AbsState::initial());

    let mut attacker_bound = None;
    let mut attacker_control = None;
    let mut user_disconnect = None;

    while let Some(s) = queue.pop_front() {
        let path = paths[&s].clone();
        if s.bound == Some(Party::Attacker) && attacker_bound.is_none() {
            attacker_bound = Some(path.clone());
        }
        if attacker_controls(design, s) && attacker_control.is_none() {
            attacker_control = Some(path.clone());
        }
        for act in Act::ALL {
            let Some(next) = step(design, s, act) else {
                continue;
            };
            if user_disconnect.is_none() && user_disconnect_step(s, act, next) {
                let mut p = path.clone();
                p.push(act);
                user_disconnect = Some(p);
            }
            if let std::collections::hash_map::Entry::Vacant(e) = paths.entry(next) {
                let mut p = path.clone();
                p.push(act);
                e.insert(p);
                queue.push_back(next);
            }
        }
    }

    SpecReport {
        reachable: paths.len(),
        attacker_bound,
        attacker_control,
        user_disconnect,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::{Diagnostic, RuleId, Severity as DiagSeverity};
    use crate::vendors::*;
    use std::collections::BTreeSet;

    // Checks the checker against the analyzer over a set of designs; returns
    // one `RB013` diagnostic per disagreement (empty = the two independent
    // semantics agree).
    //
    // The correspondence, accounting for the checker being untimed:
    //
    // * ATTACKER-BOUND ⇔ the bind message is forgeable at all;
    // * ATTACKER-CONTROL ⇔ forgeable bind ∧ control verdict `Relayed`;
    // * USER-DISCONNECT ⇔ some A3 variant or A4-1 is feasible, or status
    //   forgery resets bindings.
    fn cross_check(designs: &[VendorDesign]) -> Vec<Diagnostic> {
        use crate::analyzer::analyze;
        use crate::attacks::AttackId;

        let disagreement = |span: &str, message: String| Diagnostic {
            rule: RuleId::RB013,
            severity: DiagSeverity::Error,
            span: span.to_owned(),
            message,
            related_attacks: Vec::new(),
            fix: None,
        };

        let mut out = Vec::new();
        for design in designs {
            let spec = check(design);
            let report = analyze(design);

            let bound_expected = design.bind_forgeable();
            if spec.attacker_bound.is_some() != bound_expected {
                out.push(disagreement(
                    "spec.attacker_bound",
                    format!(
                        "{}: ATTACKER-BOUND reachable={} but bind_forgeable={}",
                        design.vendor,
                        spec.attacker_bound.is_some(),
                        bound_expected
                    ),
                ));
            }

            let control_expected = design.bind_forgeable()
                && matches!(design.hijack_control_verdict(), ControlVerdict::Relayed);
            if spec.attacker_control.is_some() != control_expected {
                out.push(disagreement(
                    "spec.attacker_control",
                    format!(
                        "{}: ATTACKER-CONTROL reachable={} but expected {}",
                        design.vendor,
                        spec.attacker_control.is_some(),
                        control_expected
                    ),
                ));
            }

            let disconnect_expected = [
                AttackId::A3_1,
                AttackId::A3_2,
                AttackId::A3_3,
                AttackId::A3_4,
                AttackId::A4_1,
            ]
            .iter()
            .any(|id| report.feasible(*id));
            if spec.user_disconnect.is_some() != disconnect_expected {
                out.push(disagreement(
                    "spec.user_disconnect",
                    format!(
                        "{}: USER-DISCONNECT reachable={} but analyzer A3*/A4-1 feasible={}",
                        design.vendor,
                        spec.user_disconnect.is_some(),
                        disconnect_expected
                    ),
                ));
            }
        }
        out
    }

    #[test]
    fn step_respects_every_guard() {
        use Act::*;
        let d = weakest_design();
        let s0 = AbsState::initial();
        // Offline in the initial state is a no-op (None, not a transition).
        assert_eq!(step(&d, s0, DevOffline), None);
        // The attacker can register on a forgeable design…
        let s1 = step(&d, s0, AtkRegister).expect("forgeable");
        assert_eq!(s1.src, DeviceSrc::Forged);
        // …and the real device joins concurrently on a concurrent cloud.
        let s2 = step(&d, s1, DevRegister).expect("register");
        assert_eq!(s2.src, DeviceSrc::Both);
        // Going offline strips only the real device.
        let s3 = step(&d, s2, DevOffline).expect("offline");
        assert_eq!(s3.src, DeviceSrc::Forged);

        // A capability design refuses every attacker bind everywhere.
        let cap = capability_reference();
        for src in [DeviceSrc::None, DeviceSrc::Real] {
            let s = AbsState {
                src,
                ..AbsState::initial()
            };
            assert_eq!(step(&cap, s, AtkBind), None);
        }

        // Sticky designs refuse cross-party rebinds in both directions.
        let mut sticky = e_link();
        sticky.checks.reject_bind_when_bound = true;
        let bound_user = AbsState {
            src: DeviceSrc::Real,
            bound: Some(Party::User),
            ..AbsState::initial()
        };
        assert_eq!(step(&sticky, bound_user, AtkBind), None);
        let bound_atk = AbsState {
            src: DeviceSrc::Real,
            bound: Some(Party::Attacker),
            ..AbsState::initial()
        };
        assert_eq!(step(&sticky, bound_atk, UserBind), None);
    }

    #[test]
    fn post_binding_session_tokens_flow_as_modeled() {
        use Act::*;
        let d = konke(); // replace semantics + post-binding sessions
        let s = AbsState {
            src: DeviceSrc::Real,
            ..AbsState::initial()
        };
        let s = step(&d, s, UserBind).expect("user binds");
        assert_eq!(s.binding_session, Some(Party::User));
        assert_eq!(s.device_token, Some(Party::User), "app delivered locally");
        let s = step(&d, s, AtkBind).expect("replacement accepted");
        assert_eq!(s.binding_session, Some(Party::Attacker));
        assert_eq!(
            s.device_token,
            Some(Party::User),
            "the LAN hop never happened"
        );
        assert!(!attacker_controls(&d, s), "session mismatch blocks control");
    }

    #[test]
    fn state_space_is_tiny_and_closed() {
        for design in vendor_designs() {
            let spec = check(&design);
            assert!(
                spec.reachable <= 72,
                "{}: {}",
                design.vendor,
                spec.reachable
            );
            assert!(spec.reachable >= 2);
        }
    }

    #[test]
    fn reference_designs_verify_secure() {
        for design in [capability_reference(), public_key_reference()] {
            let spec = check(&design);
            assert!(spec.is_secure(), "{}: {:?}", design.vendor, spec);
        }
    }

    #[test]
    fn minimal_secure_design_verifies_secure() {
        let spec = check(&crate::explore::minimal_secure_design());
        assert!(spec.is_secure(), "{spec:?}");
    }

    #[test]
    fn e_link_hijack_has_a_three_step_witness() {
        let spec = check(&e_link());
        let trace = spec.attacker_control.expect("E-Link is hijackable");
        // Minimal trace: device online, user binds (or not), attacker
        // replaces. BFS minimality keeps it short.
        assert!(trace.len() <= 3, "{trace:?}");
        assert!(trace.contains(&Act::AtkBind));
    }

    #[test]
    fn tp_link_disconnect_witness_uses_its_broken_unbind() {
        let spec = check(&tp_link());
        let fingerprint: BTreeSet<Act> = [
            spec.attacker_bound,
            spec.attacker_control,
            spec.user_disconnect,
        ]
        .into_iter()
        .flatten()
        .flatten()
        .filter(|act| act.is_adversarial())
        .collect();
        assert!(
            fingerprint.contains(&Act::AtkUnbindBare) || fingerprint.contains(&Act::AtkRegister),
            "{fingerprint:?}"
        );
    }

    #[test]
    fn belkin_attacker_never_reaches_control() {
        let spec = check(&belkin());
        assert!(spec.attacker_bound.is_some(), "occupation is possible");
        assert!(
            spec.attacker_control.is_none(),
            "control never is (DevToken)"
        );
        assert!(spec.user_disconnect.is_some(), "A3-2 disconnects");
    }

    #[test]
    fn checker_agrees_with_analyzer_on_the_ten_vendors() {
        let disagreements = cross_check(&vendor_designs());
        assert!(disagreements.is_empty(), "{disagreements:#?}");
    }

    #[test]
    fn checker_agrees_with_analyzer_over_the_whole_design_space() {
        let disagreements = cross_check(&crate::explore::all_designs());
        assert!(
            disagreements.is_empty(),
            "{} disagreements, first: {:?}",
            disagreements.len(),
            disagreements.first()
        );
    }

    #[test]
    fn untimed_model_exposes_the_a2_escalation_on_bind_first_designs() {
        // Table III marks D-LINK A4 = ✗ (its setup order leaves no race
        // window), but the untimed checker proves the *escalation* path:
        // occupy the binding before the victim, wait for the device to come
        // online, control it. This is the known-deviation note of
        // EXPERIMENTS.md, verified.
        let spec = check(&d_link());
        let trace = spec.attacker_control.expect("escalation exists");
        assert!(trace.contains(&Act::AtkBind), "{trace:?}");
        assert!(trace.contains(&Act::DevRegister), "{trace:?}");
    }
}
