//! The forger: every message the WAN attacker sends, built in one place.
//!
//! The paper's remote attacker (§III, Table II) holds three things: the
//! victim's device ID, their own account and, where the firmware was
//! reverse engineered, the message formats. With them they forge the
//! three primitives. [`AtkStep`] names the four forged message classes
//! and [`AtkStep::forge`] builds each one for a design. Two messages lie
//! outside the step vocabulary: A1's forged telemetry heartbeat
//! (`forged_heartbeat`) and a hijacker's `Control` with the stolen
//! session ([`forged_control`]).
//!
//! Every live harness sends these messages and no others: the Table II
//! executors in [`crate::exec`], the scripted monitor attacker
//! ([`crate::monitor_run`]), rb-mc's witness replayer and the bench
//! binaries. The forger only builds messages; what the attacker *knows*
//! (the executors' firmware-knowledge gates) is decided by the caller.
//!
//! [`playbooks`] lists the steps each executor sends, in order, and
//! model-level harnesses (the lifecycle fuzzer's DSL in particular)
//! draw their attacker actions from it. Two tests pin it: every playbook
//! forges exactly the primitives [`AttackId::forged_primitives`] lists
//! for its attack, in order, and every feasible executor run sends the
//! steps of one of its attack's playbooks (`exec.rs`).

use rb_core::attacks::AttackId;
use rb_core::design::{BindScheme, VendorDesign};
use rb_wire::ids::DevId;
use rb_wire::messages::{
    BindPayload, ControlAction, DeviceAttributes, Message, Response, StatusAuth, StatusPayload,
    UnbindPayload,
};
use rb_wire::telemetry::TelemetryFrame;
use rb_wire::tokens::{SessionToken, UserId, UserPw, UserToken};
use std::fmt;

use crate::adversary::{ATTACKER_ID, ATTACKER_PW};

/// One abstract adversarial step: a forged message class the WAN attacker
/// can construct from the device ID, their own account, and (where the
/// vendor profile grants it) the reverse-engineered message formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AtkStep {
    /// A forged device registration, `Status:DevId`.
    Register,
    /// A forged binding for the design's accepted shape,
    /// `Bind:(DevId,UserToken)` (or the device-channel equivalent).
    Bind,
    /// A forged token unbind, `Unbind:(DevId,UserToken)` with the
    /// attacker's own token.
    UnbindToken,
    /// A forged bare unbind, `Unbind:DevId` — the reset-channel message.
    UnbindBare,
}

impl AtkStep {
    /// The message this step sends against `dev_id` on `design`, signed
    /// with the attacker's own `user_token` where the shape needs one.
    /// `None` only where no such message exists: a capability bind (the
    /// `BindToken` never leaves the victim's LAN), or a token-carrying
    /// shape before the attacker logged in.
    pub fn forge(
        self,
        design: &VendorDesign,
        dev_id: &DevId,
        user_token: Option<UserToken>,
    ) -> Option<Message> {
        let dev_id = dev_id.clone();
        Some(match self {
            AtkStep::Register => Message::Status(StatusPayload::register(
                StatusAuth::DevId(dev_id.clone()),
                dev_id,
                DeviceAttributes::new("forged", "0.0.0"),
            )),
            AtkStep::Bind => Message::Bind(match design.bind {
                BindScheme::AclApp => BindPayload::AclApp {
                    dev_id,
                    user_token: user_token?,
                },
                BindScheme::AclDevice => BindPayload::AclDevice {
                    dev_id,
                    user_id: UserId::new(ATTACKER_ID),
                    user_pw: UserPw::new(ATTACKER_PW),
                },
                BindScheme::Capability => return None,
            }),
            AtkStep::UnbindToken => Message::Unbind(UnbindPayload::DevIdUserToken {
                dev_id,
                user_token: user_token?,
            }),
            AtkStep::UnbindBare => Message::Unbind(UnbindPayload::DevIdOnly { dev_id }),
        })
    }

    /// Whether `rsp` is the cloud accepting this step's forgery.
    pub fn accepted_by(self, rsp: &Response) -> bool {
        match self {
            AtkStep::Register => matches!(rsp, Response::StatusAccepted { .. }),
            AtkStep::Bind => matches!(rsp, Response::Bound { .. }),
            AtkStep::UnbindToken | AtkStep::UnbindBare => matches!(rsp, Response::Unbound),
        }
    }
}

/// A forged heartbeat for `dev_id` carrying `telemetry` — A1's data
/// injection over a forged device session.
pub(crate) fn forged_heartbeat(dev_id: &DevId, telemetry: Vec<TelemetryFrame>) -> Message {
    let mut payload = StatusPayload::heartbeat(StatusAuth::DevId(dev_id.clone()), dev_id.clone());
    payload.telemetry = telemetry;
    Message::Status(payload)
}

/// The hijacker's `TurnOn` for `dev_id`, presenting whatever session
/// token came with the stolen binding, exactly as the protocol demands.
pub fn forged_control(
    dev_id: &DevId,
    user_token: UserToken,
    session: Option<SessionToken>,
) -> Message {
    Message::Control {
        dev_id: dev_id.clone(),
        user_token,
        session,
        action: ControlAction::TurnOn,
    }
}

impl fmt::Display for AtkStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtkStep::Register => "atk-register",
            AtkStep::Bind => "atk-bind",
            AtkStep::UnbindToken => "atk-unbind-token",
            AtkStep::UnbindBare => "atk-unbind-bare",
        };
        f.write_str(s)
    }
}

/// The alternative step sequences that realize `id`, in preference
/// order. Most attacks have exactly one playbook; `A4-3` ("unbind then
/// bind") has two, one per unbind channel, matching Table II's
/// "(1) Unbind:DevId **or** (DevId,UserToken) (2) Bind".
pub fn playbooks(id: AttackId) -> &'static [&'static [AtkStep]] {
    match id {
        AttackId::A1 | AttackId::A3_4 => &[&[AtkStep::Register]],
        AttackId::A2 | AttackId::A3_3 | AttackId::A4_1 | AttackId::A4_2 => &[&[AtkStep::Bind]],
        AttackId::A3_1 => &[&[AtkStep::UnbindBare]],
        AttackId::A3_2 => &[&[AtkStep::UnbindToken]],
        AttackId::A4_3 => &[
            &[AtkStep::UnbindBare, AtkStep::Bind],
            &[AtkStep::UnbindToken, AtkStep::Bind],
        ],
    }
}

/// Named composite attacks: step sequences outside the paper's nine-row
/// taxonomy, discovered by the lifecycle fuzzer and promoted into the
/// shared vocabulary. These deliberately live in their own table — the
/// [`playbooks`] map stays a faithful Table II transcription.
///
/// `A4-4` is the register-reset takeover on `register_resets_binding`
/// designs (TP-LINK): a forged Register drops the victim's binding (the
/// A3-4 denial-of-service), then a fresh forged Bind claims the now
/// unbound device — a full hijack from two primitives neither of which
/// achieves one alone.
pub const COMPOSITES: &[(&str, &[AtkStep])] = &[("A4-4", &[AtkStep::Register, AtkStep::Bind])];

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::shadow::Primitive;

    impl AtkStep {
        // The shadow-machine primitive this step forges.
        fn primitive(self) -> Primitive {
            match self {
                AtkStep::Register => Primitive::Status,
                AtkStep::Bind => Primitive::Bind,
                AtkStep::UnbindToken | AtkStep::UnbindBare => Primitive::Unbind,
            }
        }
    }

    #[test]
    fn every_playbook_forges_exactly_the_table2_primitives() {
        for id in AttackId::ALL {
            for playbook in playbooks(id) {
                let forged: Vec<Primitive> = playbook.iter().map(|s| s.primitive()).collect();
                assert_eq!(
                    forged.as_slice(),
                    id.forged_primitives(),
                    "{id}: playbook {playbook:?} diverges from Table II"
                );
                assert!(!playbook.is_empty(), "{id}: empty playbook");
            }
        }
    }

    #[test]
    fn the_forger_refuses_only_capability_binds_and_tokenless_shapes() {
        use rb_core::vendors::{belkin, capability_reference, tp_link};
        use rb_wire::tokens::UserToken;
        let steps = [
            AtkStep::Register,
            AtkStep::Bind,
            AtkStep::UnbindToken,
            AtkStep::UnbindBare,
        ];
        let token = Some(UserToken::from_entropy(7));
        // Belkin binds over the app channel (the attacker's token), TP-LINK
        // over the device channel (the attacker's password).
        for (design, tokenless_bind) in [(belkin(), false), (tp_link(), true)] {
            let dev_id = design.id_scheme.id_at(1);
            for step in steps {
                assert!(step.forge(&design, &dev_id, token).is_some(), "{step}");
                let tokenless = step.forge(&design, &dev_id, None).is_some();
                let expected = match step {
                    AtkStep::Register | AtkStep::UnbindBare => true,
                    AtkStep::Bind => tokenless_bind,
                    AtkStep::UnbindToken => false,
                };
                assert_eq!(tokenless, expected, "{} {step}", design.vendor);
            }
        }
        let design = capability_reference();
        let dev_id = design.id_scheme.id_at(1);
        for step in steps {
            let forged = step.forge(&design, &dev_id, token);
            assert_eq!(forged.is_none(), step == AtkStep::Bind, "{step}");
        }
    }

    #[test]
    fn a4_3_offers_both_unbind_channels() {
        let books = playbooks(AttackId::A4_3);
        assert_eq!(books.len(), 2);
        assert_eq!(books[0][0], AtkStep::UnbindBare);
        assert_eq!(books[1][0], AtkStep::UnbindToken);
        assert!(books.iter().all(|b| b.last() == Some(&AtkStep::Bind)));
    }

    #[test]
    fn the_register_reset_takeover_composite_is_pinned() {
        // The fuzzer-found unnamed composite (register-reset unbind + fresh
        // forged bind) is promoted to a named cell; its steps and its
        // separation from the Table II map are both pinned.
        assert_eq!(COMPOSITES.len(), 1, "one promoted composite so far");
        let (name, steps) = COMPOSITES[0];
        assert_eq!(name, "A4-4");
        assert_eq!(steps, &[AtkStep::Register, AtkStep::Bind]);
        // No Table II playbook equals the composite: it is genuinely new.
        for id in AttackId::ALL {
            for book in playbooks(id) {
                assert_ne!(*book, steps, "{id} duplicates the composite");
            }
        }
    }

    #[test]
    fn the_nine_attacks_cover_every_step_kind() {
        use std::collections::BTreeSet;
        let steps: BTreeSet<AtkStep> = AttackId::ALL
            .into_iter()
            .flat_map(|id| playbooks(id).iter().copied().flatten().copied())
            .collect();
        assert_eq!(
            steps.len(),
            4,
            "the taxonomy exercises all four adversarial step kinds: {steps:?}"
        );
    }
}
