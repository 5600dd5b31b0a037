//! Act adapters: the nine Table II executors as abstract adversarial
//! step sequences.
//!
//! Each live executor in [`crate::exec`] drives a fixed playbook of
//! forged primitives against the cloud. This module exposes those
//! playbooks *symbolically* — as sequences of [`AtkStep`]s — so
//! model-level harnesses (the lifecycle fuzzer's DSL in particular) can
//! draw their attacker actions from the same nine attacks the live
//! executors implement, instead of inventing a parallel vocabulary. The
//! mapping is pinned against [`AttackId::forged_primitives`] by test:
//! every playbook forges exactly the primitives Table II lists for its
//! attack, in order.

use rb_core::attacks::AttackId;
use std::fmt;

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
