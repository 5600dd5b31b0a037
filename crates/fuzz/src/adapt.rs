//! Table III classification: naming the attack cell a minimal witness
//! rediscovers.
//!
//! A minimal interleaving violates a property at some product step, and
//! every property-violating step is adversarial, so it falls inside one
//! [`crate::dsl::Act::Attack`] act. That act's own label is *not*
//! trusted: sibling attacks compile to the same forged messages (A3-3
//! "disconnect by replacing bind" and A4-1 "hijack by replacing bind"
//! are both one `Bind` in the Control state), so the classifier instead
//! matches the act's realized step shape and launch shadow-state against
//! every Table II playbook and keeps the candidates the static analyzer
//! ([`rb_core::analyzer::analyze`]) agrees are feasible. Ties are broken
//! by the violated property's family — disconnect findings prefer the A3
//! column, takeover findings the A2/A4 columns. A composite with no
//! feasible single-cell name (e.g. a register-reset unbind followed by a
//! separate forged bind, which is A4-3 in spirit but not in message
//! sequence) classifies to `None` rather than to a wrong cell.

use crate::dsl::{compile_seq, shadow_of, Act};
use crate::oracle::check_step;
use rb_attack::acts::{playbooks, AtkStep, COMPOSITES};
use rb_core::analyzer::analyze;
use rb_core::attacks::AttackId;
use rb_core::design::VendorDesign;
use rb_mc::explore::Property;

fn is_disconnect_cell(id: AttackId) -> bool {
    rb_mc::diag::DISCONNECT_ATTACKS.contains(&id)
}

/// The Table III cell `minimal` rediscovers for `property`: the
/// analyzer-feasible attack whose playbook and launch state match the
/// attack act containing the first violating step. `None` for illegal
/// sequences, for violations outside attack acts, and for composites no
/// single cell names.
pub(crate) fn classify(
    design: &VendorDesign,
    traps: &[bool],
    property: Property,
    minimal: &[Act],
) -> Option<AttackId> {
    let compiled = compile_seq(design, minimal)?;
    let analysis = analyze(design);
    for c in &compiled {
        let violating = c
            .steps
            .iter()
            .any(|&(act, pre, post)| check_step(design, traps, pre, act, post).contains(&property));
        if !violating {
            continue;
        }
        if !matches!(c.act, Act::Attack(_)) {
            return None;
        }
        // The act's realized shape: the forged-step kinds and the shadow
        // state it launched from.
        let kinds: Option<Vec<AtkStep>> =
            c.steps.iter().map(|&(act, _, _)| act.atk_step()).collect();
        let kinds = kinds?;
        let launch = shadow_of(c.steps.first()?.1);
        let candidates: Vec<AttackId> = AttackId::ALL
            .into_iter()
            .filter(|&id| {
                analysis.feasible(id)
                    && id.targeted_states().contains(&launch)
                    && playbooks(id).iter().any(|pb| **pb == kinds[..])
            })
            .collect();
        let preferred = match property {
            Property::UserDisconnect => candidates
                .iter()
                .copied()
                .find(|&id| is_disconnect_cell(id)),
            Property::AttackerBound | Property::AttackerControl | Property::RebindLivelock => {
                candidates
                    .iter()
                    .copied()
                    .find(|&id| !is_disconnect_cell(id))
            }
            Property::StaleSession => None,
        };
        return preferred.or_else(|| candidates.first().copied());
    }
    None
}

/// The named composite a witness realizes when no single Table III cell
/// does ([`classify`] returned `None`): the concatenated forged steps of
/// its attack acts, matched against the promoted
/// [`rb_attack::acts::COMPOSITES`] table. Returns `None` for
/// single-cell witnesses, non-violating sequences, and composites still
/// unnamed.
pub(crate) fn classify_composite(
    design: &VendorDesign,
    traps: &[bool],
    property: Property,
    minimal: &[Act],
) -> Option<&'static str> {
    if classify(design, traps, property, minimal).is_some() {
        return None;
    }
    let compiled = compile_seq(design, minimal)?;
    let mut violated = false;
    let mut kinds: Vec<AtkStep> = Vec::new();
    for c in &compiled {
        if !matches!(c.act, Act::Attack(_)) {
            continue;
        }
        for &(act, pre, post) in &c.steps {
            kinds.push(act.atk_step()?);
            if check_step(design, traps, pre, act, post).contains(&property) {
                violated = true;
            }
        }
    }
    if !violated {
        return None;
    }
    COMPOSITES
        .iter()
        .find(|(_, steps)| **steps == kinds[..])
        .map(|(name, _)| *name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::vendors::*;
    use rb_mc::explore::trap_states;

    #[test]
    fn the_canonical_witnesses_classify_to_their_cells() {
        let cases = [
            (
                tp_link(),
                Property::UserDisconnect,
                vec![Act::Setup, Act::Attack(AttackId::A3_1)],
                AttackId::A3_1,
            ),
            (
                belkin(),
                Property::UserDisconnect,
                vec![Act::Setup, Act::Attack(AttackId::A3_2)],
                AttackId::A3_2,
            ),
            (
                e_link(),
                Property::AttackerBound,
                vec![Act::Setup, Act::Attack(AttackId::A4_1)],
                AttackId::A4_1,
            ),
        ];
        for (design, property, witness, want) in cases {
            let traps = trap_states(&design);
            assert_eq!(
                classify(&design, &traps, property, &witness),
                Some(want),
                "{}",
                design.vendor
            );
        }
    }

    #[test]
    fn sibling_labels_classify_to_the_feasible_cell() {
        // On E-Link only A4-1 is statically feasible; a witness the
        // generator happened to label A3-3 (same forged message, same
        // launch state) must classify to the named cell, not to None.
        let d = e_link();
        let traps = trap_states(&d);
        let witness = [Act::Setup, Act::Attack(AttackId::A3_3)];
        assert_eq!(
            classify(&d, &traps, Property::AttackerBound, &witness),
            Some(AttackId::A4_1)
        );
    }

    #[test]
    fn unnamed_composites_classify_to_none() {
        // Register-reset unbind, then a separate forged bind from the
        // unbound-online state: the takeover is real but no single Table
        // III cell on TP-LINK names it (A4-2 is statically infeasible
        // there), so the classifier refuses to mislabel it.
        let d = tp_link();
        let traps = trap_states(&d);
        let witness = [
            Act::Setup,
            Act::Attack(AttackId::A3_4),
            Act::Attack(AttackId::A4_2),
        ];
        assert_eq!(
            classify(&d, &traps, Property::AttackerBound, &witness),
            None
        );
        // …but since its promotion the composite table names it A4-4.
        assert_eq!(
            classify_composite(&d, &traps, Property::AttackerBound, &witness),
            Some("A4-4")
        );
    }

    #[test]
    fn single_cell_witnesses_are_not_composites() {
        // A witness a Table III cell already names never gets a composite
        // label — classify() wins.
        let d = e_link();
        let traps = trap_states(&d);
        let witness = [Act::Setup, Act::Attack(AttackId::A4_1)];
        assert_eq!(
            classify_composite(&d, &traps, Property::AttackerBound, &witness),
            None
        );
        // Nor does a non-violating register+bind shape on a design where
        // registration does not reset bindings.
        let d = ozwi();
        let traps = trap_states(&d);
        let witness = [
            Act::Setup,
            Act::Attack(AttackId::A3_4),
            Act::Attack(AttackId::A4_2),
        ];
        assert_eq!(
            classify_composite(&d, &traps, Property::RebindLivelock, &witness),
            None,
            "shape match alone is not enough — the property must be violated"
        );
    }

    #[test]
    fn an_unviolating_sequence_classifies_to_none() {
        let d = capability_reference();
        let traps = trap_states(&d);
        let acts = [Act::Setup, Act::PowerOff, Act::Rebind];
        for property in Property::ALL {
            assert_eq!(classify(&d, &traps, property, &acts), None);
        }
    }
}
