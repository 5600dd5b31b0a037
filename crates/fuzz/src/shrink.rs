//! The shrinker: delta-debugging reduction of a violating interleaving
//! to a 1-minimal one.
//!
//! Classic `ddmin` over act sequences: try removing chunks (halving the
//! chunk size from `len/2` down to 1, scanning left to right), accept a
//! candidate iff it is still a *legal* interleaving
//! ([`crate::dsl::compile_seq`] succeeds) that still violates the *same*
//! property. Once chunk size 1 completes a full pass with no removal the
//! result is 1-minimal: deleting any single act either makes the
//! sequence illegal or loses the violation. Termination is by strict
//! length decrease — every accepted candidate is shorter, so the loop
//! cannot oscillate. The whole procedure is deterministic (no
//! randomness), which the shrinker property tests pin across seeds.

use crate::dsl::Act;
use crate::oracle::violates;
use rb_core::design::VendorDesign;
use rb_mc::explore::Property;

/// The result of shrinking: the minimal sequence and the number of
/// candidate evaluations it took (the `shrink-steps-to-minimal` metric
/// of `exp_fuzz`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shrunk {
    /// The 1-minimal violating sequence.
    pub minimal: Vec<Act>,
    /// Candidate sequences evaluated while reducing.
    pub(crate) steps: usize,
}

/// Reduces `acts` — which must violate `property` — to a 1-minimal
/// subsequence that still violates it. If `acts` does not violate the
/// property the input is returned unchanged with zero steps.
pub fn shrink(design: &VendorDesign, traps: &[bool], acts: &[Act], property: Property) -> Shrunk {
    let mut cur: Vec<Act> = acts.to_vec();
    let mut steps = 0usize;
    if !violates(design, traps, &cur, property) {
        return Shrunk {
            minimal: cur,
            steps,
        };
    }
    loop {
        let before = cur.len();
        let mut k = (cur.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i + k <= cur.len() && cur.len() > 1 {
                let mut candidate = Vec::with_capacity(cur.len() - k);
                candidate.extend_from_slice(&cur[..i]);
                candidate.extend_from_slice(&cur[i + k..]);
                steps += 1;
                if violates(design, traps, &candidate, property) {
                    // Keep the removal; the next chunk now sits at `i`.
                    cur = candidate;
                } else {
                    i += 1;
                }
            }
            if k == 1 {
                break;
            }
            k /= 2;
        }
        // Re-run until a whole sweep removes nothing: chunk removals can
        // unlock single-act removals that an earlier pass rejected.
        if cur.len() == before {
            break;
        }
    }
    Shrunk {
        minimal: cur,
        steps,
    }
}

/// Whether `acts` is 1-minimal for `property`: it violates the property,
/// and no single-act deletion preserves both legality and the violation.
/// `exp_fuzz` gates on this holding for every reported finding.
pub fn is_one_minimal(
    design: &VendorDesign,
    traps: &[bool],
    acts: &[Act],
    property: Property,
) -> bool {
    if !violates(design, traps, acts, property) {
        return false;
    }
    (0..acts.len()).all(|i| {
        let mut candidate = acts.to_vec();
        candidate.remove(i);
        !violates(design, traps, &candidate, property)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::attacks::AttackId;
    use rb_core::vendors::*;
    use rb_mc::explore::trap_states;

    #[test]
    fn a_padded_witness_shrinks_to_its_core() {
        let d = weakest_design();
        let traps = trap_states(&d);
        let padded = [
            Act::Control,
            Act::Setup,
            Act::Chaos(rb_scenario::ChaosProfile::WanFlaps),
            Act::Control,
            Act::Attack(AttackId::A3_1),
            Act::Control,
        ];
        let shrunk = shrink(&d, &traps, &padded, Property::UserDisconnect);
        assert_eq!(
            shrunk.minimal,
            vec![Act::Setup, Act::Attack(AttackId::A3_1)]
        );
        assert!(shrunk.steps > 0);
        assert!(is_one_minimal(
            &d,
            &traps,
            &shrunk.minimal,
            Property::UserDisconnect
        ));
    }

    #[test]
    fn shrinking_a_minimal_witness_is_the_identity() {
        let d = weakest_design();
        let traps = trap_states(&d);
        let minimal = [Act::Setup, Act::Attack(AttackId::A3_1)];
        let shrunk = shrink(&d, &traps, &minimal, Property::UserDisconnect);
        assert_eq!(shrunk.minimal, minimal.to_vec());
    }

    #[test]
    fn a_non_violating_input_is_returned_unchanged() {
        let d = capability_reference();
        let traps = trap_states(&d);
        let acts = [Act::Setup, Act::PowerOff, Act::Rebind];
        let shrunk = shrink(&d, &traps, &acts, Property::AttackerBound);
        assert_eq!(shrunk.minimal, acts.to_vec());
        assert_eq!(shrunk.steps, 0);
    }
}
