//! The soundness / precision predicates.
//!
//! The linter's rules are syntactic pattern checks; the analyzer is the
//! semantic ground truth. The two must agree:
//!
//! * **soundness** — on every design, every attack the analyzer finds
//!   *feasible* appears in the `related_attacks` of at least one fired
//!   finding (no confirmed attack escapes the linter);
//! * **precision** — the minimal secure recipe fires zero diagnostics
//!   (the linter does not cry wolf on the design the paper's lessons
//!   converge to).
//!
//! [`unflagged_attacks`] checks soundness on one design. The sweep that
//! applies it to every coherent design of `rb_core::explore` is
//! `rb_mc::conformance`, whose rows `exp_lint` totals.

use rb_core::analyzer::AnalysisReport;
use rb_core::attacks::AttackId;
use rb_core::diagnostic::LintReport;
use rb_core::explore::minimal_secure_design;

use crate::rules::lint_design;

/// Checks one design: returns the feasible attacks of `analysis` that no
/// finding of `lint` (the design's lint report) relates to (empty = the
/// linter is sound on this design).
pub fn unflagged_attacks(analysis: &AnalysisReport, lint: &LintReport) -> Vec<AttackId> {
    AttackId::ALL
        .iter()
        .copied()
        .filter(|&attack| analysis.feasible(attack) && !lint.flags_attack(attack))
        .collect()
}

/// Precision check: findings the linter raises on the minimal secure
/// recipe (must be empty — each entry is a false alarm).
pub fn false_alarms_on_minimal_secure() -> Vec<String> {
    lint_design(&minimal_secure_design())
        .diagnostics
        .iter()
        .map(|d| format!("{}: {}", d.rule, d.span))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::analyzer::analyze;
    use rb_core::vendors::vendor_designs;

    #[test]
    fn every_table_iii_vendor_is_sound() {
        // Cheap subset of the full-space sweep (rb-mc's conformance
        // test): the ten studied vendors.
        for design in vendor_designs() {
            let missed = unflagged_attacks(&analyze(&design), &lint_design(&design));
            assert!(missed.is_empty(), "{}: {missed:?} unflagged", design.vendor);
        }
    }
}
