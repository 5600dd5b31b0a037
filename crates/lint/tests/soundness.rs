//! The exhaustive soundness/precision sweep (EXP-LINT).
//!
//! Sweeps every coherent design in the `rb_core::explore` space and
//! proves the two headline properties of the linter:
//!
//! * every attack the analyzer confirms feasible is related to at least
//!   one fired finding (soundness — no confirmed attack escapes);
//! * the minimal secure recipe fires zero diagnostics (precision — the
//!   linter does not cry wolf on the recommended design).
//!
//! rb-mc's `conformance` test asserts the same soundness, with the exact
//! counts, from the rows it computes once per design.

use rb_core::analyzer::analyze;
use rb_core::attacks::AttackId;
use rb_core::explore::all_designs;
use rb_lint::harness::{false_alarms_on_minimal_secure, unflagged_attacks};
use rb_lint::rules::lint_design;

#[test]
fn sweep_is_sound_over_the_whole_space() {
    let designs = all_designs();
    let (mut feasible_pairs, mut flagged, mut violations) = (0usize, 0usize, Vec::new());
    for design in &designs {
        let analysis = analyze(design);
        let lint = lint_design(design);
        feasible_pairs += AttackId::ALL
            .iter()
            .filter(|&&a| analysis.feasible(a))
            .count();
        flagged += usize::from(!lint.is_clean());
        for attack in unflagged_attacks(&analysis, &lint) {
            violations.push(format!("{}: {attack} unflagged", design.vendor));
        }
    }
    let clean = designs.len() - flagged;
    assert!(
        violations.is_empty(),
        "{} soundness violations, first: {:?}",
        violations.len(),
        &violations[..violations.len().min(5)]
    );
    // The sweep is not vacuous: the space contains designs with feasible
    // attacks, and the linter flags real populations of them.
    assert!(feasible_pairs > 10_000, "{feasible_pairs} pairs");
    assert!(flagged > clean, "most designs have at least one finding");
    assert!(clean > 0, "and some designs are genuinely clean");
}

#[test]
fn minimal_secure_recipe_is_diagnostic_free() {
    assert_eq!(false_alarms_on_minimal_secure(), Vec::<String>::new());
}
