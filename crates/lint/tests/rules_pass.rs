//! The rules pass and the full linter differ only in fix-its.
//!
//! `rb_mc::diag::verify_design` grades designs with [`lint_rules`] alone;
//! `rbsim lint`, the emitters and the soundness harness use
//! [`lint_design`], which adds the fix-it step. Over every coherent design,
//! clearing each diagnostic's `fix` in the full report must give exactly
//! the rules-only report: same rules, severities, spans, messages and
//! related attacks, in the same order.

use rb_core::analyzer::analyze;
use rb_core::explore::all_designs;
use rb_lint::rules::{lint_design, lint_rules};

#[test]
fn lint_design_is_the_rules_pass_plus_fix_its_on_every_design() {
    let mut with_fix = 0;
    for design in all_designs() {
        let mut full = lint_design(&design);
        for diagnostic in &mut full.diagnostics {
            with_fix += usize::from(diagnostic.fix.take().is_some());
        }
        assert_eq!(full, lint_rules(&design, &analyze(&design)), "{design:?}");
    }
    // The fix-it step is not vacuous over the space.
    assert!(with_fix > 10_000, "{with_fix} fix-its");
}
