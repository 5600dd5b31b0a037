//! Every whole-space check, over all 17,920 coherent designs, no stride.
//!
//! One `rb_mc::conformance` pass computes each design's row: the
//! analyzer, `spec::check`, `explore` and lint rules-pass reports, the
//! cross-tool disagreements, the global theorems, the lint soundness
//! misses and the live replay of every model-checker witness. This test
//! reads the rows once and pins:
//!
//! * FNV-1a digests (stable across runs and platforms, unlike
//!   `RandomState`) of the `Debug` rendering of every `spec::check`,
//!   `explore`, `analyze` and `lint_design` report, folded in
//!   `all_designs()` order. The explorers are rewritten for speed from
//!   time to time; their verdicts, witnesses, counts and coverage must
//!   not move when they are, and neither may the analyzer's verdicts or
//!   the linter's findings. The values were taken before the last such
//!   rewrite and are never regenerated.
//! * Every witness replays live, and the witness count is pinned, so a
//!   design that stops yielding witnesses cannot read as a pass.
//! * Zero `RB013` disagreements, no theorem violation, STALE-SESSION
//!   unreachable everywhere.
//! * Lint soundness (every feasible attack is related to a fired
//!   finding), with the space's pair and flagged/clean counts.
//! * `lint_design` is the rules pass `verify_design` runs plus fix-its,
//!   and the fix-it step is not vacuous.
//! * The analyzer's population facts: every attack is feasible
//!   somewhere, and secure and provably secure designs exist.

use rb_core::attacks::AttackId;
use rb_core::par::{available_threads, par_map};
use rb_lint::rules::lint_design;
use rb_mc::conformance::{attack_counts, space};
use rb_mc::explore::Property;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn every_check_agrees_over_the_whole_space() {
    let rows = space(available_threads());
    assert_eq!(rows.len(), 17_920);

    // The four semantics' reports, pinned, and the full linter is the
    // rules pass plus fix-its on every design.
    let rendered = par_map(&rows, available_threads(), |r| {
        let full = lint_design(&r.design);
        let lint = format!("{full:?}\n");
        let mut rules_only = full;
        let mut fixes = 0usize;
        for diagnostic in &mut rules_only.diagnostics {
            fixes += usize::from(diagnostic.fix.take().is_some());
        }
        assert!(
            rules_only == r.verified.lint,
            "lint_design minus fix-its != lint_rules: {:?}",
            r.design
        );
        let v = &r.verified;
        let reports = [
            format!("{:?}\n", v.spec),
            format!("{:?}\n", v.mc),
            format!("{:?}\n", v.analysis),
            lint,
        ];
        (reports, fixes)
    });
    let mut digests = [0xcbf2_9ce4_8422_2325u64; 4];
    for (reports, _) in &rendered {
        for (h, report) in digests.iter_mut().zip(reports) {
            fnv1a(h, report.as_bytes());
        }
    }
    let pinned = [
        ("spec::check", 0x1e9a_f8df_1c69_61e9),
        ("explore", 0x2e79_fd9e_f18a_6c49),
        ("analyze", 0x41f1_e218_8daf_3d3d),
        ("lint_design", 0xe3fb_d3d5_fc42_acdd),
    ];
    for (got, (name, want)) in digests.into_iter().zip(pinned) {
        assert_eq!(got, want, "{name} digest {got:#018x}");
    }
    let fixes: usize = rendered.iter().map(|(_, n)| n).sum();
    assert!(fixes > 10_000, "{fixes} fix-its");

    // Every witness replays live, one replay per witness.
    let mut witnesses = 0;
    let mut failures = Vec::new();
    for row in &rows {
        let violated: Vec<Property> = row.verified.mc.violations().iter().map(|v| v.0).collect();
        let replayed: Vec<Property> = row.replays.iter().map(|r| r.0).collect();
        assert_eq!(replayed, violated, "{}", row.design.vendor);
        witnesses += violated.len();
        for (property, outcome) in &row.replays {
            if let Err(e) = outcome {
                failures.push(format!("{}: {property}: {e}", row.design.vendor));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {witnesses} witnesses failed to replay; first: {:#?}",
        failures.len(),
        &failures[..failures.len().min(5)]
    );
    assert_eq!(witnesses, 21_088);

    // No cross-tool disagreement, no theorem violation, no stale session.
    let disagreements: Vec<_> = rows
        .iter()
        .flat_map(|r| &r.verified.disagreements)
        .collect();
    assert!(
        disagreements.is_empty(),
        "{} RB013 disagreements, first: {:?}",
        disagreements.len(),
        disagreements.first()
    );
    let theorems: Vec<_> = rows.iter().flat_map(|r| &r.theorem_violations).collect();
    assert!(
        theorems.is_empty(),
        "first theorem violations: {:?}",
        &theorems[..theorems.len().min(5)]
    );
    let stale = rows
        .iter()
        .filter(|r| r.verified.mc.witness(Property::StaleSession).is_some())
        .count();
    assert_eq!(stale, 0, "STALE-SESSION reachable on {stale} designs");

    // Lint soundness over the space, not vacuous.
    let misses: Vec<_> = rows
        .iter()
        .filter(|r| !r.lint_misses.is_empty())
        .map(|r| format!("{}: {:?}", r.design.vendor, r.lint_misses))
        .collect();
    assert!(
        misses.is_empty(),
        "{} designs with unflagged attacks, first: {:?}",
        misses.len(),
        &misses[..misses.len().min(5)]
    );
    let feasible_pairs: usize = AttackId::ALL
        .iter()
        .map(|&id| attack_counts(&rows, id).0)
        .sum();
    let flagged = rows.iter().filter(|r| !r.verified.lint.is_clean()).count();
    assert_eq!(feasible_pairs, 22_976);
    assert_eq!((flagged, rows.len() - flagged), (17_896, 24));

    // Attacks exist somewhere in the space, and so do secure designs.
    for id in AttackId::ALL {
        assert!(
            attack_counts(&rows, id).0 > 0,
            "{id} never feasible anywhere?"
        );
    }
    let fully_secure = rows.iter().filter(|r| r.fully_secure()).count();
    let provably_secure = rows.iter().filter(|r| r.provably_secure()).count();
    assert!(provably_secure > 0);
    assert!(fully_secure >= provably_secure);
    assert!(fully_secure < rows.len());
}
