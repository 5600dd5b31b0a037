//! EXP-LINT — the design linter's soundness and precision, proved by
//! exhausting the coherent design space:
//!
//! * **soundness**: on every one of the ~18k coherent designs, every
//!   attack the static analyzer confirms feasible is related to at least
//!   one fired lint finding — no confirmed attack escapes the linter;
//! * **precision**: the minimal secure recipe (the design the paper's
//!   Section VII lessons converge to) fires zero diagnostics;
//! * **Table III as lint reports**: the ten studied vendors' weaknesses,
//!   re-derived as per-rule findings with severities and fix-its.
//!
//! ```text
//! cargo run -p rb-bench --bin exp_lint
//! ```
//!
//! The soundness counts are totals over the rows of one
//! `rb_mc::conformance` pass, which lints each design with the rules pass
//! (`lint_design` minus its fix-its, which soundness never reads).
//! Exits nonzero if either property fails, so it doubles as the CI
//! self-check for the rule registry.

use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_core::attacks::AttackId;
use rb_core::par::available_threads;
use rb_core::vendors::vendor_designs;
use rb_lint::diagnostic::Severity;
use rb_lint::harness::false_alarms_on_minimal_secure;
use rb_lint::rules::lint_design;
use rb_mc::conformance::{attack_counts, space};

fn main() {
    println!("EXP-LINT: rb-lint soundness/precision sweep\n");

    // The rows carry each design's analyzer report, its lint rules pass
    // and the feasible attacks that pass leaves unflagged.
    let rows = space(available_threads());
    let flagged = rows.iter().filter(|r| !r.verified.lint.is_clean()).count();
    let feasible_pairs: usize = AttackId::ALL
        .iter()
        .map(|&id| attack_counts(&rows, id).0)
        .sum();
    let violations: Vec<String> = rows
        .iter()
        .flat_map(|r| {
            r.lint_misses
                .iter()
                .map(|a| format!("{}: {a}", r.design.vendor))
        })
        .collect();
    let sound = violations.is_empty();
    println!("designs swept:          {}", rows.len());
    println!("designs with findings:  {flagged}");
    println!("lint-clean designs:     {}", rows.len() - flagged);
    println!("(design, attack) pairs: {feasible_pairs}");
    println!(
        "soundness violations:   {}{}",
        violations.len(),
        if sound {
            " (sound: every confirmed attack is flagged)"
        } else {
            ""
        }
    );
    for v in violations.iter().take(5) {
        println!("  MISSED: {v}");
    }

    let alarms = false_alarms_on_minimal_secure();
    println!(
        "minimal-secure recipe:  {} finding(s){}",
        alarms.len(),
        if alarms.is_empty() {
            " (precise: no alarm on the recommended design)"
        } else {
            ""
        }
    );
    for alarm in &alarms {
        println!("  FALSE ALARM: {alarm}");
    }

    println!("\nTable III vendors as lint reports:\n");
    let table: Vec<Vec<String>> = vendor_designs()
        .iter()
        .map(|design| {
            let report = lint_design(design);
            let rules: Vec<String> = report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .map(|d| d.rule.to_string())
                .collect();
            vec![
                report.vendor.clone(),
                report.count(Severity::Error).to_string(),
                report.count(Severity::Warning).to_string(),
                report.count(Severity::Note).to_string(),
                rules.join(" "),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["vendor", "err", "warn", "note", "error rules"], &table)
    );

    // The machine-readable artifact (static sweep — fully deterministic).
    let mut report = BenchReport::new("exp_lint");
    report
        .metric_u64("designs_swept", rows.len() as u64)
        .metric_u64("flagged", flagged as u64)
        .metric_u64("clean", (rows.len() - flagged) as u64)
        .metric_u64("feasible_pairs", feasible_pairs as u64)
        .metric_u64("soundness_violations", violations.len() as u64)
        .metric_u64("false_alarms_on_minimal_secure", alarms.len() as u64)
        .metric_bool("sound", sound)
        .metric_bool("precise", alarms.is_empty());
    emit(&report, std::env::args().nth(1).as_deref());

    if !sound || !alarms.is_empty() {
        std::process::exit(1);
    }
    println!("EXP-LINT: PASS");
}
