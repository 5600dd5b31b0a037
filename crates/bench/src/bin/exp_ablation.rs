//! EXP-ABL — mitigation ablation (paper §VII, lessons learned): for each
//! vulnerable vendor, apply each applicable remediation in isolation and
//! show which attacks it eliminates — first statically, then validated by
//! re-running the live campaign on the patched design for one vendor.
//!
//! ```text
//! cargo run -p rb-bench --bin exp_ablation [--live]
//! ```

use rb_attack::campaign::run_campaign;
use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_core::analyzer::analyze;
use rb_core::attacks::AttackId;
use rb_core::recommend::{recommendations, RecommendationId};
use rb_core::vendors;

fn main() {
    let live = std::env::args().any(|a| a == "--live");
    println!("EXP-ABL: which single fix eliminates which attacks\n");

    let mut rows = Vec::new();
    for design in vendors::vendor_designs() {
        let before = analyze(&design);
        let feasible: Vec<String> = AttackId::ALL
            .iter()
            .filter(|a| before.feasible(**a))
            .map(|a| a.to_string())
            .collect();
        if feasible.is_empty() {
            continue;
        }
        for rec in recommendations(&design, &before) {
            if rec.eliminates.is_empty() {
                continue;
            }
            rows.push(vec![
                design.vendor.clone(),
                feasible.join(", "),
                rec.id.to_string(),
                rec.eliminates
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["vendor", "feasible attacks", "single fix", "eliminates"],
            &rows
        )
    );

    // Cross-vendor summary: how often each fix appears and what it kills.
    let mut summary: std::collections::BTreeMap<RecommendationId, (usize, usize)> =
        std::collections::BTreeMap::new();
    for design in vendors::vendor_designs() {
        for rec in recommendations(&design, &analyze(&design)) {
            let entry = summary.entry(rec.id).or_default();
            entry.0 += 1;
            entry.1 += rec.eliminates.len();
        }
    }
    println!("fix frequency across the ten vendors:");
    for (id, (vendors_hit, kills)) in &summary {
        println!("  {id}: applies to {vendors_hit} vendors, eliminates {kills} attack instances");
    }

    // The machine-readable artifact: the ablation matrix as per-fix
    // counters (all static-analysis numbers, fully deterministic).
    let mut report = BenchReport::new("exp_ablation");
    report
        .meta("live", live)
        .metric_u64("ablation_rows", rows.len() as u64);
    for (id, (vendors_hit, kills)) in &summary {
        report
            .metric_u64(&format!("fix.{id}.vendors"), *vendors_hit as u64)
            .metric_u64(&format!("fix.{id}.eliminates"), *kills as u64);
    }
    emit(&report, None);

    if live {
        // Validate one ablation dynamically: TP-LINK with DevId-only unbind
        // removed must lose A3-1 and A4-3 in the *executed* campaign too.
        println!("\nlive validation: TP-LINK minus Unbind:DevId");
        let mut patched = vendors::tp_link();
        patched.unbind.dev_id_only = false;
        let before = run_campaign(&vendors::tp_link(), 0xAB1);
        let after = run_campaign(&patched, 0xAB1);
        println!("  before: A3={} A4={}", before.row()[2], before.row()[3]);
        println!("  after : A3={} A4={}", after.row()[2], after.row()[3]);
        assert!(before.outcome(AttackId::A3_1).is_feasible());
        assert!(!after.outcome(AttackId::A3_1).is_feasible());
        assert!(!after.outcome(AttackId::A4_3).is_feasible());
        println!("  confirmed: dropping the bare unbind kills A3-1 and starves A4-3's first step.");
    }
}
