//! EXP-SPACE — exhaustive design-space exploration (extension): analyze
//! every coherent remote-binding design and report which attacks are
//! generic, which defenses are load-bearing, and how rare secure designs
//! are — the paper's systematic program, completed. Every count is a
//! total over the rows of one `rb_mc::conformance` pass; the five global
//! theorems are each row's `theorem_violations`. Exits 1 on a theorem
//! violation.
//!
//! ```text
//! cargo run -p rb-bench --bin exp_design_space
//! ```

use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_core::analyzer::analyze;
use rb_core::attacks::AttackId;
use rb_core::explore::minimal_secure_design;
use rb_core::par::available_threads;
use rb_mc::conformance::{attack_counts, space};

fn main() {
    println!("EXP-SPACE: exhaustive exploration of the remote-binding design space\n");
    let rows = space(available_threads());
    let total = rows.len();
    println!(
        "coherent designs analyzed: {total} (4 auth × 3 bind × 4 unbind × 2^7 checks × 2 orders × 2 firmware, minus incoherent)"
    );

    let mut table = Vec::new();
    for id in AttackId::ALL {
        let (feasible, unconfirmed) = attack_counts(&rows, id);
        table.push(vec![
            id.to_string(),
            feasible.to_string(),
            format!("{:.1}%", 100.0 * feasible as f64 / total as f64),
            unconfirmed.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["attack", "designs vulnerable", "share", "unconfirmable"],
            &table
        )
    );

    let fully_secure = rows.iter().filter(|r| r.fully_secure()).count();
    let provably_secure = rows.iter().filter(|r| r.provably_secure()).count();
    println!(
        "fully secure designs (no feasible attack): {fully_secure} ({:.1}%)",
        100.0 * fully_secure as f64 / total as f64
    );
    println!(
        "provably secure (no feasible, no unconfirmable): {provably_secure} ({:.1}%)",
        100.0 * provably_secure as f64 / total as f64
    );

    // The global theorems.
    let violations: Vec<&String> = rows.iter().flat_map(|r| &r.theorem_violations).collect();
    if violations.is_empty() {
        println!("\nall five global theorems hold over the whole space:");
        println!("  T1 capability binding blocks A2/A3-3/A4-1/A4-2");
        println!("  T2 post-binding sessions block all hijacks");
        println!("  T3 static-ID auth with known firmware always admits A1 or A3-4");
        println!("  T4 accepting Unbind:DevId always admits A3-1");
        println!("  T5 DevToken auth never yields a feasible hijack (public keys authenticate");
        println!("     the device, not the binding — they do NOT give this property)");
    } else {
        println!("\nTHEOREM VIOLATIONS ({}):", violations.len());
        for v in violations.iter().take(10) {
            println!("  {v}");
        }
        std::process::exit(1);
    }

    // The minimal secure recipe.
    let minimal = minimal_secure_design();
    let report = analyze(&minimal);
    println!("\nminimal secure recipe (every attack definitively blocked):");
    println!(
        "  auth = {}, bind = {}, unbind = {} with ownership check,",
        minimal.auth, minimal.bind, minimal.unbind
    );
    println!(
        "  reject-bind-when-bound = {}",
        minimal.checks.reject_bind_when_bound
    );
    for id in AttackId::ALL {
        println!("    {:5} {}", id.to_string(), report.verdict(id));
    }

    // How many of the ten real vendors land in the secure region?
    let secure_vendors = rb_core::vendors::vendor_designs()
        .iter()
        .filter(|d| {
            let r = analyze(d);
            AttackId::ALL.iter().all(|id| !r.feasible(*id))
        })
        .count();
    println!(
        "\nof the paper's ten real vendors, {secure_vendors} fall in the fully-secure region (paper: 1 — Philips Hue)"
    );

    // The machine-readable artifact (exhaustive static sweep).
    let mut report = BenchReport::new("exp_design_space");
    report
        .metric_u64("designs_total", total as u64)
        .metric_u64("fully_secure", fully_secure as u64)
        .metric_u64("provably_secure", provably_secure as u64)
        .metric_u64("theorem_violations", violations.len() as u64)
        .metric_u64("secure_vendors", secure_vendors as u64);
    for id in AttackId::ALL {
        let (feasible, _) = attack_counts(&rows, id);
        report.metric_u64(&format!("{id}.feasible_designs"), feasible as u64);
    }
    emit(&report, std::env::args().nth(1).as_deref());
}
