//! The "automatic detection" tool the paper proposes as future work
//! (Section VIII): audit every studied design *without physical devices*,
//! print the predicted attack surface, and the remediations with the
//! attacks each one eliminates.
//!
//! ```text
//! cargo run --example design_audit
//! ```

use iot_remote_binding::core_model::analyzer::analyze;
use iot_remote_binding::core_model::attacks::{AttackFamily, AttackId, Feasibility};
use iot_remote_binding::core_model::recommend::recommendations;
use iot_remote_binding::core_model::vendors::{capability_reference, vendor_designs};

fn main() {
    for design in vendor_designs() {
        let report = analyze(&design);
        println!(
            "── {} ({}) ─────────────────────────",
            design.vendor, design.device
        );
        print!("   surface:");
        for family in AttackFamily::ALL {
            print!(" {}={}", family, report.family_cell(family));
        }
        println!();
        for id in AttackId::ALL {
            if let Feasibility::Infeasible { blocked_by } = report.verdict(id) {
                if blocked_by.contains("subsumed") {
                    println!("   note: {id} {blocked_by}");
                }
            }
        }
        let recs = recommendations(&design, &report);
        if recs.is_empty() {
            println!("   no findings.");
        }
        for rec in recs {
            let kills: Vec<String> = rec.eliminates.iter().map(|a| a.to_string()).collect();
            let suffix = if kills.is_empty() {
                String::from("(defense in depth)")
            } else {
                format!("(eliminates {})", kills.join(", "))
            };
            println!("   fix [{}] {suffix}", rec.id);
            println!("       {}", rec.advice);
        }
        println!();
    }

    println!("reference: {}", capability_reference().vendor);
    let report = analyze(&capability_reference());
    print!("   surface:");
    for family in AttackFamily::ALL {
        print!(" {}={}", family, report.family_cell(family));
    }
    println!("\n   (capability-based binding with post-binding sessions defeats the taxonomy)");
}
