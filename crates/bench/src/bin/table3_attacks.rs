//! TAB3 — regenerates the paper's Table III by *executing* all nine attacks
//! against all ten vendor designs, then cross-checking every verdict
//! against the static analyzer. Exits 1, naming the vendor or the count,
//! when a verdict disagrees with the analyzer or a §VI-B headline count
//! drifts from the paper's.
//!
//! ```text
//! cargo run -p rb-bench --bin table3_attacks [--evidence]
//! ```

use rb_attack::campaign::{run_all_parallel, run_reference_campaign};
use rb_bench::render_table;
use rb_core::attacks::AttackId;

fn main() {
    let show_evidence = std::env::args().any(|a| a == "--evidence");

    println!("Table III: Evaluation Results on Experimental Devices (live reproduction)\n");
    let campaigns = run_all_parallel(0xD51_2019);

    let mut rows = Vec::new();
    for (i, c) in campaigns.iter().enumerate() {
        let d = &c.design;
        let row = c.row();
        rows.push(vec![
            format!("#{}: {}", i + 1, d.vendor),
            d.device.to_string(),
            d.auth.to_string(),
            d.bind.to_string(),
            d.unbind.to_string(),
            row[0].clone(),
            row[1].clone(),
            row[2].clone(),
            row[3].clone(),
        ]);
    }
    // Extension rows: the secure reference designs.
    for c in run_reference_campaign(0xD51_2019) {
        let d = &c.design;
        let row = c.row();
        rows.push(vec![
            d.vendor.clone(),
            d.device.to_string(),
            d.auth.to_string(),
            d.bind.to_string(),
            d.unbind.to_string(),
            row[0].clone(),
            row[1].clone(),
            row[2].clone(),
            row[3].clone(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "Vendor",
                "Device Type",
                "Status",
                "Bind",
                "Unbind",
                "A1",
                "A2",
                "A3",
                "A4"
            ],
            &rows
        )
    );
    println!("✓: attack succeeded; ✗: attack failed; O: unable to confirm (firmware challenges)\n");

    // Cross-check against the analyzer.
    let mut violations = Vec::new();
    for c in &campaigns {
        for d in c.disagreements() {
            println!("DISAGREEMENT {}: {}", c.design.vendor, d);
            violations.push(format!(
                "{} disagrees with the analyzer: {d}",
                c.design.vendor
            ));
        }
    }
    if violations.is_empty() {
        println!(
            "static analyzer and live execution agree on all {} verdicts ({} vendors × {} attacks).",
            campaigns.len() * AttackId::ALL.len(),
            campaigns.len(),
            AttackId::ALL.len()
        );
    }

    // Paper-reported headline counts (Section VI-B).
    let succeeded_devices = campaigns
        .iter()
        .filter(|c| c.row().iter().any(|cell| cell != "✗" && cell != "O"))
        .count();
    let a2 = campaigns.iter().filter(|c| c.row()[1] == "✓").count();
    let a3 = campaigns.iter().filter(|c| c.row()[2] != "✗").count();
    let a4 = campaigns.iter().filter(|c| c.row()[3] != "✗").count();
    println!();
    for (what, got, paper) in [
        (
            "devices with at least one successful attack",
            succeeded_devices,
            9,
        ),
        ("devices suffering binding denial-of-service (A2)", a2, 6),
        ("devices suffering device unbinding (A3)", a3, 4),
        ("devices suffering device hijacking (A4)", a4, 3),
    ] {
        println!("{what}: {got} (paper: {paper})");
        if got != paper {
            violations.push(format!("{what}: {got}, paper {paper}"));
        }
    }

    if show_evidence {
        println!("\n================ evidence ================");
        for c in &campaigns {
            println!("\n--- {} ---", c.design.vendor);
            for id in AttackId::ALL {
                let run = &c.runs[&id];
                println!(
                    "  {:5} [{}] {}",
                    id.to_string(),
                    run.outcome.symbol(),
                    run.outcome
                );
                for line in &run.evidence {
                    println!("        {line}");
                }
            }
        }
    }

    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("table3_attacks: GATE FAILED — {violation}");
        }
        std::process::exit(1);
    }
}
