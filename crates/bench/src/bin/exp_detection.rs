//! EXP-DETECT — detectability of the Table III attacks (defensive
//! extension): for every vendor × attack, which alerts would a passive
//! cloud-side monitor have raised while the attack ran?
//!
//! The paper's attacks succeed silently on real clouds; this experiment
//! shows that *every successful attack leaves a detectable signature*
//! without any protocol change — the operational counterpart of §VII's
//! design lessons. The signature key it prints (which alert kinds each
//! attack raises) is computed from the same runs.
//!
//! ```text
//! cargo run -p rb-bench --bin exp_detection
//! ```

use std::collections::{BTreeMap, BTreeSet};

use rb_attack::campaign::run_all_parallel;
use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_core::attacks::AttackId;

fn main() {
    println!("EXP-DETECT: cloud-side detectability of the Table III attacks\n");

    let campaigns = run_all_parallel(0xDE7EC7);
    let mut rows = Vec::new();
    let mut silent_successes = 0;
    let mut noisy_successes = 0;
    // Alert kind → the attacks whose feasible runs raised it.
    let mut signatures: BTreeMap<String, BTreeSet<AttackId>> = BTreeMap::new();
    for campaign in &campaigns {
        for id in AttackId::ALL {
            let run = &campaign.runs[&id];
            if !run.outcome.is_feasible() {
                continue;
            }
            let monitor_line = run
                .evidence
                .iter()
                .rev()
                .find(|e| e.starts_with("cloud monitor:"))
                .cloned()
                .unwrap_or_else(|| "cloud monitor: (not sampled)".to_owned());
            let alerts = monitor_line
                .trim_start_matches("cloud monitor: ")
                .to_owned();
            if alerts == "no alerts" {
                silent_successes += 1;
            } else {
                noisy_successes += 1;
                for part in alerts.split(", ") {
                    let kind = part.split('×').next().unwrap_or(part).to_owned();
                    signatures.entry(kind).or_default().insert(id);
                }
            }
            rows.push(vec![campaign.design.vendor.clone(), id.to_string(), alerts]);
        }
    }
    println!(
        "{}",
        render_table(
            &["vendor", "successful attack", "alerts the monitor raised"],
            &rows
        )
    );
    println!(
        "successful attacks with at least one alert: {noisy_successes}/{} \
         (silent: {silent_successes})",
        noisy_successes + silent_successes
    );
    println!("\nsignature key (alert kind → the successful attacks that raised it):");
    for (kind, ids) in &signatures {
        let ids: Vec<String> = ids.iter().map(ToString::to_string).collect();
        println!("  {kind} = {}", ids.join("/"));
    }
    println!("No protocol change required — the monitor is passive.");

    // The machine-readable artifact (deterministic campaign-derived counts).
    let mut report = BenchReport::new("exp_detection");
    report
        .metric_u64(
            "successful_attacks",
            (noisy_successes + silent_successes) as u64,
        )
        .metric_u64("noisy_successes", noisy_successes as u64)
        .metric_u64("silent_successes", silent_successes as u64);
    emit(&report, None);

    assert!(
        silent_successes == 0,
        "every successful attack should be detectable; {silent_successes} were silent"
    );
}
