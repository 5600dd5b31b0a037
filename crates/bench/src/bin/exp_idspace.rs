//! EXP-ID — the quantitative device-ID claims of §I / §III-A:
//!
//! * "with vendor-specific bytes excluded, the search space of MAC
//!   addresses is often within 3 bytes";
//! * "some device IDs only contain 6 or 7 digits, allowing attackers to
//!   traverse all possible IDs within an hour".
//!
//! Prints the enumeration-cost table and validates it with simulated
//! sweeps against a manufactured population. The shape check is computed
//! from the tables: the binary exits 1 unless both paper-claim rows hold,
//! every dense scheme surrenders its whole series to the sequential sweep,
//! and random UUIDs surrender nothing to either sweep.
//!
//! ```text
//! cargo run -p rb-bench --bin exp_idspace
//! ```

use std::collections::HashSet;

use rb_attack::idspace::{
    cost_table, random_sweep, sequential_sweep, vendor_leak_channels, EnumerationCost,
};
use rb_bench::report::{emit, BenchReport};
use rb_bench::{human_secs, render_table};
use rb_netsim::SimRng;
use rb_wire::ids::{DevId, IdScheme};

fn main() {
    println!("EXP-ID: device-ID search spaces and enumeration costs\n");

    let rows: Vec<Vec<String>> = cost_table()
        .into_iter()
        .map(|c: EnumerationCost| {
            vec![
                c.scheme.clone(),
                format!("{}", c.search_space),
                format!("{}/s", c.probes_per_sec),
                c.seconds_to_exhaust
                    .map(human_secs)
                    .unwrap_or_else(|| "forever".to_owned()),
                if c.within_an_hour() {
                    "YES".to_owned()
                } else {
                    "no".to_owned()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "scheme",
                "search space",
                "probe rate",
                "time to exhaust",
                "within an hour?"
            ],
            &rows
        )
    );

    println!("paper claims vs measured:");
    let mut violations = Vec::new();
    let six = EnumerationCost::of(&IdScheme::ShortDigits { width: 6 }, 300);
    println!(
        "  6-digit IDs at a modest 300 probes/s: {} (paper: within an hour) -> {}",
        human_secs(six.seconds_to_exhaust.unwrap_or(f64::INFINITY)),
        if six.within_an_hour() {
            "HOLDS"
        } else {
            "FAILS"
        }
    );
    if !six.within_an_hour() {
        violations.push("6-digit IDs at 300 probes/s take over an hour".to_owned());
    }
    let seven = EnumerationCost::of(&IdScheme::ShortDigits { width: 7 }, 3_000);
    println!(
        "  7-digit IDs at 3000 probes/s: {} (paper: within an hour) -> {}",
        human_secs(seven.seconds_to_exhaust.unwrap_or(f64::INFINITY)),
        if seven.within_an_hour() {
            "HOLDS"
        } else {
            "FAILS"
        }
    );
    if !seven.within_an_hour() {
        violations.push("7-digit IDs at 3000 probes/s take over an hour".to_owned());
    }
    let mac = EnumerationCost::of(&IdScheme::MacWithOui { oui: [0, 0, 0] }, 30_000);
    println!(
        "  MAC with known OUI: 2^24 = {} candidates, {} at 30k probes/s (paper: 3-byte space)",
        mac.search_space,
        human_secs(mac.seconds_to_exhaust.unwrap_or(f64::INFINITY))
    );

    // §VI-A: how the attacker obtained each vendor's IDs.
    println!(
        "
ID acquisition per studied vendor (paper §VI-A):"
    );
    let mut rows = Vec::new();
    for design in rb_core::vendors::vendor_designs() {
        let channels: Vec<String> = vendor_leak_channels(&design.vendor)
            .iter()
            .map(|c| c.to_string())
            .collect();
        rows.push(vec![design.vendor.clone(), channels.join(", ")]);
    }
    println!(
        "{}",
        render_table(&["vendor", "acquisition channels"], &rows)
    );

    // Live sweep validation: a vendor ships 1000 units; how many does a
    // bounded sweep find?
    println!("\nsimulated sweeps against a 1000-unit product series (100k probes):");
    let mut rng = SimRng::new(99);
    let mut report = BenchReport::new("exp_idspace");
    report
        .meta("population", 1000)
        .meta("probe_budget", 100_000)
        .metric_bool("six_digit_within_hour", six.within_an_hour())
        .metric_bool("seven_digit_within_hour", seven.within_an_hour())
        .metric_u64("mac_oui_search_space", mac.search_space as u64);
    let mut rows = Vec::new();
    for (name, scheme) in [
        (
            "sequential serial",
            IdScheme::SequentialSerial {
                vendor: 1,
                start: 5_000_000,
            },
        ),
        ("6-digit", IdScheme::ShortDigits { width: 6 }),
        (
            "MAC w/ known OUI",
            IdScheme::MacWithOui {
                oui: [0x50, 0xc7, 0xbf],
            },
        ),
        ("random UUID", IdScheme::RandomUuid),
    ] {
        let population: HashSet<DevId> = (0..1000).map(|i| scheme.id_at(i)).collect();
        let seq = sequential_sweep(&scheme, &population, 100_000);
        let rnd = random_sweep(&scheme, &population, 100_000, &mut rng);
        let key = name.replace([' ', '/'], "_");
        let (seq_hits, rnd_hits) = (seq.hits.len(), rnd.hits.len());
        if scheme == IdScheme::RandomUuid {
            if (seq_hits, rnd_hits) != (0, 0) {
                violations.push(format!(
                    "{name}: {seq_hits}/1000 sequential and {rnd_hits}/1000 random hits, expected 0 and 0"
                ));
            }
        } else if seq_hits != 1000 {
            violations.push(format!(
                "{name}: {seq_hits}/1000 sequential hits, expected 1000/1000"
            ));
        }
        report
            .metric_u64(&format!("{key}.sequential_hits"), seq.hits.len() as u64)
            .metric_u64(&format!("{key}.random_hits"), rnd.hits.len() as u64);
        rows.push(vec![
            name.to_owned(),
            format!("{}/1000", seq.hits.len()),
            format!("{}/1000", rnd.hits.len()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["scheme", "sequential sweep hits", "random sweep hits"],
            &rows
        )
    );
    let verdict = if violations.is_empty() {
        "holds"
    } else {
        "FAILS"
    };
    println!("shape check {verdict}: dense/sequential spaces surrender the whole series; 128-bit random IDs surrender nothing.");

    // The defense none of the studied vendors deployed: per-source rate
    // limiting re-prices the whole table.
    println!(
        "
with a 10 req/s per-source rate limit (priced analytically; no studied vendor used one):"
    );
    for (name, scheme) in [
        ("6-digit ID", IdScheme::ShortDigits { width: 6 }),
        ("7-digit ID", IdScheme::ShortDigits { width: 7 }),
        ("MAC w/ known OUI", IdScheme::MacWithOui { oui: [0, 0, 0] }),
    ] {
        let c = EnumerationCost::of(&scheme, 10);
        println!(
            "  {name}: {} (was minutes at unthrottled rates)",
            c.seconds_to_exhaust
                .map(human_secs)
                .unwrap_or_else(|| "forever".into())
        );
    }

    emit(&report, std::env::args().nth(1).as_deref());
    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("exp_idspace: GATE FAILED — {violation}");
        }
        std::process::exit(1);
    }
}
