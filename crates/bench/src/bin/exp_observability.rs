//! EXP-OBS — binding-lifecycle latency percentiles and sim-loop throughput.
//!
//! Runs the canonical observability scenario (`rb_scenario::metrics_run`:
//! setup → control round-trip → unbind → reset → re-bind → quiesce) for
//! every Table III vendor over a fixed seed set, merges the per-seed
//! registries, and reports the binding-lifecycle latency distributions:
//!
//! * `initial→online` — first registration to the shadow coming online,
//! * `online→bound` — shadow online to the binding landing,
//! * `unbind→rebind` — the re-pairing window after a "remove device".
//!
//! All latencies are deterministic sim ticks — a pure function of
//! `(design, seed)`. Two wall-clock figures sit beside them, both
//! machine-dependent and reported as throughput, never as a simulation
//! result: lifecycle runs/sec, and events/sec of the sim loop itself (total
//! `sim_events_total` divided by elapsed `Instant` time). Events/sec fell
//! when the polling timers went away — the remaining events each do more
//! work — so runs/sec is the figure to compare across versions.
//!
//! Prints a human table, then a single `BENCH ` line with a JSON document
//! for machine consumption (CI uploads it as the metrics artifact):
//!
//! ```text
//! cargo run --release -p rb-bench --bin exp_observability
//! cargo run --release -p rb-bench --bin exp_observability -- out.json
//! ```
//!
//! With a path argument the same JSON is also written to that file.

use std::time::Instant;

use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_core::vendors;
use rb_netsim::telemetry::{Histogram, Registry};
use rb_scenario::metrics_run;

/// Seeds each vendor's scenario is run with (fixed; the sim is
/// deterministic, so these fully define the tick-domain results).
const SEEDS: [u64; 3] = [7, 11, 13];

/// The three lifecycle histograms, in report order.
const LIFECYCLE: [(&str, &str); 3] = [
    ("initial→online", "binding_initial_to_online_ticks"),
    ("online→bound", "binding_online_to_bound_ticks"),
    ("unbind→rebind", "binding_unbind_to_rebind_ticks"),
];

/// One vendor's merged results across the seed set.
struct VendorStats {
    vendor: String,
    merged: Registry,
    /// Seeds whose initial setup converged (of `SEEDS.len()`).
    converged: usize,
    events: u64,
    elapsed_secs: f64,
}

/// `p50/p95/max` of a histogram as a compact cell, `-` when empty.
fn cell(h: Option<&Histogram>) -> String {
    let fmt = |v: Option<u64>| v.map_or_else(|| "-".into(), |t| t.to_string());
    match h {
        Some(h) if h.count() > 0 => {
            format!("{}/{}/{}", fmt(h.p50()), fmt(h.p95()), fmt(h.max()))
        }
        _ => "-".into(),
    }
}

fn run_vendor(design: &rb_core::design::VendorDesign) -> VendorStats {
    let mut merged = Registry::new();
    let mut converged = 0usize;
    let mut events = 0u64;
    let started = Instant::now();
    for seed in SEEDS {
        let snap = metrics_run(design, seed).snapshot();
        converged += usize::from(snap.gauge("scenario_setup_converged") == Some(1));
        events += snap.counter("sim_events_total");
        merged.merge_from(&snap);
    }
    VendorStats {
        vendor: design.vendor.clone(),
        merged,
        converged,
        events,
        elapsed_secs: started.elapsed().as_secs_f64(),
    }
}

fn main() {
    println!("EXP-OBS: binding-lifecycle latencies (ticks, p50/p95/max) + sim throughput\n");
    println!(
        "scenario: setup -> control -> unbind -> reset -> re-bind -> quiesce, seeds {SEEDS:?}\n"
    );

    let stats: Vec<VendorStats> = vendors::vendor_designs().iter().map(run_vendor).collect();

    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            let mut row = vec![s.vendor.clone()];
            for (_, metric) in LIFECYCLE {
                row.push(cell(s.merged.histogram(metric)));
            }
            row.push(format!("{}/{}", s.converged, SEEDS.len()));
            row.push(format!("{:.0}", SEEDS.len() as f64 / s.elapsed_secs));
            row.push(format!("{:.0}k", s.events as f64 / s.elapsed_secs / 1e3));
            row
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "vendor",
                "initial→online",
                "online→bound",
                "unbind→rebind",
                "conv",
                "runs/s",
                "events/s"
            ],
            &rows
        )
    );
    println!("latency cells are deterministic ticks; runs/s and events/s are wall-clock");
    println!("throughput on this machine and are not claims of the reproduction.\n");

    let total_events: u64 = stats.iter().map(|s| s.events).sum();
    let total_secs: f64 = stats.iter().map(|s| s.elapsed_secs).sum();

    // The machine-readable artifact: the unified schema-versioned report
    // (per-vendor histograms flattened to dotted metric keys, so every
    // percentile is individually gate-able against a baseline).
    let mut report = BenchReport::new("exp_observability");
    report
        .meta("seeds", "7,11,13")
        .metric_u64("events_total", total_events)
        .metric_f64("events_per_sec", total_events as f64 / total_secs)
        .metric_f64(
            "runs_per_sec",
            (stats.len() * SEEDS.len()) as f64 / total_secs,
        );
    for s in &stats {
        for (_, metric) in LIFECYCLE {
            let h = s.merged.histogram(metric).filter(|h| h.count() > 0);
            let key = |stat: &str| format!("{}.{metric}.{stat}", s.vendor);
            report.metric_u64(&key("count"), h.map_or(0, Histogram::count));
            for (stat, value) in [
                ("p50", h.and_then(Histogram::p50)),
                ("p95", h.and_then(Histogram::p95)),
                ("max", h.and_then(Histogram::max)),
            ] {
                if let Some(v) = value {
                    report.metric_u64(&key(stat), v);
                }
            }
        }
        report.metric_u64(
            &format!("{}.setups_converged", s.vendor),
            s.converged as u64,
        );
    }
    emit(&report, std::env::args().nth(1).as_deref());
}
