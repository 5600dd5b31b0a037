//! EXP-DEFENSE — streaming detection, alerting, and active mitigation.
//!
//! Four legs, each a hard gate:
//!
//! 1. **Precision = 1.0.** The benign binding lifecycle, disturbed by every
//!    chaos profile over a 16-seed matrix, runs under the *hardened*
//!    defense policy — and the streaming monitor must raise zero alerts
//!    and draw zero interventions. Chaos is noise, not an attacker; a
//!    vendor whose defenses fire on packet loss would brick honest homes.
//! 2. **Recall ≥ 0.9.** Every Table III cell that is feasible against the
//!    undefended cloud is re-run against the hardened cloud; the monitor
//!    must raise at least one alert during the attack.
//! 3. **Window reduction > 0.** For every cell the hardened cloud actively
//!    mitigated (rotation / quarantine / bind limiting), the remaining
//!    trace after the first defensive intervention — the span the attacker
//!    would previously have held their advantage — must be positive.
//! 4. **Thread determinism.** The monitor-enabled sweep renders its alert
//!    streams, state summaries, and Prometheus exports byte-identically at
//!    1, 4, and 8 worker threads.
//!
//! Also reports end-to-end alert throughput (alerts/sec of wall clock
//! through the defended attack grid — the only machine-dependent number).
//!
//! Prints human tables, then a single `BENCH ` line with a JSON document:
//!
//! ```text
//! cargo run --release -p rb-bench --bin exp_defense
//! cargo run --release -p rb-bench --bin exp_defense -- --out bench_defense.json
//! ```

use std::time::Instant;

use rb_attack::{run_attack, run_attack_opts, AttackOpts};
use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_cloud::DefensePolicy;
use rb_core::attacks::{AttackId, Feasibility};
use rb_core::par::par_map;
use rb_core::vendors::{self, vendor_designs};
use rb_netsim::{Telemetry, TraceEvent};
use rb_scenario::{defended_metrics_run, monitor_run, ChaosProfile};

/// The one seed of the attack grid (worlds are deterministic in it).
const SEED: u64 = 0xDEF_2019;

/// Seeds of the benign chaos matrix.
const BENIGN_SEEDS: u64 = 16;

/// Sum of one counter family across a registry.
fn family_total(telemetry: &Telemetry, prefix: &str) -> u64 {
    telemetry
        .snapshot()
        .counters()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

/// One defended rerun of a feasible Table III cell.
struct CellRun {
    vendor: String,
    id: AttackId,
    alerts: u64,
    mitigations: u64,
    /// Ticks between the first defensive intervention and the end of the
    /// trace — the slice of the attack window the defense clawed back.
    window_reduction: Option<u64>,
}

/// Leg 1: the benign chaos matrix under the hardened policy. Returns
/// `(runs, alerts, mitigations)`.
fn benign_matrix(designs: &[rb_core::design::VendorDesign]) -> (u64, u64, u64) {
    let mut runs = 0u64;
    let mut alerts = 0u64;
    let mut mitigations = 0u64;
    for design in designs {
        for seed in 0..BENIGN_SEEDS {
            for profile in ChaosProfile::ALL.into_iter().map(Some).chain([None]) {
                let telemetry =
                    defended_metrics_run(design, seed, profile, DefensePolicy::hardened());
                runs += 1;
                alerts += family_total(&telemetry, "cloud_alerts_total");
                mitigations += family_total(&telemetry, "cloud_mitigations_total");
            }
        }
    }
    (runs, alerts, mitigations)
}

/// Leg 2+3: rerun every feasible cell against the hardened cloud with a
/// forensic capture, and read detection + mitigation off each cell's
/// private registry and trace.
fn defended_grid(designs: &[rb_core::design::VendorDesign]) -> (Vec<CellRun>, f64) {
    let mut cells = Vec::new();
    let started = Instant::now();
    for design in designs {
        for id in AttackId::ALL {
            // Ground truth: is the cell feasible against the undefended
            // cloud? (Blocked/unconfirmable cells have nothing to defend.)
            if run_attack(design, id, SEED).outcome != Feasibility::Feasible {
                continue;
            }
            let opts = AttackOpts {
                defense: DefensePolicy::hardened(),
                capture: true,
                ..AttackOpts::default()
            };
            let run = run_attack_opts(design, id, SEED, &opts);
            let window_reduction = run.capture.as_deref().and_then(|capture| {
                let first_defense = capture.trace.iter().find_map(|e| match &e.event {
                    TraceEvent::Mark { text, .. } if text.starts_with("defense ") => Some(e.at),
                    _ => None,
                })?;
                let end = capture.trace.last()?.at;
                Some(end.as_u64().saturating_sub(first_defense.as_u64()))
            });
            cells.push(CellRun {
                vendor: design.vendor.clone(),
                id,
                alerts: family_total(&opts.telemetry, "cloud_alerts_total"),
                mitigations: run.mitigations,
                window_reduction,
            });
        }
    }
    (cells, started.elapsed().as_secs_f64())
}

/// Leg 4: the monitor-enabled sweep at `threads` workers (in-order
/// [`par_map`]), one byte-stable artifact per cell.
fn monitor_sweep(threads: usize) -> Vec<String> {
    let cells: Vec<_> = [vendors::tp_link(), vendors::e_link(), vendors::ozwi()]
        .into_iter()
        .flat_map(|d| [7u64, 11].map(|s| (d.clone(), s)))
        .collect();
    par_map(&cells, threads, |(design, seed)| {
        let run = monitor_run(design, *seed);
        format!(
            "== {} seed={seed}\n{}\n{}\n{}",
            design.vendor,
            run.alert_stream,
            run.state,
            run.telemetry.to_prometheus()
        )
    })
}

fn main() {
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next();
        }
    }

    println!("EXP-DEFENSE: streaming detection + active mitigation (seed {SEED:#x})\n");
    let designs = vendor_designs();

    // Leg 1: precision on the benign chaos matrix.
    let benign_designs = [vendors::tp_link(), vendors::e_link(), vendors::ozwi()];
    let (benign_runs, benign_alerts, benign_mitigations) = benign_matrix(&benign_designs);
    let precision_ok = benign_alerts == 0 && benign_mitigations == 0;
    println!(
        "benign matrix: {benign_runs} runs ({} vendors x {BENIGN_SEEDS} seeds x {} profiles) \
         -> {benign_alerts} alerts, {benign_mitigations} interventions",
        benign_designs.len(),
        ChaosProfile::ALL.len() + 1
    );

    // Legs 2+3: the defended attack grid.
    let (cells, grid_secs) = defended_grid(&designs);
    let feasible = cells.len();
    let detected = cells.iter().filter(|c| c.alerts > 0).count();
    let mitigated: Vec<&CellRun> = cells.iter().filter(|c| c.mitigations > 0).collect();
    let min_reduction = mitigated
        .iter()
        .map(|c| c.window_reduction.unwrap_or(0))
        .min();
    let recall = if feasible == 0 {
        1.0
    } else {
        detected as f64 / feasible as f64
    };
    let grid_alerts: u64 = cells.iter().map(|c| c.alerts).sum();
    let alerts_per_sec = grid_alerts as f64 / grid_secs.max(f64::EPSILON);

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.vendor.clone(),
                c.id.to_string(),
                c.alerts.to_string(),
                c.mitigations.to_string(),
                c.window_reduction
                    .map_or_else(|| "-".into(), |w| w.to_string()),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "vendor",
                "cell",
                "alerts",
                "mitigations",
                "window cut (ticks)"
            ],
            &rows
        )
    );
    println!(
        "recall {recall:.3} ({detected}/{feasible} feasible cells detected); \
         {} cells actively mitigated; {grid_alerts} alerts in {grid_secs:.2}s \
         ({alerts_per_sec:.0} alerts/s end-to-end)",
        mitigated.len()
    );

    // Leg 4: thread determinism of the monitor sweep.
    let one = monitor_sweep(1);
    let determinism_ok = one == monitor_sweep(4) && one == monitor_sweep(8);
    println!(
        "monitor sweep determinism at 1/4/8 threads: {}",
        if determinism_ok {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );

    // The machine-readable artifact: the unified schema-versioned report
    // (per-cell counters flattened to dotted metric keys).
    let precision = if precision_ok { 1.0 } else { 0.0 };
    let mut report = BenchReport::new("exp_defense");
    report
        .meta("seed", SEED)
        .metric_u64("benign_runs", benign_runs)
        .metric_u64("benign_alerts", benign_alerts)
        .metric_u64("benign_mitigations", benign_mitigations)
        .metric_f64("precision", precision)
        .metric_f64("recall", recall)
        .metric_u64("feasible_cells", feasible as u64)
        .metric_u64("detected_cells", detected as u64)
        .metric_u64("mitigated_cells", mitigated.len() as u64)
        .metric_f64("alerts_per_sec", alerts_per_sec)
        .metric_bool("thread_determinism", determinism_ok);
    if let Some(w) = min_reduction {
        report.metric_u64("min_window_reduction", w);
    }
    for c in &cells {
        let key = |stat: &str| format!("{}.{}.{stat}", c.vendor, c.id);
        report
            .metric_u64(&key("alerts"), c.alerts)
            .metric_u64(&key("mitigations"), c.mitigations);
        if let Some(w) = c.window_reduction {
            report.metric_u64(&key("window_reduction"), w);
        }
    }
    emit(&report, out_path.as_deref());

    let mut failed = false;
    if !precision_ok {
        eprintln!("exp_defense: GATE FAILED — the benign chaos matrix tripped the defenses");
        failed = true;
    }
    if recall < 0.9 {
        eprintln!("exp_defense: GATE FAILED — recall {recall:.3} < 0.9");
        failed = true;
    }
    if mitigated
        .iter()
        .any(|c| c.window_reduction.unwrap_or(0) == 0)
    {
        eprintln!("exp_defense: GATE FAILED — a mitigated cell shows no attack-window reduction");
        failed = true;
    }
    if !determinism_ok {
        eprintln!("exp_defense: GATE FAILED — monitor sweep diverged across thread counts");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
