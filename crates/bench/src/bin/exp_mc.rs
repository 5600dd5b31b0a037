//! EXP-MC — the model checker's three repo-wide gates, timed:
//!
//! * **determinism**: on each of the ten vendors the explorer's report is
//!   byte-identical at 1, 4, and 8 worker threads — the parallel BFS has
//!   no schedule-dependent output;
//! * **agreement**: sweeping the full coherent design space (the ten
//!   vendors under `--vendors-only`), the model checker, the bounded
//!   checker, the static analyzer, and the linter agree on every design
//!   (zero `RB013` diagnostics);
//! * **reproduction**: every minimal counterexample of every swept design
//!   replays in the packet-level simulator and reproduces its violation
//!   on the live cloud, and the replays account for every witness the
//!   sweep found.
//!
//! Prints a human summary, then a single `BENCH ` line with a JSON
//! document (CI uploads it as the verification artifact):
//!
//! ```text
//! cargo run --release -p rb-bench --bin exp_mc
//! cargo run --release -p rb-bench --bin exp_mc -- --vendors-only   # the ten vendors only
//! cargo run --release -p rb-bench --bin exp_mc -- --threads 4 out.json
//! ```
//!
//! The sweep maps over the designs on `--threads` workers (default: the
//! detected core count). Throughput (`states_per_sec`, `designs_per_sec`)
//! and `replay_secs` are wall-clock and machine-dependent;
//! `deterministic`, `disagreements`, and `replay_failures` are the fields
//! with pinned expectations (true / 0 / 0), and `witnesses_replayed` must
//! equal `witnesses`. Exits nonzero if any gate fails.

use std::time::Instant;

use rb_bench::report::{emit, BenchReport};
use rb_core::design::VendorDesign;
use rb_core::explore::all_designs;
use rb_core::par::{available_threads, par_map};
use rb_core::vendors::vendor_designs;
use rb_mc::diag::verify_design;
use rb_mc::explore::{explore, Property};
use rb_mc::replay::replay;

/// Per-design verdict counts, summed in design order.
#[derive(Default, Clone)]
struct SweepTotals {
    states: usize,
    transitions: usize,
    violations: [usize; 5],
    secure: usize,
    disagreements: usize,
    shadow_coverage_sum: f64,
}

impl SweepTotals {
    fn absorb(&mut self, other: &SweepTotals) {
        self.states += other.states;
        self.transitions += other.transitions;
        for (a, b) in self.violations.iter_mut().zip(other.violations) {
            *a += b;
        }
        self.secure += other.secure;
        self.disagreements += other.disagreements;
        self.shadow_coverage_sum += other.shadow_coverage_sum;
    }
}

/// Verifies one design (the explorer itself runs single-threaded here;
/// parallelism comes from mapping over the designs).
fn verify_totals(design: &VendorDesign) -> SweepTotals {
    let v = verify_design(design, 1);
    let mut t = SweepTotals {
        states: v.mc.reachable,
        transitions: v.mc.transitions,
        secure: usize::from(v.mc.is_secure()),
        disagreements: v.disagreements.len(),
        shadow_coverage_sum: v.mc.shadow_coverage_percent(),
        ..SweepTotals::default()
    };
    for (i, property) in Property::ALL.into_iter().enumerate() {
        if v.mc.witness(property).is_some() {
            t.violations[i] += 1;
        }
    }
    t
}

fn main() {
    let mut threads = available_threads();
    let mut vendors_only = false;
    let mut out_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => {
                threads = iter.next().and_then(|s| s.parse().ok()).unwrap_or(threads);
            }
            "--vendors-only" => vendors_only = true,
            other => out_path = Some(other.to_owned()),
        }
    }
    let threads = threads.max(1);

    // Gate 1: determinism — byte-identical reports at 1/4/8 threads.
    println!("EXP-MC: determinism gate (1/4/8 explorer threads)...");
    let mut deterministic = true;
    for design in vendor_designs() {
        let one = explore(&design, 1);
        if explore(&design, 4) != one || explore(&design, 8) != one {
            eprintln!("  NONDETERMINISTIC: {}", design.vendor);
            deterministic = false;
        }
    }
    println!(
        "  reports identical on all {} vendors: {deterministic}\n",
        vendor_designs().len()
    );

    // Gate 2: the agreement sweep.
    let designs = if vendors_only {
        vendor_designs()
    } else {
        all_designs()
    };
    println!(
        "EXP-MC: agreement sweep over {} design(s), {threads} worker(s)...",
        designs.len()
    );
    let started = Instant::now();
    let per_design = par_map(&designs, threads, verify_totals);
    let sweep_secs = started.elapsed().as_secs_f64();
    let mut totals = SweepTotals::default();
    for t in &per_design {
        totals.absorb(t);
    }
    let states_per_sec = totals.states as f64 / sweep_secs.max(1e-9);
    let designs_per_sec = designs.len() as f64 / sweep_secs.max(1e-9);
    let avg_coverage = totals.shadow_coverage_sum / designs.len().max(1) as f64;
    println!(
        "  {} states, {} transitions in {sweep_secs:.2}s ({states_per_sec:.0} states/s, \
         {designs_per_sec:.0} designs/s)",
        totals.states, totals.transitions
    );
    for (i, property) in Property::ALL.into_iter().enumerate() {
        println!(
            "  {:17} violated on {:5} design(s)",
            property.to_string(),
            totals.violations[i]
        );
    }
    println!(
        "  secure designs: {} | mean shadow edge coverage: {avg_coverage:.1}%",
        totals.secure
    );
    println!("  cross-tool disagreements: {}\n", totals.disagreements);

    // Gate 3: every counterexample of the swept designs reproduces in the
    // simulator, and the replays cover every witness the sweep found.
    println!("EXP-MC: replay gate (every witness into the live simulator)...");
    let started = Instant::now();
    let outcomes: Vec<Result<(), String>> = par_map(&designs, threads, |design| {
        let report = explore(design, 1);
        let replays = report.violations().into_iter().map(|(property, witness)| {
            replay(design, property, witness)
                .map_err(|e| format!("{}: {property}: {e}", design.vendor))
        });
        replays.collect::<Vec<_>>()
    })
    .concat();
    let replay_secs = started.elapsed().as_secs_f64();
    let witnesses: usize = totals.violations.iter().sum();
    let failures: Vec<&String> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
    for failure in &failures {
        eprintln!("  REPLAY FAILED: {failure}");
    }
    let (replay_failures, replayed) = (failures.len(), outcomes.len() - failures.len());
    println!(
        "  {replayed} of {witnesses} witness(es) reproduced live, {replay_failures} \
         failure(s) in {replay_secs:.2}s\n"
    );
    // A design the replay pass skipped must not read as a pass.
    let replay_complete = outcomes.len() == witnesses;

    // The machine-readable artifact: the unified schema-versioned report.
    let mut report = BenchReport::new("exp_mc");
    report
        .meta("vendors_only", vendors_only)
        .meta("threads", threads)
        .metric_u64("designs", designs.len() as u64)
        .metric_u64("states_total", totals.states as u64)
        .metric_u64("transitions_total", totals.transitions as u64)
        .metric_u64("attacker_bound", totals.violations[0] as u64)
        .metric_u64("attacker_control", totals.violations[1] as u64)
        .metric_u64("user_disconnect", totals.violations[2] as u64)
        .metric_u64("stale_session", totals.violations[3] as u64)
        .metric_u64("rebind_livelock", totals.violations[4] as u64)
        .metric_u64("secure_designs", totals.secure as u64)
        .metric_f64("sweep_secs", sweep_secs)
        .metric_f64("states_per_sec", states_per_sec)
        .metric_f64("designs_per_sec", designs_per_sec)
        .metric_f64("shadow_coverage_mean_pct", avg_coverage)
        .metric_bool("deterministic", deterministic)
        .metric_u64("disagreements", totals.disagreements as u64)
        .metric_u64("witnesses", witnesses as u64)
        .metric_u64("witnesses_replayed", replayed as u64)
        .metric_u64("replay_failures", replay_failures as u64)
        .metric_f64("replay_secs", replay_secs);
    emit(&report, out_path.as_deref());
    if !deterministic || totals.disagreements > 0 || replay_failures > 0 || !replay_complete {
        eprintln!("exp_mc: a verification gate failed");
        std::process::exit(1);
    }
    println!("EXP-MC: PASS");
}
