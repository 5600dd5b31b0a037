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
//! Gates 2 and 3 read the rows of one `rb_mc::conformance` pass, which
//! verifies each design and replays its witnesses on `--threads` workers
//! (default: the detected core count). The pass prints one more line, the
//! model-checker⇔analyzer verdict split; it is not gated. Throughput
//! (`states_per_sec`, `designs_per_sec`) and `sweep_secs`/`replay_secs`
//! (both the one pass's wall time) are wall-clock and machine-dependent;
//! `deterministic`, `disagreements`, and `replay_failures` are the fields
//! with pinned expectations (true / 0 / 0), and `witnesses_replayed` must
//! equal `witnesses`. Exits nonzero if any gate fails.

use std::time::Instant;

use rb_bench::report::{emit, BenchReport};
use rb_core::par::available_threads;
use rb_core::vendors::vendor_designs;
use rb_mc::conformance::{space, sweep, Split};
use rb_mc::explore::{explore, Property};

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

    // Gates 2 and 3 read one conformance pass: each row holds a design's
    // verification and the live replay of each of its witnesses.
    let started = Instant::now();
    let rows = if vendors_only {
        sweep(&vendor_designs(), threads)
    } else {
        space(threads)
    };
    let sweep_secs = started.elapsed().as_secs_f64();
    println!(
        "EXP-MC: agreement sweep over {} design(s), {threads} worker(s)...",
        rows.len()
    );
    let mcs = || rows.iter().map(|r| &r.verified.mc);
    let states: usize = mcs().map(|mc| mc.reachable).sum();
    let transitions: usize = mcs().map(|mc| mc.transitions).sum();
    let violations = Property::ALL.map(|p| mcs().filter(|mc| mc.witness(p).is_some()).count());
    let secure = mcs().filter(|mc| mc.is_secure()).count();
    let disagreements: usize = rows.iter().map(|r| r.verified.disagreements.len()).sum();
    let coverage_sum: f64 = mcs().map(|mc| mc.shadow_coverage_percent()).sum();
    let states_per_sec = states as f64 / sweep_secs.max(1e-9);
    let designs_per_sec = rows.len() as f64 / sweep_secs.max(1e-9);
    let avg_coverage = coverage_sum / rows.len().max(1) as f64;
    println!(
        "  {states} states, {transitions} transitions in {sweep_secs:.2}s ({states_per_sec:.0} \
         states/s, {designs_per_sec:.0} designs/s)"
    );
    for (property, n) in Property::ALL.into_iter().zip(violations) {
        println!("  {:17} violated on {n:5} design(s)", property.to_string());
    }
    println!("  secure designs: {secure} | mean shadow edge coverage: {avg_coverage:.1}%");
    let split = |s: Split| rows.iter().filter(|r| r.split() == s).count();
    println!(
        "  checker vs analyzer: {} both secure, {} both insecure, {} analyzer only, {} \
         checker only",
        split(Split::BothSecure),
        split(Split::BothInsecure),
        split(Split::AnalyzerOnly),
        split(Split::CheckerOnly)
    );
    println!("  cross-tool disagreements: {disagreements}\n");

    // Gate 3: every counterexample reproduces in the simulator, and the
    // replays cover every witness the sweep found. They ran inside the
    // one pass, so `replay_secs` is that pass's wall time.
    println!("EXP-MC: replay gate (every witness into the live simulator)...");
    let witnesses: usize = violations.iter().sum();
    let (mut replayed, mut replay_failures) = (0, 0);
    for row in &rows {
        for (property, outcome) in &row.replays {
            if let Err(e) = outcome {
                eprintln!("  REPLAY FAILED: {}: {property}: {e}", row.design.vendor);
                replay_failures += 1;
            } else {
                replayed += 1;
            }
        }
    }
    println!(
        "  {replayed} of {witnesses} witness(es) reproduced live, {replay_failures} \
         failure(s) in {sweep_secs:.2}s\n"
    );
    // A design whose replays were skipped must not read as a pass.
    let replay_complete = replayed + replay_failures == witnesses;

    // The machine-readable artifact: the unified schema-versioned report.
    let mut report = BenchReport::new("exp_mc");
    report
        .meta("vendors_only", vendors_only)
        .meta("threads", threads)
        .metric_u64("designs", rows.len() as u64)
        .metric_u64("states_total", states as u64)
        .metric_u64("transitions_total", transitions as u64)
        .metric_u64("attacker_bound", violations[0] as u64)
        .metric_u64("attacker_control", violations[1] as u64)
        .metric_u64("user_disconnect", violations[2] as u64)
        .metric_u64("stale_session", violations[3] as u64)
        .metric_u64("rebind_livelock", violations[4] as u64)
        .metric_u64("secure_designs", secure as u64)
        .metric_f64("sweep_secs", sweep_secs)
        .metric_f64("states_per_sec", states_per_sec)
        .metric_f64("designs_per_sec", designs_per_sec)
        .metric_f64("shadow_coverage_mean_pct", avg_coverage)
        .metric_bool("deterministic", deterministic)
        .metric_u64("disagreements", disagreements as u64)
        .metric_u64("witnesses", witnesses as u64)
        .metric_u64("witnesses_replayed", replayed as u64)
        .metric_u64("replay_failures", replay_failures as u64)
        .metric_f64("replay_secs", sweep_secs);
    emit(&report, out_path.as_deref());
    if !deterministic || disagreements > 0 || replay_failures > 0 || !replay_complete {
        eprintln!("exp_mc: a verification gate failed");
        std::process::exit(1);
    }
    println!("EXP-MC: PASS");
}
