//! `rbsim` — the remote-binding analysis toolkit, as a CLI.
//!
//! ```text
//! rbsim list                      # the studied vendor designs
//! rbsim audit <vendor>            # static attack-surface audit + fixes
//! rbsim lint <vendor|--all>       # design lints (add --json or --sarif)
//! rbsim verify <vendor>           # exhaustive model check + live replay
//!                                 #   (--threads N, --json, --sarif, --no-replay)
//! rbsim fuzz <vendor>             # lifecycle fuzz campaign, shrunk findings
//!                                 #   (--seed N, --runs N, --json)
//! rbsim campaign <vendor> [seed]  # execute all nine attacks live
//! rbsim attack <vendor> <A4-3>    # execute one attack with evidence
//! rbsim metrics <vendor> [seed]   # binding-lifecycle telemetry (--json|--prom)
//! rbsim prof <vendor> [seed]      # deterministic self-profile of the lifecycle
//!                                 #   (--json|--folded, --baseline F --tolerance T)
//! rbsim trace <vendor> [seed]     # causal trace (--timeline|--chrome|--forensics)
//! rbsim taxonomy                  # Table II
//! rbsim table3                    # full live Table III
//! rbsim space                     # exhaustive design-space survey
//! rbsim fleet <N homes> [--threads T] [--seeds S] [--chaos]
//!                                 # population-scale parallel sweep
//! ```
//!
//! `lint` exits nonzero when any error-severity finding fires, so it can
//! gate a vendor's design in CI the way `clippy` gates code.
//!
//! `trace` replays the canonical binding lifecycle with causal tracing on
//! and renders the capture as a human timeline (default) or a Chrome
//! `trace_event` JSON document (`--chrome`, loadable in Perfetto /
//! `chrome://tracing`). With `--forensics` it instead executes all nine
//! attacks and reconstructs each verdict from the trace alone.
//!
//! Run through cargo: `cargo run -p rb-bench --bin rbsim -- audit tp-link`.

use rb_attack::campaign::{run_all_parallel, run_campaign};
use rb_attack::exec::run_attack;
use rb_attack::{run_attack_opts, AttackOpts};
use rb_bench::render_table;
use rb_core::analyzer::{analyze, taxonomy, taxonomy_witnesses};
use rb_core::attacks::{AttackFamily, AttackId};
use rb_core::design::VendorDesign;
use rb_core::par::available_threads;
use rb_core::recommend::recommendations;
use rb_core::vendors::{
    capability_reference, public_key_reference, vendor_designs, weakest_design,
};
use rb_lint::diagnostic::Severity;
use rb_lint::emit::{render_human, render_json, render_sarif};
use rb_lint::rules::lint_design;
use rb_mc::conformance::{attack_counts, space};
use rb_mc::diag::verify_design;
use rb_mc::explore::Property;
use rb_mc::replay::replay;
use std::cell::RefCell;
use std::fmt;
use std::io::{self, Write as _};

/// Every rbsim run is measured by the counting allocator so `rbsim prof`
/// can report the allocation/peak-memory envelope alongside the ticks.
#[global_allocator]
static ALLOC: rb_prof::CountingAlloc = rb_prof::CountingAlloc;

thread_local! {
    /// Standard output, locked once for the whole run.
    static STDOUT: RefCell<io::StdoutLock<'static>> = RefCell::new(io::stdout().lock());
}

/// Writes to standard output. When the reader has gone (`rbsim … | head`
/// closes the pipe), the run ends quietly instead of panicking the way
/// `print!` does; any other write error ends it with status 1.
fn write_out(args: fmt::Arguments<'_>) {
    let Err(e) = STDOUT.with(|out| out.borrow_mut().write_fmt(args)) else {
        return;
    };
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("rbsim: cannot write to stdout: {e}");
    std::process::exit(1);
}

/// `print!` through [`write_out`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_out(format_args!($($arg)*))
    };
}

/// `println!` through [`write_out`].
macro_rules! outln {
    () => {
        write_out(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn find_design(name: &str) -> Option<VendorDesign> {
    let needle = name.to_lowercase().replace(['-', '_', ' '], "");
    let mut all = vendor_designs();
    all.push(capability_reference());
    all.push(public_key_reference());
    all.push(weakest_design());
    all.into_iter().find(|d| {
        d.vendor
            .to_lowercase()
            .replace(['-', '_', ' '], "")
            .contains(&needle)
    })
}

/// Resolve a vendor argument or exit 2 — the one unknown-vendor error
/// path shared by every vendor-taking subcommand (`lint`, `metrics`,
/// `trace`, ...), so the message and exit status cannot drift apart.
fn require_design(vendor: Option<&str>, hint: &str) -> VendorDesign {
    match vendor.and_then(find_design) {
        Some(design) => design,
        None => {
            eprintln!("unknown vendor; try {hint}");
            std::process::exit(2);
        }
    }
}

fn parse_attack(name: &str) -> Option<AttackId> {
    let needle = name.to_uppercase().replace('_', "-");
    AttackId::ALL.into_iter().find(|a| a.to_string() == needle)
}

fn cmd_list() {
    let rows: Vec<Vec<String>> = vendor_designs()
        .iter()
        .enumerate()
        .map(|(i, d)| {
            vec![
                format!("#{}", i + 1),
                d.vendor.clone(),
                d.device.to_string(),
                d.auth.to_string(),
                d.bind.to_string(),
                d.unbind.to_string(),
            ]
        })
        .collect();
    outln!(
        "{}",
        render_table(
            &["#", "vendor", "device", "status", "bind", "unbind"],
            &rows
        )
    );
    outln!("also available: 'capability', 'publickey', 'weakest'");
}

fn cmd_audit(design: &VendorDesign) {
    outln!("audit: {} ({})\n", design.vendor, design.device);
    let report = analyze(design);
    for id in AttackId::ALL {
        outln!(
            "  {:5} [{}] {}",
            id.to_string(),
            report.verdict(id).symbol(),
            report.verdict(id)
        );
    }
    out!("\nfamily cells:");
    for family in AttackFamily::ALL {
        out!(" {}={}", family, report.family_cell(family));
    }
    outln!("\n\nremediations:");
    for rec in recommendations(design, &report) {
        let kills: Vec<String> = rec.eliminates.iter().map(|a| a.to_string()).collect();
        outln!(
            "  [{}] {}{}",
            rec.id,
            rec.advice,
            if kills.is_empty() {
                String::new()
            } else {
                format!(" (eliminates {})", kills.join(", "))
            }
        );
    }
}

/// Output format for `rbsim lint`.
#[derive(Clone, Copy, PartialEq)]
enum LintFormat {
    Human,
    Json,
    Sarif,
}

fn cmd_lint(designs: &[VendorDesign], format: LintFormat) {
    let reports: Vec<_> = designs.iter().map(lint_design).collect();
    match format {
        LintFormat::Human => {
            for report in &reports {
                out!("{}", render_human(report));
                outln!();
            }
        }
        LintFormat::Json => {
            for report in &reports {
                out!("{}", render_json(report));
            }
        }
        LintFormat::Sarif => out!("{}", render_sarif(&reports)),
    }
    let errors: usize = reports.iter().map(|r| r.count(Severity::Error)).sum();
    if errors > 0 {
        eprintln!("rbsim lint: {errors} error-severity finding(s)");
        std::process::exit(1);
    }
}

fn cmd_campaign(design: &VendorDesign, seed: u64) {
    outln!(
        "executing all nine attacks against {} (seed {seed})...\n",
        design.vendor
    );
    let campaign = run_campaign(design, seed);
    for id in AttackId::ALL {
        let run = &campaign.runs[&id];
        outln!(
            "  {:5} [{}] {}",
            id.to_string(),
            run.outcome.symbol(),
            run.outcome
        );
        for line in &run.evidence {
            outln!("         {line}");
        }
    }
    let row = campaign.row();
    outln!(
        "\nrow: A1={} A2={} A3={} A4={}",
        row[0],
        row[1],
        row[2],
        row[3]
    );
    let disagreements = campaign.disagreements();
    if disagreements.is_empty() {
        outln!("analyzer agrees with every executed outcome.");
    } else {
        for d in disagreements {
            outln!("DISAGREEMENT: {d}");
        }
        std::process::exit(1);
    }
}

fn cmd_attack(design: &VendorDesign, id: AttackId, seed: u64) {
    outln!("executing {id} against {}...\n", design.vendor);
    let run = run_attack(design, id, seed);
    outln!("outcome: [{}] {}", run.outcome.symbol(), run.outcome);
    for line in &run.evidence {
        outln!("  {line}");
    }
}

/// Output format for `rbsim metrics`.
#[derive(Clone, Copy, PartialEq)]
enum MetricsFormat {
    Human,
    Json,
    Prometheus,
}

fn cmd_metrics(design: &VendorDesign, seed: u64, format: MetricsFormat) {
    let telemetry = rb_scenario::metrics_run(design, seed);
    match format {
        MetricsFormat::Human => {
            outln!(
                "metrics: {} (seed {seed}) — canonical binding-lifecycle scenario\n",
                design.vendor
            );
            out!("{}", telemetry.render_human());
        }
        MetricsFormat::Json => out!("{}", telemetry.to_json()),
        MetricsFormat::Prometheus => out!("{}", telemetry.to_prometheus()),
    }
}

/// Output format for `rbsim prof`.
#[derive(Clone, Copy, PartialEq)]
enum ProfFormat {
    Human,
    Json,
    Folded,
}

/// `rbsim prof`: run the canonical binding lifecycle under the phase
/// profiler and the allocation counter, render where the ticks and bytes
/// went, and optionally gate the run against a committed baseline.
fn cmd_prof(
    design: &VendorDesign,
    seed: u64,
    format: ProfFormat,
    baseline: Option<&str>,
    tolerance: f64,
) {
    let scope = rb_prof::AllocScope::start();
    let run = rb_scenario::prof_run(design, seed);
    let alloc = scope.finish();

    let mut report = rb_bench::report::BenchReport::new("rbsim_prof");
    report
        .meta("vendor", &design.vendor)
        .meta("seed", seed)
        .metric_bool("converged", run.converged)
        .metric_u64("end_tick", run.end_tick)
        .metric_u64("total_ticks", run.profile.total_ticks())
        .with_alloc(alloc)
        .with_profile(&run.profile);

    match format {
        // The folded export is the flamegraph feed and the determinism
        // surface: ticks only, byte-identical across reruns.
        ProfFormat::Folded => out!("{}", run.profile.folded()),
        ProfFormat::Json => outln!("{}", report.to_json()),
        ProfFormat::Human => {
            outln!(
                "profile: {} (seed {seed}) — canonical binding-lifecycle scenario\n",
                design.vendor
            );
            outln!(
                "converged: {} | end tick: {} | profiled ticks: {}\n",
                run.converged,
                run.end_tick,
                run.profile.total_ticks()
            );
            out!("{}", run.profile.hot_table(12));
            outln!(
                "\nalloc: {} allocations, {} bytes total, peak live {} bytes",
                alloc.allocs_total,
                alloc.bytes_total,
                alloc.peak_live_bytes
            );
            outln!("(ticks are deterministic sim time; alloc numbers are this build's envelope)");
        }
    }

    if let Some(path) = baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("rbsim prof: cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let base = match rb_bench::report::BenchReport::from_json(&text) {
            Ok(base) => base,
            Err(e) => {
                eprintln!("rbsim prof: bad baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        match rb_bench::report::compare(&report, &base, tolerance) {
            Ok(()) => eprintln!("baseline check: PASS ({path}, ±{:.0}%)", tolerance * 100.0),
            Err(violations) => {
                eprintln!("baseline check: FAIL ({path}, ±{:.0}%)", tolerance * 100.0);
                for v in &violations {
                    eprintln!("  {v}");
                }
                std::process::exit(1);
            }
        }
    }
}

/// `rbsim compare`: gate any `BenchReport` artifact (a `BENCH` line or a
/// `bench_*.json` file) against a committed baseline — the CI regression
/// gate for experiment binaries that emit their own artifacts.
fn cmd_compare(report_path: &str, baseline_path: &str, tolerance: f64) {
    let load = |path: &str| -> rb_bench::report::BenchReport {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("rbsim compare: cannot read {path}: {e}");
            std::process::exit(1);
        });
        // Artifacts are a single JSON object; stdout captures may carry
        // extra human-readable lines, so pick the BENCH/JSON line.
        let line = text
            .lines()
            .find(|l| l.starts_with("BENCH ") || l.starts_with('{'))
            .unwrap_or(&text);
        rb_bench::report::BenchReport::from_json(line).unwrap_or_else(|e| {
            eprintln!("rbsim compare: bad report {path}: {e}");
            std::process::exit(1);
        })
    };
    let report = load(report_path);
    let base = load(baseline_path);
    match rb_bench::report::compare(&report, &base, tolerance) {
        Ok(()) => outln!(
            "compare: PASS ({} vs {}, ±{:.0}%)",
            report_path,
            baseline_path,
            tolerance * 100.0
        ),
        Err(violations) => {
            eprintln!(
                "compare: FAIL ({} vs {}, ±{:.0}%)",
                report_path,
                baseline_path,
                tolerance * 100.0
            );
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}

fn cmd_monitor(design: &VendorDesign, seed: u64, json: bool) {
    let run = rb_attack::monitor_run(design, seed);
    if json {
        // Hand-rolled JSON (the workspace serde is a no-op stub). Alert
        // and state lines are plain `key=value` text: no escaping needed.
        let lines = |text: &str| {
            text.lines()
                .map(|l| format!("\"{l}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        outln!(
            "{{\"vendor\":\"{}\",\"seed\":{seed},\"converged\":{},\"alerts\":[{}],\"state\":[{}]}}",
            design.vendor,
            run.converged,
            lines(&run.alert_stream),
            lines(&run.state),
        );
        return;
    }
    outln!(
        "monitor: {} (seed {seed}) — hardened policy vs the scripted WAN attacker\n",
        design.vendor
    );
    outln!("benign setup converged: {}\n", run.converged);
    outln!("alert stream:");
    for line in run.alert_stream.lines() {
        outln!("  {line}");
    }
    outln!("\n{}", run.state);
    let snap = run.telemetry.snapshot();
    let total = |prefix: &str| -> u64 {
        snap.counters()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    };
    outln!(
        "\n{} alert(s), {} intervention(s); full metrics: `rbsim metrics {} --prom`",
        total("cloud_alerts_total"),
        total("cloud_mitigations_total"),
        design.vendor.to_lowercase().replace(' ', "-"),
    );
}

/// Output format for `rbsim trace`.
#[derive(Clone, Copy, PartialEq)]
enum TraceFormat {
    Timeline,
    Chrome,
    Forensics,
}

fn cmd_trace(design: &VendorDesign, seed: u64, format: TraceFormat) {
    match format {
        TraceFormat::Timeline => {
            let capture = rb_scenario::trace_run(design, seed, None);
            out!("{}", rb_forensics::timeline::to_timeline(&capture));
        }
        TraceFormat::Chrome => {
            let capture = rb_scenario::trace_run(design, seed, None);
            out!("{}", rb_forensics::chrome::to_chrome_json(&capture));
        }
        TraceFormat::Forensics => {
            let opts = AttackOpts {
                capture: true,
                ..AttackOpts::default()
            };
            outln!(
                "forensic reconstruction: {} (seed {seed}) — verdicts from the causal trace alone\n",
                design.vendor
            );
            let mut reconstructed = 0usize;
            let mut feasible = 0usize;
            for id in AttackId::ALL {
                let run = run_attack_opts(design, id, seed, &opts);
                let Some(capture) = run.capture.as_deref() else {
                    continue;
                };
                let findings = rb_forensics::classify(capture);
                let dev = &capture.roles.homes[0].dev_id;
                let is_feasible = run.outcome == rb_core::attacks::Feasibility::Feasible;
                if is_feasible {
                    feasible += 1;
                }
                let verdict = match findings.iter().find(|f| &f.dev_id == dev) {
                    Some(f) => {
                        // Only feasible runs count toward the ratio: a blocked
                        // attempt can still leave a true partial attribution.
                        if is_feasible && f.sub_case == id.to_string() {
                            reconstructed += 1;
                        }
                        format!(
                            "attributed {} via forged `{}` (root span {}, {})",
                            f.sub_case, f.primitive, f.root_span, f.at
                        )
                    }
                    None => "no attribution".to_owned(),
                };
                outln!(
                    "  {:5} [{}] executed: {:14} | forensics: {verdict}",
                    id.to_string(),
                    run.outcome.symbol(),
                    run.outcome.to_string()
                );
            }
            outln!("\nreconstructed {reconstructed}/{feasible} feasible attack(s) from traces.");
            if reconstructed != feasible {
                std::process::exit(1);
            }
        }
    }
}

/// Output format for `rbsim verify`.
#[derive(Clone, Copy, PartialEq)]
enum VerifyFormat {
    Human,
    Json,
    Sarif,
}

fn cmd_verify(design: &VendorDesign, threads: usize, format: VerifyFormat, do_replay: bool) {
    let v = verify_design(design, threads);
    match format {
        VerifyFormat::Json => out!("{}", render_json(&v.findings)),
        VerifyFormat::Sarif => out!("{}", render_sarif(std::slice::from_ref(&v.findings))),
        VerifyFormat::Human => {
            outln!(
                "model-checking {} (product machine, {threads} thread(s))...\n",
                design.vendor
            );
            outln!(
                "reachable product states: {} | transitions: {} | max depth: {}",
                v.mc.reachable,
                v.mc.transitions,
                v.mc.depth
            );
            outln!(
                "shadow-machine edge coverage: {:.1}%\n",
                v.mc.shadow_coverage_percent()
            );
            for property in Property::ALL {
                match v.mc.witness(property) {
                    Some(w) => {
                        let steps: Vec<String> = w.iter().map(ToString::to_string).collect();
                        outln!(
                            "  {:17} VIOLATED ({} steps): {}",
                            property.to_string(),
                            w.len(),
                            steps.join(" -> ")
                        );
                    }
                    None => outln!("  {:17} holds", property.to_string()),
                }
            }
            if v.mc.is_secure() {
                outln!("\nverdict: SECURE — every property holds over the product machine.");
            } else {
                outln!("\nverdict: VULNERABLE (witnesses above are minimal).");
            }
        }
    }
    let mut failed = false;
    if do_replay {
        for (property, witness) in v.mc.violations() {
            match replay(design, property, witness) {
                Ok(()) => {
                    if format == VerifyFormat::Human {
                        outln!("replayed {property} in the simulator: violation reproduced live.");
                    }
                }
                Err(e) => {
                    eprintln!("REPLAY FAILED for {property}: {e}");
                    failed = true;
                }
            }
        }
    }
    if v.disagreements.is_empty() {
        if format == VerifyFormat::Human {
            outln!("model checker, bounded checker, analyzer, and linter agree on this design.");
        }
    } else {
        for d in &v.disagreements {
            eprintln!("DISAGREEMENT: {}", d.message);
        }
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// `rbsim fuzz`: a deterministic lifecycle fuzz campaign against one
/// design, with shrunk findings, Table III classification, coverage
/// versus the exhaustive checker, and the `RB013` cross-check.
fn cmd_fuzz(design: &VendorDesign, cfg: &rb_fuzz::FuzzConfig, json: bool) {
    let report = rb_fuzz::run_campaign(design, cfg);
    let mc = rb_mc::explore::explore(design, 1);
    let diags = rb_fuzz::oracle::cross_check(&report, &mc);
    if json {
        out!("{}", report.to_json());
    } else {
        outln!(
            "fuzzing {} (seed {:#x}, {} runs)...\n",
            design.vendor,
            cfg.seed,
            cfg.runs
        );
        outln!(
            "executed {} acts / {} product steps | {} unique state(s) | corpus {:016x}",
            report.acts_executed,
            report.steps_executed,
            report.unique_states,
            report.corpus_digest
        );
        outln!(
            "shadow-transition coverage vs rb-mc: {:.1}% ({} of {} reachable edges)\n",
            report.coverage_vs_mc(&mc),
            report.shadow_edges.intersection(&mc.shadow_edges).count(),
            mc.shadow_edges.len()
        );
        if report.findings.is_empty() {
            outln!("no property violations found.");
        }
        for f in &report.findings {
            let cell = match (f.cell, f.composite) {
                (Some(c), _) => format!("Table III {c}"),
                (None, Some(name)) => format!("composite {name}"),
                (None, None) => "unnamed composite".to_owned(),
            };
            outln!(
                "  {:17} run {:3}, {} -> {} acts after {} shrink step(s) [{cell}]",
                f.property.to_string(),
                f.run,
                f.raw.len(),
                f.minimal.len(),
                f.shrink_steps
            );
            outln!("      {}", rb_fuzz::campaign::render_acts(&f.minimal));
        }
    }
    if !diags.is_empty() {
        for d in &diags {
            eprintln!("DISAGREEMENT: {}", d.message);
        }
        std::process::exit(1);
    }
    if !json {
        outln!("\nfuzzer and model checker agree on this design.");
    }
}

fn cmd_taxonomy() {
    let witnesses = taxonomy_witnesses();
    for row in taxonomy() {
        outln!(
            "{:5} forging {:45} in {:22} => {:8} | witness: {}",
            row.attack.to_string(),
            row.forged,
            row.targeted
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("+"),
            row.end_state.to_string(),
            witnesses.get(&row.attack).cloned().unwrap_or_default(),
        );
    }
}

fn cmd_table3() {
    let campaigns = run_all_parallel(0xD51_2019);
    let rows: Vec<Vec<String>> = campaigns
        .iter()
        .map(|c| {
            let row = c.row();
            vec![
                c.design.vendor.clone(),
                row[0].clone(),
                row[1].clone(),
                row[2].clone(),
                row[3].clone(),
            ]
        })
        .collect();
    outln!(
        "{}",
        render_table(&["vendor", "A1", "A2", "A3", "A4"], &rows)
    );
}

fn cmd_space() {
    let rows = space(available_threads());
    outln!("designs analyzed: {}", rows.len());
    for id in AttackId::ALL {
        let (feasible, unconfirmable) = attack_counts(&rows, id);
        outln!(
            "  {:5} feasible on {feasible:5} designs, unconfirmable on {unconfirmable}",
            id.to_string()
        );
    }
    outln!(
        "fully secure: {} | provably secure: {}",
        rows.iter().filter(|r| r.fully_secure()).count(),
        rows.iter().filter(|r| r.provably_secure()).count()
    );
}

/// `rbsim fleet`: a population-scale sweep over all ten vendor designs.
fn cmd_fleet(total_homes: usize, threads: usize, seeds: u64, chaos: bool) {
    let mut spec =
        rb_fleet::FleetSpec::new(vendor_designs(), (0..seeds.max(1)).collect(), total_homes)
            .threads(threads);
    if chaos {
        spec = spec.with_profiles(&rb_scenario::ChaosProfile::ALL);
    }
    let cells = spec.cells().len();
    outln!(
        "fleet sweep: {} designs x {} seeds x {} profile(s) = {} cells, {} homes/cell, {} thread(s)\n",
        spec.designs.len(),
        spec.seeds.len(),
        spec.profiles.len(),
        cells,
        spec.homes_per_cell,
        spec.threads
    );
    let (report, timings) = rb_fleet::run_fleet(&spec);
    out!("{}", report.render());
    outln!(
        "\nwall: {:.2}s | {:.1} cells/s | cell p50 {:.1}ms p95 {:.1}ms",
        timings.total_nanos as f64 / 1e9,
        timings.cells_per_sec(),
        timings.quantile_nanos(0.5) as f64 / 1e6,
        timings.quantile_nanos(0.95) as f64 / 1e6,
    );
}

fn usage() -> ! {
    eprintln!(
        "usage: rbsim <list|audit|lint|verify|fuzz|campaign|attack|metrics|prof|compare|monitor|trace|taxonomy|table3|space|fleet> [args]"
    );
    eprintln!("  rbsim audit tp-link");
    eprintln!("  rbsim lint tp-link");
    eprintln!("  rbsim lint --all --sarif");
    eprintln!("  rbsim verify e-link              # model-check + replay every witness");
    eprintln!("  rbsim fuzz tp-link --runs 512    # lifecycle fuzzing, shrunk witnesses");
    eprintln!("  rbsim verify tp-link --sarif     # findings as a SARIF log");
    eprintln!("  rbsim campaign e-link 42");
    eprintln!("  rbsim attack tp-link A4-3");
    eprintln!("  rbsim metrics tp-link 7 --prom");
    eprintln!("  rbsim prof tp-link 7             # where the ticks and bytes go");
    eprintln!("  rbsim prof tp-link --baseline benches/baselines/prof_tp_link.json");
    eprintln!("  rbsim compare bench_exp_fleet.json benches/baselines/fleet.json --tolerance 0.5");
    eprintln!("  rbsim monitor tp-link 7          # streaming monitor vs a scripted attacker");
    eprintln!("  rbsim trace tp-link 7 --chrome   # pipe to a file, load in Perfetto");
    eprintln!("  rbsim trace e-link --forensics   # reconstruct attacks from traces");
    eprintln!("  rbsim fleet 1000 --threads 8     # 10 vendors x 16 seeds, 1000 homes");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("taxonomy") => cmd_taxonomy(),
        Some("table3") => cmd_table3(),
        Some("space") => cmd_space(),
        Some("verify") => {
            let mut format = VerifyFormat::Human;
            let mut threads = 4usize;
            let mut do_replay = true;
            let mut vendor = None;
            let mut iter = args[1..].iter();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--json" => format = VerifyFormat::Json,
                    "--sarif" => format = VerifyFormat::Sarif,
                    "--no-replay" => do_replay = false,
                    "--threads" => {
                        threads = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                            eprintln!("--threads needs a number");
                            std::process::exit(2);
                        });
                    }
                    name => vendor = Some(name.to_owned()),
                }
            }
            let design = require_design(vendor.as_deref(), "`rbsim list`");
            cmd_verify(&design, threads, format, do_replay);
        }
        Some("fuzz") => {
            let mut cfg = rb_fuzz::FuzzConfig::default();
            let mut json = false;
            let mut vendor = None;
            let mut iter = args[1..].iter();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--json" => json = true,
                    "--seed" => {
                        cfg.seed = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                            eprintln!("--seed needs a number");
                            std::process::exit(2);
                        });
                    }
                    "--runs" => {
                        cfg.runs = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                            eprintln!("--runs needs a number");
                            std::process::exit(2);
                        });
                    }
                    name => vendor = Some(name.to_owned()),
                }
            }
            let design = require_design(vendor.as_deref(), "`rbsim list`");
            cmd_fuzz(&design, &cfg, json);
        }
        Some("lint") => {
            let mut format = LintFormat::Human;
            let mut all = false;
            let mut vendor = None;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--json" => format = LintFormat::Json,
                    "--sarif" => format = LintFormat::Sarif,
                    "--all" => all = true,
                    name => vendor = Some(name.to_owned()),
                }
            }
            let designs = if all {
                vendor_designs()
            } else {
                vec![require_design(
                    vendor.as_deref(),
                    "`rbsim list` or `rbsim lint --all`",
                )]
            };
            cmd_lint(&designs, format);
        }
        Some("audit") => {
            let design = require_design(args.get(1).map(String::as_str), "`rbsim list`");
            cmd_audit(&design);
        }
        Some("campaign") => {
            let design = require_design(args.get(1).map(String::as_str), "`rbsim list`");
            let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
            cmd_campaign(&design, seed);
        }
        Some("metrics") => {
            let mut format = MetricsFormat::Human;
            let mut seed = 7u64;
            let mut vendor = None;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--json" => format = MetricsFormat::Json,
                    "--prom" => format = MetricsFormat::Prometheus,
                    other => {
                        if let Ok(s) = other.parse() {
                            seed = s;
                        } else {
                            vendor = Some(other.to_owned());
                        }
                    }
                }
            }
            let design = require_design(vendor.as_deref(), "`rbsim list`");
            cmd_metrics(&design, seed, format);
        }
        Some("prof") => {
            let mut format = ProfFormat::Human;
            let mut seed = 7u64;
            let mut vendor = None;
            let mut baseline = None;
            let mut tolerance = 0.25f64;
            let mut iter = args[1..].iter();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--json" => format = ProfFormat::Json,
                    "--folded" => format = ProfFormat::Folded,
                    "--baseline" => {
                        baseline = iter.next().cloned().or_else(|| {
                            eprintln!("--baseline needs a path");
                            std::process::exit(2);
                        });
                    }
                    "--tolerance" => {
                        tolerance = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                            eprintln!("--tolerance needs a number (e.g. 0.25)");
                            std::process::exit(2);
                        });
                    }
                    other => {
                        if let Ok(s) = other.parse() {
                            seed = s;
                        } else {
                            vendor = Some(other.to_owned());
                        }
                    }
                }
            }
            let design = require_design(vendor.as_deref(), "`rbsim list`");
            cmd_prof(&design, seed, format, baseline.as_deref(), tolerance);
        }
        Some("compare") => {
            let mut tolerance = 0.25f64;
            let mut paths = Vec::new();
            let mut iter = args[1..].iter();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--tolerance" => {
                        tolerance = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                            eprintln!("--tolerance needs a number (e.g. 0.25)");
                            std::process::exit(2);
                        });
                    }
                    other => paths.push(other.to_owned()),
                }
            }
            let [report_path, baseline_path] = paths.as_slice() else {
                eprintln!("usage: rbsim compare <report.json> <baseline.json> [--tolerance f]");
                std::process::exit(2);
            };
            cmd_compare(report_path, baseline_path, tolerance);
        }
        Some("monitor") => {
            let mut json = false;
            let mut seed = 7u64;
            let mut vendor = None;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--json" => json = true,
                    other => {
                        if let Ok(s) = other.parse() {
                            seed = s;
                        } else {
                            vendor = Some(other.to_owned());
                        }
                    }
                }
            }
            let design = require_design(vendor.as_deref(), "`rbsim list`");
            cmd_monitor(&design, seed, json);
        }
        Some("trace") => {
            let mut format = TraceFormat::Timeline;
            let mut seed = 7u64;
            let mut vendor = None;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--timeline" => format = TraceFormat::Timeline,
                    "--chrome" => format = TraceFormat::Chrome,
                    "--forensics" => format = TraceFormat::Forensics,
                    other => {
                        if let Ok(s) = other.parse() {
                            seed = s;
                        } else {
                            vendor = Some(other.to_owned());
                        }
                    }
                }
            }
            let design = require_design(vendor.as_deref(), "`rbsim list`");
            cmd_trace(&design, seed, format);
        }
        Some("fleet") => {
            let mut total_homes = 1000usize;
            let mut threads = 1usize;
            let mut seeds = 16u64;
            let mut chaos = false;
            let mut iter = args[1..].iter();
            while let Some(arg) = iter.next() {
                match arg.as_str() {
                    "--threads" => {
                        threads = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                            eprintln!("--threads needs a number");
                            std::process::exit(2);
                        });
                    }
                    "--seeds" => {
                        seeds = iter.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                            eprintln!("--seeds needs a number");
                            std::process::exit(2);
                        });
                    }
                    "--chaos" => chaos = true,
                    other => {
                        if let Ok(n) = other.parse() {
                            total_homes = n;
                        } else {
                            eprintln!("unknown fleet argument: {other}");
                            std::process::exit(2);
                        }
                    }
                }
            }
            cmd_fleet(total_homes, threads, seeds, chaos);
        }
        Some("attack") => {
            let design = require_design(args.get(1).map(String::as_str), "`rbsim list`");
            let Some(id) = args.get(2).and_then(|a| parse_attack(a)) else {
                eprintln!("unknown attack; one of A1, A2, A3-1..A3-4, A4-1..A4-3");
                std::process::exit(2);
            };
            let seed = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1);
            cmd_attack(&design, id, seed);
        }
        _ => usage(),
    }
}
