//! The remote-binding simulator's benchmark: four single-threaded
//! workloads run through the public APIs of `rb-fleet`, `rb-scenario`,
//! `rb-attack`, `rb-cloud`, `rb-wire` and `rb-mc`, with output checks, an
//! untraced run for the end-to-end metrics and a separate traced run for
//! the per-layer metrics. `README.md` beside this crate explains the
//! workloads, the metrics and the steadiness record.
//!
//! ```text
//! sh perfbench/run.sh --workload fleet_setup --seed 1 --seconds 20 --trace 0
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub mod calib;
pub mod campaign;
pub mod fleet;
pub mod flood;
pub mod layers;
pub mod stats;
pub mod sweep;

use layers::{per_layer_metrics, Recorder, LAYERS};

/// The end-to-end throughput metric every workload prints: user-visible
/// operations completed with the checked outcome per host second, in the
/// median rep. Each workload names its operation in [`WorkloadSpec::metric`].
pub const OPS_METRIC: &str = "ops_per_s";

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Fewest timed reps a run makes, however short `--seconds` is.
pub const MIN_REPS: usize = 5;

/// What one rep did, counted in the workload's own unit of work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepOutcome {
    /// Operations attempted (homes, probes, attack runs, designs).
    pub attempted: u64,
    /// Operations that completed with the checked outcome.
    pub completed: u64,
    /// Every output check that failed, described.
    pub problems: Vec<String>,
    /// Deterministic per-rep counts of the traced run; they must repeat
    /// exactly from rep to rep (empty in the untraced run).
    pub counts: Vec<(String, u64)>,
}

impl RepOutcome {
    /// Operations that did not complete as checked.
    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.completed)
    }
}

/// One benchmark workload: fixed-size reps over inputs made from a seed.
pub trait Workload {
    /// Untimed preparation before each rep (a fresh world, say).
    fn prepare(&mut self) {}
    /// One untraced rep.
    fn rep(&mut self) -> RepOutcome;
    /// Untimed checks after the timed reps.
    fn finish(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// The size of one rep, for the artifact.
    fn rep_size(&self) -> String;
    /// One traced rep: the same work as [`Workload::rep`], with spans
    /// recorded around the public calls into each layer.
    fn traced_rep(&mut self, rec: &mut Recorder) -> RepOutcome;
    /// After the traced reps: replays and the per-layer metric values
    /// this workload measures (per rep). Returns failed cross-checks.
    fn layer_metrics(&mut self, rec: &Recorder, reps: usize, out: &mut Metrics) -> Vec<String>;
}

/// Per-layer metric values by name, each with the number of samples it
/// was computed from.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, (f64, usize)>);

impl Metrics {
    /// Records `name` = `value`, computed from `samples` measurements.
    pub fn put(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.0.insert(name.into(), (value, samples));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.0)
    }

    /// The number of samples behind `name` (0 when not recorded).
    pub fn samples(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, |m| m.1)
    }
}

/// A workload by name: its throughput metric and its traced rep count.
pub struct WorkloadSpec {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// The workload's name for its throughput, printed beside `ops_per_s`
    /// in the human output and the artifact.
    pub metric: &'static str,
    /// The per-unit allocation metric of the traced run, if any.
    pub alloc_metric: Option<&'static str>,
    /// Reps in the traced run (fixed, so its counts repeat exactly).
    pub traced_reps: usize,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "fleet_setup",
        metric: "homes_per_s",
        alloc_metric: Some("alloc.allocs_per_home"),
        traced_reps: 4,
    },
    WorkloadSpec {
        name: "dos_flood",
        metric: "probes_per_s",
        alloc_metric: Some("alloc.allocs_per_probe"),
        traced_reps: 3,
    },
    WorkloadSpec {
        name: "table3_campaign",
        metric: "attacks_per_s",
        alloc_metric: Some("alloc.allocs_per_attack"),
        traced_reps: 3,
    },
    WorkloadSpec {
        name: "mc_sweep",
        metric: "designs_per_s",
        alloc_metric: None,
        traced_reps: 8,
    },
];

/// Builds workload `name` from `seed`; `traced` worlds carry a
/// wall-clock profiler.
pub fn make(name: &str, seed: u64, traced: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fleet_setup" => Box::new(fleet::FleetSetup::new(seed, fleet::HOMES)),
        "dos_flood" => Box::new(flood::DosFlood::new(seed, flood::Sizes::BENCH, traced)),
        "table3_campaign" => Box::new(campaign::Table3::new(seed)),
        "mc_sweep" => Box::new(sweep::McSweep::new(seed, sweep::STRIDE)),
        _ => return None,
    })
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds of timed reps.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = number()?,
                "--seconds" => out.seconds = number()?.max(1),
                "--trace" => out.trace = number()? == 1,
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !WORKLOADS.iter().any(|w| w.name == out.workload) {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "--workload must be one of {}; got {:?}",
                names.join(", "),
                out.workload
            ));
        }
        Ok(out)
    }

    fn spec(&self) -> &'static WorkloadSpec {
        WORKLOADS
            .iter()
            .find(|w| w.name == self.workload)
            .unwrap_or_else(|| unreachable!("Args::parse accepts known workloads only"))
    }
}

/// Running totals of attempted and failed operations and check failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, outcome: &RepOutcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed();
        // One copy of each distinct failure is enough to diagnose a run.
        for p in &outcome.problems {
            if !self.problems.contains(p) && self.problems.len() < 20 {
                self.problems.push(p.clone());
            }
        }
    }
}

/// A timing or rate series, summarized for the artifact.
fn summary(values: &[f64]) -> String {
    let (q1, q3) = stats::quartiles(values);
    let tail = stats::tail(values).map_or_else(
        || "null".to_owned(),
        |(p, v)| format!("{{\"pct\":{p:?},\"value\":{v:?}}}"),
    );
    format!(
        "{{\"samples\":{},\"median\":{:?},\"q1\":{q1:?},\"q3\":{q3:?},\"tail\":{tail}}}",
        values.len(),
        stats::median(values)
    )
}

/// The artifact's `meta` object.
fn meta(args: &Args, reps: usize, rep_size: &str) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"available_parallelism\":{parallelism},\"build_profile\":\"{profile}\",\
         \"commit\":\"{}\",\"reps\":{reps},\"rep_size\":\"{rep_size}\",\"threads\":1}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit()
    )
}

/// The commit under test: `PERFBENCH_COMMIT` if set, else read from a
/// `.git` directory in the working directory, else `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l.split(' ').next().unwrap_or("").to_owned())
        }),
        None if !head.is_empty() => Some(head.to_owned()),
        None => None,
    }
    .map_or_else(|| "unknown".to_owned(), |c| c.trim().to_owned())
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The final result line.
fn result_line(tally: &Tally, metrics: &[(String, f64, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        tally.problems.is_empty() && tally.failed == 0,
        tally.attempted.max(1),
        tally.failed
    )
}

fn report_problems(tally: &Tally) {
    for p in &tally.problems {
        println!("CHECK FAILED: {p}");
    }
}

/// The untraced run: set-ups, timed reps, checks. Returns the exit code.
pub fn run_untraced(args: &Args) -> i32 {
    let spec = args.spec();
    let mut tally = Tally::default();
    let mut setup_raw_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        // Free the previous set-up's world before building the next one.
        drop(workload.take());
        let started = Instant::now();
        let Some(mut w) = make(spec.name, args.seed, false) else {
            unreachable!("Args::parse accepts known workloads only");
        };
        w.prepare();
        tally.add(&w.rep());
        setup_raw_s.push(started.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let Some(mut w) = workload else {
        unreachable!("SETUPS is at least one");
    };
    // Read before the first calibration probe, whose own maps would
    // otherwise set the high-water mark of the small workloads.
    let rss = peak_rss_mb();
    // The set-ups are scaled by probes taken right after them, in the same
    // phase of the machine.
    let setup_probe = stats::median(&[calib::probe(), calib::probe(), calib::probe()]);
    let setup_s: Vec<f64> = setup_raw_s
        .iter()
        .map(|s| s * calib::REFERENCE_S / setup_probe)
        .collect();

    let mut rep_s = Vec::new();
    let mut probe_s = Vec::new();
    let mut raw_rates = Vec::new();
    let mut rates = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    while rep_s.len() < MIN_REPS || started.elapsed() < budget {
        let probe = calib::probe();
        w.prepare();
        let t = Instant::now();
        let outcome = std::hint::black_box(w.rep());
        let secs = t.elapsed().as_secs_f64();
        rep_s.push(secs);
        probe_s.push(probe);
        let raw = outcome.completed as f64 / secs;
        raw_rates.push(raw);
        rates.push(raw * probe / calib::REFERENCE_S);
        tally.add(&outcome);
    }
    let finish = w.finish();
    tally.problems.extend(finish);

    let throughput = stats::median(&rates);
    let setup = stats::median(&setup_s);
    println!(
        "{}: {} reps of {} in {:.1}s; median rep {:.4}s",
        spec.name,
        rep_s.len(),
        w.rep_size(),
        started.elapsed().as_secs_f64(),
        stats::median(&rep_s)
    );
    println!(
        "  {OPS_METRIC} = {} = {throughput:.1} 1/s at the reference probe speed \
         ({:.1} 1/s unscaled, median probe {:.4}s)",
        spec.metric,
        stats::median(&raw_rates),
        stats::median(&probe_s)
    );
    println!(
        "  setup_s = {setup:.4} s at the reference probe speed (median of {SETUPS}: {:.4} s unscaled)",
        stats::median(&setup_raw_s)
    );
    println!("  peak_rss_mb = {rss:.2} MiB");
    println!(
        "  attempted = {}, failed = {}",
        tally.attempted, tally.failed
    );
    println!(
        "PERFBENCH-ARTIFACT {{\"meta\":{},\"rep_s_median\":{:?},\"metrics\":{{\"{OPS_METRIC}\":{{\"unit\":\"1/s\",\"stats\":{}}},\
         \"{}_unscaled\":{{\"unit\":\"1/s\",\"stats\":{}}},\"probe_s\":{{\"unit\":\"s\",\"stats\":{}}},\
         \"rep_s\":{{\"unit\":\"s\",\"stats\":{}}},\"setup_s\":{{\"unit\":\"s\",\"stats\":{}}},\
         \"peak_rss_mb\":{{\"unit\":\"MiB\",\"samples\":1,\"value\":{rss:?}}}}}}}",
        meta(args, rep_s.len(), &w.rep_size()),
        stats::median(&rep_s),
        summary(&rates),
        spec.metric,
        summary(&raw_rates),
        summary(&probe_s),
        summary(&rep_s),
        summary(&setup_s),
    );
    report_problems(&tally);
    println!(
        "{}",
        result_line(
            &tally,
            &[
                (OPS_METRIC.to_owned(), throughput, "1/s"),
                ("setup_s".to_owned(), setup, "s"),
                ("peak_rss_mb".to_owned(), rss, "MiB"),
            ]
        )
    );
    i32::from(!(tally.problems.is_empty() && tally.failed == 0))
}

/// Runs the untraced binary beside this one and returns its median rep
/// time, the base of `trace.overhead_ratio`.
fn untraced_median_rep(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let untraced = exe.with_file_name(format!("perfbench{}", std::env::consts::EXE_SUFFIX));
    let out = std::process::Command::new(&untraced)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("{}: {e}", untraced.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("untraced run failed:\n{stdout}"));
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("PERFBENCH-ARTIFACT "))
        .and_then(|a| a.split("\"rep_s_median\":").nth(1))
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| "untraced run printed no median rep".to_owned())
}

/// What a traced pass measured.
pub struct TracedPass {
    /// Per-layer metric values, plus `self_ms.<layer>` and
    /// `unattributed_ms` per rep for the human report.
    pub metrics: Metrics,
    /// Failed checks and cross-checks.
    pub problems: Vec<String>,
    /// Median traced rep, seconds.
    pub rep_s: f64,
    /// Operations attempted and failed over the traced reps.
    pub attempted: u64,
    /// Operations that did not complete as checked.
    pub failed: u64,
    /// Span durations (ms) per sample key.
    pub timings: BTreeMap<String, Vec<f64>>,
}

/// The traced pass: a warm-up rep, a fixed number of reps with spans, then
/// the workload's replays.
pub fn traced_pass(
    mut w: Box<dyn Workload>,
    reps: usize,
    alloc_metric: Option<&str>,
) -> TracedPass {
    let mut problems = Vec::new();
    // Warm-up: an untraced rep fixes the reference outcomes the traced
    // reps are checked against.
    w.prepare();
    problems.extend(w.rep().problems);

    let mut total = Recorder::default();
    let mut rep_ns = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first_counts: Option<Vec<(String, u64)>> = None;
    let scope = rb_prof::AllocScope::start();
    for r in 0..reps {
        let mut rec = Recorder::default();
        w.prepare();
        let t = Instant::now();
        let outcome = w.traced_rep(&mut rec);
        let ns = layers::nanos(t);
        rep_ns.push(ns);
        attempted += outcome.attempted;
        failed += outcome.failed();
        problems.extend(outcome.problems.iter().cloned());
        for (layer, self_ns) in &rec.self_ns {
            if *self_ns > ns {
                problems.push(format!(
                    "traced rep {r}: {layer} self time {self_ns} ns exceeds the rep's {ns} ns"
                ));
            }
        }
        match &first_counts {
            None => first_counts = Some(outcome.counts.clone()),
            Some(first) if *first != outcome.counts => problems.push(format!(
                "traced rep {r}: deterministic counts changed: {first:?} vs {:?}",
                outcome.counts
            )),
            Some(_) => {}
        }
        for (layer, self_ns) in rec.self_ns {
            *total.self_ns.entry(layer).or_default() += self_ns;
        }
        for (key, samples) in rec.samples {
            total.samples.entry(key).or_default().extend(samples);
        }
    }
    let alloc = scope.finish();

    let mut metrics = Metrics::default();
    problems.extend(w.layer_metrics(&total, reps, &mut metrics));
    let per_rep = |v: u64| v as f64 / reps.max(1) as f64;
    if let Some(name) = alloc_metric {
        let units = per_rep(attempted);
        metrics.put(name, per_rep(alloc.allocs_total) / units, reps);
        if name == "alloc.allocs_per_home" {
            metrics.put(
                "alloc.bytes_per_home",
                per_rep(alloc.bytes_total) / units,
                reps,
            );
        }
    }
    metrics.put("alloc.peak_live_bytes", alloc.peak_live_bytes as f64, 1);
    let rep_total: u64 = rep_ns.iter().sum();
    let self_total = total.total_self_ns();
    metrics.put(
        "trace.attributed_share",
        self_total as f64 / rep_total.max(1) as f64,
        reps,
    );
    for layer in LAYERS {
        let self_ns = total.self_ns.get(layer).copied().unwrap_or(0);
        metrics.put(format!("self_ms.{layer}"), per_rep(self_ns) / 1e6, reps);
    }
    metrics.put(
        "unattributed_ms",
        per_rep(rep_total.saturating_sub(self_total)) / 1e6,
        reps,
    );
    let rep_s: Vec<f64> = rep_ns.iter().map(|&n| n as f64 / 1e9).collect();
    let mut timings = total.samples;
    timings.insert(
        "traced_rep_ms".to_owned(),
        rep_s.iter().map(|s| s * 1e3).collect(),
    );
    TracedPass {
        metrics,
        problems,
        rep_s: stats::median(&rep_s),
        attempted,
        failed,
        timings,
    }
}

/// The traced run: the untraced run in a child process for the overhead
/// base, then the traced pass. Returns the exit code.
pub fn run_traced(args: &Args) -> i32 {
    let spec = args.spec();
    let mut tally = Tally::default();
    let untraced = match untraced_median_rep(args) {
        Ok(v) => v,
        Err(e) => {
            tally.problems.push(e);
            0.0
        }
    };
    let Some(workload) = make(spec.name, args.seed, true) else {
        unreachable!("Args::parse accepts known workloads only");
    };
    let pass = traced_pass(workload, spec.traced_reps, spec.alloc_metric);
    let mut metrics = pass.metrics;
    tally.attempted = pass.attempted;
    tally.failed = pass.failed;
    tally.problems.extend(pass.problems);
    let traced = pass.rep_s;
    let overhead = if untraced > 0.0 {
        traced / untraced
    } else {
        0.0
    };
    metrics.put("trace.overhead_ratio", overhead, spec.traced_reps);

    println!(
        "{}: traced pass of {} reps; median traced rep {traced:.4}s vs untraced {untraced:.4}s",
        spec.name, spec.traced_reps
    );
    let ms = |key: &str| metrics.get(key).unwrap_or(0.0);
    for layer in LAYERS {
        println!(
            "  self time {layer:<8} {:>10.2} ms/rep",
            ms(&format!("self_ms.{layer}"))
        );
    }
    println!(
        "  unattributed     {:>10.2} ms/rep (benchmark loop and calls outside any span)",
        ms("unattributed_ms")
    );
    println!(
        "  note: netsim self time includes the actors' on_timer/on_packet handlers (cloud, \
         device and app agents); separating agent time needs spans inside the program."
    );
    let names = per_layer_metrics();
    let listed: Vec<(String, f64, &str)> =
        names.iter().map(|(n, u)| (n.clone(), ms(n), *u)).collect();
    for (n, v, u) in &listed {
        println!("  {n:<32} {v:>16.4} {u}");
    }
    let mut artifact = String::new();
    for (i, (n, v, u)) in listed.iter().enumerate() {
        if i > 0 {
            artifact.push(',');
        }
        let _ = write!(
            artifact,
            "\"{n}\":{{\"value\":{v:?},\"unit\":\"{u}\",\"samples\":{}}}",
            metrics.samples(n)
        );
    }
    let mut timings = String::new();
    for (i, (key, samples)) in pass.timings.iter().enumerate() {
        if i > 0 {
            timings.push(',');
        }
        let _ = write!(
            timings,
            "\"{key}\":{{\"unit\":\"ms\",\"stats\":{}}}",
            summary(samples)
        );
    }
    println!(
        "PERFBENCH-ARTIFACT {{\"meta\":{},\"metrics\":{{{artifact}}},\"timings\":{{{timings}}}}}",
        meta(
            args,
            spec.traced_reps,
            &format!("as the untraced run; {} reps", spec.traced_reps)
        )
    );
    report_problems(&tally);
    println!("{}", result_line(&tally, &listed));
    i32::from(!(tally.problems.is_empty() && tally.failed == 0))
}

/// Entry point shared by both binaries.
pub fn main_with(traced_binary: bool) -> i32 {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    match (args.trace, traced_binary) {
        (false, false) => run_untraced(&args),
        (true, true) => run_traced(&args),
        _ => {
            eprintln!(
                "perfbench: --trace 1 runs the perfbench-traced binary and --trace 0 the \
                 perfbench binary (run.sh picks the right one)"
            );
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn arguments_parse_and_reject_unknown_workloads() {
        let a = args(&[
            "--workload",
            "mc_sweep",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: "mc_sweep".into(),
                seed: 7,
                seconds: 3,
                trace: true
            })
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "mc_sweep", "--seed"]).is_err());
    }

    #[test]
    fn result_line_marks_failures_incorrect() {
        let mut tally = Tally::default();
        tally.add(&RepOutcome {
            attempted: 10,
            completed: 10,
            ..RepOutcome::default()
        });
        let ok = result_line(&tally, &[("x".into(), 1.5, "s")]);
        assert_eq!(
            ok,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"x\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
        tally.add(&RepOutcome {
            attempted: 10,
            completed: 9,
            problems: vec!["off by one".into()],
            counts: Vec::new(),
        });
        assert!(result_line(&tally, &[])
            .starts_with("{\"correct\":false,\"attempted\":20,\"failed\":1"));
    }

    /// Small traced passes of every workload: no layer's self time exceeds
    /// its rep, every cross-check holds, and the deterministic counts
    /// repeat exactly in a second pass with the same seed.
    #[test]
    fn traced_passes_are_consistent_and_repeat_their_counts() {
        let small = |name: &str| -> Box<dyn Workload> {
            match name {
                "fleet_setup" => Box::new(fleet::FleetSetup::new(8, 20)),
                "dos_flood" => Box::new(flood::DosFlood::new(8, flood::Sizes::TEST, true)),
                "table3_campaign" => Box::new(campaign::Table3::new(8)),
                _ => Box::new(sweep::McSweep::new(8, 1_500)),
            }
        };
        let units: BTreeMap<String, &str> = per_layer_metrics().into_iter().collect();
        for spec in &WORKLOADS {
            let pass = || traced_pass(small(spec.name), 2, spec.alloc_metric);
            let first = pass();
            assert!(
                first.problems.is_empty(),
                "{}: {:?}",
                spec.name,
                first.problems
            );
            assert!(first.rep_s > 0.0 && first.failed == 0);
            let share = first.metrics.get("trace.attributed_share").unwrap_or(0.0);
            assert!(share > 0.0 && share <= 1.0, "{}: share {share}", spec.name);
            let (first, second) = (first.metrics, pass().metrics);
            for (name, unit) in &units {
                if *unit == "count" && !name.starts_with("alloc.") {
                    assert_eq!(first.get(name), second.get(name), "{}: {name}", spec.name);
                }
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let body = json.split(&format!("\"{section}\"")).nth(1).unwrap_or("");
            let body = body.split(']').next().unwrap_or("");
            body.split("\"name\"")
                .skip(1)
                .filter_map(|s| s.split('"').nth(1).map(str::to_owned))
                .collect()
        };
        let per_layer: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names("per_layer"), per_layer);
        assert_eq!(names("end_to_end"), [OPS_METRIC, "setup_s", "peak_rss_mb"]);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
        assert_eq!(names("workloads"), workloads);
    }
}
