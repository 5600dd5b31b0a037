//! EXP-CHAOS — convergence of the binding life cycle under packet loss.
//!
//! Sweeps the WAN drop rate and measures, over a fixed seed set, how long
//! the happy-path setup (register → status → bind) takes to converge now
//! that both agents retransmit with jittered exponential backoff. The
//! retry budget turns an unreachable cloud into a clean abort instead of a
//! silent wedge, so every run terminates: it either converges or gives up.
//!
//! Timings come from the telemetry registry each world records into. A
//! converged setup observes its duration once in
//! `span_ticks{name="app_setup"}`; every seed records into a registry of
//! its own, so that histogram holds the one observation and its exact
//! `max()` is the seed's setup time. The median and max columns are
//! computed from those per-seed times (a shared histogram's median would
//! be a bucket bound, not a tick count).
//!
//! The shape check is computed from the table. Termination is a gate: the
//! binary exits 1 unless every seed of every row converged or aborted.
//! Growth (median ticks and retries never fall as loss rises) is reported
//! as holds/FAILS with the first breaking pair of rows, and not gated.
//!
//! ```text
//! cargo run -p rb-bench --bin exp_chaos
//! ```

use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_core::design::VendorDesign;
use rb_core::vendors;
use rb_netsim::{FaultPlan, LinkQuality, Telemetry};
use rb_scenario::WorldBuilder;

/// Seeds for each sweep point (chosen once; the sim is deterministic).
const SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Generous horizon: beyond this a run counts as not converged.
const HORIZON: u64 = 200_000;

/// One run: degrade the WAN to `drop_per_mille` for the whole horizon,
/// recording into `telemetry`.
fn run_once(design: &VendorDesign, seed: u64, drop_per_mille: u16, telemetry: &Telemetry) {
    let mut world = WorldBuilder::new(design.clone(), seed)
        .realistic_links()
        .with_telemetry(telemetry.clone())
        .fault_plan(FaultPlan::new().degrade_wan(
            0,
            HORIZON,
            LinkQuality {
                latency_min: 20,
                latency_max: 120,
                drop_per_mille,
            },
        ))
        .build();
    world.try_run_setup(HORIZON);
}

/// One sweep point's deterministic numbers (everything the table shows).
struct SweepPoint {
    drop_per_mille: u16,
    converged: u64,
    aborted: u64,
    retries: u64,
    median: Option<u64>,
    max: Option<u64>,
}

impl SweepPoint {
    fn label(&self) -> String {
        format!("{:.0}%", f64::from(self.drop_per_mille) / 10.0)
    }

    fn row(&self) -> Vec<String> {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".into(), |t| t.to_string());
        vec![
            self.label(),
            format!("{}/{}", self.converged, SEEDS.len()),
            format!("{}/{}", self.aborted, SEEDS.len()),
            self.retries.to_string(),
            opt(self.median),
            opt(self.max),
        ]
    }
}

/// The nearest-rank median of sorted values: the ⌈n/2⌉-th smallest.
fn median(sorted: &[u64]) -> Option<u64> {
    sorted.get(sorted.len().saturating_sub(1) / 2).copied()
}

fn sweep(design: &VendorDesign, drop_per_mille: u16) -> SweepPoint {
    let (mut aborted, mut retries) = (0, 0);
    // Setup time of every converged seed; aborts are the give-up counter.
    let mut ticks = Vec::new();
    for seed in SEEDS {
        let telemetry = Telemetry::new();
        run_once(design, seed, drop_per_mille, &telemetry);
        let snap = telemetry.snapshot();
        if let Some(setup) = snap.histogram("span_ticks{name=\"app_setup\"}") {
            assert_eq!(setup.count(), 1, "seed {seed}: one setup per run");
            ticks.extend(setup.max());
        }
        aborted += snap.counter("app_giveups_total");
        retries += snap.counter("app_retries_total");
    }
    ticks.sort_unstable();
    SweepPoint {
        drop_per_mille,
        converged: ticks.len() as u64,
        aborted,
        retries,
        median: median(&ticks),
        max: ticks.last().copied(),
    }
}

fn main() {
    println!("EXP-CHAOS: setup convergence vs WAN drop rate (retry/backoff enabled)\n");
    let design = vendors::tp_link();
    println!(
        "design: {} (device-sent ACL bind — the flow that wedged on one lost packet)\n",
        design.vendor
    );

    let points: Vec<SweepPoint> = [0u16, 100, 200, 300, 400, 500]
        .into_iter()
        .map(|d| sweep(&design, d))
        .collect();
    let rows: Vec<Vec<String>> = points.iter().map(SweepPoint::row).collect();
    println!(
        "{}",
        render_table(
            &[
                "drop rate",
                "converged",
                "clean aborts",
                "app retries",
                "median ticks",
                "max ticks"
            ],
            &rows
        )
    );

    // Termination: every seed of every row either converged or aborted.
    let seeds = SEEDS.len() as u64;
    let unterminated: Vec<String> = points
        .iter()
        .filter(|p| p.converged + p.aborted != seeds)
        .map(|p| {
            format!(
                "{}: {} converged + {} aborted of {seeds} seeds",
                p.label(),
                p.converged,
                p.aborted
            )
        })
        .collect();
    // Growth: the first adjacent pair of rows where a median or the retry
    // count falls as loss rises.
    let breaking = points.windows(2).find_map(|pair| {
        let (lo, hi) = (&pair[0], &pair[1]);
        let fell = |name: &str, a: u64, b: u64| (b < a).then(|| format!("{name} {a} -> {b}"));
        let falls: Vec<String> = [
            lo.median
                .zip(hi.median)
                .and_then(|(a, b)| fell("median ticks", a, b)),
            fell("retries", lo.retries, hi.retries),
        ]
        .into_iter()
        .flatten()
        .collect();
        (!falls.is_empty())
            .then(|| format!("{} -> {}: {}", lo.label(), hi.label(), falls.join(", ")))
    });
    let verdict = |ok: bool| if ok { "holds" } else { "FAILS" };
    println!(
        "shape check: every seed terminates, bound or cleanly aborted: {}",
        verdict(unterminated.is_empty())
    );
    println!(
        "shape check: convergence time and retry volume grow with loss: {}{}",
        verdict(breaking.is_none()),
        breaking
            .as_ref()
            .map_or_else(String::new, |b| format!(" ({b})"))
    );

    // The machine-readable artifact: per-sweep-point counters keyed by
    // drop rate, all deterministic sim-domain numbers.
    let mut report = BenchReport::new("exp_chaos");
    report
        .meta("design", &design.vendor)
        .meta("seeds", SEEDS.len());
    for p in &points {
        let key = |stat: &str| format!("drop_{}.{stat}", p.drop_per_mille);
        report
            .metric_u64(&key("converged"), p.converged)
            .metric_u64(&key("aborted"), p.aborted)
            .metric_u64(&key("retries"), p.retries);
        if let Some(m) = p.median {
            report.metric_u64(&key("median_ticks"), m);
        }
        if let Some(m) = p.max {
            report.metric_u64(&key("max_ticks"), m);
        }
    }
    emit(&report, std::env::args().nth(1).as_deref());
    if !unterminated.is_empty() {
        for row in &unterminated {
            eprintln!("exp_chaos: GATE FAILED — not every seed terminated at {row}");
        }
        std::process::exit(1);
    }
}
