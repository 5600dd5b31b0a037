//! EXP-FLEET — population-scale sweep throughput, parallel speedup, and
//! the memory/phase envelope.
//!
//! The perf baseline for every future scale PR. Runs the paper-scale fleet
//! sweep — all ten Table III vendor designs × 16 seeds with 1000 homes
//! spread across the 160 cells — once serially and once with a worker
//! pool, both under the phase profiler, then reports:
//!
//! * `cells_per_sec` / `homes_per_sec` — sweep throughput (parallel run),
//! * `cell_p50_ms` / `cell_p95_ms` — per-cell wall latency quantiles,
//! * `speedup` — serial wall time over parallel wall time, printed with
//!   the worker count and the detected core count (`--threads` defaults
//!   to the latter; the BENCH meta records both),
//! * `peak_alloc_bytes` / `peak_bytes_per_home` — the counting
//!   allocator's window over the parallel pass,
//! * the merged phase tree (`fleet.cell` → `sim.*` ticks), and
//! * `deterministic` — whether the two merged reports **and** the two
//!   merged folded profiles are byte-identical (they must be; the fleet
//!   determinism tests enforce the same thing).
//!
//! Throughput, speedup, and allocator numbers are machine/build-dependent;
//! `deterministic` and the phase ticks are the pinned expectations —
//! `benches/baselines/fleet.json` gates them in CI via `rb_bench::compare`.
//!
//! Prints a human summary, then a single `BENCH ` line with the
//! schema-versioned [`rb_bench::report::BenchReport`] document:
//!
//! ```text
//! cargo run --release -p rb-bench --bin exp_fleet
//! cargo run --release -p rb-bench --bin exp_fleet -- out.json
//! cargo run --release -p rb-bench --bin exp_fleet -- --homes 200 --threads 4
//! RB_BENCH_OUT=artifacts cargo run --release -p rb-bench --bin exp_fleet
//! ```

use rb_bench::report::{emit, BenchReport};
use rb_core::par::available_threads;
use rb_fleet::{run_fleet_profiled, FleetSpec};
use rb_prof::{AllocScope, CountingAlloc};

/// Measure the whole binary, so the sweep's peak shows up in the window.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let mut homes = 1000usize;
    let cores = available_threads();
    let mut threads = cores;
    let mut out_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--homes" => {
                homes = iter.next().and_then(|s| s.parse().ok()).unwrap_or(homes);
            }
            "--threads" => {
                threads = iter.next().and_then(|s| s.parse().ok()).unwrap_or(threads);
            }
            other => out_path = Some(other.to_owned()),
        }
    }

    let spec = FleetSpec::paper_sweep(homes);
    let cells = spec.cells().len();
    println!(
        "EXP-FLEET: {} designs x {} seeds = {cells} cells, {} homes/cell ({} homes total)\n",
        spec.designs.len(),
        spec.seeds.len(),
        spec.homes_per_cell,
        spec.total_homes()
    );

    println!("serial pass (1 thread, profiled)...");
    let (serial_report, serial_profile, serial_t) = run_fleet_profiled(&spec.clone().threads(1));
    println!(
        "  {:.2}s wall, {:.1} cells/s",
        serial_t.total_nanos as f64 / 1e9,
        serial_t.cells_per_sec()
    );

    println!("parallel pass ({threads} threads, profiled)...");
    let scope = AllocScope::start();
    let (parallel_report, parallel_profile, parallel_t) =
        run_fleet_profiled(&spec.clone().threads(threads));
    let alloc = scope.finish();
    println!(
        "  {:.2}s wall, {:.1} cells/s",
        parallel_t.total_nanos as f64 / 1e9,
        parallel_t.cells_per_sec()
    );

    let deterministic = serial_report.render() == parallel_report.render()
        && serial_report.to_json() == parallel_report.to_json()
        && serial_profile.folded() == parallel_profile.folded();
    let speedup = serial_t.total_nanos as f64 / parallel_t.total_nanos.max(1) as f64;
    let total_secs = parallel_t.total_nanos as f64 / 1e9;
    let homes_total = parallel_report.homes();
    let homes_per_sec = homes_total as f64 / total_secs;
    let p50_ms = parallel_t.quantile_nanos(0.5) as f64 / 1e6;
    let p95_ms = parallel_t.quantile_nanos(0.95) as f64 / 1e6;
    let peak_bytes_per_home = alloc.peak_live_bytes as f64 / homes_total.max(1) as f64;

    println!(
        "\ncells={} converged={} homes={} control_homes={}",
        parallel_report.cells.len(),
        parallel_report.converged(),
        homes_total,
        parallel_report.control_homes()
    );
    println!(
        "throughput: {:.1} cells/s, {homes_per_sec:.0} homes/s | cell p50 {p50_ms:.1}ms p95 {p95_ms:.1}ms",
        parallel_t.cells_per_sec()
    );
    println!("speedup vs serial: {speedup:.2}x at {threads} threads on {cores} cores");
    println!(
        "alloc (parallel pass): peak live {} bytes ({peak_bytes_per_home:.0} bytes/home), {} allocations",
        alloc.peak_live_bytes, alloc.allocs_total
    );
    println!("\nhot phases (merged over all cells, sim ticks):");
    print!("{}", parallel_profile.hot_table(8));
    println!(
        "\nmerged reports and profiles byte-identical: {deterministic} (required — serial and"
    );
    println!(
        "parallel runs must agree; wall-clock and allocator numbers are machine-dependent).\n"
    );

    let mut report = BenchReport::new("exp_fleet");
    report
        .meta("designs", spec.designs.len())
        .meta("seeds", spec.seeds.len())
        .meta("homes_per_cell", spec.homes_per_cell)
        .meta("threads", threads)
        .meta("available_parallelism", cores)
        .metric_u64("cells", cells as u64)
        .metric_u64("homes_total", homes_total as u64)
        .metric_u64("converged", parallel_report.converged() as u64)
        .metric_u64("control_homes", parallel_report.control_homes() as u64)
        .metric_bool("deterministic", deterministic)
        .metric_f64("serial_secs", serial_t.total_nanos as f64 / 1e9)
        .metric_f64("parallel_secs", total_secs)
        .metric_f64("cells_per_sec", parallel_t.cells_per_sec())
        .metric_f64("homes_per_sec", homes_per_sec)
        .metric_f64("cell_p50_ms", p50_ms)
        .metric_f64("cell_p95_ms", p95_ms)
        .metric_f64("speedup", speedup)
        .metric_u64("peak_alloc_bytes", alloc.peak_live_bytes)
        .metric_u64("peak_bytes_per_home", peak_bytes_per_home as u64)
        .with_alloc(alloc)
        .with_profile(&parallel_profile);
    emit(&report, out_path.as_deref());

    if !deterministic {
        eprintln!("exp_fleet: serial and parallel merged reports or profiles diverged");
        std::process::exit(1);
    }
}
