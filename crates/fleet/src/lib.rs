//! # rb-fleet — the population-scale fleet sweep engine
//!
//! The paper's platform-scale results (the §V-C scalable DoS, the Table III
//! matrix over ten vendors) only become convincing when the reproduction can
//! simulate *vendor-scale* fleets: thousands of homes, every design, many
//! seeds. This crate runs such sweeps in parallel without giving up the
//! repository's core invariant — every simulation is a pure function of
//! `(design, seed)`.
//!
//! ## Model
//!
//! A sweep is a grid of **cells**: one per `(vendor design × seed × chaos
//! profile)` combination, each cell owning `homes_per_cell` victim homes.
//! Cells share *nothing* — each worker thread builds a private
//! [`rb_scenario::World`] (with telemetry disabled, so recording costs one
//! branch per event), runs the setup flow to convergence, and reduces the
//! world to a small, fully deterministic [`CellReport`].
//!
//! ## Execution
//!
//! [`run_fleet`] maps the cells through [`rb_core::par::par_map`]: workers
//! pull cell indices from a shared atomic cursor (no per-thread
//! pre-partitioning, so stragglers never idle the pool) and the results
//! come back *in cell order*, which makes the merged [`FleetReport`]
//! byte-identical whatever the thread count or completion order:
//! `--threads 1` and `--threads 8` render the same bytes. At one thread
//! the cells run inline on the caller.
//!
//! Wall-clock timings are collected on the side in [`FleetTimings`] — they
//! are machine-dependent by nature and therefore never appear in the
//! deterministic report.
//!
//! ```
//! use rb_fleet::{run_fleet, FleetSpec};
//!
//! let spec = FleetSpec::smoke(); // 2 designs x 2 seeds, 1 home per cell
//! let serial = run_fleet(&spec.clone().threads(1)).0;
//! let parallel = run_fleet(&spec.threads(4)).0;
//! assert_eq!(serial.render(), parallel.render());
//! ```

use std::time::Instant;

use rb_core::design::VendorDesign;
use rb_core::par::par_map;
use rb_core::vendors::vendor_designs;
use rb_prof::{PhaseProfile, Profiler};
use rb_scenario::{ChaosProfile, WorldBuilder};
use rb_telemetry::Telemetry;

/// One unit of sweep work: a private world to build, run, and reduce.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The vendor design under test.
    pub design: VendorDesign,
    /// The world seed.
    pub seed: u64,
    /// Faults injected into the run, if any.
    pub(crate) profile: Option<ChaosProfile>,
    /// Victim homes in this cell's world.
    pub homes: usize,
}

/// The deterministic outcome of one cell.
///
/// Every field is a pure function of the cell — no wall-clock time, no
/// thread ids — so concatenating reports in cell order yields identical
/// bytes for any thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// Vendor name of the design.
    pub vendor: String,
    /// The world seed.
    pub seed: u64,
    /// Chaos profile name, `"none"` for a benign run.
    pub profile: &'static str,
    /// Homes simulated.
    pub homes: usize,
    /// Whether every home reached `Control` within the tick budget.
    pub converged: bool,
    /// Homes whose app reports a binding.
    pub bound: usize,
    /// Homes whose cloud shadow reached the `Control` state.
    pub control: usize,
    /// Simulated time when the cell finished.
    pub end_tick: u64,
}

impl CellReport {
    /// One stable line: `vendor seed profile homes converged bound control end_tick`.
    pub(crate) fn render_line(&self) -> String {
        format!(
            "{} seed={} profile={} homes={} converged={} bound={} control={} end_tick={}",
            self.vendor,
            self.seed,
            self.profile,
            self.homes,
            self.converged,
            self.bound,
            self.control,
            self.end_tick
        )
    }
}

/// The sweep grid: which cells to run and how.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Designs in sweep order.
    pub designs: Vec<VendorDesign>,
    /// Seeds in sweep order.
    pub seeds: Vec<u64>,
    /// Chaos profiles in sweep order (`None` = benign cell).
    pub profiles: Vec<Option<ChaosProfile>>,
    /// Homes per cell.
    pub homes_per_cell: usize,
    /// Worker threads (1 = serial).
    pub threads: usize,
}

impl FleetSpec {
    /// A sweep over the given designs and seeds, benign (no chaos), with
    /// `total_homes` distributed evenly across the cells (rounded up, so
    /// at least `total_homes` are simulated overall).
    pub fn new(designs: Vec<VendorDesign>, seeds: Vec<u64>, total_homes: usize) -> Self {
        let cells = designs.len().max(1) * seeds.len().max(1);
        FleetSpec {
            designs,
            seeds,
            profiles: vec![None],
            homes_per_cell: total_homes.div_ceil(cells).max(1),
            threads: 1,
        }
    }

    /// The paper-scale baseline: all ten Table III vendor designs × 16
    /// seeds, benign, `total_homes` spread across the 160 cells.
    pub fn paper_sweep(total_homes: usize) -> Self {
        FleetSpec::new(vendor_designs(), (0..16).collect(), total_homes)
    }

    /// A tiny grid for tests and doctests: 2 designs × 2 seeds × 1 home.
    pub fn smoke() -> Self {
        let designs = vendor_designs().into_iter().take(2).collect();
        FleetSpec::new(designs, vec![1, 2], 4)
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Adds chaos cells: the grid becomes designs × seeds × (benign +
    /// `profiles`).
    #[must_use]
    pub fn with_profiles(mut self, profiles: &[ChaosProfile]) -> Self {
        self.profiles = std::iter::once(None)
            .chain(profiles.iter().copied().map(Some))
            .collect();
        self
    }

    /// Materializes the grid, cell by cell in sweep order: designs
    /// outermost, then seeds, then profiles. The order fixes cell indices
    /// and hence the merged report layout.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.designs.len() * self.seeds.len());
        for design in &self.designs {
            for &seed in &self.seeds {
                for &profile in &self.profiles {
                    out.push(Cell {
                        design: design.clone(),
                        seed,
                        profile,
                        homes: self.homes_per_cell,
                    });
                }
            }
        }
        out
    }

    /// Total homes the sweep will simulate.
    pub fn total_homes(&self) -> usize {
        self.cells().len() * self.homes_per_cell
    }
}

/// Runs one cell to completion: builds the private world, injects the
/// profile's faults, runs setup, reduces to a [`CellReport`].
pub(crate) fn run_cell(cell: &Cell) -> CellReport {
    run_cell_with(cell, Profiler::disabled())
}

/// Like [`run_cell`] but with a recording [`Profiler`]: the whole cell is
/// bracketed by a `fleet.cell` phase, with the simulator's per-event
/// phases nested underneath. Returns the cell's private phase tree along
/// with the report; [`run_fleet_profiled`] merges the trees in cell order.
pub(crate) fn run_cell_profiled(cell: &Cell) -> (CellReport, PhaseProfile) {
    let profiler = Profiler::new();
    let report = run_cell_with(cell, profiler.clone());
    (report, profiler.snapshot())
}

fn run_cell_with(cell: &Cell, profiler: Profiler) -> CellReport {
    let token = profiler.enter("fleet.cell", 0);
    let mut world = WorldBuilder::new(cell.design.clone(), cell.seed)
        .homes(cell.homes)
        .with_telemetry(Telemetry::disabled())
        .with_profiler(profiler.clone())
        .build();
    if let Some(profile) = cell.profile {
        let plan = profile.plan(&world, cell.seed);
        world.apply_fault_plan(&plan);
    }
    let converged = world.try_run_setup(300_000);
    let n = world.homes.len();
    let bound = (0..n).filter(|&i| world.app(i).is_bound()).count();
    let control = (0..n)
        .filter(|&i| world.shadow_state(i) == rb_core::shadow::ShadowState::Control)
        .count();
    profiler.exit(token, world.now().as_u64());
    CellReport {
        vendor: cell.design.vendor.clone(),
        seed: cell.seed,
        profile: cell.profile.map_or("none", ChaosProfile::name),
        homes: n,
        converged,
        bound,
        control,
        end_tick: world.now().as_u64(),
    }
}

/// The merged outcome of a sweep: one [`CellReport`] per cell, in cell
/// order — independent of thread count and completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Per-cell reports, in [`FleetSpec::cells`] order.
    pub cells: Vec<CellReport>,
}

impl FleetReport {
    /// Cells whose setup converged.
    pub fn converged(&self) -> usize {
        self.cells.iter().filter(|c| c.converged).count()
    }

    /// Total homes across all cells.
    pub fn homes(&self) -> usize {
        self.cells.iter().map(|c| c.homes).sum()
    }

    /// Total homes that reached `Control`.
    pub fn control_homes(&self) -> usize {
        self.cells.iter().map(|c| c.control).sum()
    }

    /// Stable plain-text rendering: one line per cell plus a summary row.
    /// Byte-identical across thread counts — the determinism tests diff
    /// this exact string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&cell.render_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "TOTAL cells={} converged={} homes={} control_homes={}\n",
            self.cells.len(),
            self.converged(),
            self.homes(),
            self.control_homes()
        ));
        out
    }

    /// Stable JSON rendering (hand-rolled; the workspace `serde` is a
    /// no-op stub). Cell order fixes the array order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"cells\":[");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"vendor\":\"{}\",\"seed\":{},\"profile\":\"{}\",\"homes\":{},\
                 \"converged\":{},\"bound\":{},\"control\":{},\"end_tick\":{}}}",
                rb_telemetry::json::escape(&c.vendor),
                c.seed,
                c.profile,
                c.homes,
                c.converged,
                c.bound,
                c.control,
                c.end_tick
            ));
        }
        out.push_str(&format!(
            "],\"cells_total\":{},\"converged\":{},\"homes\":{},\"control_homes\":{}}}",
            self.cells.len(),
            self.converged(),
            self.homes(),
            self.control_homes()
        ));
        out
    }
}

/// Machine-dependent side channel of a sweep: wall-clock numbers that the
/// benches report but that never enter the deterministic [`FleetReport`].
#[derive(Debug, Clone)]
pub struct FleetTimings {
    /// Wall nanoseconds per cell, indexed like the report.
    pub cell_nanos: Vec<u64>,
    /// Wall nanoseconds for the whole sweep.
    pub total_nanos: u64,
}

impl FleetTimings {
    /// The `q`-quantile (0.0–1.0) of per-cell wall latency, in nanoseconds
    /// (nearest-rank on the sorted latencies).
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.cell_nanos.is_empty() {
            return 0;
        }
        let mut sorted = self.cell_nanos.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    /// Cells completed per wall second.
    pub fn cells_per_sec(&self) -> f64 {
        if self.total_nanos == 0 {
            return 0.0;
        }
        self.cell_nanos.len() as f64 / (self.total_nanos as f64 / 1e9)
    }
}

/// Runs a sweep: work-stealing over the cell grid with `spec.threads`
/// workers. Returns the deterministic merged report plus the wall-clock
/// timings.
///
/// The cells go through [`par_map`], so the merge is a plain in-order
/// collection and the report is byte-identical to a serial run.
pub fn run_fleet(spec: &FleetSpec) -> (FleetReport, FleetTimings) {
    let cells = spec.cells();
    let (reports, timings) = run_pool(&cells, spec.threads, run_cell);
    (FleetReport { cells: reports }, timings)
}

/// Like [`run_fleet`], additionally returning the merged phase tree:
/// every cell runs under its own private [`Profiler`] (workers share no
/// profiling state, so recording adds no contention) and the per-cell
/// trees are absorbed **in cell order** after the pool drains. Tick sums
/// are commutative, so the merged profile — like the report — is
/// byte-identical for any thread count.
pub fn run_fleet_profiled(spec: &FleetSpec) -> (FleetReport, PhaseProfile, FleetTimings) {
    let cells = spec.cells();
    let (results, timings) = run_pool(&cells, spec.threads, run_cell_profiled);
    let mut merged = PhaseProfile::default();
    let mut reports = Vec::with_capacity(results.len());
    for (report, profile) in results {
        merged.merge(&profile);
        reports.push(report);
    }
    (FleetReport { cells: reports }, merged, timings)
}

/// Maps `run` over the cells with [`par_map`], timing each cell inside
/// its worker. Results and per-cell timings are in cell order; a panic in
/// `run` reaches the caller with its own payload.
fn run_pool<R: Send>(
    cells: &[Cell],
    threads: usize,
    run: impl Fn(&Cell) -> R + Sync,
) -> (Vec<R>, FleetTimings) {
    let threads = threads.max(1).min(cells.len().max(1));
    let started = Instant::now();
    let timed = par_map(cells, threads, |cell| {
        let cell_started = Instant::now();
        (run(cell), nanos_since(cell_started))
    });
    let total_nanos = nanos_since(started);
    let (results, cell_nanos) = timed.into_iter().unzip();
    (
        results,
        FleetTimings {
            cell_nanos,
            total_nanos,
        },
    )
}

fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn grid_order_is_designs_then_seeds_then_profiles() {
        let spec = FleetSpec::smoke().with_profiles(&[ChaosProfile::DropStorm]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(cells[0].profile, None);
        assert_eq!(cells[1].profile, Some(ChaosProfile::DropStorm));
        assert_eq!(cells[0].seed, cells[1].seed);
        assert_eq!(cells[0].design.vendor, cells[3].design.vendor);
        assert_ne!(cells[0].design.vendor, cells[4].design.vendor);
    }

    #[test]
    fn homes_distribute_with_ceiling() {
        let spec = FleetSpec::paper_sweep(1000);
        assert_eq!(spec.designs.len(), 10);
        assert_eq!(spec.seeds.len(), 16);
        assert_eq!(spec.homes_per_cell, 7); // ceil(1000 / 160)
        assert!(spec.total_homes() >= 1000);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let t = FleetTimings {
            cell_nanos: vec![50, 10, 40, 20, 30],
            total_nanos: 150,
        };
        assert_eq!(t.quantile_nanos(0.5), 30);
        assert_eq!(t.quantile_nanos(0.95), 50);
        assert_eq!(t.quantile_nanos(0.0), 10);
        assert_eq!(t.quantile_nanos(1.0), 50);
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = FleetReport {
            cells: vec![CellReport {
                vendor: "TP-LINK".into(),
                seed: 3,
                profile: "none",
                homes: 2,
                converged: true,
                bound: 2,
                control: 2,
                end_tick: 41_000,
            }],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"cells\":["));
        assert!(json.contains("\"vendor\":\"TP-LINK\""));
        assert!(json.ends_with("\"control_homes\":2}"));
        assert_eq!(report.render().lines().count(), 2);
    }
}
