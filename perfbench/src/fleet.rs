//! `fleet_setup`: a population sweep. All ten Table III designs × 16
//! seeds, 800 homes, one thread, telemetry off — `rb-fleet`'s own cell
//! configuration. ~98% of its simulator events are polling timers, so
//! `rb-netsim` and the agents do most of the work.

use rb_core::shadow::ShadowState;
use rb_core::vendors::vendor_designs;
use rb_fleet::{run_fleet, Cell, CellReport, FleetReport, FleetSpec};
use rb_netsim::SimRng;
use rb_prof::Profiler;
use rb_scenario::WorldBuilder;
use rb_telemetry::Telemetry;

use crate::layers::{metric_suffix, Recorder, SimCounts};
use crate::{stats, Metrics, RepOutcome, Workload};

/// Homes per rep (five per cell over the 160-cell grid).
pub const HOMES: usize = 800;
/// Seeds per design, as in `FleetSpec::paper_sweep`.
pub const SEEDS: usize = 16;
/// The per-cell tick budget `rb-fleet` gives setup.
const MAX_TICKS: u64 = 300_000;

/// The sweep's world seeds, made from the workload seed.
pub fn sweep_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SimRng::new(seed ^ 0xf1ee_7000);
    (0..SEEDS).map(|_| rng.next_u64() >> 20).collect()
}

/// The workload's sweep: the paper grid over seeded world seeds.
pub fn spec(seed: u64, homes: usize) -> FleetSpec {
    FleetSpec::new(vendor_designs(), sweep_seeds(seed), homes).threads(1)
}

/// Checks one sweep: every cell converged, every home reached `Control`,
/// and the rendering matches the first rep's. `completed` counts the homes
/// of converged cells that reached `Control`.
pub fn check(report: &FleetReport, cells: usize, reference: &mut Option<String>) -> RepOutcome {
    let mut problems = Vec::new();
    if report.cells.len() != cells || report.converged() != cells {
        problems.push(format!(
            "fleet: {} of {cells} cells converged",
            report.converged()
        ));
    }
    if report.control_homes() != report.homes() {
        problems.push(format!(
            "fleet: control_homes {} != homes_total {}",
            report.control_homes(),
            report.homes()
        ));
    }
    let render = report.render();
    match reference {
        None => *reference = Some(render),
        Some(r) if *r != render => problems.push("fleet: render differs between reps".to_owned()),
        Some(_) => {}
    }
    RepOutcome {
        attempted: report.homes() as u64,
        completed: report
            .cells
            .iter()
            .filter(|c| c.converged)
            .map(|c| c.control as u64)
            .sum(),
        problems,
        counts: Vec::new(),
    }
}

/// The `fleet_setup` workload.
pub struct FleetSetup {
    spec: FleetSpec,
    cells: Vec<Cell>,
    reference: Option<String>,
    /// The first untraced rep's cell reports, which traced cells must match.
    reports: Vec<CellReport>,
    sim: SimCounts,
    builds: u64,
    homes: u64,
}

impl FleetSetup {
    /// The sweep for `seed` with `homes` homes per rep.
    pub fn new(seed: u64, homes: usize) -> Self {
        let spec = spec(seed, homes);
        let cells = spec.cells();
        FleetSetup {
            spec,
            cells,
            reference: None,
            reports: Vec::new(),
            sim: SimCounts::default(),
            builds: 0,
            homes: 0,
        }
    }

    /// One cell as `rb_fleet::run_cell` runs it, with a wall-clock
    /// profiler and spans around the `rb-scenario` calls.
    fn traced_cell(cell: &Cell, rec: &mut Recorder) -> (CellReport, SimCounts) {
        let profiler = Profiler::new().with_wall_clock();
        let mut world = rec.span("scenario", &["scenario.build"], |_| {
            WorldBuilder::new(cell.design.clone(), cell.seed)
                .homes(cell.homes)
                .with_telemetry(Telemetry::disabled())
                .with_profiler(profiler.clone())
                .build()
        });
        let (converged, sim) = rec.span("scenario", &["scenario.setup"], |rec| {
            let converged = world.try_run_setup(MAX_TICKS);
            let sim = SimCounts::of(&profiler.snapshot());
            rec.charge("netsim", sim.dispatch_ns());
            (converged, sim)
        });
        let n = world.homes.len();
        let report = CellReport {
            vendor: cell.design.vendor.clone(),
            seed: cell.seed,
            profile: "none",
            homes: n,
            converged,
            bound: (0..n).filter(|&i| world.app(i).is_bound()).count(),
            control: (0..n)
                .filter(|&i| world.shadow_state(i) == ShadowState::Control)
                .count(),
            end_tick: world.now().as_u64(),
        };
        (report, sim)
    }
}

impl Workload for FleetSetup {
    fn rep(&mut self) -> RepOutcome {
        let (report, _) = run_fleet(&self.spec);
        if self.reports.is_empty() {
            self.reports = report.cells.clone();
        }
        check(&report, self.cells.len(), &mut self.reference)
    }

    fn rep_size(&self) -> String {
        format!(
            "{} homes in {} cells",
            self.spec.total_homes(),
            self.cells.len()
        )
    }

    fn traced_rep(&mut self, rec: &mut Recorder) -> RepOutcome {
        let mut reports = Vec::with_capacity(self.cells.len());
        let mut sim = SimCounts::default();
        for cell in &self.cells {
            let key = format!("fleet.cell_ms.{}", metric_suffix(&cell.design.vendor));
            let (report, cell_sim) = rec.span("fleet", &["fleet.cell", &key], |rec| {
                Self::traced_cell(cell, rec)
            });
            sim.add(&cell_sim);
            reports.push(report);
        }
        let mut outcome = check(
            &FleetReport {
                cells: reports.clone(),
            },
            self.cells.len(),
            &mut self.reference,
        );
        if reports != self.reports {
            outcome
                .problems
                .push("fleet: traced cells differ from rb_fleet::run_cell's".to_owned());
        }
        self.sim.add(&sim);
        self.builds += self.cells.len() as u64;
        self.homes += outcome.attempted;
        let c = sim.counts_only();
        outcome.counts = vec![
            ("timer_events".into(), c.timer_events),
            ("deliver_events".into(), c.deliver_events),
            ("other_events".into(), c.other_events),
            ("cloud_requests".into(), c.cloud_requests),
            ("cloud_frames".into(), c.cloud_frames),
        ];
        outcome
    }

    fn layer_metrics(&mut self, rec: &Recorder, reps: usize, out: &mut Metrics) -> Vec<String> {
        let n = reps.max(1) as f64;
        let s = &self.sim;
        out.put("netsim.timer_events", s.timer_events as f64 / n, reps);
        out.put("netsim.deliver_events", s.deliver_events as f64 / n, reps);
        out.put(
            "netsim.useful_event_ratio",
            s.deliver_events as f64 / s.events().max(1) as f64,
            reps,
        );
        out.put("netsim.timer_self_ms", s.timer_ns as f64 / 1e6 / n, reps);
        out.put(
            "netsim.deliver_self_ms",
            s.deliver_ns as f64 / 1e6 / n,
            reps,
        );
        out.put(
            "netsim.events_per_home",
            s.events() as f64 / self.homes.max(1) as f64,
            reps,
        );
        out.put("cloud.requests", s.cloud_requests as f64 / n, reps);
        out.put("wire.frames", s.cloud_frames as f64 / n, reps);
        out.put("scenario.builds", self.builds as f64 / n, reps);
        for key in ["scenario.build", "scenario.setup"] {
            let samples = rec.samples(key);
            out.put(
                format!("{key}_ms_p50"),
                stats::median(samples),
                samples.len(),
            );
        }
        let cells = rec.samples("fleet.cell");
        out.put("fleet.cell_ms_p50", stats::median(cells), cells.len());
        out.put(
            "fleet.cell_ms_p90",
            stats::percentile(cells, 90.0),
            cells.len(),
        );
        for (key, samples) in &rec.samples {
            if key.starts_with("fleet.cell_ms.") {
                out.put(key.clone(), stats::median(samples), samples.len());
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_per_workload_seed() {
        assert_eq!(sweep_seeds(5), sweep_seeds(5));
        assert_ne!(sweep_seeds(5), sweep_seeds(6));
        let a: Vec<_> = spec(5, 40).cells().iter().map(|c| c.seed).collect();
        let b: Vec<_> = spec(5, 40).cells().iter().map(|c| c.seed).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn check_rejects_a_corrupted_sweep() {
        let mut w = FleetSetup::new(3, 20);
        let clean = w.rep();
        assert!(clean.problems.is_empty(), "{:?}", clean.problems);
        assert_eq!(clean.failed(), 0);
        let (mut report, _) = run_fleet(&w.spec);
        report.cells[0].control -= 1;
        let bad = check(&report, w.cells.len(), &mut w.reference);
        assert!(!bad.problems.is_empty() && bad.failed() == 1);
        let (mut report, _) = run_fleet(&w.spec);
        report.cells[1].converged = false;
        assert!(!check(&report, w.cells.len(), &mut w.reference)
            .problems
            .is_empty());
    }
}
