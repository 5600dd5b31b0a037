//! `table3_campaign`: the paper's Table III. `rb_attack::campaign::run_all`
//! runs the nine attacks against all ten vendor designs — 90 attack runs
//! per rep, each on a fresh world taken through setup, attack and
//! verification, and compared with the static analyzer's prediction. The
//! cloud sees state-changing binds, unbinds, replacements and resets on a
//! few devices, and `rb-scenario` rebuilds worlds constantly.

use std::collections::BTreeMap;
use std::time::Instant;

use rb_attack::campaign::{run_all, VendorCampaign};
use rb_attack::{run_attack_opts, AttackOpts};
use rb_core::analyzer::analyze;
use rb_core::attacks::AttackId;
use rb_core::vendors::vendor_designs;
use rb_prof::Profiler;
use rb_scenario::WorldBuilder;
use rb_telemetry::Telemetry;

use crate::layers::{nanos, Recorder, SimCounts};
use crate::{stats, Metrics, RepOutcome, Workload};

/// Per-vendor campaign seeds, exactly as `run_all(base)` derives them.
fn vendor_seed(base: u64, vendor: usize) -> u64 {
    base.wrapping_add(vendor as u64 * 17)
}

/// Per-attack world seeds, exactly as `run_campaign` derives them.
fn attack_seed(vendor_seed: u64, attack: usize) -> u64 {
    vendor_seed
        .wrapping_mul(1_000_003)
        .wrapping_add(attack as u64)
}

/// The campaign base seed for a workload seed.
pub fn base_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9).wrapping_add(11)
}

/// Checks a campaign: the analyzer's prediction and the execution agree
/// on every vendor. `completed` counts the attack runs with the
/// analyzer-agreed outcome.
pub fn check(campaigns: &[VendorCampaign]) -> RepOutcome {
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut completed = 0;
    for c in campaigns {
        let disagreements = c.disagreements();
        for id in AttackId::ALL {
            attempted += 1;
            let tag = format!("{id}:");
            if !disagreements.iter().any(|d| d.starts_with(&tag)) {
                completed += 1;
            }
        }
        problems.extend(
            disagreements
                .into_iter()
                .map(|d| format!("table3: {}: {d}", c.design.vendor)),
        );
    }
    RepOutcome {
        attempted,
        completed,
        problems,
        counts: Vec::new(),
    }
}

/// Renders the observed outcome symbols, vendor by vendor.
fn symbols(campaigns: &[VendorCampaign]) -> String {
    campaigns
        .iter()
        .map(|c| {
            let row: String = AttackId::ALL
                .iter()
                .map(|&id| c.outcome(id).symbol())
                .collect();
            format!("{}:{row}", c.design.vendor)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The `table3_campaign` workload.
pub struct Table3 {
    base: u64,
    reference: Option<String>,
    /// Traced run: cloud and simulator counters over the traced reps.
    counters: BTreeMap<&'static str, u64>,
}

impl Table3 {
    /// The campaign for `seed`.
    pub fn new(seed: u64) -> Self {
        Table3 {
            base: base_seed(seed),
            reference: None,
            counters: BTreeMap::new(),
        }
    }

    fn check_against_reference(&mut self, campaigns: &[VendorCampaign]) -> RepOutcome {
        let mut outcome = check(campaigns);
        let observed = symbols(campaigns);
        match &self.reference {
            None => self.reference = Some(observed),
            Some(r) if *r != observed => outcome
                .problems
                .push("table3: outcomes differ between reps".to_owned()),
            Some(_) => {}
        }
        outcome
    }
}

/// Sums the counters whose names start with `prefix`.
fn sum_counters(telemetry: &Telemetry, prefix: &str) -> u64 {
    telemetry
        .snapshot()
        .counters()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

impl Workload for Table3 {
    fn rep(&mut self) -> RepOutcome {
        let campaigns = run_all(self.base);
        self.check_against_reference(&campaigns)
    }

    fn rep_size(&self) -> String {
        format!(
            "{} attack runs",
            vendor_designs().len() * AttackId::ALL.len()
        )
    }

    fn traced_rep(&mut self, rec: &mut Recorder) -> RepOutcome {
        // The same runs as `run_all`, one public call per attack, sharing
        // one metrics registry so the cloud's counters add up.
        let telemetry = Telemetry::new();
        let opts = AttackOpts {
            telemetry: telemetry.clone(),
            ..AttackOpts::default()
        };
        let mut campaigns = Vec::new();
        for (v, design) in vendor_designs().into_iter().enumerate() {
            let vseed = vendor_seed(self.base, v);
            let mut runs = BTreeMap::new();
            for (a, id) in AttackId::ALL.into_iter().enumerate() {
                let key = format!("attack.run_ms.{id}");
                let run = rec.span("attack", &["attack.run", &key], |_| {
                    run_attack_opts(&design, id, attack_seed(vseed, a), &opts)
                });
                runs.insert(id, run);
            }
            let prediction = analyze(&design);
            campaigns.push(VendorCampaign {
                design,
                runs,
                prediction,
            });
        }
        let mut outcome = self.check_against_reference(&campaigns);
        let counts = [
            (
                "cloud.requests",
                sum_counters(&telemetry, "cloud_requests_total"),
            ),
            (
                "cloud.denials",
                sum_counters(&telemetry, "cloud_denials_total"),
            ),
            (
                "cloud.alerts",
                sum_counters(&telemetry, "cloud_alerts_total"),
            ),
        ];
        for (name, v) in counts {
            *self.counters.entry(name).or_default() += v;
        }
        outcome.counts = counts.iter().map(|(n, v)| ((*n).to_owned(), *v)).collect();
        outcome
    }

    fn layer_metrics(&mut self, rec: &Recorder, reps: usize, out: &mut Metrics) -> Vec<String> {
        for (name, v) in &self.counters {
            out.put(*name, *v as f64 / reps.max(1) as f64, reps);
        }
        let requests = self.counters.get("cloud.requests").copied().unwrap_or(0);
        let denials = self.counters.get("cloud.denials").copied().unwrap_or(0);
        out.put(
            "cloud.deny_ratio",
            denials as f64 / requests.max(1) as f64,
            reps,
        );
        let runs = rec.samples("attack.run");
        out.put("attack.run_ms_p50", stats::median(runs), runs.len());
        out.put(
            "attack.run_ms_p90",
            stats::percentile(runs, 90.0),
            runs.len(),
        );
        for (key, samples) in &rec.samples {
            if key.starts_with("attack.run_ms.") {
                out.put(key.clone(), stats::median(samples), samples.len());
            }
        }

        // Scenario replay: the victim world each attack starts from, built
        // and set up again with a wall-clock profiler, since `run_attack`
        // builds its world out of reach of a span.
        let (mut build_ms, mut setup_ms) = (Vec::new(), Vec::new());
        let mut sim = SimCounts::default();
        for (v, design) in vendor_designs().into_iter().enumerate() {
            let vseed = vendor_seed(self.base, v);
            for (a, id) in AttackId::ALL.into_iter().enumerate() {
                let profiler = Profiler::new().with_wall_clock();
                let t = Instant::now();
                let mut builder = WorldBuilder::new(design.clone(), attack_seed(vseed, a))
                    .with_profiler(profiler.clone());
                if matches!(id, AttackId::A2 | AttackId::A4_2) {
                    builder = builder.victim_paused();
                }
                let mut world = builder.build();
                build_ms.push(nanos(t) as f64 / 1e6);
                if !matches!(id, AttackId::A2 | AttackId::A4_2) {
                    let t = Instant::now();
                    world.run_setup();
                    setup_ms.push(nanos(t) as f64 / 1e6);
                }
                sim.add(&SimCounts::of(&profiler.snapshot()));
            }
        }
        let worlds = build_ms.len();
        out.put("scenario.builds", worlds as f64, 1);
        out.put("scenario.build_ms_p50", stats::median(&build_ms), worlds);
        out.put(
            "scenario.setup_ms_p50",
            stats::median(&setup_ms),
            setup_ms.len(),
        );
        out.put("netsim.timer_events", sim.timer_events as f64, 1);
        out.put("netsim.deliver_events", sim.deliver_events as f64, 1);
        out.put(
            "netsim.useful_event_ratio",
            sim.deliver_events as f64 / sim.events().max(1) as f64,
            1,
        );
        out.put("netsim.timer_self_ms", sim.timer_ns as f64 / 1e6, 1);
        out.put("netsim.deliver_self_ms", sim.deliver_ns as f64 / 1e6, 1);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_match_run_all() {
        // The traced rep must run exactly the worlds `run_all` runs.
        let base = base_seed(4);
        assert_eq!(base, base_seed(4));
        assert_ne!(base, base_seed(5));
        let campaigns = run_all(base);
        let mut w = Table3::new(4);
        let mut rec = Recorder::default();
        let traced = w.traced_rep(&mut rec);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        assert_eq!(w.reference, Some(symbols(&campaigns)));
    }

    #[test]
    fn check_rejects_a_disagreement() {
        let mut campaigns = run_all(base_seed(1));
        assert!(check(&campaigns).problems.is_empty());
        // Flip one analyzer prediction: the campaign now disagrees.
        let c = &mut campaigns[0];
        let id = AttackId::A3_2;
        let observed = c.outcome(id).is_feasible();
        c.prediction = analyze(&rb_core::vendors::capability_reference());
        let bad = check(&campaigns);
        assert!(
            !bad.problems.is_empty(),
            "prediction swap must disagree ({observed})"
        );
        assert!(bad.failed() > 0);
    }
}
