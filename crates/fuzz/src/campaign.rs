//! The fuzz campaign: generate → execute → judge → shrink → classify,
//! with deterministic accounting.
//!
//! A campaign is a pure function of `(design, FuzzConfig)`: the corpus,
//! the coverage map, and the findings are byte-for-byte reproducible
//! from the seed, which is the determinism gate `exp_fuzz` and the CI
//! fuzz job enforce. Each run generates one legal interleaving, walks
//! its product steps through the oracle set, and on the first violation
//! of a not-yet-seen property shrinks the run to a 1-minimal witness and
//! names the Table III cell it rediscovered.

use crate::adapt::classify;
use crate::dsl::{compile_seq, shadow_of, Act};
use crate::gen::{generate, run_rng};
use crate::oracle::check_step;
use crate::shrink::shrink;
use rb_core::attacks::AttackId;
use rb_core::design::VendorDesign;
use rb_core::shadow::{Primitive, ShadowState};
use rb_mc::explore::{primitive_of, trap_states, McReport, Property};
use rb_mc::model::{PState, KEY_SPACE};
use std::collections::BTreeSet;

/// Campaign parameters. The defaults are the fixed-seed profile the
/// tier-1 tests and the CI smoke job run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// The campaign seed every run's stream is forked from.
    pub seed: u64,
    /// Number of independent runs.
    pub runs: u32,
    /// Maximum acts per generated sequence (minimum is 3).
    pub(crate) max_len: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0xF022_2019,
            runs: 256,
            max_len: 12,
        }
    }
}

/// One property violation the campaign found, shrunk and classified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated property.
    pub property: Property,
    /// The run that first discovered it.
    pub run: u32,
    /// The raw generated interleaving.
    pub raw: Vec<Act>,
    /// The 1-minimal witness the shrinker reduced it to.
    pub minimal: Vec<Act>,
    /// Candidate evaluations the reduction took.
    pub shrink_steps: usize,
    /// The Table III cell the minimal witness rediscovers, when the
    /// violating step sits inside an analyzer-feasible attack act.
    pub cell: Option<AttackId>,
    /// The promoted composite the witness realizes when no single Table
    /// III cell names it (e.g. `A4-4`, the register-reset takeover).
    pub composite: Option<&'static str>,
}

/// The campaign's full, deterministic output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// The design's vendor name.
    pub(crate) vendor: String,
    /// The campaign seed.
    pub(crate) seed: u64,
    /// Runs executed.
    pub(crate) runs: u32,
    /// Total DSL acts executed across all runs.
    pub acts_executed: usize,
    /// Total product steps those acts compiled to.
    pub steps_executed: usize,
    /// Distinct product states visited (the initial state included).
    pub unique_states: usize,
    /// The shadow-state transitions exercised: `(pre-state, primitive)`
    /// pairs of the Figure 2 grid, bucketed exactly as rb-mc buckets
    /// them so the two coverage maps are comparable.
    pub shadow_edges: BTreeSet<(ShadowState, Primitive)>,
    /// First-discovery findings, one per violated property, in
    /// [`Property::ALL`] order.
    pub findings: Vec<Finding>,
    /// FNV-1a digest over every run's act ordinals — the byte-identity
    /// handle of the determinism gate.
    pub corpus_digest: u64,
}

/// Renders an act sequence the way reports and diagnostics quote it.
pub fn render_acts(acts: &[Act]) -> String {
    acts.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(" -> ")
}

impl FuzzReport {
    /// Shadow-transition coverage relative to what the exhaustive
    /// checker proves reachable, in percent (100 when the checker's edge
    /// set is empty). This is the "reached shadow-state transitions"
    /// axis of the coverage map; the design knob axis is the vendor the
    /// campaign ran against.
    pub fn coverage_vs_mc(&self, mc: &McReport) -> f64 {
        if mc.shadow_edges.is_empty() {
            return 100.0;
        }
        let hit = self.shadow_edges.intersection(&mc.shadow_edges).count();
        hit as f64 * 100.0 / mc.shadow_edges.len() as f64
    }

    /// The distinct Table III cells the findings rediscover.
    pub fn cells(&self) -> BTreeSet<AttackId> {
        self.findings.iter().filter_map(|f| f.cell).collect()
    }

    /// The report as one JSON object (hand-rolled; the workspace serde
    /// is a no-op stub).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"vendor\":\"{}\",\"seed\":{},\"runs\":{},\"acts_executed\":{},\
             \"steps_executed\":{},\"unique_states\":{},\"shadow_edges\":{},\
             \"corpus_digest\":\"{:016x}\",\"findings\":[",
            self.vendor,
            self.seed,
            self.runs,
            self.acts_executed,
            self.steps_executed,
            self.unique_states,
            self.shadow_edges.len(),
            self.corpus_digest
        );
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"property\":\"{}\",\"rule\":\"{:?}\",\"run\":{},\"raw_len\":{},\
                 \"minimal\":\"{}\",\"minimal_len\":{},\"shrink_steps\":{},\"cell\":{}",
                f.property,
                f.property.rule_id(),
                f.run,
                f.raw.len(),
                render_acts(&f.minimal),
                f.minimal.len(),
                f.shrink_steps,
                f.cell
                    .map_or_else(|| "null".to_owned(), |c| format!("\"{c}\""))
            );
            let _ = write!(
                s,
                ",\"composite\":{}}}",
                f.composite
                    .map_or_else(|| "null".to_owned(), |c| format!("\"{c}\""))
            );
        }
        s.push_str("]}");
        s
    }
}

fn fnv1a(digest: &mut u64, byte: u8) {
    *digest ^= u64::from(byte);
    *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
}

/// Runs one deterministic campaign of `cfg.runs` runs against `design`.
pub fn run_campaign(design: &VendorDesign, cfg: &FuzzConfig) -> FuzzReport {
    let traps = trap_states(design);
    let mut visited = vec![false; KEY_SPACE];
    visited[PState::initial().key() as usize] = true;
    let mut unique_states = 1usize;
    let mut shadow_edges = BTreeSet::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut acts_executed = 0usize;
    let mut steps_executed = 0usize;
    let mut corpus_digest = 0xCBF2_9CE4_8422_2325u64;

    for run in 0..cfg.runs {
        let mut rng = run_rng(cfg.seed, run);
        let acts = generate(design, &mut rng, cfg.max_len);
        for b in run.to_le_bytes() {
            fnv1a(&mut corpus_digest, b);
        }
        for &act in &acts {
            fnv1a(&mut corpus_digest, act.ordinal());
        }
        acts_executed += acts.len();

        // Generated sequences are legal by construction.
        let Some(compiled) = compile_seq(design, &acts) else {
            continue;
        };
        let mut violated: Vec<Property> = Vec::new();
        for c in &compiled {
            for &(mcact, pre, post) in &c.steps {
                steps_executed += 1;
                shadow_edges.insert((shadow_of(pre), primitive_of(mcact)));
                let key = post.key() as usize;
                if !visited[key] {
                    visited[key] = true;
                    unique_states += 1;
                }
                for p in check_step(design, &traps, pre, mcact, post) {
                    if !violated.contains(&p) {
                        violated.push(p);
                    }
                }
            }
        }
        for property in violated {
            if findings.iter().any(|f| f.property == property) {
                continue;
            }
            let shrunk = shrink(design, &traps, &acts, property);
            let cell = classify(design, &traps, property, &shrunk.minimal);
            let composite =
                crate::adapt::classify_composite(design, &traps, property, &shrunk.minimal);
            findings.push(Finding {
                property,
                run,
                raw: acts.clone(),
                minimal: shrunk.minimal,
                shrink_steps: shrunk.steps,
                cell,
                composite,
            });
        }
    }

    findings.sort_by_key(|f| {
        Property::ALL
            .iter()
            .position(|&p| p == f.property)
            .unwrap_or(usize::MAX)
    });
    FuzzReport {
        vendor: design.vendor.clone(),
        seed: cfg.seed,
        runs: cfg.runs,
        acts_executed,
        steps_executed,
        unique_states,
        shadow_edges,
        findings,
        corpus_digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::vendors::*;

    #[test]
    fn a_campaign_is_deterministic() {
        let cfg = FuzzConfig {
            runs: 64,
            ..FuzzConfig::default()
        };
        let a = run_campaign(&tp_link(), &cfg);
        let b = run_campaign(&tp_link(), &cfg);
        assert_eq!(a, b);
        assert_eq!(a.corpus_digest, b.corpus_digest);
    }

    #[test]
    fn different_seeds_produce_different_corpora() {
        let base = FuzzConfig {
            runs: 32,
            ..FuzzConfig::default()
        };
        let other = FuzzConfig { seed: 7, ..base };
        let a = run_campaign(&tp_link(), &base);
        let b = run_campaign(&tp_link(), &other);
        assert_ne!(a.corpus_digest, b.corpus_digest);
    }

    #[test]
    fn weak_designs_yield_findings_and_the_json_renders() {
        let report = run_campaign(&weakest_design(), &FuzzConfig::default());
        assert!(!report.findings.is_empty());
        for f in &report.findings {
            assert!(f.minimal.len() <= f.raw.len());
        }
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"findings\":["));
    }

    #[test]
    fn findings_come_out_in_property_order() {
        let report = run_campaign(&weakest_design(), &FuzzConfig::default());
        let order: Vec<usize> = report
            .findings
            .iter()
            .map(|f| {
                Property::ALL
                    .iter()
                    .position(|&p| p == f.property)
                    .unwrap_or(usize::MAX)
            })
            .collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }
}
