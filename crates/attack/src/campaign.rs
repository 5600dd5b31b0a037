//! Full attack campaigns: the dynamic regeneration of Table III.

use std::collections::BTreeMap;

use rb_core::analyzer::{analyze, AnalysisReport};
use rb_core::attacks::{AttackFamily, AttackId, Feasibility};
use rb_core::design::VendorDesign;
use rb_core::par::{available_threads, par_map};
use rb_core::vendors;

use crate::exec::{run_attack, run_attack_opts, AttackOpts, AttackRun};

/// The outcome of the nine-attack battery against one vendor design.
#[derive(Debug, Clone)]
pub struct VendorCampaign {
    /// The attacked design.
    pub design: VendorDesign,
    /// One run per attack.
    pub runs: BTreeMap<AttackId, AttackRun>,
    /// The static analyzer's prediction for the same design.
    pub prediction: AnalysisReport,
}

impl VendorCampaign {
    /// The observed outcome for one attack.
    pub fn outcome(&self, id: AttackId) -> &Feasibility {
        &self.runs[&id].outcome
    }

    /// Renders the Table III cell for a family from the *observed*
    /// outcomes: `✓`/`✗`/`O` for A1 and A2, the successful variant list
    /// for A3 and A4.
    pub fn family_cell(&self, family: AttackFamily) -> String {
        match family {
            AttackFamily::A1 => self.outcome(AttackId::A1).symbol().to_owned(),
            AttackFamily::A2 => self.outcome(AttackId::A2).symbol().to_owned(),
            AttackFamily::A3 | AttackFamily::A4 => {
                let feasible: Vec<String> = family
                    .variants()
                    .into_iter()
                    .filter(|a| self.outcome(*a).is_feasible())
                    .map(|a| a.to_string())
                    .collect();
                if feasible.is_empty() {
                    "✗".to_owned()
                } else {
                    feasible.join(" & ")
                }
            }
        }
    }

    /// The full Table III row: `[A1, A2, A3, A4]` cells.
    pub fn row(&self) -> [String; 4] {
        [
            self.family_cell(AttackFamily::A1),
            self.family_cell(AttackFamily::A2),
            self.family_cell(AttackFamily::A3),
            self.family_cell(AttackFamily::A4),
        ]
    }

    /// The attacks whose run drew at least one defensive intervention
    /// from the victim cloud. Empty for every undefended campaign.
    pub fn mitigated_cells(&self) -> Vec<AttackId> {
        AttackId::ALL
            .into_iter()
            .filter(|id| self.runs[id].mitigated())
            .collect()
    }

    /// Compares execution against the analyzer's prediction, returning a
    /// description of every disagreement (empty = they agree exactly).
    pub fn disagreements(&self) -> Vec<String> {
        let mut out = Vec::new();
        for id in AttackId::ALL {
            let observed = self.outcome(id).is_feasible();
            let predicted = self.prediction.feasible(id);
            if observed != predicted {
                out.push(format!(
                    "{}: analyzer predicts feasible={predicted}, execution observed feasible={observed} ({})",
                    id,
                    self.runs[&id].outcome
                ));
            }
            // The ✓/✗/O symbol must also agree for the A1 family (the only
            // one where the paper distinguishes O).
            let observed_sym = self.outcome(id).symbol();
            let predicted_sym = self.prediction.verdict(id).symbol();
            if observed_sym != predicted_sym {
                out.push(format!(
                    "{}: analyzer symbol {predicted_sym}, observed {observed_sym}",
                    id
                ));
            }
        }
        out
    }
}

/// Runs the nine-attack battery against one design. Each attack gets a
/// fresh world derived from `base_seed`.
pub fn run_campaign(design: &VendorDesign, base_seed: u64) -> VendorCampaign {
    let mut runs = BTreeMap::new();
    for (i, id) in AttackId::ALL.into_iter().enumerate() {
        let seed = base_seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
        runs.insert(id, run_attack(design, id, seed));
    }
    VendorCampaign {
        design: design.clone(),
        runs,
        prediction: analyze(design),
    }
}

/// Like [`run_campaign`], with shared environment options applied to
/// every run — the defended-campaign entry point: pass
/// `AttackOpts { defense: DefensePolicy::hardened(), .. }` to rerun the
/// battery against a cloud that fights back. Note the analyzer prediction
/// still describes the *undefended* design; [`VendorCampaign::disagreements`]
/// is only meaningful for the default options.
pub fn run_campaign_opts(
    design: &VendorDesign,
    base_seed: u64,
    opts: &AttackOpts,
) -> VendorCampaign {
    let mut runs = BTreeMap::new();
    for (i, id) in AttackId::ALL.into_iter().enumerate() {
        let seed = base_seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
        runs.insert(id, run_attack_opts(design, id, seed, opts));
    }
    VendorCampaign {
        design: design.clone(),
        runs,
        prediction: analyze(design),
    }
}

/// Runs the campaign for all ten vendors of Table III, in table order.
pub fn run_all(base_seed: u64) -> Vec<VendorCampaign> {
    vendors::vendor_designs()
        .iter()
        .enumerate()
        .map(|(i, d)| run_campaign(d, base_seed.wrapping_add(i as u64 * 17)))
        .collect()
}

/// Like [`run_all`], but fans the ten vendors out across
/// [`available_threads`] workers. Each campaign owns an independent
/// deterministic world, so the results are identical to the sequential
/// run — only the wall clock changes.
pub fn run_all_parallel(base_seed: u64) -> Vec<VendorCampaign> {
    let designs = vendors::vendor_designs();
    let jobs: Vec<(u64, &VendorDesign)> = designs
        .iter()
        .enumerate()
        .map(|(i, d)| (base_seed.wrapping_add(i as u64 * 17), d))
        .collect();
    par_map(&jobs, available_threads(), |&(seed, design)| {
        run_campaign(design, seed)
    })
}

/// Runs the campaign against the secure reference designs (the extension
/// rows of the reproduced table).
pub fn run_reference_campaign(base_seed: u64) -> Vec<VendorCampaign> {
    [
        vendors::capability_reference(),
        vendors::public_key_reference(),
    ]
    .iter()
    .enumerate()
    .map(|(i, d)| run_campaign(d, base_seed.wrapping_add(1000 + i as u64 * 17)))
    .collect()
}
