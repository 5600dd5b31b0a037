//! One conformance sweep: every whole-space check, computed once per
//! design.
//!
//! Five semantics judge a binding design: the static analyzer, the
//! bounded checker ([`rb_core::spec`]), this crate's model checker, the
//! linter and live replay on the simulated cloud. [`conformance`] runs
//! each of them once on one design and keeps every result in a [`Row`]:
//! [`verify_design`]'s reports and `RB013` disagreements, the five global
//! theorems ([`theorem_violations`]), the linter's soundness misses
//! ([`unflagged_attacks`]) and one live replay per model-checker witness.
//! [`space`] maps it over every coherent design; it is the only loop over
//! [`all_designs`], and `exp_mc`, `exp_lint`, `exp_design_space` and
//! `rbsim space` derive their tables from its rows.

use crate::diag::{verify_design, Verification};
use crate::explore::Property;
use crate::replay::replay;
use rb_core::attacks::{AttackId, Feasibility};
use rb_core::design::VendorDesign;
use rb_core::explore::{all_designs, theorem_violations};
use rb_core::par::par_map;
use rb_lint::harness::unflagged_attacks;

/// Every check of one design.
#[derive(Debug, Clone)]
pub struct Row {
    /// The design.
    pub design: VendorDesign,
    /// The model-checker run, the analyzer, bounded-checker and lint
    /// reports it was cross-checked against, and its disagreements.
    pub verified: Verification,
    /// Global theorems (T1–T5) the analyzer report violates.
    pub theorem_violations: Vec<String>,
    /// Feasible attacks no fired lint finding relates to.
    pub lint_misses: Vec<AttackId>,
    /// One live replay per model-checker witness, in report order.
    pub replays: Vec<(Property, Result<(), String>)>,
}

/// How the model checker's verdict (some property violated) and the
/// analyzer's (some attack feasible) split on one design. Not a gate:
/// the two tools model different attacks, and the split records where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Neither tool finds a flaw.
    BothSecure,
    /// Both tools find a flaw.
    BothInsecure,
    /// Only the analyzer finds a feasible attack (A1 alone: no property
    /// models data injection).
    AnalyzerOnly,
    /// Only the model checker finds a violated property (an online-bound,
    /// sticky cloud without a local proof, where the analyzer blocks every
    /// attack).
    CheckerOnly,
}

impl Row {
    /// Whether the analyzer finds no feasible attack.
    pub fn fully_secure(&self) -> bool {
        let analysis = &self.verified.analysis;
        AttackId::ALL.iter().all(|&id| !analysis.feasible(id))
    }

    /// Whether the analyzer finds no feasible and no unconfirmable
    /// attack.
    pub fn provably_secure(&self) -> bool {
        let analysis = &self.verified.analysis;
        AttackId::ALL
            .iter()
            .all(|&id| matches!(analysis.verdict(id), Feasibility::Infeasible { .. }))
    }

    /// The model-checker⇔analyzer verdict split.
    pub fn split(&self) -> Split {
        match (self.verified.mc.is_secure(), self.fully_secure()) {
            (true, true) => Split::BothSecure,
            (false, false) => Split::BothInsecure,
            (true, false) => Split::AnalyzerOnly,
            (false, true) => Split::CheckerOnly,
        }
    }
}

/// How many `rows` the analyzer calls `id` feasible on, and how many it
/// calls it unconfirmable on.
pub fn attack_counts(rows: &[Row], id: AttackId) -> (usize, usize) {
    rows.iter().fold((0, 0), |(feasible, unconfirmable), r| {
        match r.verified.analysis.verdict(id) {
            Feasibility::Feasible => (feasible + 1, unconfirmable),
            Feasibility::Unconfirmable { .. } => (feasible, unconfirmable + 1),
            Feasibility::Infeasible { .. } => (feasible, unconfirmable),
        }
    })
}

/// Runs every check on one design: [`verify_design`] at one explorer
/// thread, then the theorems, lint soundness and witness replays over its
/// reports.
pub fn conformance(design: &VendorDesign) -> Row {
    let verified = verify_design(design, 1);
    let replays = verified
        .mc
        .violations()
        .into_iter()
        .map(|(property, witness)| (property, replay(design, property, witness)))
        .collect();
    Row {
        design: design.clone(),
        theorem_violations: theorem_violations(design, &verified.analysis),
        lint_misses: unflagged_attacks(&verified.analysis, &verified.lint),
        replays,
        verified,
    }
}

/// [`conformance`] over `designs` on `threads` workers, rows in input
/// order (identical at any thread count).
pub fn sweep(designs: &[VendorDesign], threads: usize) -> Vec<Row> {
    par_map(designs, threads, conformance)
}

/// [`sweep`] over every coherent design of [`all_designs`].
pub fn space(threads: usize) -> Vec<Row> {
    sweep(&all_designs(), threads)
}
