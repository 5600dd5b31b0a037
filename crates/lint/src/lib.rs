//! # rb-lint
//!
//! Design-level static analysis for IoT remote-binding designs.
//!
//! The paper closes with lessons (Section VII): don't let the static
//! device ID double as a credential, authorize binding with a local
//! ownership proof, guard revocation, and keep user credentials off the
//! device. This crate turns those lessons into an enforceable tool — a
//! *linter over designs* rather than over code:
//!
//! * [`diagnostic`] — the typed finding model (re-exported from
//!   [`rb_core::diagnostic`] so the checker, the cross-check, and the
//!   model checker emit through the same surface): stable rule IDs
//!   (`RB001`…), severities, spans naming the exact
//!   [`VendorDesign`](rb_core::design::VendorDesign) field, related
//!   attacks, and fix-its drawn from the lessons-learned catalogue.
//! * [`rules`] — the registry of twelve rules distilled from the paper's
//!   case studies; [`rules::lint_rules`], the rules pass, which grades
//!   each finding against the static analyzer's report: a pattern that a
//!   feasible attack exploits on this design is an `error`; the same
//!   pattern held down by other defenses is a `warning`; and
//!   [`rules::lint_design`], the rules pass plus the fix-its.
//! * [`emit`] — deterministic human, JSON, and SARIF 2.1.0 renderings.
//! * [`harness`] — the exhaustive soundness/precision sweep: over every
//!   coherent design in the space, every feasible attack is related to at
//!   least one fired finding, and the minimal secure recipe fires
//!   nothing.
//!
//! # Example
//!
//! ```rust
//! use rb_lint::diagnostic::{RuleId, Severity};
//! use rb_lint::rules::lint_design;
//! use rb_core::vendors::belkin;
//!
//! // Belkin skips the bound-user check on unbind (Table III row 1).
//! let report = lint_design(&belkin());
//! let finding = &report.by_rule(RuleId::RB001)[0];
//! assert_eq!(finding.severity, Severity::Error);
//! assert_eq!(finding.span, "checks.verify_unbind_is_bound_user");
//! ```

pub use rb_core::diagnostic;
pub mod emit;
pub mod harness;
pub mod rules;
