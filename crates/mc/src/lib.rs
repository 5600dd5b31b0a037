//! # rb-mc
//!
//! An exhaustive explicit-state model checker for remote-binding designs,
//! with counterexample replay into the packet-level simulator.
//!
//! The bounded checker in [`rb_core::spec`] proves three safety properties
//! over an abstract machine. This crate scales that idea into a tool:
//!
//! * [`model`] — the **product machine**: the abstract cloud state
//!   refined until every transition corresponds to a concrete schedule
//!   (device-channel binds ride registration, honest unbinding uses only
//!   realizable channels, session staleness is tracked).
//! * [`explore`] — the **deterministic parallel explorer**: a
//!   level-synchronous BFS whose frontier is expanded through
//!   `rb_core::par::par_map` (inline at one thread) and merged in
//!   frontier order, so reports are byte-identical at any thread count. Decides the three safety properties plus the
//!   NO-STALE-ACCEPT invariant and REBIND-LIVELOCK liveness (under
//!   fairness of honest actions), each with a minimal witness, and
//!   accounts shadow-machine edge coverage.
//! * [`diag`] — the **agreement gate**: verdicts are emitted through the
//!   shared [`rb_core::diagnostic`] model (rules `RB014`–`RB017`) and
//!   cross-checked four ways — against closed-form design predicates, the
//!   bounded checker, the static analyzer, and the linter's fired rules —
//!   reporting any disagreement as `RB013`.
//! * [`replay`] — the **witness compiler**: turns every counterexample
//!   into a live `rb-scenario` schedule (a victim console on the home LAN
//!   that provisions the device over AP mode, real attacker clients) and
//!   asserts the violated property on the simulated cloud, closing the
//!   loop between model and implementation.
//! * [`conformance`] — the **one whole-space sweep**: every semantics of a
//!   design (analyzer, bounded checker, model checker, linter, global
//!   theorems, live replay of each witness) computed once into one row
//!   per design; the design-space experiments read their tables from the
//!   rows.
//!
//! # Example
//!
//! ```rust
//! use rb_mc::explore::{explore, Property};
//! use rb_core::vendors;
//!
//! // E-Link's replace-on-bind cloud is provably hijackable…
//! let report = explore(&vendors::e_link(), 4);
//! assert!(report.witness(Property::AttackerControl).is_some());
//! // …with a minimal witness that replays in the simulator.
//! let witness = report.attacker_control.as_ref().unwrap();
//! assert!(witness.len() <= 3);
//! rb_mc::replay::replay(&vendors::e_link(), Property::AttackerControl, witness).unwrap();
//! ```

pub mod conformance;
pub mod diag;
pub mod explore;
pub mod model;
pub mod replay;
