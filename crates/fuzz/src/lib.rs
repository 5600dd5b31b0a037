//! # rb-fuzz
//!
//! Lifecycle-DSL scenario fuzzer with shrinking, cross-checked against
//! the exhaustive model checker.
//!
//! The paper's Table III is a *curated* attack matrix: nine hand-derived
//! attacks against ten hand-modelled vendor designs. This crate attacks
//! the same designs from the other direction — random but *legal*
//! device-lifecycle stories (setup, control, unbind, factory reset,
//! resale, household join, app re-install, attacker moves, network
//! chaos) — and checks every story against the same property oracles
//! the checker decides. Anything the fuzzer finds that the checker
//! proves unreachable (or vice versa for coverage) is a cross-tool
//! `RB013` disagreement.
//!
//! The pipeline, module by module:
//!
//! * [`dsl`] — the lifecycle acts and their compilation onto the rb-mc
//!   product machine, including per-state legality;
//! * [`gen`] — the seeded generator: rejection-free legal interleavings,
//!   byte-reproducible from `(seed, run)`;
//! * [`oracle`] — the shared property predicates (RB014–RB017 plus
//!   stale-session) and the fuzzer⇔checker `RB013` cross-check;
//! * [`shrink`] — `ddmin` reduction of a violating run to a 1-minimal
//!   failing interleaving;
//! * `adapt` — Table III classification of minimal witnesses back to
//!   attack cells, cross-validated against the static analyzer;
//! * [`campaign`] — the deterministic generate→judge→shrink→classify
//!   loop with coverage and corpus-digest accounting;
//! * [`interp`] — live interpretation of (minimal) interleavings onto a
//!   simulated world via the checker's replay machinery.

mod adapt;
pub mod campaign;
pub mod dsl;
pub mod gen;
pub mod interp;
pub mod oracle;
pub mod shrink;

pub use campaign::{run_campaign, Finding, FuzzConfig, FuzzReport};
pub use dsl::Act;
pub use interp::validate_finding;
pub use shrink::{is_one_minimal, Shrunk};
