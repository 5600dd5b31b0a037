//! # rb-core
//!
//! The primary contribution of *"Your IoTs Are (Not) Mine: On the Remote
//! Binding Between IoT Devices and Users"* (DSN 2019), as a library:
//!
//! * [`shadow`] — the **device-shadow state machine** (Figure 2): four
//!   states (`Initial`, `Online`, `Control`, `Bound`) over the two status
//!   bits *online* and *bound*, driven by the three primitive messages
//!   `Status`, `Bind`, `Unbind` (plus the implicit offline transition when
//!   heartbeats stop).
//! * [`design`] — the **design space** of real remote-binding solutions:
//!   device-authentication schemes (Figure 3), binding-creation schemes
//!   (Figure 4), unbinding schemes (Section IV-C), and the cloud-side
//!   checks whose presence or absence decides every attack.
//! * [`vendors`] — the **ten vendor profiles** of Table III, encoded as
//!   design points, plus secure reference designs (capability-based and
//!   public-key) for the extension experiments.
//! * [`attacks`] — the **attack taxonomy** of Table II: A1 data
//!   injection/stealing, A2 binding denial-of-service, A3-1..A3-4 device
//!   unbinding, A4-1..A4-3 device hijacking.
//! * [`analyzer`] — the **static attack-surface analyzer**: given a
//!   [`design::VendorDesign`], derives which attacks are feasible and why,
//!   *without* running the protocol — the "automatic approach without the
//!   presence of physical devices" the paper proposes as future work. The
//!   dynamic campaigns in `rb-attack` cross-check these predictions by
//!   executing the real message flows.
//! * [`recommend`] — the **lessons-learned engine** (Section VII): given a
//!   design, emits the paper's remediation advice that applies to it.
//! * [`diagnostic`] — the **typed diagnostic model** every verdict engine
//!   shares: the linter (`rb-lint`), the checker⇔analyzer cross-check
//!   ([`spec::cross_check`]), and the exhaustive model checker (`rb-mc`)
//!   all emit the same `Diagnostic`/`LintReport` shapes, so one SARIF log
//!   carries all three.
//! * [`par`] — the workspace's one **deterministic parallel map**, used
//!   wherever independent units (fleet cells, designs, BFS frontier
//!   states) are spread over threads; output order is input order.
//!
//! # Example
//!
//! ```rust
//! use rb_core::analyzer::analyze;
//! use rb_core::attacks::AttackId;
//! use rb_core::vendors::vendor_designs;
//!
//! // Predict the paper's Table III outcome for TP-LINK (#8).
//! let designs = vendor_designs();
//! let tplink = &designs[7];
//! let report = analyze(tplink);
//! assert!(report.feasible(AttackId::A3_1), "Unbind:DevId is forgeable");
//! assert!(report.feasible(AttackId::A4_3), "unbind-then-bind hijack");
//! assert!(!report.feasible(AttackId::A2), "bind needs a live device session");
//! ```

pub mod analyzer;
pub mod attacks;
pub mod design;
pub mod diagnostic;
pub mod explore;
pub mod par;
pub mod recommend;
pub mod shadow;
pub mod spec;
pub mod vendors;
