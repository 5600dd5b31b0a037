//! # rb-cloud
//!
//! A multi-tenant simulated IoT cloud whose message handlers are
//! parameterized by a [`rb_core::design::VendorDesign`]. The same handler
//! code, under ten different policies, reproduces the ten vendor backends
//! of the paper's Table III — every accept/deny decision that the attacks
//! of Section V probe corresponds to one explicit branch here.
//!
//! Components:
//!
//! * [`accounts`] — user accounts, password login, `UserToken` issuance;
//! * [`registry`] — the manufacturer's device registry: known device IDs,
//!   per-device factory secrets (for vendors whose channel we could not
//!   inspect — the paper's "O"), and public keys for the AWS-style
//!   reference design;
//! * [`issued`] — issued `DevToken`s and `BindToken` capabilities;
//! * [`state`] — device sessions and shadow records (the live
//!   [`rb_core::shadow::Shadow`] plus schedules, telemetry, and binding
//!   session tokens);
//! * [`monitor`] — the streaming security monitor and the opt-in
//!   [`DefensePolicy`] it drives;
//! * [`service`] — [`service::CloudService`]: the message handlers and the
//!   [`rb_netsim::Actor`] implementation.
//!
//! The service can be driven two ways: through the network simulator (the
//! scenario crate does this), or directly via
//! [`service::CloudService::handle_message`] for protocol-level unit tests.
//! Either way, each decision is counted in the
//! `cloud_{requests,denials}_total{kind=…}` telemetry counters and, with
//! forensics on, recorded as an `rpc <primitive> dev=… outcome=…` mark
//! (see [`service::CloudService::take_forensic_marks`]).

pub mod accounts;
pub mod issued;
pub mod monitor;
pub mod registry;
pub mod service;
pub mod state;

pub use monitor::{
    DefensePolicy, Monitor, RateLimit, SecurityAlert, CONTESTED_THRESHOLD, ENUMERATION_THRESHOLD,
};
pub use service::{CloudConfig, CloudService, Outcome, BUTTON_WINDOW, HEARTBEAT_TIMEOUT};
