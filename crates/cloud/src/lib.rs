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
//! * `accounts` — user accounts, password login, `UserToken` issuance;
//! * [`registry`] — what the manufacturer provisions per device: the
//!   factory secret (for vendors whose channel we could not inspect — the
//!   paper's "O") and, for the AWS-style reference design, a signing key,
//!   indexed by key id in a key ring;
//! * [`issued`] — issued `DevToken`s and `BindToken` capabilities;
//! * `state` — the device table and the source table. The device table
//!   is one `DevId` index over one entry per manufactured device, holding
//!   the manufacture record, the shadow record (the live
//!   [`rb_core::shadow::Shadow`] plus schedules, telemetry, and binding
//!   session tokens), the live session and the monitor's per-device facts
//!   (last device IP, quarantine). The source table holds one record per
//!   node: NAT address, enumeration tracking, bind-rate window and the
//!   node→device index. Each handler resolves its device and its source
//!   once; unknown device IDs never get an entry;
//! * [`monitor`] — the streaming security monitor (its alert log and the
//!   pair-keyed contested-binding and retired-token tables; a read-only
//!   [`Monitor`] view over it and both tables) and the opt-in
//!   [`DefensePolicy`] it drives;
//! * [`service`] — [`service::CloudService`]: the message handlers and the
//!   [`rb_netsim::Actor`] implementation.
//!
//! The service can be driven two ways: through the network simulator (the
//! scenario crate does this), or directly via
//! [`service::CloudService::handle_message`] for protocol-level unit tests.
//! Through the simulator, a frame is read header first
//! ([`rb_wire::codec::Frame`]): a response or garbage is dropped at the
//! header, and a request's body is decoded whole by the decoder of the
//! kind its tag names before that kind's handler touches any state. Both
//! ways reach the same handlers, and each decision is counted in the
//! `cloud_{requests,denials}_total{kind=…}` telemetry counters and, with
//! forensics on, recorded as an `rpc <primitive> dev=… outcome=…` mark
//! (see [`service::CloudService::take_forensic_marks`]).

mod accounts;
pub mod issued;
pub mod monitor;
pub mod registry;
pub mod service;
mod state;

pub use monitor::{DefensePolicy, Monitor, RateLimit, SecurityAlert};
pub use service::{CloudConfig, CloudService, Outcome, HEARTBEAT_TIMEOUT};
