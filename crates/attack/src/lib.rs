//! # rb-attack
//!
//! The adversary toolkit: everything the paper's attacker does, as a
//! library.
//!
//! * [`adversary`] — a WAN-only endpoint that logs into its *own* account
//!   and forges protocol messages byte-for-byte (the in-simulation
//!   equivalent of mitm-proxy + Postman + a raw OpenSSL socket);
//! * [`acts`] — the forger: every message the attacker sends is built
//!   here ([`acts::AtkStep::forge`]), for the executors, the monitor
//!   scenario, rb-mc's witness replayer and the bench binaries alike; plus
//!   the executors' step playbooks the lifecycle fuzzer draws its attacker
//!   actions from;
//! * [`idspace`] — device-ID inference: leak channels, search-space
//!   arithmetic, and enumeration simulation (Section III-A and the §I
//!   claims about 3-byte MAC suffixes and 6/7-digit IDs);
//! * [`exec`] — one executor per attack of Table II, each running the real
//!   message flow against a live [`rb_scenario::World`] and classifying
//!   the outcome as the paper does (✓ / ✗ / O);
//! * [`campaign`] — runs the full 9-attack battery against a vendor design
//!   and renders the Table III row, cross-checking the dynamic outcome
//!   against the static analyzer's prediction;
//! * [`monitor_run`] — the canonical monitor-enabled scenario: one benign
//!   home, the hardened defense policy and a scripted WAN attacker
//!   (`rbsim monitor`, `exp_defense` and the monitor Prometheus golden).
//!
//! The adversary model is enforced by construction: the attacker node is
//! WAN-only (no LAN broadcasts, no local delivery), holds the victim's
//! device ID (leaked per [`idspace::LeakChannel`]), owns a same-model
//! device (hence knows app-side message formats), and has reverse
//! engineered the firmware only where the vendor profile says so.

pub mod acts;
pub mod adversary;
pub mod campaign;
pub mod exec;
pub mod idspace;
mod monitor;

pub use adversary::Adversary;
pub use campaign::{run_campaign, run_campaign_opts, run_reference_campaign, VendorCampaign};
pub use exec::{run_attack, run_attack_opts, AttackOpts, AttackRun};
pub use monitor::{monitor_run, MonitorRun};
