//! # iot-remote-binding
//!
//! A full reproduction of *"Your IoTs Are (Not) Mine: On the Remote Binding
//! Between IoT Devices and Users"* (Chen et al., DSN 2019) as a Rust
//! workspace: the paper's device-shadow state machine, binding design
//! space, vendor profiles, and attack taxonomy — plus every substrate the
//! study depends on, rebuilt as deterministic simulations (cloud, device
//! firmware, companion app, home LAN, provisioning protocols, and a
//! WAN-only adversary).
//!
//! This facade crate re-exports the workspace members under short names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`telemetry`] | `rb-telemetry` | deterministic metrics, spans, exporters |
//! | [`prof`] | `rb-prof` | deterministic phase profiler + counting allocator |
//! | [`wire`] | `rb-wire` | identifiers, tokens, messages, the wire format |
//! | [`netsim`] | `rb-netsim` | deterministic discrete-event network |
//! | [`provision`] | `rb-provision` | SmartConfig/Airkiss/AP-mode/labels/SSDP |
//! | [`core_model`] | `rb-core` | state machine, design space, analyzer |
//! | [`cloud`] | `rb-cloud` | the policy-driven IoT cloud |
//! | [`device`] | `rb-device` | simulated firmware (and the 4-party hub) |
//! | [`app`] | `rb-app` | the companion-app user agent |
//! | [`forensics`] | `rb-forensics` | causal trees, trace exports, classifier |
//! | [`scenario`] | `rb-scenario` | world builder |
//! | [`attack`] | `rb-attack` | adversary, ID inference, campaigns |
//! | [`fleet`] | `rb-fleet` | parallel population-scale sweep engine |
//! | [`mc`] | `rb-mc` | exhaustive model checker + counterexample replay |
//! | [`fuzz`] | `rb-fuzz` | lifecycle-DSL fuzzer with shrinking, mc-cross-checked |
//!
//! # Quickstart
//!
//! ```rust
//! use iot_remote_binding::attack::campaign::run_campaign;
//! use iot_remote_binding::core_model::vendors;
//!
//! // Reproduce the paper's Table III row for E-Link (#9): hijackable via
//! // a replacing bind (A4-1).
//! let campaign = run_campaign(&vendors::e_link(), 1);
//! assert_eq!(campaign.row(), ["O", "✗", "✗", "A4-1"]);
//! ```

pub use rb_app as app;
pub use rb_attack as attack;
pub use rb_cloud as cloud;
pub use rb_core as core_model;
pub use rb_device as device;
pub use rb_fleet as fleet;
pub use rb_forensics as forensics;
pub use rb_fuzz as fuzz;
pub use rb_mc as mc;
pub use rb_netsim as netsim;
pub use rb_prof as prof;
pub use rb_provision as provision;
pub use rb_scenario as scenario;
pub use rb_telemetry as telemetry;
pub use rb_wire as wire;
