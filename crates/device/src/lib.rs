//! # rb-device
//!
//! Simulated IoT device firmware. A [`agent::DeviceAgent`] is an
//! [`rb_netsim::Actor`] that lives through the full life cycle of the
//! paper's Figure 1:
//!
//! 1. **Unprovisioned** — LAN-listening only; accepts an AP-mode
//!    provisioning request carrying the Wi-Fi credentials and pairing
//!    material, and answers SSDP-style discovery;
//! 2. **Provisioned** — registers with the cloud using the vendor design's
//!    authentication scheme (`DevToken` / `DevId` / factory secret /
//!    public key), then heartbeats with telemetry appropriate to its
//!    product kind;
//! 3. **Bound** — executes control pushes, reports button presses,
//!    accepts a locally-delivered post-binding session token;
//! 4. **Reset** — clears pairing material and (per design) emits the
//!    unbinding message during factory reset.
//!
//! The firmware is deliberately honest: it implements only the vendor's
//! protocol. Attacks never touch this crate — they forge traffic from the
//! outside, exactly as the paper's adversary does.
//!
//! [`hub`] implements the four-party extension (paper Section VIII): a
//! Zigbee/BLE end device behind an IP hub, where the hub carries the cloud
//! protocol on behalf of its children.

pub mod agent;
pub mod hub;
pub mod telemetry_gen;

pub use agent::{DeviceAgent, DeviceConfig, BIND_DELAY, HEARTBEAT_EVERY};
