//! # rb-app
//!
//! The simulated companion app (the paper's "user agent"). An
//! [`AppAgent`] walks the remote-binding life cycle of Figure 1 on behalf
//! of its user:
//!
//! 1. log in to the cloud (`UserToken`);
//! 2. obtain pairing material where the design calls for it (`DevToken`,
//!    `BindToken`);
//! 3. discover the device on the LAN (SSDP-style) and provision it with
//!    one AP-mode request carrying the Wi-Fi credentials and pairing
//!    material;
//! 4. create the binding — before or after device registration, matching
//!    the vendor's setup order — and deliver the post-binding session
//!    token to the device over the LAN when one is issued;
//! 5. control the device remotely and revoke the binding.
//!
//! The *deliberate human delay* between the device coming online and the
//! user completing the binding ([`AppConfig::user_bind_delay`]) is the
//! online-unbound window that attack A4-2 races.

mod agent;

pub use agent::{AppAgent, AppConfig, AppEvent, AppStats};
