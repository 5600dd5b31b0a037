//! The design space of remote-binding solutions (paper Section IV).
//!
//! A [`VendorDesign`] is one point in the space: which identifier
//! authenticates the device, who sends the binding message and what it
//! carries, which unbinding messages exist, and which cloud-side checks are
//! implemented. The static analyzer and the live cloud both consume the
//! same structure, so predictions and executions cannot drift apart.

use rb_wire::ids::IdScheme;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the cloud authenticates status messages (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceAuthScheme {
    /// Type 1: a dynamic random token requested by the app and delivered to
    /// the device during local configuration.
    DevToken,
    /// Type 2: the static device ID. Forgeable by anyone holding the ID.
    DevId,
    /// Public-key authentication (AWS/IBM/Google style); requires per-device
    /// keys provisioned at manufacture.
    PublicKey,
    /// The scheme could not be determined (the paper's "O" cells: firmware
    /// unavailable). Treated as unforgeable-but-unverified.
    Opaque,
}

impl fmt::Display for DeviceAuthScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceAuthScheme::DevToken => "DevToken",
            DeviceAuthScheme::DevId => "DevId",
            DeviceAuthScheme::PublicKey => "PublicKey",
            DeviceAuthScheme::Opaque => "O",
        };
        f.write_str(s)
    }
}

/// How bindings are created (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BindScheme {
    /// ACL-based, binding message sent by the app: `Bind:(DevId,UserToken)`.
    AclApp,
    /// ACL-based, binding message sent by the device, which received the
    /// user's credentials during local configuration:
    /// `Bind:(DevId,UserId,UserPw)`.
    AclDevice,
    /// Capability-based: `Bind:BindToken`, the token having travelled
    /// cloud → app → (local) → device → cloud, proving local co-presence.
    Capability,
}

impl fmt::Display for BindScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BindScheme::AclApp => "sent by the app",
            BindScheme::AclDevice => "sent by the device",
            BindScheme::Capability => "capability",
        };
        f.write_str(s)
    }
}

/// Which unbinding messages the cloud accepts (Section IV-C).
///
/// A design with neither accepted message has **no revocation**: a new
/// binding replaces the old one (the paper's Type 3, device #3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct UnbindSupport {
    /// Type 1: `Unbind:(DevId, UserToken)`.
    pub dev_id_user_token: bool,
    /// Type 2: `Unbind:DevId` (sent during device reset).
    pub dev_id_only: bool,
}

impl UnbindSupport {
    /// Both message types (TP-LINK).
    pub fn both() -> Self {
        UnbindSupport {
            dev_id_user_token: true,
            dev_id_only: true,
        }
    }

    /// Only the token-checked type (the common case).
    pub fn token_only() -> Self {
        UnbindSupport {
            dev_id_user_token: true,
            dev_id_only: false,
        }
    }

    /// No revocation at all: binding replacement is the only way
    /// (KONKE).
    pub fn none() -> Self {
        UnbindSupport::default()
    }

    /// Whether any unbinding message exists.
    pub fn any(&self) -> bool {
        self.dev_id_user_token || self.dev_id_only
    }
}

impl fmt::Display for UnbindSupport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.dev_id_user_token, self.dev_id_only) {
            (true, true) => f.write_str("(DevId,UserToken) & DevId"),
            (true, false) => f.write_str("(DevId,UserToken)"),
            (false, true) => f.write_str("DevId"),
            (false, false) => f.write_str("N.A."),
        }
    }
}

/// The cloud-side checks and behaviours that decide attack feasibility
/// (Section V). Every flag corresponds to one concrete decision in the
/// `rb-cloud` message handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CloudChecks {
    /// On `Unbind:(DevId,UserToken)`, verify the requesting user is the
    /// *bound* user. Absent ⇒ attack A3-2.
    pub verify_unbind_is_bound_user: bool,
    /// On `Bind`, reject if the device is already bound. Absent ⇒ binding
    /// *replacement*: attacks A3-3/A4-1 (and it incidentally defeats A2,
    /// since the victim can always re-bind).
    pub reject_bind_when_bound: bool,
    /// On `Bind`, require an out-of-band local-presence proof: a physical
    /// button press on the device within a window, and matching source IPs
    /// of app and device requests (Philips Hue, Section VI-B).
    pub bind_requires_local_proof: bool,
    /// On `Bind`, require an authenticated live device session for the
    /// named device (binds normally arrive over the device channel —
    /// TP-LINK).
    pub bind_requires_online_device: bool,
    /// Issue a random session token to both parties at binding time and
    /// require it on subsequent control/status traffic (Section IV-B's
    /// "post-binding authorization"). Defeats hijack-then-control.
    pub post_binding_session: bool,
    /// Treat a fresh `Register` status for a bound device as evidence of a
    /// factory reset and revoke the binding (TP-LINK) ⇒ attack A3-4.
    pub register_resets_binding: bool,
    /// Allow multiple concurrent status sources for one device ID instead
    /// of displacing the previous session (D-LINK): forged and real device
    /// coexist, enabling quiet A1.
    pub concurrent_device_sessions: bool,
}

impl CloudChecks {
    /// The weakest observed implementation: no checks at all. This is the
    /// configuration on which the generic attack taxonomy (Table II) is
    /// derived.
    pub(crate) fn weakest() -> Self {
        CloudChecks {
            verify_unbind_is_bound_user: false,
            reject_bind_when_bound: false,
            bind_requires_local_proof: false,
            bind_requires_online_device: false,
            post_binding_session: false,
            register_resets_binding: false,
            concurrent_device_sessions: true,
        }
    }
}

/// The three-way answer to "does a stolen binding control the device?".
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlVerdict {
    /// The cloud relays the hijacker's commands to the real device.
    Relayed,
    /// A design element blocks the relay.
    Blocked(String),
    /// Cannot be determined without inspecting the vendor channel.
    Unconfirmable(String),
}

/// Whether the paper's authors (and hence our simulated attacker) could
/// obtain and analyze the device firmware. Without it, device-originated
/// message formats are unknown and those forgeries are *unconfirmable* —
/// the "O" cells of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FirmwareKnowledge {
    /// Firmware was obtained and reverse engineered: device messages can be
    /// forged.
    Known,
    /// Firmware unavailable: device-message forgery cannot be attempted.
    Opaque,
}

/// In which order the vendor's setup flow performs device authentication
/// and binding creation — this decides whether the online-unbound window
/// exploited by A4-2 exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SetupOrder {
    /// Device registers first, then the user completes binding in the app:
    /// `initial → online → control`. The gap is the A4-2 window.
    OnlineFirst,
    /// The binding is created before the device first registers:
    /// `initial → bound → control`. No window.
    BindFirst,
}

/// The product category, for realistic telemetry and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Smart plug.
    SmartPlug,
    /// Smart socket (plug with energy metering).
    SmartSocket,
    /// Smart bulb.
    SmartBulb,
    /// IP camera.
    IpCamera,
    /// Smart lock.
    SmartLock,
    /// Temperature/environment sensor.
    Sensor,
    /// Fire/smoke alarm.
    FireAlarm,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceKind::SmartPlug => "Smart Plug",
            DeviceKind::SmartSocket => "Smart Socket",
            DeviceKind::SmartBulb => "Smart Bulb",
            DeviceKind::IpCamera => "IP Camera",
            DeviceKind::SmartLock => "Smart Lock",
            DeviceKind::Sensor => "Sensor",
            DeviceKind::FireAlarm => "Fire Alarm",
        };
        f.write_str(s)
    }
}

/// One complete remote-binding design: everything the analyzer needs to
/// predict attacks and the simulator needs to execute them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VendorDesign {
    /// Vendor name (e.g. "TP-LINK").
    pub vendor: String,
    /// Product category.
    pub device: DeviceKind,
    /// How device IDs are allocated (decides the attacker's search space).
    pub id_scheme: IdScheme,
    /// Device-authentication scheme.
    pub auth: DeviceAuthScheme,
    /// Binding-creation scheme.
    pub bind: BindScheme,
    /// Accepted unbinding messages.
    pub unbind: UnbindSupport,
    /// Cloud-side checks and behaviours.
    pub checks: CloudChecks,
    /// Setup-flow ordering.
    pub setup_order: SetupOrder,
    /// Whether firmware (and hence device-message formats) is available to
    /// the attacker.
    pub firmware: FirmwareKnowledge,
}

impl VendorDesign {
    /// Validates internal consistency of the design.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency:
    ///
    /// * a design without unbinding support must allow binding replacement
    ///   (otherwise bindings would be permanent);
    /// * a capability-based design has no use for
    ///   `bind_requires_local_proof` (the capability *is* the local proof).
    pub fn validate(&self) -> Result<(), String> {
        if !self.unbind.any() && self.checks.reject_bind_when_bound {
            return Err(format!(
                "{}: no unbind support and reject_bind_when_bound would make bindings permanent",
                self.vendor
            ));
        }
        if self.bind == BindScheme::Capability && self.checks.bind_requires_local_proof {
            return Err(format!(
                "{}: capability binding already proves local presence",
                self.vendor
            ));
        }
        Ok(())
    }

    /// Whether an attacker holding only the device ID can forge this
    /// design's *status* messages.
    ///
    /// Requires the scheme to authenticate by the static ID **and** the
    /// message format to be known (firmware analyzed).
    pub fn status_forgeable(&self) -> bool {
        self.auth == DeviceAuthScheme::DevId && self.firmware == FirmwareKnowledge::Known
    }

    /// Whether status forgery is *unconfirmable* (the paper's "O"): either
    /// the auth scheme itself is unknown, or it uses the ID but the message
    /// format is not recoverable.
    pub fn status_forgery_unconfirmable(&self) -> bool {
        match self.auth {
            DeviceAuthScheme::Opaque => true,
            DeviceAuthScheme::DevId => self.firmware == FirmwareKnowledge::Opaque,
            DeviceAuthScheme::DevToken | DeviceAuthScheme::PublicKey => false,
        }
    }

    /// Whether an attacker with their *own* account can forge this design's
    /// *binding* messages for a victim device ID.
    pub fn bind_forgeable(&self) -> bool {
        match self.bind {
            // The attacker logs into their own account and swaps the ID.
            BindScheme::AclApp => !self.checks.bind_requires_local_proof,
            // The attacker forges the device-originated bind with their own
            // credentials — possible once firmware is understood.
            BindScheme::AclDevice => {
                self.firmware == FirmwareKnowledge::Known && !self.checks.bind_requires_local_proof
            }
            // The capability never leaves the victim's local network.
            BindScheme::Capability => false,
        }
    }

    /// Whether a binding *held by the attacker* yields actual device
    /// control.
    ///
    /// Hijacking ends in control only when the device's cloud session is
    /// keyed to nothing stronger than the static ID: a `DevToken` ties the
    /// session to the token's requesting user, a post-binding session token
    /// cannot be refreshed on the device by a remote attacker ("the
    /// attacker is unable to force the target device to submit the same
    /// token"), and public keys sign every message.
    pub fn hijack_yields_control(&self) -> bool {
        matches!(self.hijack_control_verdict(), ControlVerdict::Relayed)
    }

    /// The full three-way verdict on whether a stolen binding yields
    /// control: for vendors whose device channel could not be inspected,
    /// the question is *unconfirmable* — the paper's epistemics, mirrored
    /// by the live executor.
    pub fn hijack_control_verdict(&self) -> ControlVerdict {
        if self.checks.post_binding_session {
            return ControlVerdict::Blocked(
                "post-binding session token: the attacker cannot force the device to submit theirs"
                    .to_owned(),
            );
        }
        match self.auth {
            DeviceAuthScheme::DevId => ControlVerdict::Relayed,
            DeviceAuthScheme::DevToken => ControlVerdict::Blocked(
                "DevToken authentication keys the device session to the legitimate user".to_owned(),
            ),
            // Public keys authenticate the *device*, not the *binding*: the
            // key is manufactured, carries no user linkage, and therefore
            // does nothing to stop the cloud from relaying a hijacker's
            // commands. Only a post-binding session (checked above) closes
            // that path.
            DeviceAuthScheme::PublicKey => ControlVerdict::Relayed,
            DeviceAuthScheme::Opaque => ControlVerdict::Unconfirmable(
                "whether control is relayed cannot be confirmed without inspecting the vendor channel"
                    .to_owned(),
            ),
        }
    }

    /// Whether bindings *replace* (no reject-when-bound check).
    pub fn bind_replaces(&self) -> bool {
        !self.checks.reject_bind_when_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CloudChecks {
        // Every protective check on, every dangerous behaviour off — the
        // recommended baseline.
        fn strict() -> Self {
            CloudChecks {
                verify_unbind_is_bound_user: true,
                reject_bind_when_bound: true,
                bind_requires_local_proof: false,
                bind_requires_online_device: false,
                post_binding_session: true,
                register_resets_binding: false,
                concurrent_device_sessions: false,
            }
        }
    }

    fn base() -> VendorDesign {
        VendorDesign {
            vendor: "Test".into(),
            device: DeviceKind::SmartPlug,
            id_scheme: IdScheme::MacWithOui { oui: [0, 1, 2] },
            auth: DeviceAuthScheme::DevId,
            bind: BindScheme::AclApp,
            unbind: UnbindSupport::token_only(),
            checks: CloudChecks::strict(),
            setup_order: SetupOrder::OnlineFirst,
            firmware: FirmwareKnowledge::Known,
        }
    }

    #[test]
    fn unbind_support_display() {
        assert_eq!(
            UnbindSupport::both().to_string(),
            "(DevId,UserToken) & DevId"
        );
        assert_eq!(UnbindSupport::token_only().to_string(), "(DevId,UserToken)");
        assert_eq!(UnbindSupport::none().to_string(), "N.A.");
        assert_eq!(
            UnbindSupport {
                dev_id_user_token: false,
                dev_id_only: true
            }
            .to_string(),
            "DevId"
        );
        assert!(!UnbindSupport::none().any());
        assert!(UnbindSupport::both().any());
    }

    #[test]
    fn validate_rejects_permanent_bindings() {
        let mut d = base();
        d.unbind = UnbindSupport::none();
        d.checks.reject_bind_when_bound = true;
        assert!(d.validate().is_err());
        d.checks.reject_bind_when_bound = false;
        assert!(d.validate().is_ok());
    }

    #[test]
    fn validate_rejects_redundant_local_proof_on_capability() {
        let mut d = base();
        d.bind = BindScheme::Capability;
        d.checks.bind_requires_local_proof = true;
        assert!(d.validate().is_err());
    }

    #[test]
    fn status_forgeability_matrix() {
        let mut d = base();
        assert!(d.status_forgeable(), "DevId + known firmware");
        assert!(!d.status_forgery_unconfirmable());

        d.firmware = FirmwareKnowledge::Opaque;
        assert!(!d.status_forgeable());
        assert!(
            d.status_forgery_unconfirmable(),
            "DevId + opaque firmware = O"
        );

        d.auth = DeviceAuthScheme::DevToken;
        assert!(!d.status_forgeable());
        assert!(
            !d.status_forgery_unconfirmable(),
            "DevToken is a definitive ✗"
        );

        d.auth = DeviceAuthScheme::Opaque;
        assert!(d.status_forgery_unconfirmable());

        d.auth = DeviceAuthScheme::PublicKey;
        assert!(!d.status_forgeable());
        assert!(!d.status_forgery_unconfirmable());
    }

    #[test]
    fn bind_forgeability_matrix() {
        let mut d = base();
        assert!(d.bind_forgeable(), "app-sent ACL binds are forgeable");

        d.checks.bind_requires_local_proof = true;
        assert!(!d.bind_forgeable(), "local proof blocks forgery");

        d.checks.bind_requires_local_proof = false;
        d.bind = BindScheme::AclDevice;
        assert!(
            d.bind_forgeable(),
            "device-sent binds forgeable with firmware"
        );
        d.firmware = FirmwareKnowledge::Opaque;
        assert!(!d.bind_forgeable());

        d.bind = BindScheme::Capability;
        d.firmware = FirmwareKnowledge::Known;
        assert!(!d.bind_forgeable(), "capabilities never leave the LAN");
    }

    #[test]
    fn hijack_control_requires_weak_session() {
        let mut d = base();
        d.checks.post_binding_session = false;
        assert!(d.hijack_yields_control());
        d.checks.post_binding_session = true;
        assert!(!d.hijack_yields_control());
        d.checks.post_binding_session = false;
        d.auth = DeviceAuthScheme::DevToken;
        assert!(!d.hijack_yields_control());
    }

    #[test]
    fn strict_and_weakest_are_extremes() {
        let strict = CloudChecks::strict();
        let weak = CloudChecks::weakest();
        assert!(strict.verify_unbind_is_bound_user && !weak.verify_unbind_is_bound_user);
        assert!(strict.reject_bind_when_bound && !weak.reject_bind_when_bound);
        assert!(strict.post_binding_session && !weak.post_binding_session);
        assert!(!strict.register_resets_binding && !weak.register_resets_binding);
    }

    #[test]
    fn display_impls() {
        assert_eq!(DeviceAuthScheme::Opaque.to_string(), "O");
        assert_eq!(BindScheme::AclDevice.to_string(), "sent by the device");
        assert_eq!(DeviceKind::IpCamera.to_string(), "IP Camera");
    }
}
