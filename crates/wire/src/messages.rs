//! The primitive message vocabulary of remote binding.
//!
//! The paper's state-machine model (Section III-B) reduces remote binding to
//! three primitive message types — `Status`, `Bind`, `Unbind` — plus the
//! surrounding user-authentication and control traffic. The enums here
//! encode *every concrete shape* of those primitives observed across the 10
//! studied vendors (Figures 3 and 4, Section IV-C), so a vendor design is
//! just a choice of variants, and an attack is just a forged value.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::bytestr::ByteStr;
use crate::ids::DevId;
use crate::telemetry::{RuleTrigger, ScheduleEntry, TelemetryFrame};
use crate::tokens::{BindToken, DevToken, SessionToken, UserId, UserPw, UserToken};

/// How a `Status` message authenticates the device (Figure 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StatusAuth {
    /// Type 1: a dynamic [`DevToken`] obtained via the user's app during
    /// local configuration. The secure commodity option.
    DevToken(DevToken),
    /// Type 2: the static [`DevId`]. The option that makes A1/A3-4/A4
    /// possible once the ID leaks.
    DevId(DevId),
    /// Public-key style authentication (AWS/IBM/Google IoT): a key id plus a
    /// simulated signature over the message. Requires per-device key
    /// provisioning at manufacture time.
    PublicKey {
        /// Identifies the device key registered in the cloud.
        key_id: u64,
        /// Simulated signature value (the signing simulation lives in
        /// `rb-cloud::keystore`).
        signature: u128,
    },
}

impl StatusAuth {}

/// Whether a `Status` message is the initial registration or a keep-alive.
///
/// The paper notes both "share the same functionality: they change the
/// online/offline state of a device shadow", so the cloud treats them
/// uniformly; the distinction matters only for realistic traffic shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StatusKind {
    /// First message after the device joins the network.
    Register,
    /// Periodic keep-alive.
    Heartbeat,
}

/// Static attributes reported alongside status messages ("the firmware
/// version and the model name").
///
/// Fields are [`ByteStr`]s so a zero-copy decoder can slice them straight
/// out of the packet buffer; they still print, compare, and deref like
/// strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeviceAttributes {
    /// Marketing model name.
    pub(crate) model: ByteStr,
    /// Firmware version string.
    pub(crate) firmware: ByteStr,
}

impl DeviceAttributes {
    /// Convenience constructor.
    pub fn new(model: impl Into<ByteStr>, firmware: impl Into<ByteStr>) -> Self {
        DeviceAttributes {
            model: model.into(),
            firmware: firmware.into(),
        }
    }
}

impl Default for DeviceAttributes {
    fn default() -> Self {
        DeviceAttributes::new("generic", "0.0.0")
    }
}

/// A `Status` message: sent by the device (or forged by an attacker holding
/// the device ID) to report liveness and telemetry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusPayload {
    /// How the sender authenticates as the device.
    pub auth: StatusAuth,
    /// The device ID the sender claims to be (always present: even
    /// token-authenticated designs carry the ID for routing).
    pub dev_id: DevId,
    /// Registration vs heartbeat.
    pub kind: StatusKind,
    /// Device attributes (model, firmware).
    pub attributes: DeviceAttributes,
    /// Post-binding session token, required by designs with post-binding
    /// authorization once the device is bound.
    pub session: Option<SessionToken>,
    /// Telemetry carried with the status report.
    pub telemetry: Vec<TelemetryFrame>,
    /// Whether a physical button on the device was pressed in the reporting
    /// interval (Philips-Hue-style ownership proof for binding).
    pub button_pressed: bool,
}

impl StatusPayload {
    /// A plain heartbeat with no telemetry.
    pub fn heartbeat(auth: StatusAuth, dev_id: DevId) -> Self {
        StatusPayload {
            auth,
            dev_id,
            kind: StatusKind::Heartbeat,
            attributes: DeviceAttributes::default(),
            session: None,
            telemetry: Vec::new(),
            button_pressed: false,
        }
    }

    /// A registration message with attributes.
    pub fn register(auth: StatusAuth, dev_id: DevId, attributes: DeviceAttributes) -> Self {
        StatusPayload {
            auth,
            dev_id,
            kind: StatusKind::Register,
            attributes,
            session: None,
            telemetry: Vec::new(),
            button_pressed: false,
        }
    }
}

/// A `Bind` message: creates a binding between a user and a device
/// (Figure 4).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BindPayload {
    /// ACL-based binding sent by the *app*: `Bind:(DevId, UserToken)`.
    AclApp {
        /// Device to bind.
        dev_id: DevId,
        /// The requesting user's token.
        user_token: UserToken,
    },
    /// ACL-based binding sent by the *device*, which received the user's
    /// account credentials during local configuration:
    /// `Bind:(DevId, UserId, UserPw)`. Flagged by the paper as dangerous.
    AclDevice {
        /// Device to bind.
        dev_id: DevId,
        /// Account identifier delivered to the device.
        user_id: UserId,
        /// Account password delivered to the device.
        user_pw: UserPw,
    },
    /// Capability-based binding: `Bind:BindToken`. The token was issued to
    /// the user by the cloud, carried to the device over the local network,
    /// and submitted back by the device — proving local co-presence.
    Capability {
        /// The authorization capability.
        bind_token: BindToken,
    },
}

impl BindPayload {
    /// The device ID named in the payload, if the scheme names one.
    pub(crate) fn dev_id(&self) -> Option<&DevId> {
        match self {
            BindPayload::AclApp { dev_id, .. } | BindPayload::AclDevice { dev_id, .. } => {
                Some(dev_id)
            }
            BindPayload::Capability { .. } => None,
        }
    }
}

/// An `Unbind` message: revokes a binding (Section IV-C).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnbindPayload {
    /// Type 1: `Unbind:(DevId, UserToken)` — sender proves a user identity;
    /// a *correct* cloud additionally checks the user is the bound one.
    DevIdUserToken {
        /// Device whose binding is revoked.
        dev_id: DevId,
        /// The requesting user's token.
        user_token: UserToken,
    },
    /// Type 2: `Unbind:DevId` — sent during device reset; anyone holding the
    /// device ID can forge it (attack A3-1).
    DevIdOnly {
        /// Device whose binding is revoked.
        dev_id: DevId,
    },
}

impl UnbindPayload {
    /// The device ID named in the payload.
    pub fn dev_id(&self) -> &DevId {
        match self {
            UnbindPayload::DevIdUserToken { dev_id, .. } | UnbindPayload::DevIdOnly { dev_id } => {
                dev_id
            }
        }
    }
}

/// A remote-control action on a bound device.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlAction {
    /// Switch the load on.
    TurnOn,
    /// Switch the load off.
    TurnOff,
    /// Set bulb brightness (0–100).
    SetBrightness(u8),
    /// Store a schedule entry cloud-side (smart-lock/plug timers).
    SetSchedule(ScheduleEntry),
    /// Read back the stored schedule — the response is the private data A1
    /// *stealing* targets.
    QuerySchedule,
    /// Read the most recent telemetry the cloud holds for the device.
    QueryTelemetry,
}

impl ControlAction {
    /// A short tag for traces and forensic marks.
    pub fn kind_str(&self) -> &'static str {
        match self {
            ControlAction::TurnOn => "turn-on",
            ControlAction::TurnOff => "turn-off",
            ControlAction::SetBrightness(_) => "set-brightness",
            ControlAction::SetSchedule(_) => "set-schedule",
            ControlAction::QuerySchedule => "query-schedule",
            ControlAction::QueryTelemetry => "query-telemetry",
        }
    }
}

/// A trigger-action automation rule stored cloud-side (IFTTT-style,
/// paper §V-B). When telemetry from `trigger_dev` satisfies `trigger`, the
/// cloud relays `action` to `action_dev` — which is why injected fake
/// telemetry has a *cascade* effect.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AutomationRule {
    /// The sensor device whose telemetry is watched.
    pub trigger_dev: DevId,
    /// The condition.
    pub trigger: RuleTrigger,
    /// The actuator device.
    pub action_dev: DevId,
    /// What to do when the condition fires.
    pub action: ControlAction,
}

/// Every message a party can send toward the cloud (requests) — the
/// counterpart is [`Response`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// User login: `(UserId, UserPw)` → `Response::LoginOk(UserToken)`.
    Login {
        /// Account identifier.
        user_id: UserId,
        /// Account password.
        user_pw: UserPw,
    },
    /// App requests a fresh [`DevToken`] to hand to a device during local
    /// configuration (Figure 3, Type 1 step 1).
    RequestDevToken {
        /// The logged-in user's token.
        user_token: UserToken,
    },
    /// App requests a [`BindToken`] capability (capability-based designs).
    RequestBindToken {
        /// The logged-in user's token.
        user_token: UserToken,
    },
    /// Device status report (or a forgery of one).
    Status(StatusPayload),
    /// Binding creation.
    Bind(BindPayload),
    /// Binding revocation.
    Unbind(UnbindPayload),
    /// Remote control of a bound device by a user.
    Control {
        /// Target device.
        dev_id: DevId,
        /// The requesting user's token.
        user_token: UserToken,
        /// Post-binding session token if the design requires one.
        session: Option<SessionToken>,
        /// The action to perform.
        action: ControlAction,
    },
    /// Query the cloud-side shadow state of a device (diagnostics; used by
    /// experiments, not part of the attacked surface).
    QueryShadow {
        /// Device of interest.
        dev_id: DevId,
    },
    /// Grant another account control of a bound device (device sharing —
    /// the many-to-one binding of the paper's footnote 2). Only the bound
    /// owner may share.
    Share {
        /// The shared device.
        dev_id: DevId,
        /// The owner's token.
        user_token: UserToken,
        /// The account receiving access.
        grantee: UserId,
    },
    /// Store an automation rule; both devices must belong to the requesting
    /// user.
    SetRule {
        /// The rule owner's token.
        user_token: UserToken,
        /// The rule.
        rule: AutomationRule,
    },
    /// Revoke a previously granted share. Only the bound owner may revoke.
    Unshare {
        /// The shared device.
        dev_id: DevId,
        /// The owner's token.
        user_token: UserToken,
        /// The account losing access.
        grantee: UserId,
    },
}

impl Message {
    /// Every [`Message::kind_str`], indexed by [`Message::kind_index`].
    pub const KINDS: [&'static str; 11] = [
        "Login",
        "RequestDevToken",
        "RequestBindToken",
        "Status",
        "Bind",
        "Unbind",
        "Control",
        "QueryShadow",
        "Share",
        "SetRule",
        "Unshare",
    ];

    /// This message's position in [`Message::KINDS`], for tables kept per
    /// kind.
    pub fn kind_index(&self) -> usize {
        match self {
            Message::Login { .. } => 0,
            Message::RequestDevToken { .. } => 1,
            Message::RequestBindToken { .. } => 2,
            Message::Status(_) => 3,
            Message::Bind(_) => 4,
            Message::Unbind(_) => 5,
            Message::Control { .. } => 6,
            Message::QueryShadow { .. } => 7,
            Message::Share { .. } => 8,
            Message::SetRule { .. } => 9,
            Message::Unshare { .. } => 10,
        }
    }

    /// A short tag for traces.
    pub fn kind_str(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// A fine-grained tag naming the exact primitive *shape* (Figures 3
    /// and 4), used by the cloud's forensic marks and the `rb-forensics`
    /// classifier to identify which forged primitive an attack used.
    /// Unlike [`Message::kind_str`], this distinguishes e.g. the two
    /// `Unbind` shapes, which map to different attack sub-cases
    /// (A3-1 vs A3-2).
    pub fn primitive_str(&self) -> &'static str {
        match self {
            Message::Login { .. } => "login",
            Message::RequestDevToken { .. } => "request-dev-token",
            Message::RequestBindToken { .. } => "request-bind-token",
            Message::Status(payload) => match payload.kind {
                StatusKind::Register => "status:register",
                StatusKind::Heartbeat => "status:heartbeat",
            },
            Message::Bind(BindPayload::AclApp { .. }) => "bind:acl-app",
            Message::Bind(BindPayload::AclDevice { .. }) => "bind:acl-device",
            Message::Bind(BindPayload::Capability { .. }) => "bind:capability",
            Message::Unbind(UnbindPayload::DevIdUserToken { .. }) => "unbind:dev-id+user-token",
            Message::Unbind(UnbindPayload::DevIdOnly { .. }) => "unbind:dev-id",
            Message::Control { .. } => "control",
            Message::QueryShadow { .. } => "query-shadow",
            Message::Share { .. } => "share",
            Message::SetRule { .. } => "set-rule",
            Message::Unshare { .. } => "unshare",
        }
    }

    /// The device ID this message targets, if it names one. Used by the
    /// cloud to attribute forensic marks to a device shadow.
    pub fn dev_id(&self) -> Option<&DevId> {
        match self {
            Message::Status(payload) => Some(&payload.dev_id),
            Message::Bind(payload) => payload.dev_id(),
            Message::Unbind(payload) => Some(payload.dev_id()),
            Message::Control { dev_id, .. }
            | Message::QueryShadow { dev_id }
            | Message::Share { dev_id, .. }
            | Message::Unshare { dev_id, .. } => Some(dev_id),
            Message::SetRule { rule, .. } => Some(&rule.trigger_dev),
            Message::Login { .. }
            | Message::RequestDevToken { .. }
            | Message::RequestBindToken { .. } => None,
        }
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind_str())
    }
}

/// Why a request was denied. Mirrors the checks in `rb-cloud::policy`; the
/// attack engine uses the reason to classify failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DenyReason {
    /// Unknown user or wrong password.
    BadCredentials,
    /// The user token was not issued or has been revoked.
    InvalidUserToken,
    /// Device authentication failed (bad DevToken / signature / unknown id).
    DeviceAuthFailed,
    /// The device is already bound and the policy rejects re-binding.
    AlreadyBound,
    /// The requester is not the user bound to the device.
    NotBoundUser,
    /// The named account does not exist (sharing with a ghost).
    UnknownUser,
    /// The device is not bound to anyone.
    NotBound,
    /// The capability token was not issued or was already consumed.
    InvalidBindToken,
    /// Required post-binding session token missing or wrong.
    BadSession,
    /// Ownership proof failed (button press / source-IP match required).
    OwnershipProofFailed,
    /// The design requires the device to be online for this operation.
    DeviceOffline,
    /// Unknown device ID.
    UnknownDevice,
    /// The message shape is not supported by this vendor's design.
    UnsupportedOperation,
    /// Too many requests from this source (rate limiting).
    RateLimited,
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DenyReason::BadCredentials => "bad credentials",
            DenyReason::InvalidUserToken => "invalid user token",
            DenyReason::DeviceAuthFailed => "device authentication failed",
            DenyReason::AlreadyBound => "device already bound",
            DenyReason::NotBoundUser => "requester is not the bound user",
            DenyReason::UnknownUser => "unknown user",
            DenyReason::NotBound => "device is not bound",
            DenyReason::InvalidBindToken => "invalid bind token",
            DenyReason::BadSession => "bad session token",
            DenyReason::OwnershipProofFailed => "ownership proof failed",
            DenyReason::DeviceOffline => "device offline",
            DenyReason::UnknownDevice => "unknown device",
            DenyReason::UnsupportedOperation => "unsupported operation",
            DenyReason::RateLimited => "rate limited",
        };
        f.write_str(s)
    }
}

/// Cloud → party responses and pushes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Login succeeded.
    LoginOk {
        /// Token for subsequent requests.
        user_token: UserToken,
    },
    /// A fresh device token was issued.
    DevTokenIssued {
        /// The token to deliver to the device locally.
        dev_token: DevToken,
    },
    /// A binding capability was issued.
    BindTokenIssued {
        /// The capability to deliver to the device locally.
        bind_token: BindToken,
    },
    /// Status accepted; carries the session token when the design issues
    /// one (post-binding authorization).
    StatusAccepted {
        /// Session token for subsequent messages, if issued.
        session: Option<SessionToken>,
    },
    /// Binding created; carries the session token when the design issues
    /// one to the binding user.
    Bound {
        /// Session token for subsequent messages, if issued.
        session: Option<SessionToken>,
    },
    /// Binding revoked.
    Unbound,
    /// Control action executed; optionally carries queried data.
    ControlOk {
        /// Schedule entries, if the action was `QuerySchedule`.
        schedule: Vec<ScheduleEntry>,
        /// Telemetry, if the action was `QueryTelemetry`.
        telemetry: Vec<TelemetryFrame>,
    },
    /// Shadow state dump (diagnostics).
    ShadowState {
        /// `true` if the shadow is online.
        online: bool,
        /// `true` if the shadow is bound.
        bound: bool,
    },
    /// Push notification to a bound user: fresh telemetry from "their"
    /// device (this is the channel A1 poisons).
    TelemetryPush {
        /// The reporting device.
        dev_id: DevId,
        /// The frames reported.
        telemetry: Vec<TelemetryFrame>,
    },
    /// Push to a device: a control command relayed from the bound user.
    ControlPush {
        /// The action requested.
        action: ControlAction,
        /// Session token if the design requires the device to verify it.
        session: Option<SessionToken>,
    },
    /// Push to a party: your binding was revoked / replaced.
    BindingRevoked,
    /// An automation rule was stored.
    RuleSet {
        /// The user's rule count after the operation.
        count: u16,
    },
    /// A share grant/revocation was applied; carries the binding session
    /// token (if the design issues one) so the owner can hand it to the
    /// guest through the vendor's sharing flow, plus the guest count.
    ShareOk {
        /// Session token the guest will need on control requests.
        session: Option<SessionToken>,
        /// Number of guests after the operation.
        guests: u16,
    },
    /// The request was denied.
    Denied {
        /// Why.
        reason: DenyReason,
    },
}

impl Response {
    /// A short tag for traces.
    pub fn kind_str(&self) -> &'static str {
        match self {
            Response::LoginOk { .. } => "LoginOk",
            Response::DevTokenIssued { .. } => "DevTokenIssued",
            Response::BindTokenIssued { .. } => "BindTokenIssued",
            Response::StatusAccepted { .. } => "StatusAccepted",
            Response::Bound { .. } => "Bound",
            Response::Unbound => "Unbound",
            Response::ControlOk { .. } => "ControlOk",
            Response::ShadowState { .. } => "ShadowState",
            Response::TelemetryPush { .. } => "TelemetryPush",
            Response::ControlPush { .. } => "ControlPush",
            Response::BindingRevoked => "BindingRevoked",
            Response::ShareOk { .. } => "ShareOk",
            Response::RuleSet { .. } => "RuleSet",
            Response::Denied { .. } => "Denied",
        }
    }

    /// Whether the response signals success.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Denied { .. })
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Denied { reason } => write!(f, "Denied({reason})"),
            other => f.write_str(other.kind_str()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MacAddr;

    fn dev_id() -> DevId {
        DevId::Mac(MacAddr::new([1, 2, 3, 4, 5, 6]))
    }

    #[test]
    fn bind_payload_dev_id_presence() {
        let acl = BindPayload::AclApp {
            dev_id: dev_id(),
            user_token: UserToken::from_entropy(1),
        };
        assert_eq!(acl.dev_id(), Some(&dev_id()));
        let cap = BindPayload::Capability {
            bind_token: BindToken::from_entropy(2),
        };
        assert_eq!(cap.dev_id(), None);
    }

    #[test]
    fn unbind_payload_always_names_a_device() {
        let u1 = UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: UserToken::from_entropy(3),
        };
        let u2 = UnbindPayload::DevIdOnly { dev_id: dev_id() };
        assert_eq!(u1.dev_id(), &dev_id());
        assert_eq!(u2.dev_id(), &dev_id());
    }

    #[test]
    fn deny_reason_display_is_informative() {
        assert_eq!(
            DenyReason::NotBoundUser.to_string(),
            "requester is not the bound user"
        );
        let r = Response::Denied {
            reason: DenyReason::AlreadyBound,
        };
        assert_eq!(r.to_string(), "Denied(device already bound)");
        assert!(!r.is_ok());
        assert!(Response::Unbound.is_ok());
    }

    #[test]
    fn primitive_str_distinguishes_shapes_kind_str_does_not() {
        let unbind_reset = Message::Unbind(UnbindPayload::DevIdOnly { dev_id: dev_id() });
        let unbind_user = Message::Unbind(UnbindPayload::DevIdUserToken {
            dev_id: dev_id(),
            user_token: UserToken::from_entropy(1),
        });
        // Same coarse kind, different primitive shape — the distinction the
        // forensic classifier needs to tell A3-1 from A3-2.
        assert_eq!(unbind_reset.kind_str(), unbind_user.kind_str());
        assert_eq!(unbind_reset.primitive_str(), "unbind:dev-id");
        assert_eq!(unbind_user.primitive_str(), "unbind:dev-id+user-token");

        let register = Message::Status(StatusPayload::register(
            StatusAuth::DevId(dev_id()),
            dev_id(),
            DeviceAttributes::default(),
        ));
        let heartbeat = Message::Status(StatusPayload::heartbeat(
            StatusAuth::DevId(dev_id()),
            dev_id(),
        ));
        assert_eq!(register.primitive_str(), "status:register");
        assert_eq!(heartbeat.primitive_str(), "status:heartbeat");

        let cap = Message::Bind(BindPayload::Capability {
            bind_token: BindToken::from_entropy(2),
        });
        assert_eq!(cap.primitive_str(), "bind:capability");
    }

    #[test]
    fn message_dev_id_targets() {
        let status = Message::Status(StatusPayload::heartbeat(
            StatusAuth::DevId(dev_id()),
            dev_id(),
        ));
        assert_eq!(status.dev_id(), Some(&dev_id()));
        let login = Message::Login {
            user_id: UserId::new("u"),
            user_pw: UserPw::new("p"),
        };
        assert_eq!(login.dev_id(), None);
        let cap = Message::Bind(BindPayload::Capability {
            bind_token: BindToken::from_entropy(2),
        });
        assert_eq!(cap.dev_id(), None, "capability binds name no device");
        let control = Message::Control {
            dev_id: dev_id(),
            user_token: UserToken::from_entropy(1),
            session: None,
            action: ControlAction::TurnOn,
        };
        assert_eq!(control.dev_id(), Some(&dev_id()));
    }

    #[test]
    fn message_kind_strings_cover_all_variants() {
        let msgs = [
            Message::Login {
                user_id: UserId::new("u"),
                user_pw: UserPw::new("p"),
            },
            Message::RequestDevToken {
                user_token: UserToken::from_entropy(0),
            },
            Message::RequestBindToken {
                user_token: UserToken::from_entropy(0),
            },
            Message::QueryShadow { dev_id: dev_id() },
        ];
        let kinds: Vec<_> = msgs.iter().map(|m| m.kind_str()).collect();
        assert_eq!(
            kinds,
            [
                "Login",
                "RequestDevToken",
                "RequestBindToken",
                "QueryShadow"
            ]
        );
    }
}
