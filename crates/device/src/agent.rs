//! The device firmware agent.

use rb_core::design::{BindScheme, DeviceAuthScheme, VendorDesign};
use rb_netsim::telemetry::{Counter, Handles};
use rb_netsim::{Actor, Ctx, Dest, NodeId, Retry, RetryPolicy, Telemetry, TimerKey};
use rb_provision::apmode::{PairingMaterial, ProvisionReply, ProvisionRequest};
use rb_provision::discovery::{SearchRequest, SearchResponse};
use rb_provision::label::DeviceLabel;
use rb_provision::localctl::LocalCtl;
use rb_provision::WifiCredentials;
use rb_wire::codec::Frame;
use rb_wire::crypto::sign_dev_id;
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::DevId;
use rb_wire::messages::{
    BindPayload, ControlAction, DeviceAttributes, Message, Response, StatusAuth, StatusKind,
    StatusPayload, UnbindPayload,
};
use rb_wire::telemetry::{ScheduleEntry, TelemetryFrame};
use rb_wire::tokens::{BindToken, DevToken, SessionToken, UserId, UserPw};

use crate::telemetry_gen;

const TIMER_HEARTBEAT: TimerKey = 1;
const TIMER_REGISTER: TimerKey = 2;
const TIMER_DEVICE_BIND: TimerKey = 3;

/// Heartbeat period in ticks.
pub const HEARTBEAT_EVERY: u64 = 2_000;

/// Delay in ticks between registration and the device-sent bind
/// (`AclDevice` and `Capability` designs). TP-LINK binds essentially
/// immediately.
pub(crate) const BIND_DELAY: u64 = 2;

/// Static configuration of one simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// The vendor design the firmware implements.
    pub design: VendorDesign,
    /// This unit's device ID.
    pub dev_id: DevId,
    /// Factory secret burned in at manufacture.
    pub factory_secret: u128,
    /// Signing key (public-key designs).
    pub key: Option<(u64, u128)>,
    /// The cloud's node.
    pub cloud: NodeId,
}

/// The device agent's counters, registered once per telemetry handle.
#[derive(Debug, Default)]
struct DeviceMetrics {
    heartbeats: Counter,
    registers: Counter,
    resets: Counter,
    commands: Counter,
    bind_attempts: Counter,
    bind_retries: Counter,
}

impl DeviceMetrics {
    fn register(t: &Telemetry) -> Self {
        DeviceMetrics {
            heartbeats: t.register_counter("device_heartbeats_total"),
            registers: t.register_counter("device_registers_total"),
            resets: t.register_counter("device_resets_total"),
            commands: t.register_counter("device_commands_total"),
            bind_attempts: t.register_counter("device_bind_attempts_total"),
            bind_retries: t.register_counter("device_bind_retries_total"),
        }
    }
}

/// Counters exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Registration messages sent.
    pub registers: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// Control pushes applied.
    pub commands: u64,
    /// Factory resets performed.
    pub resets: u64,
    /// Bind messages sent (first attempt plus retransmissions).
    pub(crate) bind_attempts: u64,
}

/// The simulated firmware. See the [crate docs](crate) for the life cycle.
#[derive(Debug)]
pub struct DeviceAgent {
    config: DeviceConfig,
    /// Model and firmware strings every status carries, built once.
    attributes: DeviceAttributes,
    // Provisioning state.
    wifi: Option<WifiCredentials>,
    dev_token: Option<DevToken>,
    bind_token: Option<BindToken>,
    user_creds: Option<(UserId, UserPw)>,
    // Cloud-facing state.
    registered: bool,
    bound_hint: bool,
    session: Option<SessionToken>,
    // Appliance state.
    on: bool,
    brightness: u8,
    schedule: Vec<ScheduleEntry>,
    button_queued: bool,
    reset_queued: bool,
    corr: u64,
    extra_telemetry: Vec<TelemetryFrame>,
    /// Heartbeat-timer generation: bumped on reboot so stale timers from a
    /// previous power cycle are ignored instead of double-scheduling.
    hb_gen: u64,
    /// Backoff state for the device-sent Bind: one lost packet must not
    /// wedge an `AclDevice`/`Capability` setup forever.
    bind_retry: Retry,
    /// Bind sends in the current cycle; sends beyond the first count as
    /// `device_bind_retries_total`. Reset whenever `bind_retry` is.
    bind_tries_this_cycle: u32,
    /// Shared metrics registry and the agent's handles on it (a private
    /// default until the harness wires in the world-wide one via
    /// [`DeviceAgent::set_telemetry`]).
    metrics: Handles<DeviceMetrics>,
    /// Public counters.
    pub stats: DeviceStats,
}

impl DeviceAgent {
    /// Creates an unprovisioned device.
    pub fn new(config: DeviceConfig) -> Self {
        DeviceAgent {
            attributes: DeviceAttributes::new(config.design.device.to_string(), "1.0.3"),
            config,
            wifi: None,
            dev_token: None,
            bind_token: None,
            user_creds: None,
            registered: false,
            bound_hint: false,
            session: None,
            on: false,
            brightness: 100,
            schedule: Vec::new(),
            button_queued: false,
            reset_queued: false,
            corr: 0,
            extra_telemetry: Vec::new(),
            hb_gen: 0,
            bind_retry: Retry::new(RetryPolicy::new(25, 800)),
            bind_tries_this_cycle: 0,
            metrics: Handles::unset(DeviceMetrics::register),
            stats: DeviceStats::default(),
        }
    }

    /// Points the agent at a shared metrics registry. Call before the sim
    /// starts so every counter lands in the world-wide snapshot.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = Handles::new(telemetry, DeviceMetrics::register);
    }

    /// The unit's printed label (the ID-leak channel of the adversary
    /// model).
    pub(crate) fn label(&self) -> DeviceLabel {
        DeviceLabel::new(self.config.dev_id.clone(), 1234)
    }

    /// Whether Wi-Fi credentials have been received.
    pub fn is_wifi_provisioned(&self) -> bool {
        self.wifi.is_some()
    }

    /// Whether the device believes it has registered with the cloud.
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Relay/light state.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Locally stored schedule.
    pub fn schedule(&self) -> &[ScheduleEntry] {
        &self.schedule
    }

    /// The session token the device currently holds.
    pub fn session(&self) -> Option<SessionToken> {
        self.session
    }

    /// Queues a physical button press; reported in the next status message
    /// (Hue-style ownership proof).
    pub fn press_button(&mut self) {
        self.button_queued = true;
    }

    /// The static configuration (read-only).
    pub(crate) fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Sets telemetry to attach to the next heartbeats in addition to the
    /// kind-specific samples (used by the hub to forward child readings).
    pub(crate) fn set_extra_telemetry(&mut self, frames: Vec<TelemetryFrame>) {
        self.extra_telemetry = frames;
    }

    /// Queues a factory reset, performed at the next timer tick.
    pub fn queue_reset(&mut self) {
        self.reset_queued = true;
    }

    /// Whether the firmware has everything the design needs before it can
    /// go online.
    fn fully_provisioned(&self) -> bool {
        if self.wifi.is_none() {
            return false;
        }
        match self.config.design.auth {
            DeviceAuthScheme::DevToken if self.dev_token.is_none() => return false,
            _ => {}
        }
        match self.config.design.bind {
            BindScheme::AclDevice => self.user_creds.is_some(),
            BindScheme::Capability => self.bind_token.is_some(),
            BindScheme::AclApp => true,
        }
    }

    fn status_auth(&self) -> StatusAuth {
        match self.config.design.auth {
            DeviceAuthScheme::DevToken => {
                StatusAuth::DevToken(self.dev_token.unwrap_or_else(|| DevToken::from_entropy(0)))
            }
            DeviceAuthScheme::DevId => StatusAuth::DevId(self.config.dev_id.clone()),
            DeviceAuthScheme::Opaque => {
                StatusAuth::DevToken(DevToken::from_entropy(self.config.factory_secret))
            }
            DeviceAuthScheme::PublicKey => {
                let (key_id, secret) = self.config.key.unwrap_or((0, 0));
                StatusAuth::PublicKey {
                    key_id,
                    signature: sign_dev_id(secret, &self.config.dev_id),
                }
            }
        }
    }

    fn send_request(&mut self, ctx: &mut Ctx<'_>, msg: Message) {
        self.corr += 1;
        let env = Envelope::Request {
            corr: CorrId(self.corr),
            msg,
        };
        ctx.send(Dest::Unicast(self.config.cloud), env.encode());
    }

    fn send_status(&mut self, ctx: &mut Ctx<'_>, kind: StatusKind) {
        let mut payload = StatusPayload {
            auth: self.status_auth(),
            dev_id: self.config.dev_id.clone(),
            kind,
            attributes: self.attributes.clone(),
            session: self.session,
            telemetry: Vec::new(),
            button_pressed: self.button_queued,
        };
        if kind == StatusKind::Heartbeat {
            payload.telemetry = telemetry_gen::sample(
                self.config.design.device,
                self.on,
                self.brightness,
                ctx.rng(),
            );
            payload
                .telemetry
                .extend(self.extra_telemetry.iter().cloned());
            self.stats.heartbeats += 1;
            self.metrics.get().heartbeats.incr();
        } else {
            self.stats.registers += 1;
            self.metrics.get().registers.incr();
        }
        self.button_queued = false;
        self.send_request(ctx, Message::Status(payload));
    }

    fn perform_reset(&mut self, ctx: &mut Ctx<'_>) {
        // "a message can be sent from the device if the device has been
        // physically reset" — only designs accepting Unbind:DevId do this.
        if self.config.design.unbind.dev_id_only && self.bound_hint {
            self.send_request(
                ctx,
                Message::Unbind(UnbindPayload::DevIdOnly {
                    dev_id: self.config.dev_id.clone(),
                }),
            );
        }
        self.wifi = None;
        self.dev_token = None;
        self.bind_token = None;
        self.user_creds = None;
        self.registered = false;
        self.bound_hint = false;
        self.session = None;
        self.schedule.clear();
        self.on = false;
        self.reset_queued = false;
        self.bind_retry.reset();
        self.bind_tries_this_cycle = 0;
        self.stats.resets += 1;
        self.metrics.get().resets.incr();
    }

    /// Runs locally stored schedule entries whose time has come — the
    /// device keeps its timers even while the cloud is unreachable.
    fn execute_due_schedule(&mut self, now: u64) {
        let mut i = 0;
        while i < self.schedule.len() {
            if self.schedule[i].at_tick <= now {
                let entry = self.schedule.remove(i);
                self.on = entry.turn_on;
            } else {
                i += 1;
            }
        }
    }

    fn apply_action(&mut self, action: &ControlAction) {
        match action {
            ControlAction::TurnOn => self.on = true,
            ControlAction::TurnOff => self.on = false,
            ControlAction::SetBrightness(b) => self.brightness = (*b).min(100),
            ControlAction::SetSchedule(e) => self.schedule.push(e.clone()),
            ControlAction::QuerySchedule | ControlAction::QueryTelemetry => {}
        }
        self.stats.commands += 1;
        self.metrics.get().commands.incr();
    }

    /// Takes the owner's local configuration: Wi-Fi credentials plus the
    /// pairing material the design needs. A (re)configured device starts
    /// a fresh bind cycle, so it binds with the new material on its next
    /// registration even if it held a binding before.
    fn accept_provisioning(&mut self, ctx: &mut Ctx<'_>, from: NodeId, req: &ProvisionRequest) {
        self.wifi = Some(req.wifi.clone());
        self.bound_hint = false;
        self.bind_retry.reset();
        self.bind_tries_this_cycle = 0;
        let PairingMaterial {
            dev_token,
            bind_token,
            user_credentials,
        } = &req.pairing;
        if let Some(t) = dev_token {
            self.dev_token = Some(DevToken::from_bytes(*t));
        }
        if let Some(t) = bind_token {
            self.bind_token = Some(BindToken::from_bytes(*t));
        }
        if let Some((uid, pw)) = user_credentials {
            self.user_creds = Some((UserId::new(uid.clone()), UserPw::new(pw.clone())));
        }
        let reply = ProvisionReply::Accepted {
            device_info: self.label().print(),
        };
        ctx.send(Dest::Unicast(from), reply.encode());
        if self.fully_provisioned() {
            ctx.set_timer(2, TIMER_REGISTER);
        }
    }

    fn maybe_start_device_bind(&mut self, ctx: &mut Ctx<'_>) {
        if self.bound_hint || !self.registered {
            return;
        }
        match self.config.design.bind {
            BindScheme::AclDevice if self.user_creds.is_some() => {
                ctx.set_timer(BIND_DELAY, TIMER_DEVICE_BIND);
            }
            BindScheme::Capability if self.bind_token.is_some() => {
                ctx.set_timer(BIND_DELAY, TIMER_DEVICE_BIND);
            }
            _ => {}
        }
    }

    fn send_device_bind(&mut self, ctx: &mut Ctx<'_>) {
        match self.config.design.bind {
            BindScheme::AclDevice => {
                if let Some((user_id, user_pw)) = self.user_creds.clone() {
                    self.send_request(
                        ctx,
                        Message::Bind(BindPayload::AclDevice {
                            dev_id: self.config.dev_id.clone(),
                            user_id,
                            user_pw,
                        }),
                    );
                }
            }
            BindScheme::Capability => {
                if let Some(bind_token) = self.bind_token {
                    self.send_request(ctx, Message::Bind(BindPayload::Capability { bind_token }));
                }
            }
            BindScheme::AclApp => {}
        }
    }

    fn handle_cloud_response(&mut self, ctx: &mut Ctx<'_>, rsp: Response) {
        match rsp {
            Response::StatusAccepted { session } => {
                let newly_registered = !self.registered;
                self.registered = true;
                if let Some(s) = session {
                    self.session = Some(s);
                }
                if newly_registered {
                    self.bind_retry.reset();
                    self.bind_tries_this_cycle = 0;
                    self.maybe_start_device_bind(ctx);
                }
            }
            Response::Bound { session } => {
                self.bound_hint = true;
                self.bind_retry.reset();
                self.bind_tries_this_cycle = 0;
                if let Some(s) = session {
                    self.session = Some(s);
                }
            }
            Response::BindingRevoked => {
                self.bound_hint = false;
                self.session = None;
            }
            Response::ControlPush { action, session } => {
                // Post-binding designs: ignore commands whose session does
                // not match the one delivered locally.
                if self.config.design.checks.post_binding_session
                    && self.session.is_some()
                    && session != self.session
                {
                    ctx.mark("device rejected control (bad session)");
                    return;
                }
                // The load actually switching is the physical consequence a
                // forensic timeline must show under the causing message.
                if ctx.traces() {
                    ctx.mark(format!("device applied {}", action.kind_str()));
                }
                self.apply_action(&action);
            }
            Response::Denied {
                reason: rb_wire::messages::DenyReason::DeviceAuthFailed,
            } => {
                // The cloud no longer recognizes our session (expired or
                // displaced): re-register on the next beat.
                self.registered = false;
            }
            _ => {}
        }
    }
}

impl Actor for DeviceAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(HEARTBEAT_EVERY, TIMER_HEARTBEAT | (self.hb_gen << 8));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: bytes::Bytes) {
        // Cloud traffic.
        if from == self.config.cloud {
            // Header first, then the response kind its tag names.
            if let Ok(rsp) = Frame::read(&payload).and_then(Frame::response) {
                self.handle_cloud_response(ctx, rsp);
            }
            return;
        }
        // LAN traffic, in decreasing specificity.
        if let Ok(ctl) = LocalCtl::decode(&payload) {
            match ctl {
                LocalCtl::SessionAssign { token } => {
                    self.session = Some(SessionToken::from_bytes(token));
                    ctx.send(Dest::Unicast(from), LocalCtl::Ack.encode());
                }
                LocalCtl::FactoryReset => {
                    self.perform_reset(ctx);
                    ctx.send(Dest::Unicast(from), LocalCtl::Ack.encode());
                }
                LocalCtl::Ack => {}
            }
            return;
        }
        if let Ok(req) = SearchRequest::decode(&payload) {
            if req.matches(&self.config.design.vendor, &self.config.dev_id) {
                let rsp = SearchResponse {
                    vendor: self.config.design.vendor.clone(),
                    model: format!("{}", self.config.design.device),
                    dev_id: self.config.dev_id.clone(),
                };
                ctx.send(Dest::Unicast(from), rsp.encode());
            }
            return;
        }
        if let Ok(req) = ProvisionRequest::decode(&payload) {
            self.accept_provisioning(ctx, from, &req);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        match key & 0xff {
            TIMER_HEARTBEAT => {
                if (key >> 8) != self.hb_gen {
                    return; // stale chain from before a reboot
                }
                if self.reset_queued {
                    self.perform_reset(ctx);
                }
                self.execute_due_schedule(ctx.now().as_u64());
                if self.fully_provisioned() {
                    if self.registered {
                        self.send_status(ctx, StatusKind::Heartbeat);
                    } else {
                        self.send_status(ctx, StatusKind::Register);
                    }
                }
                ctx.set_timer(HEARTBEAT_EVERY, TIMER_HEARTBEAT | (self.hb_gen << 8));
            }
            TIMER_REGISTER if self.fully_provisioned() && !self.registered => {
                self.send_status(ctx, StatusKind::Register);
            }
            TIMER_DEVICE_BIND if !self.bound_hint => {
                self.send_device_bind(ctx);
                self.stats.bind_attempts += 1;
                self.metrics.get().bind_attempts.incr();
                if self.bind_tries_this_cycle > 0 {
                    self.metrics.get().bind_retries.incr();
                }
                self.bind_tries_this_cycle += 1;
                // Retransmit with backoff until the cloud confirms the
                // binding or the budget runs out — a single dropped Bind
                // must not leave the shadow stuck below `Bound`.
                if let Some(delay) = self.bind_retry.next(ctx.rng()) {
                    ctx.set_timer(delay, TIMER_DEVICE_BIND);
                }
            }
            _ => {}
        }
    }

    fn on_power(&mut self, ctx: &mut Ctx<'_>, powered: bool) {
        if powered {
            // Reboot: the cloud connection must be re-established, and the
            // heartbeat chain restarted (any timer dropped while powered
            // off would otherwise kill it permanently).
            self.registered = false;
            self.hb_gen += 1;
            ctx.set_timer(HEARTBEAT_EVERY, TIMER_HEARTBEAT | (self.hb_gen << 8));
        }
    }
}
