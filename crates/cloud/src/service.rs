//! The cloud service: message handlers parameterized by a vendor design.
//!
//! Every accept/deny branch here corresponds to a design element of
//! [`VendorDesign`]; the static analyzer in `rb-core` reasons about those
//! elements symbolically, and this module *executes* them, so the Table III
//! experiment can cross-check prediction against execution.

use std::fmt;

use rb_core::design::{BindScheme, CloudChecks, DeviceAuthScheme, UnbindSupport, VendorDesign};
use rb_core::shadow::ShadowState;
use rb_netsim::hash::HashMap;
use rb_netsim::telemetry::{Counter, CounterTable, Handles};
use rb_netsim::{Actor, Ctx, Dest, NodeId, Profiler, SimRng, Telemetry, Tick};
use rb_wire::codec::Frame;
use rb_wire::envelope::Envelope;
use rb_wire::ids::DevId;
use rb_wire::messages::{
    AutomationRule, BindPayload, ControlAction, DenyReason, Message, MessageKind, Response,
    StatusAuth, StatusKind, StatusPayload, UnbindPayload,
};
use rb_wire::tokens::{SessionToken, UserId, UserPw, UserToken};

use crate::accounts::AccountStore;
use crate::issued::{BindTokenLedger, DevTokenLedger};
use crate::monitor::{DefensePolicy, Detector, Monitor, SecurityAlert};
use crate::registry::{DeviceRecord, KeyRing};
use crate::state::{DeviceState, Slot, SourceSlot};

/// The defensive interventions counted by
/// `cloud_mitigations_total{action=…}`.
#[derive(Clone, Copy)]
enum Mitigation {
    RotateToken,
    Quarantine,
    RateLimitBind,
}

impl Mitigation {
    const ALL: [Mitigation; 3] = [
        Mitigation::RotateToken,
        Mitigation::Quarantine,
        Mitigation::RateLimitBind,
    ];

    fn as_str(self) -> &'static str {
        match self {
            Mitigation::RotateToken => "rotate-token",
            Mitigation::Quarantine => "quarantine",
            Mitigation::RateLimitBind => "rate-limit-bind",
        }
    }
}

/// The cloud's counters: per-kind requests and denials (indexed by
/// [`MessageKind`]), shadow transitions (indexed by `from * 4 +
/// to`, positions in [`ShadowState::ALL`]), mitigations and the rarer
/// events.
#[derive(Debug, Default)]
struct CloudMetrics {
    requests: CounterTable<{ Message::KINDS.len() }>,
    denials: CounterTable<{ Message::KINDS.len() }>,
    transitions: CounterTable<16>,
    mitigations: CounterTable<3>,
    bindings_replaced: Counter,
    sessions_expired: Counter,
}

impl CloudMetrics {
    fn register(t: &Telemetry) -> Self {
        CloudMetrics {
            requests: CounterTable::new(t, |kind| {
                format!("cloud_requests_total{{kind=\"{}\"}}", Message::KINDS[kind])
            }),
            denials: CounterTable::new(t, |kind| {
                format!("cloud_denials_total{{kind=\"{}\"}}", Message::KINDS[kind])
            }),
            transitions: CounterTable::new(t, |i| {
                format!(
                    "cloud_shadow_transitions_total{{from=\"{}\",to=\"{}\"}}",
                    ShadowState::ALL[i / 4],
                    ShadowState::ALL[i % 4]
                )
            }),
            mitigations: CounterTable::new(t, |i| {
                format!(
                    "cloud_mitigations_total{{action=\"{}\"}}",
                    Mitigation::ALL[i].as_str()
                )
            }),
            bindings_replaced: t.register_counter("cloud_bindings_replaced_total"),
            sessions_expired: t.register_counter("cloud_sessions_expired_total"),
        }
    }
}

/// The `Copy` control-flow knobs of a [`VendorDesign`], snapshotted per
/// request. Handlers used to clone the whole design (including its heap
/// `String` vendor name) on every message; this copies four plain enums
/// and bit-structs instead while keeping the `design.checks.…` call sites
/// unchanged.
#[derive(Debug, Clone, Copy)]
struct DesignKnobs {
    checks: CloudChecks,
    bind: BindScheme,
    auth: DeviceAuthScheme,
    unbind: UnbindSupport,
}

/// Ticks without a status message before a device is considered offline
/// (30 s at 1 tick = 1 ms).
pub const HEARTBEAT_TIMEOUT: u64 = 30_000;

/// Window (ticks) within which a reported button press counts as a
/// local-presence proof (Philips Hue: 30 seconds).
pub(crate) const BUTTON_WINDOW: u64 = 30_000;

/// Cloud configuration.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// The vendor design that parameterizes every handler.
    pub(crate) design: VendorDesign,
    /// Active-response policy driven by the streaming monitor's alerts.
    /// Disabled by default: the monitor observes but the service never
    /// intervenes, keeping default-world behavior byte-identical.
    pub(crate) defense: DefensePolicy,
}

impl CloudConfig {
    /// A configuration with the defense policy disabled.
    pub fn new(design: VendorDesign) -> Self {
        CloudConfig {
            design,
            defense: DefensePolicy::disabled(),
        }
    }
}

/// The result of handling one request: the direct reply plus any pushes to
/// other parties.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Reply to the requester.
    pub reply: Response,
    /// Unsolicited pushes `(recipient, response)`.
    pub pushes: Vec<(NodeId, Response)>,
}

impl Outcome {
    fn deny(reason: DenyReason) -> Self {
        Outcome {
            reply: Response::Denied { reason },
            pushes: Vec::new(),
        }
    }

    fn reply(reply: Response) -> Self {
        Outcome {
            reply,
            pushes: Vec::new(),
        }
    }
}

const TIMER_EXPIRE: u64 = 1;

/// The simulated IoT cloud.
///
/// See the [crate docs](crate) for the component map. Drive it through the
/// network simulator (it implements [`Actor`]) or call
/// [`CloudService::handle_message`] directly in protocol tests.
pub struct CloudService {
    config: CloudConfig,
    accounts: AccountStore,
    /// Signing keys of the manufactured devices, by key id.
    keys: KeyRing,
    dev_tokens: DevTokenLedger,
    bind_tokens: BindTokenLedger,
    /// The device table (one slot per manufactured device) and the source
    /// table (one record per node).
    state: DeviceState,
    rules: HashMap<rb_wire::tokens::UserId, Vec<AutomationRule>>,
    monitor: Detector,
    metrics: Handles<CloudMetrics>,
    /// Phase profiler: disabled by default (one branch per request); a
    /// recording handle tallies the codec round-trip and dispatch under
    /// the simulation's open `sim.deliver` phase.
    profiler: Profiler,
    forensics: bool,
    forensic_marks: Vec<String>,
    /// Mitigations recorded over this cloud's life, counted whether or
    /// not its telemetry records.
    mitigations: u64,
}

impl CloudService {
    /// Creates a cloud for one vendor design.
    pub fn new(config: CloudConfig) -> Self {
        CloudService {
            config,
            accounts: AccountStore::new(),
            keys: KeyRing::default(),
            dev_tokens: DevTokenLedger::new(),
            bind_tokens: BindTokenLedger::new(),
            state: DeviceState::default(),
            rules: HashMap::default(),
            monitor: Detector::new(),
            metrics: Handles::unset(CloudMetrics::register),
            profiler: Profiler::disabled(),
            forensics: false,
            forensic_marks: Vec::new(),
            mitigations: 0,
        }
    }

    /// Enables forensic marks: causally-attributed statements ("rpc …",
    /// "shadow …", "bind …") emitted into the simulation trace alongside
    /// the packet that caused them, consumed by `rb-forensics` to
    /// reconstruct attacks. Off by default so untraced runs pay nothing.
    pub fn set_forensics(&mut self, enabled: bool) {
        self.forensics = enabled;
    }

    /// Records a shadow transition into the unified registry — the
    /// `cloud_shadow_transitions_total{from,to}` counter plus the
    /// binding-lifecycle histograms, timed from the episode marks kept on
    /// the device's record — and, when forensics is on, a
    /// `shadow dev=… from=… to=…` mark tied to the causing message.
    fn track_transition(&mut self, slot: Slot, before: ShadowState, after: ShadowState, now: Tick) {
        if before == after {
            return;
        }
        // `ShadowState::ALL` lists the states in declaration order.
        self.metrics
            .get()
            .transitions
            .incr(before as usize * 4 + after as usize);
        let observe = |name: &str, value: u64| {
            if let Some(telemetry) = self.metrics.telemetry() {
                telemetry.observe(name, value);
            }
        };
        let entry = &mut self.state.devices[slot];
        if let Some(record) = entry.record.as_mut() {
            match (before.is_online(), after.is_online()) {
                (false, true) => {
                    record.online_at.get_or_insert(now);
                    if !std::mem::replace(&mut record.ever_online, true) {
                        observe("binding_initial_to_online_ticks", now.as_u64());
                    }
                }
                (true, false) => record.online_at = None,
                _ => {}
            }
            match (before.is_bound(), after.is_bound()) {
                (false, true) => {
                    if let Some(at) = record.online_at {
                        observe("binding_online_to_bound_ticks", now - at);
                    }
                    if let Some(at) = record.unbound_at.take() {
                        observe("binding_unbind_to_rebind_ticks", now - at);
                    }
                }
                (true, false) => record.unbound_at = Some(now),
                _ => {}
            }
        }
        if self.forensics {
            let dev_id = &entry.dev_id;
            self.forensic_marks
                .push(format!("shadow dev={dev_id} from={before} to={after}"));
        }
    }

    /// Defensive interventions (token rotations, quarantines, bind
    /// rate-limits) this cloud has made: the sum of its
    /// `cloud_mitigations_total{action=…}` increments. Always 0 under a
    /// disabled [`DefensePolicy`].
    pub fn mitigations(&self) -> u64 {
        self.mitigations
    }

    /// Points the cloud (and its monitor) at a shared telemetry registry.
    /// The world builder calls this with the simulation's handle so every
    /// layer records into one place.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.monitor.set_telemetry(telemetry.clone());
        self.metrics = Handles::new(telemetry, CloudMetrics::register);
    }

    /// Installs a phase profiler (usually the simulation's handle, so the
    /// cloud's `cloud.decode` / `cloud.dispatch` / `cloud.encode` tallies
    /// nest under the open `sim.deliver` phase).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The design this cloud implements.
    pub fn design(&self) -> &VendorDesign {
        &self.config.design
    }

    /// Per-request snapshot of the design's `Copy` knobs (no allocation).
    fn knobs(&self) -> DesignKnobs {
        let d = &self.config.design;
        DesignKnobs {
            checks: d.checks,
            bind: d.bind,
            auth: d.auth,
            unbind: d.unbind,
        }
    }

    /// Vendor-side account signup.
    pub fn provision_account(&mut self, user_id: UserId, user_pw: UserPw) {
        self.accounts.register(user_id, user_pw);
    }

    /// Manufactures a device: registers its ID, factory secret, and
    /// (optionally) a signing key.
    pub fn manufacture(&mut self, dev_id: DevId, factory_secret: u128, key: Option<(u64, u128)>) {
        let made = DeviceRecord {
            factory_secret,
            key,
        };
        self.keys.add(&made);
        self.state.devices.manufacture(dev_id, made);
    }

    /// Declares the public IP (NAT identity) a node's traffic arrives from.
    /// Nodes sharing a home router share an IP; used by the Hue-style
    /// source-IP comparison.
    pub fn set_public_ip(&mut self, node: NodeId, ip: u32) {
        let src = self.state.sources.resolve(node);
        self.state.sources[src].nat_ip = Some(ip);
    }

    /// The passive security monitor: its alert log and the device and
    /// source tables it watches, read-only.
    pub fn monitor(&self) -> Monitor<'_> {
        Monitor::new(&self.monitor, &self.state)
    }

    /// Installs an active-response policy. The default policy is disabled;
    /// installing an enabled one makes the service react to fresh monitor
    /// alerts after every handled request.
    pub fn set_defense(&mut self, policy: DefensePolicy) {
        self.config.defense = policy;
    }

    /// Diagnostic access to a device's shadow state.
    pub fn shadow_state(&self, dev_id: &DevId) -> ShadowState {
        self.state
            .devices
            .get(dev_id)
            .map_or(ShadowState::Initial, |entry| entry.shadow_state())
    }

    /// Diagnostic access to the bound user of a device.
    pub fn bound_user(&self, dev_id: &DevId) -> Option<UserId> {
        self.state.devices.get(dev_id)?.bound_user().cloned()
    }

    /// Diagnostic access to the nodes currently speaking as a device.
    pub fn device_nodes(&self, dev_id: &DevId) -> Vec<NodeId> {
        self.state
            .devices
            .get(dev_id)
            .and_then(|entry| entry.session.as_ref())
            .map(|s| s.nodes.clone())
            .unwrap_or_default()
    }

    /// Handles one request, returning the reply and pushes. This is the
    /// transport-independent core; the [`Actor`] impl reaches the same
    /// handlers from a frame's header and its kind's body decoder.
    pub fn handle_message(
        &mut self,
        from: NodeId,
        now: Tick,
        msg: &Message,
        rng: &mut SimRng,
    ) -> Outcome {
        let outcome = self.dispatch(from, now, msg, rng);
        self.conclude(now, rng, msg.kind(), outcome, || msg.clone())
    }

    /// The tail every request shares, after its handler. Active responses
    /// run on the request path: whatever alerts this request raised are
    /// reacted to before the reply leaves, and any defensive revocation
    /// push rides the same outcome. Then the per-kind counters, and on a
    /// forensic cloud the `rpc` mark, for which `msg` rebuilds the request
    /// (only then).
    fn conclude(
        &mut self,
        now: Tick,
        rng: &mut SimRng,
        kind: MessageKind,
        mut outcome: Outcome,
        msg: impl FnOnce() -> Message,
    ) -> Outcome {
        if self.config.defense.is_enabled() {
            let pushes = self.apply_defenses(now, rng);
            outcome.pushes.extend(pushes);
        }
        let metrics = self.metrics.get();
        metrics.requests.incr(kind as usize);
        if matches!(outcome.reply, Response::Denied { .. }) {
            metrics.denials.incr(kind as usize);
        }
        if self.forensics {
            let msg = msg();
            let dev = msg
                .dev_id()
                .map_or_else(|| "-".to_string(), ToString::to_string);
            self.forensic_marks.push(format!(
                "rpc {} dev={dev} outcome={}",
                msg.primitive_str(),
                outcome.reply
            ));
        }
        outcome
    }

    /// Serves a request frame whose header named `kind`: decodes that
    /// kind's whole body, then runs its handler and the shared tail.
    /// `None` if the body is malformed; the request is then dropped before
    /// it touches any state or the shared random stream.
    fn serve(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        kind: MessageKind,
        frame: Frame<'_>,
    ) -> Option<Outcome> {
        let now = ctx.now();
        Some(match kind {
            MessageKind::Login => {
                let Ok((user_id, user_pw)) = frame.login() else {
                    return None;
                };
                let rng = &mut ctx.rng().fork();
                let outcome = self.handle_login(from, &user_id, &user_pw, rng);
                self.conclude(now, rng, kind, outcome, || Message::Login {
                    user_id,
                    user_pw,
                })
            }
            MessageKind::RequestDevToken | MessageKind::RequestBindToken => {
                let Ok(user_token) = frame.user_token() else {
                    return None;
                };
                let rng = &mut ctx.rng().fork();
                let bind = kind == MessageKind::RequestBindToken;
                let outcome = self.handle_token_request(&user_token, bind, rng);
                self.conclude(now, rng, kind, outcome, || {
                    if bind {
                        Message::RequestBindToken { user_token }
                    } else {
                        Message::RequestDevToken { user_token }
                    }
                })
            }
            MessageKind::Status => {
                let Ok(payload) = frame.status() else {
                    return None;
                };
                let rng = &mut ctx.rng().fork();
                let outcome = self.handle_status(from, now, &payload);
                self.conclude(now, rng, kind, outcome, || Message::Status(payload.clone()))
            }
            MessageKind::Bind => {
                let Ok(payload) = frame.bind() else {
                    return None;
                };
                let rng = &mut ctx.rng().fork();
                let outcome = self.handle_bind(from, now, &payload, rng);
                self.conclude(now, rng, kind, outcome, || Message::Bind(payload.clone()))
            }
            MessageKind::Unbind => {
                let Ok(payload) = frame.unbind() else {
                    return None;
                };
                let rng = &mut ctx.rng().fork();
                let outcome = self.handle_unbind(from, now, &payload);
                self.conclude(now, rng, kind, outcome, || Message::Unbind(payload.clone()))
            }
            MessageKind::Control => {
                let Ok((dev_id, user_token, action, session)) = frame.control() else {
                    return None;
                };
                let rng = &mut ctx.rng().fork();
                let outcome =
                    self.handle_control(from, now, &dev_id, &user_token, session, &action);
                self.conclude(now, rng, kind, outcome, || Message::Control {
                    dev_id,
                    user_token,
                    session,
                    action,
                })
            }
            MessageKind::QueryShadow => {
                let Ok(dev_id) = frame.dev_id() else {
                    return None;
                };
                let rng = &mut ctx.rng().fork();
                let outcome = self.handle_query_shadow(&dev_id);
                self.conclude(now, rng, kind, outcome, || Message::QueryShadow { dev_id })
            }
            MessageKind::Share | MessageKind::Unshare => {
                let Ok((dev_id, user_token, grantee)) = frame.share() else {
                    return None;
                };
                let rng = &mut ctx.rng().fork();
                let grant = kind == MessageKind::Share;
                let outcome = self.handle_share(&dev_id, &user_token, &grantee, grant);
                self.conclude(now, rng, kind, outcome, || {
                    if grant {
                        Message::Share {
                            dev_id,
                            user_token,
                            grantee,
                        }
                    } else {
                        Message::Unshare {
                            dev_id,
                            user_token,
                            grantee,
                        }
                    }
                })
            }
            MessageKind::SetRule => {
                let Ok((user_token, rule)) = frame.set_rule() else {
                    return None;
                };
                let rng = &mut ctx.rng().fork();
                let outcome = self.handle_set_rule(&user_token, &rule);
                self.conclude(now, rng, kind, outcome, || Message::SetRule {
                    user_token,
                    rule,
                })
            }
        })
    }

    /// Drains the forensic marks accumulated since the last drain (empty
    /// unless [`CloudService::set_forensics`] enabled them).
    pub fn take_forensic_marks(&mut self) -> Vec<String> {
        std::mem::take(&mut self.forensic_marks)
    }

    // -- Active defense ------------------------------------------------------

    /// Whether this `Bind` request from `from` exceeds the defense policy's
    /// bind limiter (and counts it against the window).
    fn defense_bind_limited(&mut self, src: SourceSlot, now: Tick) -> bool {
        let Some(limit) = self.config.defense.bind_limit else {
            return false;
        };
        let window = self.state.sources[src].bind_window.get_or_insert((now, 0));
        if now - window.0 >= limit.window {
            *window = (now, 0);
        }
        window.1 += 1;
        window.1 > limit.max
    }

    /// Records one mitigation: the `cloud_mitigations_total{action="…"}`
    /// counter and (under forensics) a FAULT-style
    /// `defense action=… … trigger=…` mark tied to the causing request.
    fn record_mitigation(&mut self, action: Mitigation, detail: fmt::Arguments<'_>, trigger: &str) {
        self.mitigations += 1;
        self.metrics.get().mitigations.incr(action as usize);
        if self.forensics {
            self.forensic_marks.push(format!(
                "defense action={} {detail} trigger={trigger}",
                action.as_str()
            ));
        }
    }

    /// Reacts to the alerts raised since the last reaction, per the
    /// configured [`DefensePolicy`]. Returns pushes (defensive revocation
    /// notices) to append to the current outcome.
    fn apply_defenses(&mut self, now: Tick, rng: &mut SimRng) -> Vec<(NodeId, Response)> {
        let policy = self.config.defense.clone();
        let mut pushes = Vec::new();
        for (_, alert) in self.monitor.drain_defense_alerts() {
            let kind = alert.kind();
            let Some(slot) = alert.dev_id().and_then(|d| self.state.devices.slot(d)) else {
                continue;
            };
            if policy.rotate_tokens
                && matches!(
                    kind,
                    "binding-replaced" | "session-moved" | "stale-token-replay"
                )
            {
                self.rotate_binding_token(slot, now, rng, kind);
            }
            if policy.quarantine_ticks > 0
                && matches!(
                    kind,
                    "contested-binding"
                        | "remote-only-bind"
                        | "impossible-transition"
                        | "bare-unbind"
                        | "foreign-unbind"
                        | "binding-replaced"
                )
            {
                pushes.extend(self.quarantine_device(slot, now, policy.quarantine_ticks, kind));
            }
        }
        pushes
    }

    /// Rotates a bound device's binding-session token, retiring the old
    /// token so any stolen copy becomes replay-detectable and useless for
    /// session-gated control.
    fn rotate_binding_token(&mut self, slot: Slot, now: Tick, rng: &mut SimRng, trigger: &str) {
        let fresh = SessionToken::from_entropy(rng.entropy128());
        let entry = &mut self.state.devices[slot];
        let Some(record) = entry.record.as_mut() else {
            return;
        };
        if !record.shadow.state().is_bound() {
            return;
        }
        let Some(old) = record.binding_session.replace(fresh) else {
            record.binding_session = None;
            return;
        };
        self.monitor.retire_token(slot, old, now);
        let dev_id = entry.dev_id.clone();
        self.record_mitigation(
            Mitigation::RotateToken,
            format_args!("dev={dev_id}"),
            trigger,
        );
    }

    /// Quarantines a suspect device: non-co-located binds are denied until
    /// the window expires, and a binding not provably co-located with the
    /// device is revoked on the spot. Returns the revocation push, if any.
    fn quarantine_device(
        &mut self,
        slot: Slot,
        now: Tick,
        ticks: u64,
        trigger: &str,
    ) -> Vec<(NodeId, Response)> {
        let entry = &mut self.state.devices[slot];
        if entry.is_quarantined(now) {
            return Vec::new();
        }
        entry.quarantine(now + ticks);
        let dev_ip = entry.ip;
        let dev_id = entry.dev_id.clone();
        let mut pushes = Vec::new();
        let mut revoked_user = None;
        if let Some(record) = entry.record.as_mut() {
            let colocated = matches!((record.binding_ip, dev_ip), (Some(b), Some(d)) if b == d);
            if record.shadow.state().is_bound() && (record.remote_bind_flagged || !colocated) {
                let before = record.shadow.state();
                let revoked = record.shadow.on_unbind();
                let after = record.shadow.state();
                let old = record.binding_session.take();
                record.guests.clear();
                self.track_transition(slot, before, after, now);
                if let Some(tok) = old {
                    self.monitor.retire_token(slot, tok, now);
                }
                if let Some(user) = revoked {
                    if let Some(node) = self.accounts.node_of(&user) {
                        pushes.push((node, Response::BindingRevoked));
                    }
                    revoked_user = Some(user);
                }
            }
        }
        match revoked_user {
            Some(user) => self.record_mitigation(
                Mitigation::Quarantine,
                format_args!("dev={dev_id} revoked={user}"),
                trigger,
            ),
            None => self.record_mitigation(
                Mitigation::Quarantine,
                format_args!("dev={dev_id}"),
                trigger,
            ),
        }
        pushes
    }

    /// Expires stale device sessions (heartbeat timeout) and half-open
    /// shadows left `Online`/`Control` without a live session. Normally
    /// driven by the actor timer; exposed for direct-drive tests.
    pub fn expire(&mut self, now: Tick) -> Vec<DevId> {
        let mut expired = self.state.expire_sessions(now, HEARTBEAT_TIMEOUT);
        expired.extend(self.state.devices.expire_half_open(now, HEARTBEAT_TIMEOUT));
        for &slot in &expired {
            // Expiry always moves an online shadow offline; the post-state
            // tells us whether it was Online→Initial or Control→Bound.
            let after = self.state.devices[slot].shadow_state();
            let before = ShadowState::from_flags(true, after.is_bound());
            self.track_transition(slot, before, after, now);
        }
        if !expired.is_empty() {
            self.metrics
                .get()
                .sessions_expired
                .add(expired.len() as u64);
        }
        expired
            .into_iter()
            .map(|slot| self.state.devices[slot].dev_id.clone())
            .collect()
    }

    fn dispatch(&mut self, from: NodeId, now: Tick, msg: &Message, rng: &mut SimRng) -> Outcome {
        match msg {
            Message::Login { user_id, user_pw } => self.handle_login(from, user_id, user_pw, rng),
            Message::RequestDevToken { user_token } => {
                self.handle_token_request(user_token, false, rng)
            }
            Message::RequestBindToken { user_token } => {
                self.handle_token_request(user_token, true, rng)
            }
            Message::Status(payload) => self.handle_status(from, now, payload),
            Message::Bind(payload) => self.handle_bind(from, now, payload, rng),
            Message::Unbind(payload) => self.handle_unbind(from, now, payload),
            Message::Control {
                dev_id,
                user_token,
                session,
                action,
            } => self.handle_control(from, now, dev_id, user_token, *session, action),
            Message::Share {
                dev_id,
                user_token,
                grantee,
            } => self.handle_share(dev_id, user_token, grantee, true),
            Message::SetRule { user_token, rule } => self.handle_set_rule(user_token, rule),
            Message::Unshare {
                dev_id,
                user_token,
                grantee,
            } => self.handle_share(dev_id, user_token, grantee, false),
            Message::QueryShadow { dev_id } => self.handle_query_shadow(dev_id),
        }
    }

    // -- Accounts and tokens ---------------------------------------------------

    fn handle_login(
        &mut self,
        from: NodeId,
        user_id: &UserId,
        user_pw: &UserPw,
        rng: &mut SimRng,
    ) -> Outcome {
        match self.accounts.login(user_id, user_pw, from, rng) {
            Ok(user_token) => Outcome::reply(Response::LoginOk { user_token }),
            Err(reason) => Outcome::deny(reason),
        }
    }

    /// Issues a bind token (`bind`) or a device token to a logged-in user.
    fn handle_token_request(
        &mut self,
        user_token: &UserToken,
        bind: bool,
        rng: &mut SimRng,
    ) -> Outcome {
        let user = match self.accounts.verify_token(user_token) {
            Ok(u) => u.clone(),
            Err(reason) => return Outcome::deny(reason),
        };
        Outcome::reply(if bind {
            Response::BindTokenIssued {
                bind_token: self.bind_tokens.issue(user, rng),
            }
        } else {
            Response::DevTokenIssued {
                dev_token: self.dev_tokens.issue(user, rng),
            }
        })
    }

    fn handle_query_shadow(&self, dev_id: &DevId) -> Outcome {
        let state = self.shadow_state(dev_id);
        Outcome::reply(Response::ShadowState {
            online: state.is_online(),
            bound: state.is_bound(),
        })
    }

    // -- Status ------------------------------------------------------------

    fn authenticate_status(
        &self,
        slot: Slot,
        payload: &StatusPayload,
    ) -> Result<Option<UserId>, DenyReason> {
        match self.config.design.auth {
            DeviceAuthScheme::DevToken => match &payload.auth {
                StatusAuth::DevToken(token) => Ok(Some(self.dev_tokens.verify(token)?.clone())),
                _ => Err(DenyReason::DeviceAuthFailed),
            },
            DeviceAuthScheme::DevId => match &payload.auth {
                StatusAuth::DevId(id) if *id == payload.dev_id => Ok(None),
                _ => Err(DenyReason::DeviceAuthFailed),
            },
            DeviceAuthScheme::PublicKey => match &payload.auth {
                StatusAuth::PublicKey { key_id, signature } => {
                    if self
                        .keys
                        .verify_signature(*key_id, &payload.dev_id, *signature)
                    {
                        Ok(None)
                    } else {
                        Err(DenyReason::DeviceAuthFailed)
                    }
                }
                _ => Err(DenyReason::DeviceAuthFailed),
            },
            // The vendor channel we could not inspect: modeled as a
            // per-device factory secret only the real firmware holds.
            DeviceAuthScheme::Opaque => match &payload.auth {
                StatusAuth::DevToken(token)
                    if token.to_u128() == self.state.devices[slot].made.factory_secret =>
                {
                    Ok(None)
                }
                _ => Err(DenyReason::DeviceAuthFailed),
            },
        }
    }

    fn handle_status(&mut self, from: NodeId, now: Tick, payload: &StatusPayload) -> Outcome {
        let src = self.state.sources.resolve(from);
        let dev_id = &payload.dev_id;
        self.monitor
            .observe_target(&mut self.state.sources[src], dev_id, now);
        let Some(slot) = self.state.devices.slot(dev_id) else {
            return Outcome::deny(DenyReason::UnknownDevice);
        };
        let auth_user = match self.authenticate_status(slot, payload) {
            Ok(u) => u,
            Err(reason) => return Outcome::deny(reason),
        };
        // Heartbeats are only valid within an established device session;
        // a new source must register first (TCP-connection semantics).
        if payload.kind == StatusKind::Heartbeat {
            let member = self.state.devices[slot]
                .session
                .as_ref()
                .is_some_and(|s| s.nodes.contains(&from));
            if !member {
                return Outcome::deny(DenyReason::DeviceAuthFailed);
            }
        }

        let mut pushes = Vec::new();
        let design = self.knobs();

        // TP-LINK semantics: a fresh registration implies a factory reset,
        // revoking any existing binding (attack surface A3-4).
        if design.checks.register_resets_binding
            && payload.kind == StatusKind::Register
            && self.state.devices[slot].shadow_state().is_bound()
        {
            // A bound shadow dropping on a Register from an address the
            // device has never lived at is the impossible-transition
            // signature (A3-4); the monitor's IP guard keeps genuine
            // factory resets (same NAT) silent.
            let reset_ip = self.state.sources[src].public_ip();
            let entry = &mut self.state.devices[slot];
            self.monitor.observe_binding_drop(entry, reset_ip, now);
            let record = entry.record_mut();
            let before = record.shadow.state();
            let revoked = record.shadow.on_unbind();
            let after = record.shadow.state();
            let old_session = record.binding_session.take();
            record.guests.clear();
            if let Some(tok) = old_session {
                self.monitor.retire_token(slot, tok, now);
            }
            self.track_transition(slot, before, after, now);
            if let Some(user) = revoked {
                if let Some(node) = self.accounts.node_of(&user) {
                    pushes.push((node, Response::BindingRevoked));
                }
            }
        }

        let _displaced = self.state.touch_session(
            slot,
            src,
            auth_user.clone(),
            payload.session,
            now,
            design.checks.concurrent_device_sessions,
        );

        let from_ip = self.state.sources[src].public_ip();
        // Replay check runs against the *pre-update* device IP: an attacker
        // forging a device session with a stolen-but-retired token must not
        // first overwrite the co-location evidence that convicts it.
        if let Some(tok) = payload.session {
            self.monitor
                .observe_presented_token(&self.state.devices, slot, tok, from_ip, now);
        }
        let entry = &mut self.state.devices[slot];
        self.monitor.observe_device_ip(entry, from_ip, now);
        // Retroactive co-location check: a binding created before the
        // device ever connected is flagged once the device's real IP shows
        // up somewhere else (the pre-emptive A2 occupation signature).
        let record = entry.record_mut();
        if !record.remote_bind_flagged {
            if let (Some(holder), Some(bind_ip)) = (record.shadow.bound_user(), record.binding_ip) {
                if bind_ip != from_ip {
                    let holder = holder.clone();
                    record.remote_bind_flagged = true;
                    self.monitor.raise(
                        now,
                        SecurityAlert::RemoteOnlyBind {
                            dev_id: dev_id.clone(),
                            holder,
                            from_ip: bind_ip,
                        },
                    );
                }
            }
        }
        let before = record.shadow.state();
        record.shadow.on_status(now.as_u64());
        let after = record.shadow.state();
        self.track_transition(slot, before, after, now);
        let record = self.state.devices[slot].record_mut();
        if payload.button_pressed {
            record.button_at = Some(now);
            record.button_ip = Some(from_ip);
        }
        let bound_user = record.shadow.bound_user().cloned();
        let binding_session = record.binding_session;
        if !payload.telemetry.is_empty() {
            record.last_telemetry.clone_from(&payload.telemetry);
            if let Some(user) = &bound_user {
                if let Some(node) = self.accounts.node_of(user) {
                    pushes.push((
                        node,
                        Response::TelemetryPush {
                            dev_id: Box::new(dev_id.clone()),
                            telemetry: payload.telemetry.clone(),
                        },
                    ));
                }
            }
        }

        // Automation rules (IFTTT-style): telemetry from a bound device may
        // trigger actions on the owner's other devices — the cascade that
        // makes A1 injection consequential (§V-B).
        if !payload.telemetry.is_empty() {
            if let Some(owner) = &bound_user {
                pushes.extend(self.fire_rules(owner.clone(), dev_id, &payload.telemetry));
            }
        }

        // Only a session authenticated as the bound user may learn the
        // binding session token from the cloud; everyone else receives it
        // through the local channel.
        let session_echo = match (&auth_user, &bound_user) {
            (Some(a), Some(b)) if a == b => binding_session,
            _ => None,
        };
        Outcome {
            reply: Response::StatusAccepted {
                session: session_echo,
            },
            pushes,
        }
    }

    // -- Bind ----------------------------------------------------------------

    fn handle_bind(
        &mut self,
        from: NodeId,
        now: Tick,
        payload: &BindPayload,
        rng: &mut SimRng,
    ) -> Outcome {
        let design = self.knobs();
        let src = self.state.sources.resolve(from);
        // Resolve the requesting user and target device per the design's
        // accepted bind shape: the device's slot, or the unknown ID named.
        let (target, user) = match (design.bind, payload) {
            (BindScheme::AclApp, BindPayload::AclApp { dev_id, user_token }) => {
                match self.accounts.verify_token(user_token) {
                    Ok(u) => (self.state.devices.slot(dev_id).ok_or(dev_id), u.clone()),
                    Err(reason) => return Outcome::deny(reason),
                }
            }
            (
                BindScheme::AclDevice,
                BindPayload::AclDevice {
                    dev_id,
                    user_id,
                    user_pw,
                },
            ) => {
                if let Err(reason) = self.accounts.verify_password(user_id, user_pw) {
                    return Outcome::deny(reason);
                }
                (
                    self.state.devices.slot(dev_id).ok_or(dev_id),
                    user_id.clone(),
                )
            }
            (BindScheme::Capability, BindPayload::Capability { bind_token }) => {
                // The capability must be submitted by an authenticated
                // device session — that round trip through the device is
                // the ownership proof.
                let Some(slot) = self.state.sources[src].device() else {
                    return Outcome::deny(DenyReason::DeviceAuthFailed);
                };
                match self.bind_tokens.consume(bind_token) {
                    Ok(u) => (Ok(slot), u),
                    Err(reason) => return Outcome::deny(reason),
                }
            }
            _ => return Outcome::deny(DenyReason::UnsupportedOperation),
        };

        let dev_id = match target {
            Ok(slot) => &self.state.devices[slot].dev_id,
            Err(dev_id) => dev_id,
        };
        self.monitor
            .observe_target(&mut self.state.sources[src], dev_id, now);
        // Defense interventions on the bind path. Both are no-ops under the
        // disabled policy (no limit configured, nothing ever quarantined).
        // The limiter runs before the existence check so ID-space sweeps
        // (which mostly hit unknown IDs) are priced out too.
        if self.defense_bind_limited(src, now) {
            self.record_mitigation(
                Mitigation::RateLimitBind,
                format_args!("from={from}"),
                "bind-rate",
            );
            return Outcome::deny(DenyReason::RateLimited);
        }
        let Ok(slot) = target else {
            return Outcome::deny(DenyReason::UnknownDevice);
        };
        let bind_ip = self.state.sources[src].public_ip();
        let entry = &self.state.devices[slot];
        if entry.is_quarantined(now) && entry.ip != Some(bind_ip) {
            // Only a requester co-located with the device may bind a
            // quarantined DevId; everyone else waits out the window.
            return Outcome::deny(DenyReason::RateLimited);
        }
        if design.checks.bind_requires_online_device && !entry.shadow_state().is_online() {
            return Outcome::deny(DenyReason::DeviceOffline);
        }
        if design.checks.bind_requires_local_proof {
            let record = self.state.devices[slot].record_mut();
            let fresh_button = record.button_at.is_some_and(|at| now - at <= BUTTON_WINDOW);
            let same_ip = record.button_ip == Some(bind_ip);
            if !(fresh_button && same_ip) {
                return Outcome::deny(DenyReason::OwnershipProofFailed);
            }
        }
        let entry = &self.state.devices[slot];
        if design.checks.reject_bind_when_bound && entry.shadow_state().is_bound() {
            let holder = entry.bound_user();
            if holder != Some(&user) {
                if let Some(holder) = holder {
                    self.monitor
                        .observe_bind_denial(&self.state.devices, slot, holder, &user, now);
                }
                return Outcome::deny(DenyReason::AlreadyBound);
            }
        }

        // Accept: create (or replace) the binding.
        let session = if design.checks.post_binding_session {
            Some(SessionToken::from_entropy(rng.entropy128()))
        } else {
            None
        };
        let record = self.state.devices[slot].record_mut();
        let before = record.shadow.state();
        let displaced = record.shadow.on_bind(user.clone());
        let after = record.shadow.state();
        self.track_transition(slot, before, after, now);
        if displaced.is_some() {
            self.metrics.get().bindings_replaced.incr();
        }
        let entry = &mut self.state.devices[slot];
        let dev_id = &entry.dev_id;
        if self.forensics {
            let prev = displaced
                .as_ref()
                .map_or_else(|| "none".to_string(), ToString::to_string);
            self.forensic_marks
                .push(format!("bind dev={dev_id} user={user} displaced={prev}"));
        }
        let dev_id = dev_id.clone();
        let dev_ip = entry.ip;
        let record = entry.record_mut();
        let old_session = record.binding_session;
        record.binding_session = session;
        record.binding_ip = Some(bind_ip);
        record.remote_bind_flagged = false;
        if displaced.is_some() {
            record.guests.clear();
        }
        // The superseded binding token (if any) is retired: anyone still
        // presenting it from an address other than the device's own is a
        // replay.
        if let Some(old) = old_session {
            if Some(old) != session {
                self.monitor.retire_token(slot, old, now);
            }
        }
        if let Some(prev) = &displaced {
            self.monitor.raise(
                now,
                SecurityAlert::BindingReplaced {
                    dev_id: dev_id.clone(),
                    victim: prev.clone(),
                    new_holder: user.clone(),
                },
            );
        }
        // A bind whose source IP has never been co-located with the device
        // is the pre-emptive-occupation signature. If the device has not
        // connected yet, the check re-runs when it does (handle_status).
        if let Some(dev_ip) = dev_ip {
            if dev_ip != bind_ip {
                self.monitor.raise(
                    now,
                    SecurityAlert::RemoteOnlyBind {
                        dev_id,
                        holder: user.clone(),
                        from_ip: bind_ip,
                    },
                );
                record.remote_bind_flagged = true;
            }
        }
        let mut pushes = Vec::new();
        if let Some(prev) = displaced {
            if let Some(node) = self.accounts.node_of(&prev) {
                pushes.push((node, Response::BindingRevoked));
            }
        }
        // In the capability flow the bind arrives from the *device*; the
        // user learns the outcome (and the session token) through a push.
        if design.bind == BindScheme::Capability {
            if let Some(node) = self.accounts.node_of(&user) {
                pushes.push((node, Response::Bound { session }));
            }
        }
        Outcome {
            reply: Response::Bound { session },
            pushes,
        }
    }

    // -- Unbind ---------------------------------------------------------------

    fn handle_unbind(&mut self, from: NodeId, now: Tick, payload: &UnbindPayload) -> Outcome {
        let design = self.knobs();
        let src = self.state.sources.resolve(from);
        let dev_id = payload.dev_id();
        self.monitor
            .observe_target(&mut self.state.sources[src], dev_id, now);
        let Some(slot) = self.state.devices.slot(dev_id) else {
            return Outcome::deny(DenyReason::UnknownDevice);
        };
        let mut requester: Option<UserId> = None;
        match payload {
            UnbindPayload::DevIdUserToken { user_token, .. } => {
                if !design.unbind.dev_id_user_token {
                    return Outcome::deny(DenyReason::UnsupportedOperation);
                }
                let user = match self.accounts.verify_token(user_token) {
                    Ok(u) => u.clone(),
                    Err(reason) => return Outcome::deny(reason),
                };
                let Some(bound) = self.state.devices[slot].bound_user() else {
                    return Outcome::deny(DenyReason::NotBound);
                };
                if design.checks.verify_unbind_is_bound_user && *bound != user {
                    return Outcome::deny(DenyReason::NotBoundUser);
                }
                requester = Some(user);
            }
            UnbindPayload::DevIdOnly { .. } => {
                if !design.unbind.dev_id_only {
                    return Outcome::deny(DenyReason::UnsupportedOperation);
                }
                if !self.state.devices[slot].shadow_state().is_bound() {
                    return Outcome::deny(DenyReason::NotBound);
                }
            }
        }
        let from_ip = self.state.sources[src].public_ip();
        let entry = &mut self.state.devices[slot];
        let dev_ip = entry.ip;
        let record = entry.record_mut();
        let before = record.shadow.state();
        let revoked = record.shadow.on_unbind();
        let after = record.shadow.state();
        let old_session = record.binding_session.take();
        record.guests.clear();
        if let Some(tok) = old_session {
            self.monitor.retire_token(slot, tok, now);
        }
        self.track_transition(slot, before, after, now);
        if self.forensics {
            let who = revoked
                .as_ref()
                .map_or_else(|| "none".to_string(), ToString::to_string);
            self.forensic_marks
                .push(format!("unbind dev={dev_id} revoked={who}"));
        }
        match (payload, &revoked, &requester) {
            // Legitimate resets come from the device's own NAT; a bare
            // unbind from anywhere else is the A3-1 signature.
            (UnbindPayload::DevIdOnly { .. }, _, _) if dev_ip != Some(from_ip) => {
                self.monitor.raise(
                    now,
                    SecurityAlert::BareUnbind {
                        dev_id: dev_id.clone(),
                        from_ip,
                    },
                );
            }
            (UnbindPayload::DevIdUserToken { .. }, Some(victim), Some(req)) if victim != req => {
                self.monitor.raise(
                    now,
                    SecurityAlert::ForeignUnbind {
                        dev_id: dev_id.clone(),
                        victim: victim.clone(),
                        requester: req.clone(),
                    },
                );
            }
            _ => {}
        }
        let mut pushes = Vec::new();
        if let Some(user) = revoked {
            if let Some(node) = self.accounts.node_of(&user) {
                if node != from {
                    pushes.push((node, Response::BindingRevoked));
                }
            }
        }
        Outcome {
            reply: Response::Unbound,
            pushes,
        }
    }

    // -- Control ---------------------------------------------------------------

    fn handle_control(
        &mut self,
        from: NodeId,
        now: Tick,
        dev_id: &DevId,
        user_token: &UserToken,
        session: Option<SessionToken>,
        action: &ControlAction,
    ) -> Outcome {
        let design = self.knobs();
        let src = self.state.sources.resolve(from);
        self.monitor
            .observe_target(&mut self.state.sources[src], dev_id, now);
        let slot = self.state.devices.slot(dev_id);
        // A retired binding token presented on the control path from an
        // address that is not the device's own is the stale-token-replay
        // signature (the paper's stolen-session A1 follow-up). Only a
        // manufactured device has tokens to retire.
        if let (Some(tok), Some(slot)) = (session, slot) {
            let from_ip = self.state.sources[src].public_ip();
            self.monitor
                .observe_presented_token(&self.state.devices, slot, tok, from_ip, now);
        }
        let user = match self.accounts.verify_token(user_token) {
            Ok(u) => u.clone(),
            Err(reason) => return Outcome::deny(reason),
        };
        let Some(slot) = slot else {
            return Outcome::deny(DenyReason::UnknownDevice);
        };
        let entry = &self.state.devices[slot];
        let Some(record) = entry.record.as_ref() else {
            return Outcome::deny(DenyReason::UnknownDevice);
        };
        let Some(bound) = record.shadow.bound_user() else {
            return Outcome::deny(DenyReason::NotBound);
        };
        let is_owner = *bound == user;
        if !is_owner && !record.guests.contains(&user) {
            return Outcome::deny(DenyReason::NotBoundUser);
        }
        if !record.shadow.state().is_online() {
            return Outcome::deny(DenyReason::DeviceOffline);
        }
        let binding_session = record.binding_session;
        if design.checks.post_binding_session {
            // Both sides must hold the binding's session token: the user
            // presents it in the request, the device must have presented it
            // in a status message after receiving it over the local
            // channel. A hijacker can satisfy neither for the real device.
            let device_session = entry.session.as_ref().and_then(|s| s.presented_session);
            if session != binding_session || device_session != binding_session {
                return Outcome::deny(DenyReason::BadSession);
            }
        }
        if design.auth == DeviceAuthScheme::DevToken {
            // The device's session is keyed to the user whose DevToken it
            // authenticated with; a binding by anyone else gets no relay.
            // Guests are covered by the owner's grant, so the comparison is
            // against the *owner*.
            let session_user = entry.session.as_ref().and_then(|s| s.auth_user.as_ref());
            if session_user != Some(bound) {
                return Outcome::deny(DenyReason::BadSession);
            }
        }

        let device_nodes = entry
            .session
            .as_ref()
            .map(|s| s.nodes.clone())
            .unwrap_or_default();
        let mut pushes = Vec::new();
        let reply = match action {
            ControlAction::TurnOn | ControlAction::TurnOff | ControlAction::SetBrightness(_) => {
                for node in &device_nodes {
                    pushes.push((
                        *node,
                        Response::ControlPush {
                            action: action.clone(),
                            session: binding_session,
                        },
                    ));
                }
                Response::ControlOk {
                    schedule: Box::default(),
                    telemetry: Box::default(),
                }
            }
            ControlAction::SetSchedule(entry) => {
                let record = self.state.devices[slot].record_mut();
                record.schedule.push(entry.clone());
                // The schedule is pushed to the device so it can run
                // offline — the channel a forged device session exfiltrates
                // (A1 stealing).
                for node in &device_nodes {
                    pushes.push((
                        *node,
                        Response::ControlPush {
                            action: action.clone(),
                            session: binding_session,
                        },
                    ));
                }
                Response::ControlOk {
                    schedule: Box::default(),
                    telemetry: Box::default(),
                }
            }
            ControlAction::QuerySchedule => Response::ControlOk {
                schedule: record.schedule.as_slice().into(),
                telemetry: Box::default(),
            },
            ControlAction::QueryTelemetry => Response::ControlOk {
                schedule: Box::default(),
                telemetry: record.last_telemetry.as_slice().into(),
            },
        };
        Outcome { reply, pushes }
    }
}

impl CloudService {
    /// Grants (`grant = true`) or revokes a device share. Only the bound
    /// owner may manage shares; grantees must be real accounts.
    fn handle_share(
        &mut self,
        dev_id: &DevId,
        user_token: &UserToken,
        grantee: &UserId,
        grant: bool,
    ) -> Outcome {
        let user = match self.accounts.verify_token(user_token) {
            Ok(u) => u.clone(),
            Err(reason) => return Outcome::deny(reason),
        };
        let Some(slot) = self.state.devices.slot(dev_id) else {
            return Outcome::deny(DenyReason::UnknownDevice);
        };
        let Some(record) = self.state.devices[slot].record.as_mut() else {
            return Outcome::deny(DenyReason::NotBound);
        };
        let Some(bound) = record.shadow.bound_user() else {
            return Outcome::deny(DenyReason::NotBound);
        };
        if *bound != user {
            return Outcome::deny(DenyReason::NotBoundUser);
        }
        if grant && !self.accounts.exists(grantee) {
            return Outcome::deny(DenyReason::UnknownUser);
        }
        // The owner already has full access: granting to them is a no-op.
        if grant && *grantee != user {
            if !record.guests.contains(grantee) {
                record.guests.push(grantee.clone());
            }
        } else if !grant {
            record.guests.retain(|g| g != grantee);
        }
        Outcome::reply(Response::ShareOk {
            session: record.binding_session,
            guests: record.guests.len() as u16,
        })
    }

    /// Diagnostic access to a device's guest list.
    pub fn guests(&self, dev_id: &DevId) -> Vec<UserId> {
        self.state
            .devices
            .get(dev_id)
            .and_then(|entry| entry.record.as_ref())
            .map(|r| r.guests.clone())
            .unwrap_or_default()
    }

    /// Maximum rules stored per account.
    pub const MAX_RULES_PER_USER: usize = 64;

    /// Stores an automation rule after checking the requester controls both
    /// endpoints (owner or guest).
    fn handle_set_rule(&mut self, user_token: &UserToken, rule: &AutomationRule) -> Outcome {
        let user = match self.accounts.verify_token(user_token) {
            Ok(u) => u.clone(),
            Err(reason) => return Outcome::deny(reason),
        };
        for dev in [&rule.trigger_dev, &rule.action_dev] {
            let Some(entry) = self.state.devices.get(dev) else {
                return Outcome::deny(DenyReason::UnknownDevice);
            };
            let authorized = entry
                .record
                .as_ref()
                .is_some_and(|r| r.shadow.bound_user() == Some(&user) || r.guests.contains(&user));
            if !authorized {
                return Outcome::deny(DenyReason::NotBoundUser);
            }
        }
        let rules = self.rules.entry(user).or_default();
        if rules.len() >= Self::MAX_RULES_PER_USER {
            return Outcome::deny(DenyReason::RateLimited);
        }
        rules.push(rule.clone());
        Outcome::reply(Response::RuleSet {
            count: rules.len() as u16,
        })
    }

    /// Evaluates the owner's rules against fresh telemetry from
    /// `trigger_dev`; returns the control pushes for fired actions.
    fn fire_rules(
        &self,
        owner: UserId,
        trigger_dev: &DevId,
        telemetry: &[rb_wire::telemetry::TelemetryFrame],
    ) -> Vec<(NodeId, Response)> {
        let Some(rules) = self.rules.get(&owner) else {
            return Vec::new();
        };
        let mut pushes = Vec::new();
        let fired = rules.iter().filter(|r| {
            r.trigger_dev == *trigger_dev && telemetry.iter().any(|f| r.trigger.matches(f))
        });
        for rule in fired {
            // Re-check authorization at fire time: the action device must
            // still belong to the rule owner.
            let Some(entry) = self.state.devices.get(&rule.action_dev) else {
                continue;
            };
            let Some(record) = entry.record.as_ref() else {
                continue;
            };
            if record.shadow.bound_user() != Some(&owner) {
                continue;
            }
            for &node in entry.session.iter().flat_map(|s| &s.nodes) {
                pushes.push((
                    node,
                    Response::ControlPush {
                        action: rule.action.clone(),
                        session: record.binding_session,
                    },
                ));
            }
        }
        pushes
    }

    /// Diagnostic access to a user's rule count.
    pub fn rule_count(&self, user: &UserId) -> usize {
        self.rules.get(user).map(Vec::len).unwrap_or(0)
    }
}

impl Actor for CloudService {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(HEARTBEAT_TIMEOUT / 2, TIMER_EXPIRE);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: bytes::Bytes) {
        // One tally per wire-level decode attempt, garbage included: the
        // codec leg of the request round-trip.
        self.profiler.tally("cloud.decode", 0);
        // Header first: responses and garbage are dropped here, before any
        // body is read; a real cloud would log.
        let Ok(frame) = Frame::read(&payload) else {
            return;
        };
        let (corr, Some(kind)) = (frame.corr, frame.request) else {
            return;
        };
        let Some(outcome) = self.serve(ctx, from, kind, frame) else {
            return;
        };
        // One tally per served request: a rejected body was dropped above.
        self.profiler.tally("cloud.dispatch", 0);
        if self.forensics {
            for (node, rsp) in &outcome.pushes {
                self.forensic_marks
                    .push(format!("push {} to={node}", rsp.kind_str()));
            }
            // Marks are drained before the sends so a forensic reader sees
            // the cloud's statements about a request ahead of the replies
            // they explain; all carry the request packet's trace context.
            for text in self.take_forensic_marks() {
                ctx.mark(text);
            }
        }
        self.profiler.tally("cloud.encode", 0);
        ctx.send(
            Dest::Unicast(from),
            Envelope::Response {
                corr,
                rsp: outcome.reply,
            }
            .encode(),
        );
        for (node, rsp) in outcome.pushes {
            self.profiler.tally("cloud.encode", 0);
            ctx.send(Dest::Unicast(node), Envelope::push(rsp).encode());
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        if key == TIMER_EXPIRE {
            let now = ctx.now();
            self.expire(now);
            // Expiry marks root fresh traces: nothing on the wire caused
            // them, the passage of time did.
            for text in self.take_forensic_marks() {
                ctx.mark(text);
            }
            ctx.set_timer(HEARTBEAT_TIMEOUT / 2, TIMER_EXPIRE);
        }
    }
}

impl std::fmt::Debug for CloudService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudService")
            .field("vendor", &self.config.design.vendor)
            .field("devices", &self.state.devices.len())
            .finish()
    }
}
