//! The companion-app actor.

use std::collections::VecDeque;

use rb_core::design::{BindScheme, DeviceAuthScheme, SetupOrder, VendorDesign};
use rb_netsim::telemetry::{Counter, Handles, SpanId};
use rb_netsim::{Actor, Ctx, Dest, LanId, NodeId, Retry, RetryPolicy, Telemetry, Tick, TimerKey};
use rb_provision::apmode::{PairingMaterial, ProvisionReply, ProvisionRequest};
use rb_provision::discovery::{SearchRequest, SearchResponse, SearchTarget};
use rb_provision::localctl::LocalCtl;
use rb_provision::WifiCredentials;
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::DevId;
use rb_wire::messages::{BindPayload, ControlAction, DenyReason, Message, Response, UnbindPayload};
use rb_wire::telemetry::TelemetryFrame;
use rb_wire::tokens::{BindToken, DevToken, SessionToken, UserId, UserPw, UserToken};

/// The grid the app acts on: a step is (re)sent, a wait window ends, or a
/// queued user action goes out only at `start + k * POLL_EVERY`, where
/// `start` is the last start or power-on. The app arms one timer for the
/// next grid point at which something is due, and none while idle.
pub(crate) const POLL_EVERY: u64 = 20;

/// The backoff base: the resend period for an unanswered step, and the wait
/// before the first resend of a denied one. Each further resend of a denied
/// step waits twice as long as the last.
pub(crate) const RETRY_EVERY: u64 = 400;

/// Upper bound on the backed-off resend period, for unanswered and denied
/// steps alike.
pub(crate) const RETRY_CAP: u64 = 3_200;

/// Jitter on the resend delays of unanswered steps, in per-mille of the
/// delay. Denied steps back off without jitter.
pub(crate) const RETRY_JITTER_PER_MILLE: u16 = 250;

/// Consecutive unanswered resends of one step before the app gives up
/// ([`AppEvent::GaveUp`]) instead of wedging. Answered steps — even denials
/// — reset the count, so a denied step is resent forever on its backoff
/// schedule and never gives up.
pub(crate) const RETRY_BUDGET: u32 = 24;

/// Home Wi-Fi credentials the app provisions into the device.
fn home_wifi() -> WifiCredentials {
    WifiCredentials::new("HomeNet", "home-psk-123")
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy::new(RETRY_EVERY, RETRY_CAP)
        .jitter(RETRY_JITTER_PER_MILLE)
        .budget(RETRY_BUDGET)
}

/// Static configuration of one app instance.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// The vendor design the app implements.
    pub(crate) design: VendorDesign,
    /// The cloud's node.
    pub(crate) cloud: NodeId,
    /// The home LAN the phone is on.
    pub(crate) lan: LanId,
    /// Account identifier.
    pub(crate) user_id: UserId,
    /// Account password.
    pub(crate) user_pw: UserPw,
    /// Device ID read off the printed label, for designs whose setup binds
    /// before the device is online (`SetupOrder::BindFirst`).
    pub known_label: Option<DevId>,
    /// Human delay between device setup and completing the binding in the
    /// app — the A4-2 window.
    pub user_bind_delay: u64,
}

impl AppConfig {
    /// A configuration with sensible defaults (5 s human delay, no known
    /// label).
    pub fn new(
        design: VendorDesign,
        cloud: NodeId,
        lan: LanId,
        user_id: UserId,
        user_pw: UserPw,
    ) -> Self {
        AppConfig {
            design,
            cloud,
            lan,
            user_id,
            user_pw,
            known_label: None,
            user_bind_delay: 5_000,
        }
    }
}

/// Events the app observed (for assertions and experiment output).
#[derive(Debug, Clone, PartialEq)]
pub enum AppEvent {
    /// Logged in.
    LoggedIn,
    /// Device discovered on the LAN.
    Discovered(DevId),
    /// Provisioning accepted by the device.
    Provisioned,
    /// Binding created.
    Bound,
    /// A request was denied.
    Denied(DenyReason),
    /// The cloud told us our binding is gone.
    BindingRevoked,
    /// Telemetry arrived from "our" device.
    Telemetry(Vec<TelemetryFrame>),
    /// A control round-trip completed.
    ControlOk,
    /// The retry budget ran out with the cloud unreachable: the setup flow
    /// aborted cleanly (an error dialog, not a spinner).
    GaveUp,
}

/// Counters for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppStats {
    /// Bind attempts sent.
    pub bind_attempts: u64,
    /// Denials received.
    pub denials: u64,
    /// Telemetry pushes received.
    pub telemetry_pushes: u64,
    /// Times the binding was revoked under us.
    pub(crate) revocations: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Login,
    ReqDevToken,
    ReqBindToken,
    Discover,
    Provision,
    WaitWindow,
    Bind,
    AwaitDeviceBind,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Await {
    None,
    Response(CorrId),
    Discovery,
    ProvisionReply,
    /// The last send was denied: resend once `cur_delay` has passed.
    Backoff,
}

/// The app agent's counters, registered once per telemetry handle.
#[derive(Debug, Default)]
struct AppMetrics {
    binds: Counter,
    bind_attempts: Counter,
    denials: Counter,
    revocations: Counter,
    retries: Counter,
    giveups: Counter,
    telemetry_pushes: Counter,
}

impl AppMetrics {
    fn register(t: &Telemetry) -> Self {
        AppMetrics {
            binds: t.register_counter("app_binds_total"),
            bind_attempts: t.register_counter("app_bind_attempts_total"),
            denials: t.register_counter("app_denials_total"),
            revocations: t.register_counter("app_revocations_total"),
            retries: t.register_counter("app_retries_total"),
            giveups: t.register_counter("app_giveups_total"),
            telemetry_pushes: t.register_counter("app_telemetry_pushes_total"),
        }
    }
}

/// The companion-app actor. See the [crate docs](crate) for the flow.
#[derive(Debug)]
pub struct AppAgent {
    config: AppConfig,
    steps: Vec<Step>,
    step_idx: usize,
    awaiting: Await,
    entered_step_at: Tick,
    last_send_at: Tick,
    // Credentials and material.
    user_token: Option<UserToken>,
    dev_token: Option<DevToken>,
    bind_token: Option<BindToken>,
    session: Option<SessionToken>,
    // Discovered device.
    device_node: Option<NodeId>,
    dev_id: Option<DevId>,
    // Outcome state.
    bound: bool,
    /// Backoff state for the current step's resends.
    retry: Retry,
    /// Current resend timeout (grows with the backoff schedule).
    cur_delay: u64,
    /// Set when the retry budget ran out: the flow has cleanly aborted and
    /// no timer is armed.
    aborted: bool,
    /// Origin of the action grid (the last start or power-on).
    grid_origin: Tick,
    /// The last grid point [`AppAgent::poll`] ran at.
    polled_at: Tick,
    /// Fire time of the one live deadline timer, if any.
    armed: Option<Tick>,
    /// Key of the live deadline timer; re-arming bumps it, so a timer
    /// superseded before it fires is ignored.
    timer_gen: TimerKey,
    /// Shared metrics registry and the agent's handles on it (a private
    /// default until the harness wires in the world-wide one via
    /// [`AppAgent::set_telemetry`]).
    metrics: Handles<AppMetrics>,
    /// Open `app_setup` span: flow start until the binding lands. Give-ups
    /// leave it open, so `span_ticks{name="app_setup"}` holds only
    /// converged setups.
    setup_span: Option<SpanId>,
    corr: u64,
    control_queue: VecDeque<(Option<DevId>, ControlAction)>,
    share_queue: VecDeque<(UserId, bool)>,
    unbind_queued: bool,
    /// Observed events, in order.
    pub events: Vec<AppEvent>,
    /// Counters.
    pub stats: AppStats,
    /// Schedule entries returned by the last `QuerySchedule`.
    pub last_schedule: Vec<rb_wire::telemetry::ScheduleEntry>,
    /// Telemetry returned by the last `QueryTelemetry`.
    pub(crate) last_queried_telemetry: Vec<TelemetryFrame>,
}

impl AppAgent {
    /// Creates an app ready to run the setup flow for its design.
    pub fn new(config: AppConfig) -> Self {
        let mut steps = vec![Step::Login];
        if config.design.auth == DeviceAuthScheme::DevToken {
            steps.push(Step::ReqDevToken);
        }
        if config.design.bind == BindScheme::Capability {
            steps.push(Step::ReqBindToken);
        }
        match (config.design.setup_order, config.design.bind) {
            (SetupOrder::BindFirst, BindScheme::AclApp) => {
                // The user types the label in first, binds, then sets the
                // device up.
                steps.push(Step::Bind);
                steps.push(Step::Discover);
                steps.push(Step::Provision);
            }
            (_, BindScheme::AclApp) => {
                steps.push(Step::Discover);
                steps.push(Step::Provision);
                steps.push(Step::WaitWindow);
                steps.push(Step::Bind);
            }
            (_, BindScheme::AclDevice | BindScheme::Capability) => {
                steps.push(Step::Discover);
                steps.push(Step::Provision);
                steps.push(Step::AwaitDeviceBind);
            }
        }
        steps.push(Step::Done);
        AppAgent {
            config,
            steps,
            step_idx: 0,
            awaiting: Await::None,
            entered_step_at: Tick::ZERO,
            last_send_at: Tick::ZERO,
            user_token: None,
            dev_token: None,
            bind_token: None,
            session: None,
            device_node: None,
            dev_id: None,
            bound: false,
            retry: Retry::new(retry_policy()),
            cur_delay: RETRY_EVERY,
            aborted: false,
            grid_origin: Tick::ZERO,
            polled_at: Tick::ZERO,
            armed: None,
            timer_gen: 0,
            metrics: Handles::new(Telemetry::new(), AppMetrics::register),
            setup_span: None,
            corr: 0,
            control_queue: VecDeque::new(),
            share_queue: VecDeque::new(),
            unbind_queued: false,
            events: Vec::new(),
            stats: AppStats::default(),
            last_schedule: Vec::new(),
            last_queried_telemetry: Vec::new(),
        }
    }

    /// Points the agent at a shared metrics registry. Call before the sim
    /// starts so every counter lands in the world-wide snapshot.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = Handles::new(telemetry, AppMetrics::register);
    }

    /// Whether the setup flow completed and the binding is (still) held.
    pub fn is_bound(&self) -> bool {
        self.bound
    }

    /// Whether the setup flow has reached its final step.
    pub fn setup_complete(&self) -> bool {
        self.steps[self.step_idx] == Step::Done
    }

    /// Whether the app ran out of retry budget and cleanly aborted the
    /// flow (it will stay silent until [`AppAgent::restart_setup`]).
    pub fn gave_up(&self) -> bool {
        self.aborted
    }

    /// Queues a remote-control action on the paired device (runs once
    /// bound).
    pub fn queue_control(&mut self, action: ControlAction) {
        self.control_queue.push_back((None, action));
    }

    /// Queues a remote-control action on an arbitrary device — e.g. one
    /// another user shared with this account.
    pub fn queue_control_device(&mut self, dev_id: DevId, action: ControlAction) {
        self.control_queue.push_back((Some(dev_id), action));
    }

    /// Queues a share grant (`grant = true`) or revocation for the paired
    /// device.
    pub fn queue_share(&mut self, grantee: UserId, grant: bool) {
        self.share_queue.push_back((grantee, grant));
    }

    /// Queues an unbind request ("remove device" in the app).
    pub fn queue_unbind(&mut self) {
        self.unbind_queued = true;
    }

    /// Restarts the setup flow from the top — the user tapping "add
    /// device" again after a revocation or a give-up. Credentials and
    /// discovery results are re-acquired from scratch, starting at the next
    /// grid point after the wake this mutation schedules.
    pub fn restart_setup(&mut self) {
        self.step_idx = 0;
        self.awaiting = Await::None;
        self.entered_step_at = Tick::ZERO;
        self.last_send_at = Tick::ZERO;
        self.bound = false;
        self.reset_retry();
        self.aborted = false;
        // Abandon (don't close) the previous attempt's span: an unclosed
        // span marks a setup that never converged, and the next poll opens
        // a fresh one for the new attempt.
        self.setup_span = None;
    }

    /// Opens the `app_setup` span unless one is already running or the
    /// binding is already held (BindFirst designs bind mid-flow).
    fn begin_setup_span(&mut self, now: Tick) {
        if self.setup_span.is_some() || self.bound || self.setup_complete() {
            return;
        }
        self.setup_span = Some(rb_telemetry::span!(
            self.metrics.telemetry(),
            now.as_u64(),
            "app_setup",
            user = self.config.user_id,
        ));
    }

    /// Marks the binding as held: counts it and closes the setup span.
    fn note_bound(&mut self, now: Tick) {
        self.metrics.get().binds.incr();
        if let Some(id) = self.setup_span.take() {
            self.metrics.telemetry().end_span(id, now.as_u64());
        }
    }

    /// Fresh backoff state: called whenever the peer answered (the budget
    /// counts only *consecutive* unanswered sends) or a new step starts.
    fn reset_retry(&mut self) {
        self.retry.reset();
        self.cur_delay = RETRY_EVERY;
    }

    fn current_step(&self) -> Step {
        self.steps[self.step_idx]
    }

    fn advance(&mut self, now: Tick) {
        self.step_idx = (self.step_idx + 1).min(self.steps.len() - 1);
        self.awaiting = Await::None;
        self.entered_step_at = now;
        self.last_send_at = Tick::ZERO;
        self.reset_retry();
    }

    fn send_request(&mut self, ctx: &mut Ctx<'_>, msg: Message) -> CorrId {
        self.corr += 1;
        let corr = CorrId(self.corr);
        let env = Envelope::Request { corr, msg };
        ctx.send(Dest::Unicast(self.config.cloud), env.encode());
        self.last_send_at = ctx.now();
        corr
    }

    fn enter_step(&mut self, ctx: &mut Ctx<'_>) {
        match self.current_step() {
            Step::Login => {
                let corr = self.send_request(
                    ctx,
                    Message::Login {
                        user_id: self.config.user_id.clone(),
                        user_pw: self.config.user_pw.clone(),
                    },
                );
                self.awaiting = Await::Response(corr);
            }
            Step::ReqDevToken => {
                if let Some(user_token) = self.user_token {
                    let corr = self.send_request(ctx, Message::RequestDevToken { user_token });
                    self.awaiting = Await::Response(corr);
                }
            }
            Step::ReqBindToken => {
                if let Some(user_token) = self.user_token {
                    let corr = self.send_request(ctx, Message::RequestBindToken { user_token });
                    self.awaiting = Await::Response(corr);
                }
            }
            Step::Discover => {
                let req = SearchRequest {
                    target: SearchTarget::Vendor(self.config.design.vendor.clone()),
                };
                ctx.send(Dest::Broadcast(self.config.lan), req.encode());
                self.last_send_at = ctx.now();
                self.awaiting = Await::Discovery;
            }
            Step::Provision => {
                let Some(device_node) = self.device_node else {
                    return;
                };
                let pairing = PairingMaterial {
                    dev_token: self.dev_token.map(|t| *t.as_bytes()),
                    bind_token: self.bind_token.map(|t| *t.as_bytes()),
                    user_credentials: if self.config.design.bind == BindScheme::AclDevice {
                        Some((
                            self.config.user_id.as_str().to_owned(),
                            self.config.user_pw.expose().to_owned(),
                        ))
                    } else {
                        None
                    },
                };
                let req = ProvisionRequest {
                    wifi: home_wifi(),
                    pairing,
                };
                ctx.send(Dest::Unicast(device_node), req.encode());
                self.last_send_at = ctx.now();
                self.awaiting = Await::ProvisionReply;
            }
            Step::WaitWindow => {
                // Human at work; nothing on the wire.
                self.awaiting = Await::None;
            }
            Step::Bind => {
                let Some(user_token) = self.user_token else {
                    return;
                };
                let dev_id = match (&self.dev_id, &self.config.known_label) {
                    (Some(id), _) => id.clone(),
                    (None, Some(label)) => label.clone(),
                    (None, None) => return,
                };
                self.dev_id = Some(dev_id.clone());
                let corr = self.send_request(
                    ctx,
                    Message::Bind(BindPayload::AclApp { dev_id, user_token }),
                );
                self.stats.bind_attempts += 1;
                self.metrics.get().bind_attempts.incr();
                self.awaiting = Await::Response(corr);
            }
            Step::AwaitDeviceBind => {
                // Poll the shadow until the device-side bind lands.
                if let Some(dev_id) = self.dev_id.clone() {
                    let corr = self.send_request(ctx, Message::QueryShadow { dev_id });
                    self.awaiting = Await::Response(corr);
                }
            }
            Step::Done => {}
        }
    }

    fn on_step_response(&mut self, ctx: &mut Ctx<'_>, rsp: &Response) {
        let now = ctx.now();
        match (self.current_step(), rsp) {
            (Step::Login, Response::LoginOk { user_token }) => {
                self.user_token = Some(*user_token);
                self.events.push(AppEvent::LoggedIn);
                self.advance(now);
            }
            (Step::ReqDevToken, Response::DevTokenIssued { dev_token }) => {
                self.dev_token = Some(*dev_token);
                self.advance(now);
            }
            (Step::ReqBindToken, Response::BindTokenIssued { bind_token }) => {
                self.bind_token = Some(*bind_token);
                self.advance(now);
            }
            (Step::Bind, Response::Bound { session }) => {
                self.bound = true;
                self.note_bound(now);
                self.session = *session;
                self.events.push(AppEvent::Bound);
                ctx.mark("app bound");
                // Deliver the session token to the device over the LAN.
                if let (Some(s), Some(node)) = (session, self.device_node) {
                    ctx.send(
                        Dest::Unicast(node),
                        LocalCtl::SessionAssign {
                            token: *s.as_bytes(),
                        }
                        .encode(),
                    );
                }
                self.advance(now);
            }
            (Step::AwaitDeviceBind, Response::ShadowState { bound: true, .. }) => {
                self.bound = true;
                self.note_bound(now);
                self.events.push(AppEvent::Bound);
                self.advance(now);
            }
            (Step::AwaitDeviceBind, Response::ShadowState { bound: false, .. }) => {
                // Keep polling.
                self.awaiting = Await::None;
            }
            (_, Response::Denied { reason }) => {
                self.events.push(AppEvent::Denied(*reason));
                self.stats.denials += 1;
                self.metrics.get().denials.incr();
                // Resend the step once the backoff delay has passed.
                self.awaiting = Await::Backoff;
            }
            _ => {}
        }
    }

    fn handle_push(&mut self, ctx: &mut Ctx<'_>, rsp: Response) {
        match rsp {
            Response::TelemetryPush { telemetry, .. } => {
                self.stats.telemetry_pushes += 1;
                self.metrics.get().telemetry_pushes.incr();
                self.events.push(AppEvent::Telemetry(telemetry));
            }
            Response::BindingRevoked => {
                self.bound = false;
                self.stats.revocations += 1;
                self.metrics.get().revocations.incr();
                self.events.push(AppEvent::BindingRevoked);
                // Causally tied to whatever message displaced the binding —
                // the victim-side evidence in a forensic reconstruction.
                ctx.mark("app binding-revoked");
            }
            Response::Bound { session } => {
                // Capability designs: the cloud tells the user the device
                // confirmed the binding.
                self.bound = true;
                self.note_bound(ctx.now());
                self.session = session;
                self.events.push(AppEvent::Bound);
                ctx.mark("app bound");
                if let (Some(s), Some(node)) = (session, self.device_node) {
                    ctx.send(
                        Dest::Unicast(node),
                        LocalCtl::SessionAssign {
                            token: *s.as_bytes(),
                        }
                        .encode(),
                    );
                }
            }
            _ => {}
        }
    }

    fn pump_user_actions(&mut self, ctx: &mut Ctx<'_>) {
        if !self.setup_complete() {
            return;
        }
        if self.unbind_queued {
            if let (Some(user_token), Some(dev_id)) = (self.user_token, self.dev_id.clone()) {
                self.send_request(
                    ctx,
                    Message::Unbind(UnbindPayload::DevIdUserToken { dev_id, user_token }),
                );
                self.unbind_queued = false;
            }
        }
        if let Some((grantee, grant)) = self.share_queue.pop_front() {
            if let (Some(user_token), Some(dev_id)) = (self.user_token, self.dev_id.clone()) {
                let msg = if grant {
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
                };
                self.send_request(ctx, msg);
            }
        }
        if self.control_ready() {
            if let Some((target, action)) = self.control_queue.pop_front() {
                let dev_id = target.or_else(|| self.dev_id.clone());
                if let (Some(user_token), Some(dev_id)) = (self.user_token, dev_id) {
                    self.send_request(
                        ctx,
                        Message::Control {
                            dev_id,
                            user_token,
                            session: self.session,
                            action,
                        },
                    );
                }
            }
        }
    }

    /// Controls on the paired device wait until our own binding exists;
    /// controls on an explicitly named (shared) device only need a login.
    fn control_ready(&self) -> bool {
        match self.control_queue.front() {
            Some((None, _)) => self.bound,
            Some((Some(_), _)) => true,
            None => false,
        }
    }

    /// The earliest tick at which [`AppAgent::poll`] would act, or `None`
    /// when it would do nothing at any grid point until a packet, a wake or
    /// a power-on changes the state.
    fn next_due(&self, now: Tick) -> Option<Tick> {
        if self.aborted {
            return None;
        }
        if self.setup_span.is_none() && !self.bound && !self.setup_complete() {
            // The poll opens the span of a restarted attempt.
            return Some(now);
        }
        match self.current_step() {
            Step::Done => {
                let unbind =
                    self.unbind_queued && self.user_token.is_some() && self.dev_id.is_some();
                (unbind || !self.share_queue.is_empty() || self.control_ready()).then_some(now)
            }
            Step::WaitWindow => Some(
                self.entered_step_at
                    .saturating_add(self.config.user_bind_delay),
            ),
            _ if self.awaiting == Await::None || self.last_send_at == Tick::ZERO => Some(now),
            _ => Some(self.last_send_at.saturating_add(self.cur_delay)),
        }
    }

    /// The first grid point at or after `t` (grid points lie strictly after
    /// the origin).
    fn grid_point_at_or_after(&self, t: Tick) -> Tick {
        let since = (t - self.grid_origin).max(1);
        self.grid_origin
            .saturating_add(since.div_ceil(POLL_EVERY).saturating_mul(POLL_EVERY))
    }

    /// Re-anchors the action grid at `now`: a start or power-on.
    fn start_grid(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.grid_origin = now;
        self.entered_step_at = now;
        self.begin_setup_span(now);
        self.enter_step(ctx);
        self.schedule(ctx);
    }

    /// Arms the deadline timer for the first grid point at which the poll
    /// would act, keeps it if it is already armed there, and disarms it
    /// when nothing is due. Called after every callback that can change
    /// what is due.
    fn schedule(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let next = self.next_due(now).map(|due| {
            // A timer still pending at `now` keeps this grid point's poll
            // ahead; otherwise the poll at `now` has run or was not needed.
            let earliest = if self.armed == Some(now) {
                now
            } else {
                now + 1
            };
            self.grid_point_at_or_after(due.max(earliest))
        });
        if next == self.armed {
            return;
        }
        self.timer_gen += 1;
        self.armed = next;
        if let Some(at) = next {
            ctx.set_timer(at - now, self.timer_gen);
        }
    }

    /// The progress step run at a grid point: (re)sends the current step,
    /// ends a wait window, or sends one round of queued user actions. It
    /// does nothing when nothing is due, so running it at any grid point is
    /// safe; the deadline timer fires only where it acts.
    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.polled_at = now;
        if self.aborted {
            return;
        }
        // A restart after a give-up re-enters here with no span running.
        self.begin_setup_span(now);
        match self.current_step() {
            Step::Done => self.pump_user_actions(ctx),
            Step::WaitWindow => {
                if now - self.entered_step_at >= self.config.user_bind_delay {
                    self.advance(now);
                    self.enter_step(ctx);
                }
            }
            _ => {
                if self.awaiting == Await::None {
                    // Not waiting on an answer (fresh step, or the last
                    // answer told us to poll again): send at grid cadence.
                    self.enter_step(ctx);
                } else {
                    let stale = self.last_send_at == Tick::ZERO
                        || now - self.last_send_at >= self.cur_delay;
                    if stale && self.awaiting == Await::Backoff {
                        // Denied: resend after `cur_delay`, doubling it up
                        // to the cap. A denial is an answer, so this spends
                        // no budget and never gives up.
                        self.cur_delay = self.cur_delay.saturating_mul(2).min(RETRY_CAP);
                        self.enter_step(ctx);
                    } else if stale {
                        // Unanswered past the current timeout: resend with
                        // backoff, or give up when the budget is spent.
                        match self.retry.next(ctx.rng()) {
                            Some(delay) => {
                                self.cur_delay = delay;
                                self.metrics.get().retries.incr();
                                self.metrics
                                    .telemetry()
                                    .rate_event("app_retries", now.as_u64());
                                self.enter_step(ctx);
                            }
                            None => {
                                // Clean abort: no timer is re-armed, the
                                // actor goes silent, and the sim can quiesce.
                                self.aborted = true;
                                self.metrics.get().giveups.incr();
                                self.events.push(AppEvent::GaveUp);
                            }
                        }
                    }
                }
            }
        }
    }

    fn handle_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &bytes::Bytes) {
        if from == self.config.cloud {
            match Envelope::decode(payload) {
                Ok(Envelope::Response {
                    corr: CorrId(0),
                    rsp,
                }) => {
                    self.handle_push(ctx, rsp);
                }
                Ok(Envelope::Response { corr, rsp }) => {
                    if self.awaiting == Await::Response(corr) {
                        // An answer — even a denial — means the path works;
                        // only consecutive silence burns the retry budget. A
                        // denial keeps the backoff delay, which grows on
                        // each resend of the denied step.
                        if matches!(rsp, Response::Denied { .. }) {
                            self.retry.reset();
                        } else {
                            self.reset_retry();
                        }
                        self.on_step_response(ctx, &rsp);
                    } else {
                        match rsp {
                            Response::ControlOk {
                                schedule,
                                telemetry,
                            } => {
                                self.last_schedule = schedule;
                                self.last_queried_telemetry = telemetry;
                                self.events.push(AppEvent::ControlOk);
                            }
                            Response::Denied { reason } => {
                                self.stats.denials += 1;
                                self.metrics.get().denials.incr();
                                self.events.push(AppEvent::Denied(reason));
                            }
                            Response::Unbound => self.bound = false,
                            other => self.handle_push(ctx, other),
                        }
                    }
                }
                _ => {}
            }
            return;
        }
        // LAN traffic.
        if self.awaiting == Await::Discovery {
            if let Ok(rsp) = SearchResponse::decode(payload) {
                if rsp.vendor == self.config.design.vendor {
                    self.device_node = Some(from);
                    self.dev_id = Some(rsp.dev_id.clone());
                    self.events.push(AppEvent::Discovered(rsp.dev_id));
                    let now = ctx.now();
                    self.advance(now);
                    self.enter_step(ctx);
                }
            }
            return;
        }
        if self.awaiting == Await::ProvisionReply {
            if let Ok(ProvisionReply::Accepted { .. }) = ProvisionReply::decode(payload) {
                self.events.push(AppEvent::Provisioned);
                let now = ctx.now();
                self.advance(now);
                self.enter_step(ctx);
            }
        }
    }
}

impl Actor for AppAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.start_grid(ctx);
    }

    fn on_power(&mut self, ctx: &mut Ctx<'_>, powered: bool) {
        if powered {
            if self.aborted {
                // The flow already gave up; a reboot does not resurrect it
                // (only `restart_setup` does).
                return;
            }
            // Phone back on: resume (or start) the flow on a fresh grid. A
            // timer dropped while powered off is superseded here.
            self.reset_retry();
            self.start_grid(ctx);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &bytes::Bytes) {
        self.handle_packet(ctx, from, payload);
        self.schedule(ctx);
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        // Something was queued or restarted from outside. If this tick is a
        // grid point whose poll has not run, this wake is that poll.
        let now = ctx.now();
        let on_grid = now > self.grid_origin && self.grid_point_at_or_after(now) == now;
        if on_grid && self.polled_at != now && self.armed != Some(now) {
            self.poll(ctx);
        }
        self.schedule(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        if key != self.timer_gen {
            // Superseded by a later re-arm.
            return;
        }
        self.armed = None;
        self.poll(ctx);
        self.schedule(ctx);
    }
}

#[cfg(test)]
mod tests {
    // Test code: panicking on unexpected state is the correct failure mode.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use rb_core::vendors;
    use rb_netsim::{LinkQuality, NodeConfig, Simulation};

    const LAN: LanId = LanId(0);
    const VENDOR: &str = "MockVendor";

    fn label() -> DevId {
        DevId::Uuid(0xB0B)
    }

    /// Logs every user in and denies the first `deny_binds` binds as
    /// already bound (every bind when `None`), recording when each bind
    /// arrived.
    struct DenyingCloud {
        deny_binds: Option<usize>,
        bind_ticks: Vec<u64>,
    }

    impl Actor for DenyingCloud {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &bytes::Bytes) {
            let Ok(Envelope::Request { corr, msg }) = Envelope::decode(payload) else {
                return;
            };
            let rsp = match msg {
                Message::Login { .. } => Response::LoginOk {
                    user_token: UserToken::from_entropy(1),
                },
                Message::Bind(_) => {
                    self.bind_ticks.push(ctx.now().as_u64());
                    if self.deny_binds.is_none_or(|n| self.bind_ticks.len() <= n) {
                        Response::Denied {
                            reason: DenyReason::AlreadyBound,
                        }
                    } else {
                        Response::Bound { session: None }
                    }
                }
                _ => return,
            };
            ctx.send(
                Dest::Unicast(from),
                Envelope::Response { corr, rsp }.encode(),
            );
        }
    }

    /// Answers discovery and accepts provisioning, so a flow that gets past
    /// its bind runs to the end.
    struct LanDevice;

    impl Actor for LanDevice {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &bytes::Bytes) {
            if SearchRequest::decode(payload).is_ok() {
                let rsp = SearchResponse {
                    vendor: VENDOR.into(),
                    model: "unit".into(),
                    dev_id: label(),
                };
                ctx.send(Dest::Unicast(from), rsp.encode());
            } else if ProvisionRequest::decode(payload).is_ok() {
                let reply = ProvisionReply::Accepted {
                    device_info: "ok".into(),
                };
                ctx.send(Dest::Unicast(from), reply.encode());
            }
        }
    }

    /// Runs a D-LINK-style flow (log in, then bind the printed label first)
    /// against a cloud that denies `deny_binds` binds, until `until`, and
    /// hands the app and the cloud's bind arrival ticks to `check`.
    fn run(deny_binds: Option<usize>, until: u64, check: impl FnOnce(&AppAgent, &[u64])) {
        let mut design = vendors::d_link();
        design.vendor = VENDOR.into();
        let mut sim = Simulation::with_quality(9, LinkQuality::perfect(), LinkQuality::perfect());
        let cloud = sim.add_node(
            NodeConfig::wan_only("cloud"),
            Box::new(DenyingCloud {
                deny_binds,
                bind_ticks: Vec::new(),
            }),
        );
        sim.add_node(NodeConfig::dual("device", LAN), Box::new(LanDevice));
        let mut config = AppConfig::new(design, cloud, LAN, UserId::new("u"), UserPw::new("p"));
        config.known_label = Some(label());
        let app = sim.add_node(
            NodeConfig::dual("app", LAN),
            Box::new(AppAgent::new(config)),
        );
        sim.run_until(Tick(until));
        let binds = &sim.actor::<DenyingCloud>(cloud).unwrap().bind_ticks;
        check(sim.actor::<AppAgent>(app).unwrap(), binds);
    }

    fn gaps(ticks: &[u64]) -> Vec<u64> {
        ticks.windows(2).map(|w| w[1] - w[0]).collect()
    }

    #[test]
    fn denied_resends_double_from_retry_every_up_to_retry_cap() {
        run(None, 30_000, |app, binds| {
            let (every, cap) = (RETRY_EVERY, RETRY_CAP);
            assert_eq!(cap, every * 8, "the schedule below assumes these values");
            let expected = [every, 2 * every, 4 * every, cap, cap, cap, cap];
            assert!(binds.len() > expected.len(), "{binds:?}");
            assert_eq!(gaps(binds)[..expected.len()], expected[..], "{binds:?}");
            assert!(gaps(binds).iter().all(|&g| g <= cap), "{binds:?}");
            assert_eq!(app.stats.denials, binds.len() as u64);
        });
    }

    #[test]
    fn denials_spend_no_retry_budget_and_never_give_up() {
        run(None, 200_000, |app, binds| {
            // Were denials spending the budget, the app would have given
            // up after `RETRY_BUDGET` resends.
            let resends = binds.len() - 1;
            assert!(resends > RETRY_BUDGET as usize, "{binds:?}");
            assert!(!app.gave_up());
            assert!(!app.events.contains(&AppEvent::GaveUp));
            assert_eq!(app.retry.attempts(), 0);
            assert!(!app.is_bound());
            // Still retrying at the end: the last bind went out within one
            // capped period of the horizon.
            let last = *binds.last().unwrap();
            assert!(200_000 - last <= RETRY_CAP, "{binds:?}");
        });
    }

    #[test]
    fn a_bound_answer_resets_the_backoff() {
        run(Some(3), 30_000, |app, binds| {
            let every = RETRY_EVERY;
            assert_eq!(gaps(binds), [every, 2 * every, 4 * every], "{binds:?}");
            assert!(app.is_bound());
            assert!(app.setup_complete(), "{:?}", app.events);
            assert_eq!(app.cur_delay, every);
            assert_eq!(app.retry.attempts(), 0);
            assert_eq!(app.stats.denials, 3);
        });
    }
}
