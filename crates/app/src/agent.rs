//! The companion-app actor.

use std::collections::VecDeque;

use rb_core::design::{BindScheme, DeviceAuthScheme, SetupOrder, VendorDesign};
use rb_netsim::telemetry::SpanId;
use rb_netsim::{Actor, Ctx, Dest, LanId, NodeId, Retry, RetryPolicy, Telemetry, Tick, TimerKey};
use rb_provision::apmode::{PairingMaterial, ProvisionReply, ProvisionRequest};
use rb_provision::discovery::{SearchRequest, SearchResponse, SearchTarget};
use rb_provision::localctl::LocalCtl;
use rb_provision::{airkiss, smartconfig, WifiCredentials};
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::DevId;
use rb_wire::messages::{BindPayload, ControlAction, DenyReason, Message, Response, UnbindPayload};
use rb_wire::telemetry::TelemetryFrame;
use rb_wire::tokens::{BindToken, DevToken, SessionToken, UserId, UserPw, UserToken};

const TIMER_TICK: TimerKey = 1;

/// How the app broadcasts Wi-Fi credentials during provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WifiBroadcast {
    /// SmartConfig-style length encoding.
    SmartConfig,
    /// Airkiss-style length encoding.
    Airkiss,
}

/// Static configuration of one app instance.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// The vendor design the app implements.
    pub design: VendorDesign,
    /// The cloud's node.
    pub cloud: NodeId,
    /// The home LAN the phone is on.
    pub lan: LanId,
    /// Account identifier.
    pub user_id: UserId,
    /// Account password.
    pub user_pw: UserPw,
    /// Home Wi-Fi credentials to provision into the device.
    pub wifi: WifiCredentials,
    /// Device ID read off the printed label, for designs whose setup binds
    /// before the device is online (`SetupOrder::BindFirst`).
    pub known_label: Option<DevId>,
    /// Human delay between device setup and completing the binding in the
    /// app — the A4-2 window.
    pub user_bind_delay: u64,
    /// Progress-loop period.
    pub poll_every: u64,
    /// Resend period for unanswered steps (the backoff base).
    pub retry_every: u64,
    /// Upper bound on the backed-off resend period.
    pub retry_cap: u64,
    /// Jitter on resend delays, in per-mille of the delay.
    pub retry_jitter_per_mille: u16,
    /// Consecutive unanswered resends of one step before the app gives up
    /// ([`AppEvent::GaveUp`]) instead of wedging. Answered steps — even
    /// denials — reset the count.
    pub retry_budget: u32,
    /// Which length-encoding the provisioning broadcast uses.
    pub wifi_broadcast: WifiBroadcast,
}

impl AppConfig {
    /// A configuration with sensible defaults (5 s human delay, 20-tick
    /// poll loop).
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
            wifi: WifiCredentials::new("HomeNet", "home-psk-123"),
            known_label: None,
            user_bind_delay: 5_000,
            poll_every: 20,
            retry_every: 400,
            retry_cap: 3_200,
            retry_jitter_per_mille: 250,
            retry_budget: 24,
            wifi_broadcast: WifiBroadcast::SmartConfig,
        }
    }

    fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy::new(self.retry_every, self.retry_cap)
            .jitter(self.retry_jitter_per_mille)
            .budget(self.retry_budget)
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
    pub revocations: u64,
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
    /// the poll loop is stopped.
    aborted: bool,
    /// Shared metrics registry (a private default until the harness wires
    /// in the world-wide one via [`AppAgent::set_telemetry`]).
    telemetry: Telemetry,
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
    pub last_queried_telemetry: Vec<TelemetryFrame>,
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
        let retry = Retry::new(config.retry_policy());
        let cur_delay = config.retry_every;
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
            retry,
            cur_delay,
            aborted: false,
            telemetry: Telemetry::new(),
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
        self.telemetry = telemetry;
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

    /// The user token, once logged in.
    pub fn user_token(&self) -> Option<UserToken> {
        self.user_token
    }

    /// The device the app paired with.
    pub fn dev_id(&self) -> Option<&DevId> {
        self.dev_id.as_ref()
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
    /// device" again after a revocation. Credentials and discovery results
    /// are re-acquired from scratch.
    pub fn restart_setup(&mut self) {
        self.step_idx = 0;
        self.awaiting = Await::None;
        self.entered_step_at = Tick::ZERO;
        self.last_send_at = Tick::ZERO;
        self.bound = false;
        self.reset_retry();
        self.aborted = false;
        // Abandon (don't close) the previous attempt's span: an unclosed
        // span marks a setup that never converged, and the poll loop opens
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
            self.telemetry,
            now.as_u64(),
            "app_setup",
            user = self.config.user_id,
        ));
    }

    /// Marks the binding as held: counts it and closes the setup span.
    fn note_bound(&mut self, now: Tick) {
        self.telemetry.incr("app_binds_total");
        if let Some(id) = self.setup_span.take() {
            self.telemetry.end_span(id, now.as_u64());
        }
    }

    /// Fresh backoff state: called whenever the peer answered (the budget
    /// counts only *consecutive* unanswered sends) or a new step starts.
    fn reset_retry(&mut self) {
        self.retry.reset();
        self.cur_delay = self.config.retry_every;
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
                // The wifi credentials ride on broadcast datagram lengths
                // (SmartConfig or Airkiss, per vendor ecosystem).
                let lengths = match self.config.wifi_broadcast {
                    WifiBroadcast::SmartConfig => smartconfig::encode(&self.config.wifi),
                    WifiBroadcast::Airkiss => airkiss::encode(&self.config.wifi),
                };
                for len in lengths {
                    ctx.send(
                        Dest::Broadcast(self.config.lan),
                        vec![0u8; usize::from(len)],
                    );
                }
                let req = ProvisionRequest {
                    wifi: self.config.wifi.clone(),
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
                self.telemetry.incr("app_bind_attempts_total");
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
                self.telemetry.incr("app_denials_total");
                // Retry the step on its next poll.
                self.awaiting = Await::None;
            }
            _ => {}
        }
    }

    fn handle_push(&mut self, ctx: &mut Ctx<'_>, rsp: Response) {
        match rsp {
            Response::TelemetryPush { telemetry, .. } => {
                self.stats.telemetry_pushes += 1;
                self.telemetry.incr("app_telemetry_pushes_total");
                self.events.push(AppEvent::Telemetry(telemetry));
            }
            Response::BindingRevoked => {
                self.bound = false;
                self.stats.revocations += 1;
                self.telemetry.incr("app_revocations_total");
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
        // Controls on the paired device wait until our own binding exists;
        // controls on an explicitly named (shared) device only need a login.
        let ready = match self.control_queue.front() {
            Some((None, _)) => self.bound,
            Some((Some(_), _)) => true,
            None => false,
        };
        if ready {
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
}

impl Actor for AppAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.entered_step_at = ctx.now();
        self.begin_setup_span(ctx.now());
        self.enter_step(ctx);
        ctx.set_timer(self.config.poll_every, TIMER_TICK);
    }

    fn on_power(&mut self, ctx: &mut Ctx<'_>, powered: bool) {
        if powered {
            if self.aborted {
                // The flow already gave up; a reboot does not resurrect it
                // (only `restart_setup` does).
                return;
            }
            // Phone back on: resume (or start) the flow. A timer dropped
            // while powered off would otherwise end the poll loop.
            self.entered_step_at = ctx.now();
            self.reset_retry();
            self.begin_setup_span(ctx.now());
            self.enter_step(ctx);
            ctx.set_timer(self.config.poll_every, TIMER_TICK);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &bytes::Bytes) {
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
                        // only consecutive silence burns the retry budget.
                        self.reset_retry();
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
                                self.telemetry.incr("app_denials_total");
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

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        if key != TIMER_TICK {
            return;
        }
        if self.aborted {
            // Clean abort: the poll loop stops (no reschedule), the actor
            // goes silent, and the sim can quiesce.
            return;
        }
        let now = ctx.now();
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
                    // answer told us to try again): send at poll cadence.
                    self.enter_step(ctx);
                } else {
                    let stale = self.last_send_at == Tick::ZERO
                        || now - self.last_send_at >= self.cur_delay;
                    if stale {
                        // Unanswered past the current timeout: resend with
                        // backoff, or give up when the budget is spent.
                        match self.retry.next(ctx.rng()) {
                            Some(delay) => {
                                self.cur_delay = delay;
                                self.telemetry.incr("app_retries_total");
                                self.telemetry.rate_event("app_retries", now.as_u64());
                                self.enter_step(ctx);
                            }
                            None => {
                                self.aborted = true;
                                self.telemetry.incr("app_giveups_total");
                                self.events.push(AppEvent::GaveUp);
                                return;
                            }
                        }
                    }
                }
            }
        }
        ctx.set_timer(self.config.poll_every, TIMER_TICK);
    }
}
