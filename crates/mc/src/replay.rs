//! Counterexample replay: compiles model-checker witnesses into live
//! simulator schedules and asserts the violated property on the simulated
//! cloud.
//!
//! Every [`McAct`] of a witness is realized as concrete packet traffic in
//! an [`rb_scenario::World`]:
//!
//! * **Honest acts** are driven through a *victim console* — a raw
//!   endpoint on the home LAN sharing the home's NAT IP
//!   ([`rb_scenario::World::add_home_console`]) — and through the real
//!   device firmware. [`McAct::DevRegister`] sideloads the pairing
//!   material a physically-present owner would configure
//!   ([`rb_device::DeviceAgent::sideload`]) and power-cycles the device;
//!   the firmware then registers and, on device-channel designs, attempts
//!   its bind exactly as the product machine folds into the act.
//! * **Adversarial acts** are sent by a real [`rb_attack::Adversary`]
//!   client from the WAN, using only what the threat model grants it: the
//!   device ID, its own account, and (where firmware is known) the
//!   message formats.
//!
//! After *every* act the replayer asserts that the cloud's observable
//! state — the bound user and the online bit — matches the product
//! machine's state, and after the final act it asserts the violated
//! property itself: the attacker really holds the binding, the attacker's
//! `Control` really switches the physical relay, the victim's binding is
//! really gone, or every honest recovery channel is really refused.
//!
//! Two scheduling liberties make the untimed model's traces deterministic
//! in the timed world, and both correspond to choices a real attacker or
//! harness controls: a displacing forged registration is sent while the
//! real device is silenced (the attacker times the forgery between
//! heartbeats), and after a sticky cloud denies the device's embedded
//! bind the replayer waits out the firmware's retry budget before
//! proceeding (the model treats the denial as final).

use crate::explore::Property;
use crate::model::{self, McAct, PState};
use rb_attack::adversary::{ATTACKER_ID, ATTACKER_PW};
use rb_attack::Adversary;
use rb_core::design::{BindScheme, DeviceAuthScheme, VendorDesign};
use rb_core::spec::{DeviceSrc, Party};
use rb_netsim::{Dest, NodeId};
use rb_provision::localctl::LocalCtl;
use rb_provision::WifiCredentials;
use rb_scenario::{RawEndpoint, World, WorldBuilder};
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::DevId;
use rb_wire::messages::{
    BindPayload, ControlAction, DeviceAttributes, Message, Response, StatusAuth, StatusPayload,
    UnbindPayload,
};
use rb_wire::tokens::{BindToken, DevToken, UserId, UserPw, UserToken};

/// The device heartbeat period the replay worlds use (the builder
/// default; the per-act waits below are sized against it).
const HEARTBEAT: u64 = 2_000;

/// Ticks to wait after a denied device-channel bind: the firmware retries
/// with exponential backoff (16 tries capped at 800 ticks), and the model
/// treats the denial as final, so no retry may remain pending when a
/// later act clears the binding.
const BIND_RETRY_DRAIN: u64 = 15_000;

/// The victim's request/response client: a raw endpoint on the home LAN
/// behind the home NAT, driven synchronously between simulation runs.
struct Console {
    node: NodeId,
    corr: u64,
}

impl Console {
    fn endpoint<'w>(&self, world: &'w mut World) -> &'w mut RawEndpoint {
        world
            .sim
            .actor_mut::<RawEndpoint>(self.node)
            .unwrap_or_else(|| unreachable!("the console node is always a RawEndpoint"))
    }

    /// Sends `msg` to the cloud and waits for the matching response.
    fn request(&mut self, world: &mut World, msg: Message, what: &str) -> Result<Response, String> {
        self.corr += 1;
        let corr = CorrId(self.corr);
        let cloud = world.cloud;
        self.endpoint(world).queue(
            Dest::Unicast(cloud),
            Envelope::Request { corr, msg }.encode(),
        );
        world.run_for(2_000);
        for (_, bytes) in self.endpoint(world).take_inbox() {
            if let Ok(Envelope::Response { corr: c, rsp }) = Envelope::decode(&bytes) {
                if c == corr {
                    return Ok(rsp);
                }
            }
        }
        Err(format!("no response to the console's {what}"))
    }

    /// Queues a LAN frame to `to` (delivered on the next run).
    fn send_lan(&mut self, world: &mut World, to: NodeId, payload: Vec<u8>) {
        self.endpoint(world).queue(Dest::Unicast(to), payload);
    }
}

/// A forged device registration — all the attacker can construct on
/// ID-authenticated designs.
fn forged_register(dev_id: &DevId) -> Message {
    Message::Status(StatusPayload::register(
        StatusAuth::DevId(dev_id.clone()),
        dev_id.clone(),
        DeviceAttributes::default(),
    ))
}

/// One live witness interpretation in flight: the simulated world plus
/// the principals' clients and credentials.
///
/// This is the machinery [`replay`] drives, exposed so other harnesses —
/// the lifecycle fuzzer's interpreter in particular — can compile their
/// own [`McAct`] trajectories onto a live [`World`] act by act: construct
/// with [`LiveSession::new`], realize each act with [`LiveSession::apply`],
/// check the cloud against the model with [`LiveSession::assert_cloud`],
/// and close with [`LiveSession::assert_property`]. All waiting goes
/// through the bounded [`World::try_run_until`] driver, so a livelocked
/// interleaving cannot hang the caller.
pub struct LiveSession {
    design: VendorDesign,
    world: World,
    console: Console,
    adversary: Adversary,
    dev_id: DevId,
    victim_id: UserId,
    victim_pw: UserPw,
    victim_token: UserToken,
    /// The victim's issued device token (DevToken designs), cached across
    /// power cycles like a real configuration would be.
    victim_dev_token: Option<DevToken>,
    device_powered: bool,
}

impl LiveSession {
    /// Builds a fresh replay world for `design`: a paused victim home (the
    /// model's initial state has no live device session), a console on the
    /// home LAN playing the resident, and a logged-in WAN adversary.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure when the victim's login or the
    /// console bring-up does not complete.
    pub fn new(design: &VendorDesign) -> Result<Self, String> {
        // Victims start paused: the model's initial state has no live
        // device session, and the app agent is never used — the console
        // plays the resident.
        let mut world = WorldBuilder::new(design.clone(), 0x5EED_0001)
            .victim_paused()
            .build();
        let node = world.add_home_console(0);
        world.run_for(10);
        let mut console = Console { node, corr: 0 };
        let dev_id = world.homes[0].dev_id.clone();
        let victim_id = world.homes[0].user_id.clone();
        let victim_pw = world.homes[0].user_pw.clone();
        let login = Message::Login {
            user_id: victim_id.clone(),
            user_pw: victim_pw.clone(),
        };
        let victim_token = match console.request(&mut world, login, "login")? {
            Response::LoginOk { user_token } => user_token,
            other => return Err(format!("victim login answered {other:?}")),
        };
        let mut adversary = Adversary::new();
        adversary.login(&mut world);
        Ok(LiveSession {
            design: design.clone(),
            world,
            console,
            adversary,
            dev_id,
            victim_id,
            victim_pw,
            victim_token,
            victim_dev_token: None,
            device_powered: false,
        })
    }

    fn set_device_power(&mut self, on: bool) {
        let node = self.world.homes[0].device;
        self.world.sim.set_power(node, on);
        self.device_powered = on;
    }

    /// The cloud-side account a model party maps to.
    fn owner_of(&self, party: Option<Party>) -> Option<UserId> {
        match party {
            None => None,
            Some(Party::User) => Some(self.victim_id.clone()),
            Some(Party::Attacker) => Some(UserId::new(ATTACKER_ID)),
        }
    }

    /// The victim's device token, issued once through the console.
    fn victim_dev_token(&mut self) -> Result<DevToken, String> {
        if let Some(t) = self.victim_dev_token {
            return Ok(t);
        }
        let msg = Message::RequestDevToken {
            user_token: self.victim_token,
        };
        match self
            .console
            .request(&mut self.world, msg, "device-token request")?
        {
            Response::DevTokenIssued { dev_token } => {
                self.victim_dev_token = Some(dev_token);
                Ok(dev_token)
            }
            other => Err(format!("device-token request answered {other:?}")),
        }
    }

    /// A fresh bind-token capability (consumed by each capability bind, so
    /// every registration cycle needs its own).
    fn fresh_bind_token(&mut self) -> Result<BindToken, String> {
        let msg = Message::RequestBindToken {
            user_token: self.victim_token,
        };
        match self
            .console
            .request(&mut self.world, msg, "bind-token request")?
        {
            Response::BindTokenIssued { bind_token } => Ok(bind_token),
            other => Err(format!("bind-token request answered {other:?}")),
        }
    }

    /// `McAct::DevRegister`: the owner (re)configures the device and
    /// powers it on; it registers and, on device-channel designs,
    /// attempts the owner's bind.
    fn dev_register(&mut self, post: PState) -> Result<(), String> {
        self.set_device_power(false);
        let dev_token = if self.design.auth == DeviceAuthScheme::DevToken {
            Some(self.victim_dev_token()?)
        } else {
            None
        };
        let bind_token = if self.design.bind == BindScheme::Capability {
            Some(self.fresh_bind_token()?)
        } else {
            None
        };
        let user_creds = (self.design.bind == BindScheme::AclDevice)
            .then(|| (self.victim_id.clone(), self.victim_pw.clone()));
        let wifi = WifiCredentials::new("resident-wifi", "resident-psk");
        self.world
            .device_mut(0)
            .sideload(wifi, dev_token, bind_token, user_creds);
        self.set_device_power(true);
        let dev_id = self.dev_id.clone();
        let want = self.owner_of(post.bound);
        let settled = self.world.try_run_until(4 * HEARTBEAT + 4_000, |w| {
            w.cloud().shadow_state(&dev_id).is_online() && w.cloud().bound_user(&dev_id) == want
        });
        if !settled {
            return Err(format!(
                "registration did not settle: shadow {:?}, bound {:?}, wanted {want:?}",
                self.world.shadow_state(0),
                self.world.cloud().bound_user(&self.dev_id)
            ));
        }
        if matches!(
            self.design.bind,
            BindScheme::AclDevice | BindScheme::Capability
        ) && post.bound != Some(Party::User)
        {
            self.world.run_for(BIND_RETRY_DRAIN);
        }
        Ok(())
    }

    /// `McAct::DevOffline`: the device loses power and its cloud session
    /// idles out past the heartbeat timeout.
    fn dev_offline(&mut self, post: PState) -> Result<(), String> {
        self.set_device_power(false);
        // A surviving forged session (concurrent designs) must be kept
        // alive across the expiry sweep the way a real attacker would:
        // by re-sending the forged registration. Only safe when that
        // extra registration is a model no-op.
        let keepalive = post.src == DeviceSrc::Forged;
        if keepalive && model::step(&self.design, post, McAct::AtkRegister) != Some(post) {
            return Err(
                "cannot keep the forged session alive across the expiry without perturbing \
                 the model state"
                    .into(),
            );
        }
        for _ in 0..6 {
            if keepalive {
                let _ = self.adversary.request_wait(
                    &mut self.world,
                    forged_register(&self.dev_id),
                    100,
                );
            }
            self.world.run_for(10_000);
        }
        Ok(())
    }

    /// `McAct::UserBind`: the resident binds through the app channel.
    fn user_bind(&mut self, pre: PState) -> Result<(), String> {
        if self.design.checks.bind_requires_local_proof {
            // The model guard guarantees the real device is live to report
            // the press; the cloud also checks the reporter shares the
            // binder's NAT IP, which the console does.
            self.world.device_mut(0).press_button();
            self.world.run_for(HEARTBEAT + 500);
        }
        let msg = Message::Bind(BindPayload::AclApp {
            dev_id: self.dev_id.clone(),
            user_token: self.victim_token,
        });
        match self.console.request(&mut self.world, msg, "app bind")? {
            Response::Bound { session } => {
                if let Some(session) = session {
                    if pre.src.includes_real() {
                        // Post-binding designs: the resident delivers the
                        // session token over the LAN — the hop a WAN
                        // attacker cannot make.
                        let device = self.world.homes[0].device;
                        let assign = LocalCtl::SessionAssign {
                            token: *session.as_bytes(),
                        };
                        self.console
                            .send_lan(&mut self.world, device, assign.encode());
                        self.world.run_for(50);
                    }
                }
                Ok(())
            }
            other => Err(format!("app bind answered {other:?}")),
        }
    }

    /// `McAct::UserUnbind`: the resident revokes the binding over the
    /// channel the model used (token unbind, or the reset channel's bare
    /// unbind sent from the home).
    fn user_unbind(&mut self, pre: PState) -> Result<(), String> {
        let token_channel = self.design.unbind.dev_id_user_token
            && (pre.bound == Some(Party::User) || !self.design.checks.verify_unbind_is_bound_user);
        let payload = if token_channel {
            UnbindPayload::DevIdUserToken {
                dev_id: self.dev_id.clone(),
                user_token: self.victim_token,
            }
        } else {
            UnbindPayload::DevIdOnly {
                dev_id: self.dev_id.clone(),
            }
        };
        match self
            .console
            .request(&mut self.world, Message::Unbind(payload), "honest unbind")?
        {
            Response::Unbound => Ok(()),
            other => Err(format!("honest unbind answered {other:?}")),
        }
    }

    /// `McAct::AtkRegister`: the attacker forges a registration. When the
    /// forgery displaces the real session, the device is silenced first —
    /// the attacker times the forgery between heartbeats, and silencing
    /// realizes that window deterministically.
    fn atk_register(&mut self, pre: PState, post: PState) -> Result<(), String> {
        if pre.src.includes_real() && !post.src.includes_real() {
            self.set_device_power(false);
        }
        match self
            .adversary
            .request(&mut self.world, forged_register(&self.dev_id))
        {
            Some(Response::StatusAccepted { .. }) => Ok(()),
            other => Err(format!("forged registration answered {other:?}")),
        }
    }

    /// `McAct::AtkBind`: the attacker forges the binding message for the
    /// design's accepted shape, using only their own account.
    fn atk_bind(&mut self) -> Result<(), String> {
        let atk_token = self
            .adversary
            .user_token
            .ok_or_else(|| "attacker not logged in".to_owned())?;
        let msg =
            match self.design.bind {
                BindScheme::AclApp => Message::Bind(BindPayload::AclApp {
                    dev_id: self.dev_id.clone(),
                    user_token: atk_token,
                }),
                BindScheme::AclDevice => Message::Bind(BindPayload::AclDevice {
                    dev_id: self.dev_id.clone(),
                    user_id: UserId::new(ATTACKER_ID),
                    user_pw: UserPw::new(ATTACKER_PW),
                }),
                BindScheme::Capability => return Err(
                    "capability binds are not forgeable; the checker should never emit this act"
                        .into(),
                ),
            };
        match self.adversary.request(&mut self.world, msg) {
            Some(Response::Bound { session }) => {
                self.adversary.hijack_session = session;
                Ok(())
            }
            other => Err(format!("forged bind answered {other:?}")),
        }
    }

    /// `McAct::AtkUnbindToken` / `McAct::AtkUnbindBare`.
    fn atk_unbind(&mut self, bare: bool) -> Result<(), String> {
        let payload = if bare {
            UnbindPayload::DevIdOnly {
                dev_id: self.dev_id.clone(),
            }
        } else {
            UnbindPayload::DevIdUserToken {
                dev_id: self.dev_id.clone(),
                user_token: self
                    .adversary
                    .user_token
                    .ok_or_else(|| "attacker not logged in".to_owned())?,
            }
        };
        match self
            .adversary
            .request(&mut self.world, Message::Unbind(payload))
        {
            Some(Response::Unbound) => Ok(()),
            other => Err(format!("forged unbind answered {other:?}")),
        }
    }

    /// Realizes one witness act as live traffic. `pre` and `post` are the
    /// product-machine states around the act (the caller recomputes the
    /// trajectory with [`model::step`]); the replay uses them to pick the
    /// schedule details the untimed model leaves open.
    ///
    /// # Errors
    ///
    /// Returns a description of the divergence when the simulator cannot
    /// realize the act (a refused request, a session that cannot be kept
    /// alive, an unforgeable message).
    pub fn apply(&mut self, act: McAct, pre: PState, post: PState) -> Result<(), String> {
        match act {
            McAct::DevRegister => self.dev_register(post),
            McAct::DevOffline => self.dev_offline(post),
            McAct::UserBind => self.user_bind(pre),
            McAct::UserUnbind => self.user_unbind(pre),
            McAct::AtkRegister => self.atk_register(pre, post),
            McAct::AtkBind => self.atk_bind(),
            McAct::AtkUnbindToken => self.atk_unbind(false),
            McAct::AtkUnbindBare => self.atk_unbind(true),
        }
    }

    /// Advances the live world by `ticks` without driving any principal —
    /// the realization of a pure observation step (the fuzz DSL's
    /// `control` act and its chaos windows ride on this).
    pub fn idle(&mut self, ticks: u64) {
        self.world.run_for(ticks);
    }

    /// Injects a short benign chaos window (mild duplication/reordering)
    /// starting now. Benign by the chaos-matrix invariance result: it
    /// perturbs packet timing but must not change any binding outcome, so
    /// per-act cloud assertions keep holding.
    pub fn inject_benign_chaos(&mut self) {
        let now = self.world.now().as_u64();
        let plan = rb_netsim::FaultPlan::new().chaos_window(now + 10, 5_000, 150, 100, 2);
        self.world.apply_fault_plan(&plan);
    }

    /// Asserts that the cloud's observable state — the bound user and the
    /// online bit — matches the model state.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn assert_cloud(&self, state: PState) -> Result<(), String> {
        let bound = self.world.cloud().bound_user(&self.dev_id);
        let want = self.owner_of(state.bound);
        if bound != want {
            return Err(format!(
                "cloud bound user is {bound:?}, the model says {want:?}"
            ));
        }
        let online = self.world.shadow_state(0).is_online();
        if online != state.src.online() {
            return Err(format!(
                "cloud online bit is {online}, the model says {} (shadow {:?})",
                state.src.online(),
                self.world.shadow_state(0)
            ));
        }
        Ok(())
    }

    /// Asserts the violated property itself on the final live state
    /// (`states` is the full model trajectory, initial state included).
    ///
    /// # Errors
    ///
    /// Returns a description of the failure when the live cloud does not
    /// actually exhibit the violation.
    pub fn assert_property(&mut self, property: Property, states: &[PState]) -> Result<(), String> {
        let attacker = Some(UserId::new(ATTACKER_ID));
        match property {
            Property::AttackerBound => {
                let bound = self.world.cloud().bound_user(&self.dev_id);
                if bound != attacker {
                    return Err(format!("attacker not bound: cloud says {bound:?}"));
                }
                Ok(())
            }
            Property::AttackerControl => {
                let msg = Message::Control {
                    dev_id: self.dev_id.clone(),
                    user_token: self
                        .adversary
                        .user_token
                        .ok_or_else(|| "attacker not logged in".to_owned())?,
                    session: self.adversary.hijack_session,
                    action: ControlAction::TurnOn,
                };
                match self.adversary.request(&mut self.world, msg) {
                    Some(Response::ControlOk { .. }) => {}
                    other => return Err(format!("attacker control answered {other:?}")),
                }
                if !self.world.device(0).is_on() {
                    return Err("control accepted but the relay did not switch".into());
                }
                Ok(())
            }
            Property::UserDisconnect => {
                let victim = Some(self.victim_id.clone());
                let bound = self.world.cloud().bound_user(&self.dev_id);
                if bound == victim {
                    return Err("the victim's binding survived the destroying act".into());
                }
                Ok(())
            }
            Property::StaleSession => Err(
                "NO-STALE-ACCEPT is an invariant — a stale-session witness means the model \
                 found a cloud that skips the mint comparison, which the simulator does not \
                 implement"
                    .into(),
            ),
            Property::RebindLivelock => self.assert_livelock(states),
        }
    }

    /// Livelock: every honest recovery channel must be refused live. The
    /// canonical playbook — power the device back on, try the token
    /// unbind, try an honest rebind — must leave the attacker bound.
    fn assert_livelock(&mut self, states: &[PState]) -> Result<(), String> {
        let trap = states.last().copied().unwrap_or_else(PState::initial);
        if trap.bound != Some(Party::Attacker) {
            return Err(format!(
                "trap state binds {:?}, not the attacker",
                trap.bound
            ));
        }
        let attacker = Some(UserId::new(ATTACKER_ID));

        // 1. Power the device on with fresh material; registration (and
        //    on device-channel designs the embedded bind) must not
        //    dislodge the attacker — trapped designs never reset on
        //    register, and their cloud is sticky.
        if !self.device_powered {
            let after = PState {
                bound: trap.bound,
                ..trap
            };
            // Registration itself succeeds but the binding must not move.
            self.dev_register(PState {
                src: DeviceSrc::Real,
                ..after
            })
            .map_err(|e| format!("honest re-registration failed: {e}"))?;
        } else {
            self.world.run_for(BIND_RETRY_DRAIN);
        }
        if self.world.cloud().bound_user(&self.dev_id) != attacker {
            return Err("re-registration dislodged the attacker — not a livelock".into());
        }

        // 2. The token unbind (present but ownership-checked on trapped
        //    designs) must be refused.
        if self.design.unbind.dev_id_user_token {
            let msg = Message::Unbind(UnbindPayload::DevIdUserToken {
                dev_id: self.dev_id.clone(),
                user_token: self.victim_token,
            });
            match self
                .console
                .request(&mut self.world, msg, "recovery unbind")?
            {
                Response::Denied { .. } => {}
                other => {
                    return Err(format!(
                        "the cloud honoured an honest unbind ({other:?}) — not a livelock"
                    ))
                }
            }
        }

        // 3. An honest app-channel rebind must be refused (device-channel
        //    rebinds were already exercised by the registration above).
        if self.design.bind == BindScheme::AclApp {
            let msg = Message::Bind(BindPayload::AclApp {
                dev_id: self.dev_id.clone(),
                user_token: self.victim_token,
            });
            match self
                .console
                .request(&mut self.world, msg, "recovery bind")?
            {
                Response::Denied { .. } => {}
                other => {
                    return Err(format!(
                        "the cloud honoured an honest rebind ({other:?}) — not a livelock"
                    ))
                }
            }
        }

        if self.world.cloud().bound_user(&self.dev_id) != attacker {
            return Err("honest recovery dislodged the attacker — not a livelock".into());
        }
        Ok(())
    }
}

/// Replays `witness` for `property` under `design` in a fresh simulated
/// world, asserting after every act that the live cloud matches the
/// product machine and after the last act that the property is violated
/// for real.
///
/// # Errors
///
/// Returns a description of the first divergence: an act the simulator
/// could not realize, a cloud state that does not match the model, or a
/// final property assertion that failed.
pub fn replay(design: &VendorDesign, property: Property, witness: &[McAct]) -> Result<(), String> {
    // Recompute the model trajectory; a witness that does not step is
    // corrupt and must fail loudly rather than replay something else.
    let mut states = vec![PState::initial()];
    for (i, &act) in witness.iter().enumerate() {
        let s = states[states.len() - 1];
        let n = model::step(design, s, act).ok_or_else(|| {
            format!(
                "{}: witness step {} ({act}) is not enabled in the model",
                design.vendor,
                i + 1
            )
        })?;
        states.push(n);
    }

    let mut replayer = LiveSession::new(design)?;
    for (i, &act) in witness.iter().enumerate() {
        let (pre, post) = (states[i], states[i + 1]);
        replayer
            .apply(act, pre, post)
            .map_err(|e| format!("{}: step {} ({act}): {e}", design.vendor, i + 1))?;
        replayer
            .assert_cloud(post)
            .map_err(|e| format!("{}: after step {} ({act}): {e}", design.vendor, i + 1))?;
    }
    replayer
        .assert_property(property, &states)
        .map_err(|e| format!("{}: {property}: {e}", design.vendor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use rb_core::vendors::*;

    fn replay_all(design: &VendorDesign) {
        let report = explore(design, 2);
        for (property, witness) in report.violations() {
            replay(design, property, witness).unwrap_or_else(|e| {
                panic!(
                    "{}: {property} witness failed to replay: {e}",
                    design.vendor
                )
            });
        }
    }

    #[test]
    fn every_vendor_witness_replays() {
        for design in vendor_designs() {
            replay_all(&design);
        }
    }

    #[test]
    fn reference_designs_have_nothing_to_replay() {
        for design in [capability_reference(), public_key_reference()] {
            assert!(explore(&design, 2).is_secure());
        }
    }

    #[test]
    fn a_livelock_witness_replays_with_recovery_refused() {
        let mut d = e_link();
        d.unbind = rb_core::design::UnbindSupport::token_only();
        d.checks.reject_bind_when_bound = true;
        d.checks.verify_unbind_is_bound_user = true;
        d.checks.register_resets_binding = false;
        let report = explore(&d, 2);
        let witness = report.rebind_livelock.as_ref().expect("trap reachable");
        replay(&d, Property::RebindLivelock, witness).expect("livelock replays");
    }

    #[test]
    fn a_corrupt_witness_is_rejected() {
        let d = e_link();
        let err = replay(&d, Property::AttackerBound, &[McAct::AtkUnbindBare])
            .expect_err("bare unbind from the initial state is not enabled");
        assert!(err.contains("not enabled"), "{err}");
    }

    #[test]
    fn a_wrong_claim_fails_the_final_assertion() {
        // A trace that leaves the *user* bound must not pass the
        // ATTACKER-BOUND assertion.
        let d = e_link();
        let err = replay(
            &d,
            Property::AttackerBound,
            &[McAct::DevRegister, McAct::UserBind],
        )
        .expect_err("the user is bound, not the attacker");
        assert!(err.contains("attacker not bound"), "{err}");
    }
}
