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
//!   device firmware. [`McAct::DevRegister`] power-cycles the device and
//!   has the console send it the AP-mode `ProvisionRequest` the app's
//!   provisioning step sends (Wi-Fi credentials plus the design's pairing
//!   material), pressing the button where the design requires local proof
//!   ([`rb_scenario::World::press_setup_button`], as setup does); the
//!   firmware then registers and, on device-channel designs, attempts its
//!   bind exactly as the product machine folds into the act. The console
//!   stands in for the app because a witness may order the resident's
//!   bind against the design's setup order, which the app never does.
//! * **Adversarial acts** are the forger's messages
//!   ([`rb_attack::acts::AtkStep::forge`], the ones the Table II
//!   executors send), sent by a real [`rb_attack::Adversary`] client from
//!   the WAN, using only what the threat model grants it: the device ID,
//!   its own account, and (where firmware is known) the message formats.
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
use rb_attack::acts::{forged_control, AtkStep};
use rb_attack::Adversary;
use rb_core::design::{BindScheme, DeviceAuthScheme, VendorDesign};
use rb_core::spec::{DeviceSrc, Party};
use rb_device::HEARTBEAT_EVERY;
use rb_netsim::{Dest, NodeId};
use rb_provision::apmode::{PairingMaterial, ProvisionRequest};
use rb_provision::localctl::LocalCtl;
use rb_provision::WifiCredentials;
use rb_scenario::{World, WorldBuilder, ATTACKER_ID};
use rb_wire::envelope::CorrId;
use rb_wire::ids::DevId;
use rb_wire::messages::{BindPayload, Message, Response, UnbindPayload};
use rb_wire::tokens::{BindToken, DevToken, UserId, UserPw, UserToken};

/// Ticks to wait after a denied device-channel bind: the firmware retries
/// with exponential backoff (16 tries capped at 800 ticks), and the model
/// treats the denial as final, so no retry may remain pending when a
/// later act clears the binding.
const BIND_RETRY_DRAIN: u64 = 15_000;

/// Ticks the console waits for the cloud's answer to one request.
const CONSOLE_WAIT: u64 = 2_000;

/// One live witness interpretation in flight: the simulated world, the
/// resident's console and the attacker's client, and the victim's
/// credentials.
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
    /// The resident's raw endpoint on the home LAN, behind the home NAT
    /// ([`World::add_home_console`]).
    console: NodeId,
    /// The console's last request corr id.
    console_corr: u64,
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
        let console = world.add_home_console(0);
        world.run_for(10);
        let dev_id = world.homes[0].dev_id.clone();
        let victim_id = world.homes[0].user_id.clone();
        let victim_pw = world.homes[0].user_pw.clone();
        let login = Message::Login {
            user_id: victim_id.clone(),
            user_pw: victim_pw.clone(),
        };
        let victim_token = match world.request_from(console, CorrId(1), login, CONSOLE_WAIT) {
            Some(Response::LoginOk { user_token }) => user_token,
            other => return Err(format!("victim login answered {other:?}")),
        };
        let mut adversary = Adversary::new();
        adversary.login(&mut world);
        Ok(LiveSession {
            design: design.clone(),
            world,
            console,
            console_corr: 1,
            adversary,
            dev_id,
            victim_id,
            victim_pw,
            victim_token,
            victim_dev_token: None,
            device_powered: false,
        })
    }

    /// Sends `msg` to the cloud from the console and returns the answer.
    fn console_request(&mut self, msg: Message, what: &str) -> Result<Response, String> {
        self.console_corr += 1;
        let corr = CorrId(self.console_corr);
        self.world
            .request_from(self.console, corr, msg, CONSOLE_WAIT)
            .ok_or_else(|| format!("no response to the console's {what}"))
    }

    /// Queues a LAN frame from the console to the device (delivered on
    /// the next run).
    fn console_to_device(&mut self, payload: Vec<u8>) {
        let device = self.world.homes[0].device;
        self.world
            .endpoint_mut(self.console)
            .queue(Dest::Unicast(device), payload);
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
        match self.console_request(msg, "device-token request")? {
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
        match self.console_request(msg, "bind-token request")? {
            Response::BindTokenIssued { bind_token } => Ok(bind_token),
            other => Err(format!("bind-token request answered {other:?}")),
        }
    }

    /// `McAct::DevRegister`: the owner power-cycles the device, provisions
    /// it over the home LAN with the pairing material the design needs
    /// (the app's AP-mode request) and presses its button where the design
    /// asks for local proof; it registers and, on device-channel designs,
    /// attempts the owner's bind.
    fn dev_register(&mut self, post: PState) -> Result<(), String> {
        self.set_device_power(false);
        let dev_token = if self.design.auth == DeviceAuthScheme::DevToken {
            Some(*self.victim_dev_token()?.as_bytes())
        } else {
            None
        };
        let bind_token = if self.design.bind == BindScheme::Capability {
            Some(*self.fresh_bind_token()?.as_bytes())
        } else {
            None
        };
        let user_credentials = (self.design.bind == BindScheme::AclDevice).then(|| {
            (
                self.victim_id.as_str().to_owned(),
                self.victim_pw.expose().to_owned(),
            )
        });
        let provision = ProvisionRequest {
            wifi: WifiCredentials::new("resident-wifi", "resident-psk"),
            pairing: PairingMaterial {
                dev_token,
                bind_token,
                user_credentials,
            },
        };
        self.set_device_power(true);
        self.world.press_setup_button(0);
        self.console_to_device(provision.encode());
        let dev_id = self.dev_id.clone();
        let want = self.owner_of(post.bound);
        let settled = self.world.try_run_until(4 * HEARTBEAT_EVERY + 4_000, |w| {
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
                let register = self.forge(AtkStep::Register)?;
                let _ = self.adversary.request_wait(&mut self.world, register, 100);
            }
            self.world.run_for(10_000);
        }
        Ok(())
    }

    /// `McAct::UserBind`: the resident binds through the app channel.
    fn user_bind(&mut self, pre: PState) -> Result<(), String> {
        // The model guard guarantees the real device is live to report
        // the press; the cloud also checks the reporter shares the binder's
        // NAT IP, which the console does.
        if self.world.press_setup_button(0) {
            self.world.run_for(HEARTBEAT_EVERY + 500);
        }
        let msg = Message::Bind(BindPayload::AclApp {
            dev_id: self.dev_id.clone(),
            user_token: self.victim_token,
        });
        match self.console_request(msg, "app bind")? {
            Response::Bound { session } => {
                if let Some(session) = session {
                    if pre.src.includes_real() {
                        // Post-binding designs: the resident delivers the
                        // session token over the LAN — the hop a WAN
                        // attacker cannot make.
                        let assign = LocalCtl::SessionAssign {
                            token: *session.as_bytes(),
                        };
                        self.console_to_device(assign.encode());
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
        match self.console_request(Message::Unbind(payload), "honest unbind")? {
            Response::Unbound => Ok(()),
            other => Err(format!("honest unbind answered {other:?}")),
        }
    }

    /// The attacker's forgery of `step` on this design, from the device
    /// ID and their own account alone.
    fn forge(&self, step: AtkStep) -> Result<Message, String> {
        step.forge(&self.design, &self.dev_id, self.adversary.user_token)
            .ok_or_else(|| {
                format!("{step} is not forgeable here; the checker should never emit this act")
            })
    }

    /// An adversarial act: the attacker forges `step` and the cloud must
    /// accept it. When a forged registration displaces the real session,
    /// the device is silenced first — the attacker times the forgery
    /// between heartbeats, and silencing realizes that window
    /// deterministically.
    fn atk(&mut self, step: AtkStep, pre: PState, post: PState) -> Result<(), String> {
        if step == AtkStep::Register && pre.src.includes_real() && !post.src.includes_real() {
            self.set_device_power(false);
        }
        let msg = self.forge(step)?;
        match self.adversary.request(&mut self.world, msg) {
            Some(rsp) if step.accepted_by(&rsp) => {
                if let Response::Bound { session } = rsp {
                    self.adversary.hijack_session = session;
                }
                Ok(())
            }
            other => Err(format!("forged {step} answered {other:?}")),
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
            act => {
                let step = act
                    .atk_step()
                    .ok_or_else(|| format!("{act} forges nothing"))?;
                self.atk(step, pre, post)
            }
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
                let user_token = self
                    .adversary
                    .user_token
                    .ok_or_else(|| "attacker not logged in".to_owned())?;
                let msg = forged_control(&self.dev_id, user_token, self.adversary.hijack_session);
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
            match self.console_request(msg, "recovery unbind")? {
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
            match self.console_request(msg, "recovery bind")? {
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
