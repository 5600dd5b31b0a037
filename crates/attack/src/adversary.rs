//! The attacker's protocol client.

use rb_netsim::Dest;
use rb_scenario::World;
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::messages::{Message, Response};
use rb_wire::tokens::{SessionToken, UserId, UserPw, UserToken};

/// How long (ticks) to wait for a response after sending a request.
const DEFAULT_WAIT: u64 = 2_000;

/// The attacker's account credentials (provisioned by the world builder —
/// attackers can always sign up for their own account).
pub const ATTACKER_ID: &str = "attacker@evil.example";
/// The attacker's password.
pub const ATTACKER_PW: &str = "attacker-pw";

/// A request/response client over the world's raw attacker endpoint.
///
/// All traffic flows through the simulated WAN; nothing here has LAN
/// access or any privileged view of the cloud.
///
/// ```rust
/// use rb_attack::Adversary;
/// use rb_core::vendors;
/// use rb_scenario::WorldBuilder;
/// use rb_wire::messages::{Message, Response, UnbindPayload};
///
/// // Belkin's cloud honours anyone's unbind (A3-2).
/// let mut world = WorldBuilder::new(vendors::belkin(), 7).build();
/// world.run_setup();
/// let mut adv = Adversary::new();
/// let user_token = adv.login(&mut world);
/// let dev_id = world.homes[0].dev_id.clone();
/// let rsp = adv.request(
///     &mut world,
///     Message::Unbind(UnbindPayload::DevIdUserToken { dev_id, user_token }),
/// );
/// assert_eq!(rsp, Some(Response::Unbound));
/// ```
#[derive(Debug, Default)]
pub struct Adversary {
    corr: u64,
    /// The attacker's own user token, once logged in.
    pub user_token: Option<UserToken>,
    /// Unsolicited pushes received so far (the stolen data channel).
    pub(crate) pushes: Vec<Response>,
    /// Session token handed out with a stolen binding, if any.
    pub hijack_session: Option<SessionToken>,
    stashed: Vec<(CorrId, Response)>,
}

impl Adversary {
    /// A fresh adversary.
    pub fn new() -> Self {
        Adversary::default()
    }

    /// Sends a forged request to the cloud and waits up to `wait` ticks for
    /// the matching response. Pushes received meanwhile are collected into
    /// `Adversary::pushes`.
    pub fn request_wait(&mut self, world: &mut World, msg: Message, wait: u64) -> Option<Response> {
        self.corr += 1;
        let corr = CorrId(self.corr);
        let cloud = world.cloud;
        world.attacker_mut().queue(
            Dest::Unicast(cloud),
            Envelope::Request { corr, msg }.encode(),
        );
        world.run_for(wait);
        self.drain(world, Some(corr))
    }

    /// [`Adversary::request_wait`] with the default wait.
    pub fn request(&mut self, world: &mut World, msg: Message) -> Option<Response> {
        self.request_wait(world, msg, DEFAULT_WAIT)
    }

    /// Sends a request without waiting for the reply (used by race
    /// attacks); replies are picked up by later drains.
    pub fn fire(&mut self, world: &mut World, msg: Message) -> CorrId {
        self.corr += 1;
        let corr = CorrId(self.corr);
        let cloud = world.cloud;
        world.attacker_mut().queue(
            Dest::Unicast(cloud),
            Envelope::Request { corr, msg }.encode(),
        );
        corr
    }

    /// Drains the attacker inbox; returns the response matching `want` if
    /// present, stashing pushes and other responses.
    pub fn drain(&mut self, world: &mut World, want: Option<CorrId>) -> Option<Response> {
        let mut found = None;
        let mut others = Vec::new();
        for (_, bytes) in world.attacker_mut().take_inbox() {
            if let Ok(Envelope::Response { corr, rsp }) = Envelope::decode(&bytes) {
                if corr == CorrId(0) {
                    self.pushes.push(rsp);
                } else if Some(corr) == want && found.is_none() {
                    found = Some(rsp);
                } else {
                    others.push((corr, rsp));
                }
            }
        }
        self.stashed.extend(others);
        found
    }

    /// Responses that arrived for earlier `fire`s.
    pub fn stashed_responses(&self) -> &[(CorrId, Response)] {
        &self.stashed
    }

    /// Logs in with the attacker's own account.
    ///
    /// # Panics
    ///
    /// Panics if the login fails — the world builder always provisions the
    /// attacker account, so a failure is a harness bug.
    pub fn login(&mut self, world: &mut World) -> UserToken {
        let rsp = self.request(
            world,
            Message::Login {
                user_id: UserId::new(ATTACKER_ID),
                user_pw: UserPw::new(ATTACKER_PW),
            },
        );
        match rsp {
            Some(Response::LoginOk { user_token }) => {
                self.user_token = Some(user_token);
                user_token
            }
            other => panic!("attacker login failed: {other:?}"),
        }
    }

    /// Whether any collected push matches `pred`.
    pub(crate) fn saw_push(&self, pred: impl Fn(&Response) -> bool) -> bool {
        self.pushes.iter().any(pred)
    }
}
