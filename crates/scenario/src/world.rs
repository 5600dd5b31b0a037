//! The world builder.

use rb_app::{AppAgent, AppConfig};
use rb_cloud::{CloudConfig, CloudService, DefensePolicy};
use rb_core::design::{DeviceAuthScheme, SetupOrder, VendorDesign};
use rb_core::shadow::ShadowState;
use rb_device::{DeviceAgent, DeviceConfig};
use rb_netsim::{
    Dest, FaultPlan, LanId, LinkQuality, NodeConfig, NodeId, Profiler, SimRng, Simulation,
    Telemetry, Tick,
};
use rb_wire::codec::Frame;
use rb_wire::envelope::{CorrId, Envelope, WireFormat};
use rb_wire::ids::DevId;
use rb_wire::messages::{Message, Response};
use rb_wire::tokens::{UserId, UserPw};

use crate::RawEndpoint;

/// The attacker's own cloud account, provisioned in every world (an
/// attacker can always sign up for one).
pub const ATTACKER_ID: &str = "attacker@evil.example";
/// The attacker account's password.
pub const ATTACKER_PW: &str = "attacker-pw";

/// Home `i`'s public IP: the home NAT gives its app, device and any
/// console one address.
fn home_ip(i: usize) -> u32 {
    1000 + i as u32
}

/// One home: a LAN with the user's phone and device.
#[derive(Debug, Clone)]
pub struct Home {
    /// The home LAN.
    pub(crate) lan: LanId,
    /// The companion app's node.
    pub app: NodeId,
    /// The device's node.
    pub device: NodeId,
    /// The device's ID.
    pub dev_id: DevId,
    /// The resident's account.
    pub user_id: UserId,
    /// The resident's password.
    pub user_pw: UserPw,
}

/// Builder for a [`World`].
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    design: VendorDesign,
    seed: u64,
    homes: usize,
    lan_quality: LinkQuality,
    wan_quality: LinkQuality,
    user_bind_delay: u64,
    trace: bool,
    victim_paused: bool,
    home_lan_quality: Vec<(usize, LinkQuality)>,
    fault_plan: FaultPlan,
    telemetry: Telemetry,
    profiler: Profiler,
    defense: DefensePolicy,
}

impl WorldBuilder {
    /// A single-home world with deterministic (perfect) links — the
    /// configuration the attack campaigns use.
    pub fn new(design: VendorDesign, seed: u64) -> Self {
        WorldBuilder {
            design,
            seed,
            homes: 1,
            lan_quality: LinkQuality::perfect(),
            wan_quality: LinkQuality::perfect(),
            user_bind_delay: 5_000,
            trace: false,
            victim_paused: false,
            home_lan_quality: Vec::new(),
            fault_plan: FaultPlan::new(),
            telemetry: Telemetry::new(),
            profiler: Profiler::disabled(),
            defense: DefensePolicy::disabled(),
        }
    }

    /// Installs an active-response policy on the cloud (monitor-enabled
    /// world). The default is the disabled policy, under which the monitor
    /// observes but the cloud never intervenes — byte-identical to a world
    /// built without this call.
    pub fn defense(mut self, policy: DefensePolicy) -> Self {
        self.defense = policy;
        self
    }

    /// Shares an external metrics registry with every layer of the world
    /// (sim engine, cloud, apps, devices). Campaigns that build several
    /// worlds can pass the same handle to aggregate across them; by
    /// default each world gets a private registry.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Shares a phase profiler with the tick-consuming layers (sim event
    /// loop, cloud request path). Disabled by default, so building a world
    /// without one adds a single branch per event.
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Number of victim homes (each with one app and one device).
    pub fn homes(mut self, n: usize) -> Self {
        self.homes = n.max(1);
        self
    }

    /// Use realistic lossy/jittery links instead of perfect ones.
    pub fn realistic_links(mut self) -> Self {
        self.lan_quality = LinkQuality::lan();
        self.wan_quality = LinkQuality::wan();
        self
    }

    /// Override the link qualities.
    pub fn link_quality(mut self, lan: LinkQuality, wan: LinkQuality) -> Self {
        self.lan_quality = lan;
        self.wan_quality = wan;
        self
    }

    /// Overrides the LAN quality of one home (e.g. a
    /// [`LinkQuality::degraded`] Wi-Fi) while the rest of the world keeps
    /// the global quality.
    pub fn home_lan_quality(mut self, home: usize, quality: LinkQuality) -> Self {
        self.home_lan_quality.push((home, quality));
        self
    }

    /// Schedules a fault plan to be injected from the start of the run.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = self.fault_plan.merge(plan);
        self
    }

    /// The human delay between device setup and binding (the A4-2 window).
    pub fn user_bind_delay(mut self, ticks: u64) -> Self {
        self.user_bind_delay = ticks;
        self
    }

    /// Enable network tracing (for the figure experiments).
    pub fn trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Start with every victim home powered off — the devices are still in
    /// their boxes (the *initial* shadow state the A2 attack targets).
    /// Call [`World::resume_victims`] to unbox them.
    pub fn victim_paused(mut self) -> Self {
        self.victim_paused = true;
        self
    }

    /// Assembles the world.
    pub fn build(self) -> World {
        let mut sim = Simulation::with_quality(self.seed, self.lan_quality, self.wan_quality);
        sim.set_telemetry(self.telemetry.clone());
        sim.set_profiler(self.profiler.clone());
        if self.trace {
            sim.enable_trace();
        }
        let mut rng = SimRng::new(self.seed ^ 0x5eed_5eed);

        let mut cloud_service = CloudService::new(CloudConfig::new(self.design.clone()));
        cloud_service.set_telemetry(self.telemetry.clone());
        cloud_service.set_profiler(self.profiler.clone());
        cloud_service.set_defense(self.defense.clone());
        // Forensic marks only make sense when there is a trace to attach
        // them to; untraced worlds skip the string formatting entirely.
        cloud_service.set_forensics(self.trace);
        cloud_service.provision_account(UserId::new(ATTACKER_ID), UserPw::new(ATTACKER_PW));

        // Manufacture one device per home plus a registry tail, so the ID
        // space looks like a real product series (the DoS experiment
        // enumerates it).
        let mut dev_ids = Vec::new();
        let mut secrets = Vec::new();
        let mut keys = Vec::new();
        for i in 0..self.homes {
            let dev_id = self.design.id_scheme.id_at(i as u64);
            let secret = rng.entropy128();
            let key = if self.design.auth == DeviceAuthScheme::PublicKey {
                Some((i as u64 + 1, rng.entropy128()))
            } else {
                None
            };
            cloud_service.manufacture(dev_id.clone(), secret, key);
            dev_ids.push(dev_id);
            secrets.push(secret);
            keys.push(key);
        }

        let mut accounts = Vec::new();
        for i in 0..self.homes {
            let user_id = UserId::new(format!("user{i}@example.com"));
            let user_pw = UserPw::new(format!("pw-{i}"));
            cloud_service.provision_account(user_id.clone(), user_pw.clone());
            accounts.push((user_id, user_pw));
        }

        let cloud = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(cloud_service));

        let mut homes = Vec::new();
        for i in 0..self.homes {
            let lan = LanId(i as u32);
            let (user_id, user_pw) = accounts[i].clone();
            let dev_id = dev_ids[i].clone();

            let mut device_agent = DeviceAgent::new(DeviceConfig {
                design: self.design.clone(),
                dev_id: dev_id.clone(),
                factory_secret: secrets[i],
                key: keys[i],
                cloud,
            });
            device_agent.set_telemetry(self.telemetry.clone());
            let device = sim.add_node(
                NodeConfig::dual(format!("device{i}"), lan),
                Box::new(device_agent),
            );

            let mut app_config = AppConfig::new(
                self.design.clone(),
                cloud,
                lan,
                user_id.clone(),
                user_pw.clone(),
            );
            app_config.user_bind_delay = self.user_bind_delay;
            if self.design.setup_order == SetupOrder::BindFirst {
                app_config.known_label = Some(dev_id.clone());
            }
            let mut app_agent = AppAgent::new(app_config);
            app_agent.set_telemetry(self.telemetry.clone());
            let app = sim.add_node(
                NodeConfig::dual(format!("app{i}"), lan),
                Box::new(app_agent),
            );

            let public_ip = home_ip(i);
            let Some(cloud_actor) = sim.actor_mut::<CloudService>(cloud) else {
                unreachable!("the cloud node is always a CloudService");
            };
            cloud_actor.set_public_ip(app, public_ip);
            cloud_actor.set_public_ip(device, public_ip);

            homes.push(Home {
                lan,
                app,
                device,
                dev_id,
                user_id,
                user_pw,
            });
        }

        if self.victim_paused {
            for home in &homes {
                sim.set_power(home.app, false);
                sim.set_power(home.device, false);
            }
        }

        let attacker = sim.add_node(
            NodeConfig::wan_only("attacker"),
            Box::new(RawEndpoint::new()),
        );
        let Some(cloud_actor) = sim.actor_mut::<CloudService>(cloud) else {
            unreachable!("the cloud node is always a CloudService");
        };
        cloud_actor.set_public_ip(attacker, 9_999);

        for (home, quality) in &self.home_lan_quality {
            if *home < self.homes {
                sim.set_lan_quality(LanId(*home as u32), Some(*quality));
            }
        }
        if !self.fault_plan.is_empty() {
            sim.apply_fault_plan(&self.fault_plan);
        }

        World {
            design: self.design,
            sim,
            cloud,
            homes,
            attacker,
            seed: self.seed,
            telemetry: self.telemetry,
        }
    }
}

/// A running world.
pub struct World {
    /// The vendor design in force.
    pub design: VendorDesign,
    /// The simulator.
    pub sim: Simulation,
    /// The cloud's node.
    pub cloud: NodeId,
    /// The victim homes.
    pub homes: Vec<Home>,
    /// The attacker's WAN endpoint.
    pub attacker: NodeId,
    /// The seed the world was built from.
    seed: u64,
    /// The metrics registry shared by every layer of this world.
    telemetry: Telemetry,
}

impl World {
    /// The seed this world was built from (runs are pure functions of
    /// `(design, seed)`, so captures carry it for reproduction).
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The metrics registry shared by the sim engine, the cloud, and every
    /// agent in this world.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The one wire format every world speaks. It selects nothing: it
    /// exists only so the benchmark package in `perfbench/` still builds.
    pub fn codec(&self) -> WireFormat {
        WireFormat
    }

    /// The cloud service (immutable).
    pub fn cloud(&self) -> &CloudService {
        self.sim
            .actor::<CloudService>(self.cloud)
            .unwrap_or_else(|| unreachable!("the cloud node is always a CloudService"))
    }

    /// The cloud service (mutable).
    pub fn cloud_mut(&mut self) -> &mut CloudService {
        self.sim
            .actor_mut::<CloudService>(self.cloud)
            .unwrap_or_else(|| unreachable!("the cloud node is always a CloudService"))
    }

    /// Home `i`'s app.
    pub fn app(&self, i: usize) -> &AppAgent {
        self.sim
            .actor::<AppAgent>(self.homes[i].app)
            .unwrap_or_else(|| unreachable!("home app nodes are always AppAgents"))
    }

    /// Home `i`'s app (mutable: queue controls, unbinds).
    pub fn app_mut(&mut self, i: usize) -> &mut AppAgent {
        self.sim
            .actor_mut::<AppAgent>(self.homes[i].app)
            .unwrap_or_else(|| unreachable!("home app nodes are always AppAgents"))
    }

    /// Home `i`'s device.
    pub fn device(&self, i: usize) -> &DeviceAgent {
        self.sim
            .actor::<DeviceAgent>(self.homes[i].device)
            .unwrap_or_else(|| unreachable!("home device nodes are always DeviceAgents"))
    }

    /// Home `i`'s device (mutable: press buttons, queue resets).
    pub fn device_mut(&mut self, i: usize) -> &mut DeviceAgent {
        self.sim
            .actor_mut::<DeviceAgent>(self.homes[i].device)
            .unwrap_or_else(|| unreachable!("home device nodes are always DeviceAgents"))
    }

    /// The attacker endpoint (mutable: queue forged frames, read inbox).
    pub fn attacker_mut(&mut self) -> &mut RawEndpoint {
        self.endpoint_mut(self.attacker)
    }

    /// The raw endpoint at `node`: the attacker or a
    /// [`World::add_home_console`] node. Panics on any other node.
    pub fn endpoint_mut(&mut self, node: NodeId) -> &mut RawEndpoint {
        self.sim
            .actor_mut::<RawEndpoint>(node)
            .unwrap_or_else(|| unreachable!("{node:?} is not a RawEndpoint"))
    }

    /// Sends `msg` to the cloud from the raw endpoint `from` under `corr`,
    /// runs the world for `wait` ticks and returns the response carrying
    /// `corr`, if one arrived. Everything else the endpoint received in
    /// the meantime is dropped.
    pub fn request_from(
        &mut self,
        from: NodeId,
        corr: CorrId,
        msg: Message,
        wait: u64,
    ) -> Option<Response> {
        let cloud = self.cloud;
        self.endpoint_mut(from).queue(
            Dest::Unicast(cloud),
            Envelope::Request { corr, msg }.encode(),
        );
        self.sim.run_for(wait);
        self.endpoint_mut(from)
            .drain_inbox()
            .find_map(|(_, bytes)| {
                let frame = Frame::read(&bytes).ok()?;
                if frame.corr != corr {
                    return None;
                }
                frame.response().ok()
            })
    }

    /// The owner's presence proof: on designs whose cloud binds only
    /// after the device reports a local button press, presses home `i`'s
    /// button (the press rides in the device's next status). Returns
    /// whether the design asked for the press.
    pub fn press_setup_button(&mut self, i: usize) -> bool {
        let needed = self.design.checks.bind_requires_local_proof;
        if needed {
            self.device_mut(i).press_button();
        }
        needed
    }

    /// The shadow state of home `i`'s device.
    pub fn shadow_state(&self, i: usize) -> ShadowState {
        self.cloud().shadow_state(&self.homes[i].dev_id)
    }

    /// Runs the full setup flow for every home: provisioning, registration,
    /// binding. Presses the device button as needed for designs requiring
    /// the local ownership proof. Panics if setup does not converge — the
    /// happy path must always work, for every design.
    pub fn run_setup(&mut self) {
        assert!(
            self.try_run_setup(300_000),
            "setup did not converge for {}: home states {:?}",
            self.design.vendor,
            (0..self.homes.len())
                .map(|i| (
                    self.app(i).setup_complete(),
                    self.app(i).is_bound(),
                    self.shadow_state(i)
                ))
                .collect::<Vec<_>>()
        );
    }

    /// Like [`World::run_setup`] but returns `false` instead of panicking
    /// when the setup does not converge within `max_ticks` — which is the
    /// *expected* result while a binding-DoS attack is in effect.
    pub fn try_run_setup(&mut self, max_ticks: u64) -> bool {
        let deadline = self.sim.now().saturating_add(max_ticks);
        loop {
            // Keep the button freshly pressed through setup (the user is
            // standing next to the device as instructed by the app).
            for i in 0..self.homes.len() {
                if !self.app(i).is_bound() {
                    self.press_setup_button(i);
                }
            }
            self.sim.run_for(1_000);
            let all_done = (0..self.homes.len())
                .all(|i| self.app(i).is_bound() && self.shadow_state(i) == ShadowState::Control);
            if all_done {
                // One extra beat lets post-binding session tokens reach the
                // device and appear in a heartbeat.
                if self.design.checks.post_binding_session {
                    self.sim.run_for(3 * 2_000 + 100);
                }
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
        }
    }

    /// Runs the simulation in short slices until `pred` holds or
    /// `max_ticks` have elapsed; returns whether the predicate held.
    ///
    /// This is the bounded convergence driver every interpreter-style
    /// harness (counterexample replay, the lifecycle fuzzer) must use
    /// instead of an open `loop { run_for(..) }`: a livelocked or
    /// never-converging interleaving costs at most `max_ticks` of
    /// simulated time (plus one trailing slice) and then reports `false`
    /// rather than hanging the harness.
    pub fn try_run_until(&mut self, max_ticks: u64, pred: impl Fn(&World) -> bool) -> bool {
        let deadline = self.sim.now().saturating_add(max_ticks);
        loop {
            if pred(self) {
                return true;
            }
            if self.sim.now() >= deadline {
                return false;
            }
            self.sim.run_for(200);
        }
    }

    /// Adds a raw endpoint on home `i`'s LAN that shares the home's
    /// public IP — a "console" harnesses use to drive the resident's
    /// honest traffic (logins, binds, unbinds, AP-mode provisioning,
    /// local session delivery) as explicit exchanges
    /// ([`World::request_from`] for the cloud's), without the scripted
    /// app agent. To the cloud it is indistinguishable from the home's
    /// app.
    pub fn add_home_console(&mut self, i: usize) -> NodeId {
        let lan = self.homes[i].lan;
        let node = self.sim.add_node(
            NodeConfig::dual(format!("console{i}"), lan),
            Box::new(RawEndpoint::new()),
        );
        self.cloud_mut().set_public_ip(node, home_ip(i));
        node
    }

    /// Unboxes paused victim homes: powers their apps and devices on.
    pub fn resume_victims(&mut self) {
        for i in 0..self.homes.len() {
            let (app, device) = (self.homes[i].app, self.homes[i].device);
            self.sim.set_power(app, true);
            self.sim.set_power(device, true);
        }
    }

    /// Runs the simulation for `ticks`.
    pub fn run_for(&mut self, ticks: u64) {
        self.sim.run_for(ticks);
    }

    /// Injects further faults relative to the current time (events in the
    /// past of the sim clock fire immediately).
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        self.sim.apply_fault_plan(plan);
    }

    /// Current simulated time.
    pub fn now(&self) -> Tick {
        self.sim.now()
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("vendor", &self.design.vendor)
            .field("homes", &self.homes.len())
            .field("now", &self.sim.now())
            .finish()
    }
}
