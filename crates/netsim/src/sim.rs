//! The discrete-event simulation engine.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

use bytes::Bytes;
use rb_prof::Profiler;
use rb_telemetry::Telemetry;

use crate::actor::{Actor, Ctx, Effect, TimerKey};
use crate::fault::{Fault, FaultPlan};
use crate::quality::LinkQuality;
use crate::rng::SimRng;
use crate::time::Tick;
use crate::topology::{LanId, NodeId};
use crate::trace::{TraceCtx, TraceEntry, TraceEvent};

/// Where a packet is going.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dest {
    /// A single node (routed over the LAN if shared, else the WAN).
    Unicast(NodeId),
    /// Every powered node on a LAN except the sender. Only nodes *on* that
    /// LAN may broadcast to it — this is the firewall the paper's adversary
    /// cannot cross.
    Broadcast(LanId),
}

/// Connectivity of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// Human-readable name for traces. Interned behind an `Arc`: cloning a
    /// config (or the fleet engine building thousands of homes) shares one
    /// allocation per name instead of copying the string.
    pub name: Arc<str>,
    /// LAN membership, if any.
    pub lan: Option<LanId>,
    /// Whether the node can reach the WAN.
    pub wan: bool,
}

impl NodeConfig {
    /// A node with WAN access only (cloud, remote attacker).
    pub fn wan_only(name: impl Into<Arc<str>>) -> Self {
        NodeConfig {
            name: name.into(),
            lan: None,
            wan: true,
        }
    }

    /// A node confined to a LAN (an unprovisioned device, a Zigbee bulb
    /// behind a hub).
    pub fn lan_only(name: impl Into<Arc<str>>, lan: LanId) -> Self {
        NodeConfig {
            name: name.into(),
            lan: Some(lan),
            wan: false,
        }
    }

    /// A node on a LAN with WAN access through the home router (a
    /// provisioned device, the user's phone).
    pub fn dual(name: impl Into<Arc<str>>, lan: LanId) -> Self {
        NodeConfig {
            name: name.into(),
            lan: Some(lan),
            wan: true,
        }
    }
}

struct Node {
    config: NodeConfig,
    powered: bool,
    wan_partitioned: bool,
    actor: Box<dyn Actor>,
}

#[derive(Debug)]
enum EventKind {
    Start {
        node: NodeId,
    },
    Deliver {
        from: NodeId,
        to: NodeId,
        // Shared, not owned: broadcasts and duplicated packets reference
        // one buffer instead of cloning the bytes per delivery, and actors
        // can slice it without copying (zero-copy decode).
        payload: Bytes,
        ctx: TraceCtx,
    },
    Timer {
        node: NodeId,
        key: TimerKey,
    },
    Inject {
        fault: Fault,
    },
}

struct Event {
    at: Tick,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The deterministic discrete-event simulator.
///
/// See the [crate docs](crate) for an overview and example.
pub struct Simulation {
    nodes: Vec<Node>,
    queue: BinaryHeap<Reverse<Event>>,
    now: Tick,
    seq: u64,
    rng: SimRng,
    lan_quality: LinkQuality,
    wan_quality: LinkQuality,
    trace: Option<Vec<TraceEntry>>,
    /// NAT connection tracking: `(inside, outside)` pairs for which the
    /// LAN-homed `inside` node has initiated WAN traffic to `outside`,
    /// opening the return path through its home router.
    nat_flows: HashSet<(NodeId, NodeId)>,
    // Fault-injection state (all default to "no fault in effect").
    partitioned_lans: HashSet<LanId>,
    lan_quality_override: HashMap<LanId, LinkQuality>,
    wan_quality_override: Option<LinkQuality>,
    pair_quality_override: HashMap<(NodeId, NodeId), LinkQuality>,
    dup_per_mille: u16,
    reorder_per_mille: u16,
    reorder_extra_max: u64,
    /// Next causal-tree id (1-based; plain counters, no RNG, so causal
    /// tracing cannot perturb the event stream).
    next_trace_id: u64,
    /// Next span id (1-based, unique per packet attempt / root mark).
    next_span_id: u64,
    /// Metrics sink. Counter updates never draw randomness or schedule
    /// events, so instrumentation cannot perturb the event stream.
    telemetry: Telemetry,
    /// Phase profiler. Disabled by default (one branch per event); when a
    /// harness installs a recording handle, each dispatched event becomes
    /// a phase (`sim.deliver`, `sim.timer`, …) charged the tick gap that
    /// led up to it, and the per-packet fault check is tallied. Profiling
    /// never draws randomness or schedules events, so it cannot perturb
    /// the event stream.
    profiler: Profiler,
    /// When set, actor marks and injected faults are also published onto
    /// the telemetry streaming bus (topics `mark` / `fault`) so online
    /// subscribers can watch the run live without collecting a trace.
    stream_tap: bool,
}

impl Simulation {
    /// Creates a simulation with realistic default link qualities
    /// ([`LinkQuality::lan`] / [`LinkQuality::wan`]).
    pub fn new(seed: u64) -> Self {
        Simulation::with_quality(seed, LinkQuality::lan(), LinkQuality::wan())
    }

    /// Creates a simulation with explicit link qualities.
    ///
    /// # Panics
    ///
    /// Panics if either quality is invalid (`latency_min > latency_max` or
    /// drop rate > 1000‰).
    pub fn with_quality(seed: u64, lan: LinkQuality, wan: LinkQuality) -> Self {
        assert!(lan.is_valid(), "invalid lan quality");
        assert!(wan.is_valid(), "invalid wan quality");
        Simulation {
            nodes: Vec::new(),
            // Pre-sized: a single-home binding run schedules a few hundred
            // in-flight events; starting at 256 avoids the doubling churn.
            queue: BinaryHeap::with_capacity(256),
            now: Tick::ZERO,
            seq: 0,
            rng: SimRng::new(seed),
            lan_quality: lan,
            wan_quality: wan,
            trace: None,
            nat_flows: HashSet::new(),
            partitioned_lans: HashSet::new(),
            lan_quality_override: HashMap::new(),
            wan_quality_override: None,
            pair_quality_override: HashMap::new(),
            dup_per_mille: 0,
            reorder_per_mille: 0,
            reorder_extra_max: 0,
            next_trace_id: 1,
            next_span_id: 1,
            telemetry: Telemetry::new(),
            profiler: Profiler::disabled(),
            stream_tap: false,
        }
    }

    /// Enables the event-stream tap: every actor mark and injected fault is
    /// mirrored onto the telemetry streaming bus as it happens (topic
    /// `mark` / `fault`), independent of whether tracing is enabled. Off by
    /// default; the stream never appears in the rendered exporters, so
    /// enabling the tap cannot perturb metric goldens.
    pub fn enable_stream_tap(&mut self) {
        self.stream_tap = true;
    }

    /// The simulation's telemetry handle (clone it to share the registry
    /// with actors and experiment harnesses).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Replaces the telemetry handle so several components can record into
    /// one externally owned registry. Call before the first event runs;
    /// metrics recorded into the previous handle are not migrated.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The simulation's phase-profiler handle (disabled unless a harness
    /// installed a recording one).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Installs a phase profiler: every subsequently dispatched event is
    /// charged to a `sim.*` phase under whatever phase the harness holds
    /// open. Call before the first event runs.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Enables event tracing (off by default; traces grow unbounded).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The trace collected so far (empty if tracing is disabled).
    pub fn trace(&self) -> &[TraceEntry] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Appends a free-form note to the trace.
    pub fn note(&mut self, node: NodeId, text: impl Into<String>) {
        let at = self.now;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEntry {
                at,
                event: TraceEvent::Note {
                    node,
                    text: text.into(),
                },
            });
        }
    }

    /// Registers a node and schedules its [`Actor::on_start`] at the
    /// current instant. Returns the new node's id.
    pub fn add_node(&mut self, config: NodeConfig, actor: Box<dyn Actor>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            config,
            powered: true,
            wan_partitioned: false,
            actor,
        });
        let at = self.now;
        self.push_event(at, EventKind::Start { node: id });
        id
    }

    /// The current virtual time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configured name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.0 as usize].config.name
    }

    /// Immutable access to a node's actor, downcast to its concrete type.
    pub fn actor<T: Actor>(&self, id: NodeId) -> Option<&T> {
        let a: &dyn Actor = self.nodes.get(id.0 as usize)?.actor.as_ref();
        (a as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable access to a node's actor, downcast to its concrete type.
    pub fn actor_mut<T: Actor>(&mut self, id: NodeId) -> Option<&mut T> {
        let a: &mut dyn Actor = self.nodes.get_mut(id.0 as usize)?.actor.as_mut();
        (a as &mut dyn Any).downcast_mut::<T>()
    }

    /// Powers a node on or off. Powered-off nodes receive no packets or
    /// timers; pending deliveries to them are dropped at delivery time.
    pub fn set_power(&mut self, id: NodeId, powered: bool) {
        let node = &mut self.nodes[id.0 as usize];
        if node.powered == powered {
            return;
        }
        node.powered = powered;
        let at = self.now;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEntry {
                at,
                event: TraceEvent::Power { node: id, powered },
            });
        }
        self.with_actor(id, None, |actor, ctx| actor.on_power(ctx, powered));
    }

    /// Whether a node is currently powered.
    pub fn is_powered(&self, id: NodeId) -> bool {
        self.nodes[id.0 as usize].powered
    }

    /// Cuts (or restores) a node's WAN uplink without touching its LAN —
    /// models the "connection disruption" consequence of the paper's A3
    /// attacks, and ISP outages for failure injection.
    pub fn partition_wan(&mut self, id: NodeId, partitioned: bool) {
        self.nodes[id.0 as usize].wan_partitioned = partitioned;
    }

    /// Partitions (or heals) a whole LAN: local unicast and broadcast on it
    /// fail while partitioned. WAN uplinks of its members are unaffected.
    pub fn partition_lan(&mut self, lan: LanId, partitioned: bool) {
        if partitioned {
            self.partitioned_lans.insert(lan);
        } else {
            self.partitioned_lans.remove(&lan);
        }
    }

    /// Overrides (or, with `None`, restores) the quality of one LAN —
    /// per-link quality for scenarios with heterogeneous homes.
    pub fn set_lan_quality(&mut self, lan: LanId, quality: Option<LinkQuality>) {
        match quality {
            Some(q) => {
                assert!(q.is_valid(), "invalid lan quality override");
                self.lan_quality_override.insert(lan, q);
            }
            None => {
                self.lan_quality_override.remove(&lan);
            }
        }
    }

    /// Overrides (or restores) the WAN quality.
    pub fn set_wan_quality(&mut self, quality: Option<LinkQuality>) {
        if let Some(q) = quality {
            assert!(q.is_valid(), "invalid wan quality override");
        }
        self.wan_quality_override = quality;
    }

    /// Overrides (or restores) the quality of the directed path
    /// `from -> to`. Takes precedence over LAN/WAN overrides.
    pub fn set_pair_quality(&mut self, from: NodeId, to: NodeId, quality: Option<LinkQuality>) {
        match quality {
            Some(q) => {
                assert!(q.is_valid(), "invalid pair quality override");
                self.pair_quality_override.insert((from, to), q);
            }
            None => {
                self.pair_quality_override.remove(&(from, to));
            }
        }
    }

    /// Sets the delivery-chaos knobs (duplication/reordering); all zeros
    /// turns chaos off. With the knobs at zero no extra RNG draws are made,
    /// so enabling chaos never perturbs unrelated runs.
    pub fn set_chaos(
        &mut self,
        dup_per_mille: u16,
        reorder_per_mille: u16,
        reorder_extra_max: u64,
    ) {
        self.dup_per_mille = dup_per_mille.min(1000);
        self.reorder_per_mille = reorder_per_mille.min(1000);
        self.reorder_extra_max = reorder_extra_max;
    }

    /// Schedules every event of a [`FaultPlan`] for execution by the event
    /// loop. Times in the past fire at the current instant; injection is
    /// recorded in the trace.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for (at, fault) in plan.events() {
            let at = at.max(self.now);
            self.push_event(at, EventKind::Inject { fault });
        }
    }

    fn inject(&mut self, fault: Fault) {
        self.telemetry.incr("sim_faults_injected_total");
        let at = self.now;
        if self.stream_tap {
            self.telemetry
                .publish(at.as_u64(), "fault", &fault.to_string());
        }
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEntry {
                at,
                event: TraceEvent::Fault {
                    text: fault.to_string(),
                },
            });
        }
        match fault {
            Fault::WanPartition { node, partitioned } => self.partition_wan(node, partitioned),
            Fault::LanPartition { lan, partitioned } => self.partition_lan(lan, partitioned),
            Fault::Crash { node } => self.set_power(node, false),
            Fault::Restart { node } => self.set_power(node, true),
            Fault::LanQuality { lan, quality } => self.set_lan_quality(lan, quality),
            Fault::WanQuality { quality } => self.set_wan_quality(quality),
            Fault::PairQuality { from, to, quality } => self.set_pair_quality(from, to, quality),
            Fault::Chaos {
                dup_per_mille,
                reorder_per_mille,
                reorder_extra_max,
            } => self.set_chaos(dup_per_mille, reorder_per_mille, reorder_extra_max),
        }
    }

    /// Runs the event loop until virtual time reaches `until` (inclusive of
    /// events at `until`). The clock is left at `until`.
    pub fn run_until(&mut self, until: Tick) {
        while let Some(Reverse(ev)) = self.queue.pop() {
            if ev.at > until {
                // Beyond the horizon: put it back for a later run.
                self.queue.push(Reverse(ev));
                break;
            }
            let gap = ev.at.as_u64().saturating_sub(self.now.as_u64());
            self.now = ev.at;
            self.dispatch_profiled(ev, gap);
        }
        if self.now < until {
            self.now = until;
        }
    }

    /// Runs for `delta` more ticks.
    pub fn run_for(&mut self, delta: u64) {
        let until = self.now.saturating_add(delta);
        self.run_until(until);
    }

    /// Processes a single event. Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(Reverse(ev)) => {
                let gap = ev.at.as_u64().saturating_sub(self.now.as_u64());
                self.now = ev.at;
                self.dispatch_profiled(ev, gap);
                true
            }
            None => false,
        }
    }

    /// Whether any events remain scheduled.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    // -- internals ----------------------------------------------------------

    fn push_event(&mut self, at: Tick, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { at, seq, kind }));
    }

    /// Dispatches one event, attributing the tick gap that led up to it
    /// (`gap = ev.at - previous now`) to the event's phase. Events are
    /// instantaneous in tick time, so the gap *is* where simulated time
    /// goes: `sim.deliver` accumulates delivery latency, `sim.timer`
    /// accumulates waits. Profiling off (the default) costs one branch.
    fn dispatch_profiled(&mut self, ev: Event, gap: u64) {
        if !self.profiler.is_enabled() {
            self.dispatch(ev);
            return;
        }
        let name = match ev.kind {
            EventKind::Start { .. } => "sim.start",
            EventKind::Deliver { .. } => "sim.deliver",
            EventKind::Timer { .. } => "sim.timer",
            EventKind::Inject { .. } => "sim.inject",
        };
        let now = self.now.as_u64();
        let token = self.profiler.enter(name, now);
        self.dispatch(ev);
        self.profiler.exit_add(token, now, gap);
    }

    fn dispatch(&mut self, ev: Event) {
        // One branch instead of a mutex round-trip when recording is off —
        // the fleet engine runs every cell with a disabled handle.
        if self.telemetry.is_enabled() {
            let now = self.now.as_u64();
            self.telemetry.with(|r| {
                r.counter_add("sim_events_total", 1);
                r.gauge_set("sim_now_ticks", i64::try_from(now).unwrap_or(i64::MAX));
            });
        }
        match ev.kind {
            EventKind::Start { node } => {
                if self.nodes[node.0 as usize].powered {
                    self.with_actor(node, None, |actor, ctx| actor.on_start(ctx));
                }
            }
            EventKind::Deliver {
                from,
                to,
                payload,
                ctx,
            } => {
                if !self.nodes[to.0 as usize].powered {
                    self.telemetry
                        .incr("sim_packets_dropped_total{reason=\"powered-off\"}");
                    self.telemetry.counter_add(
                        "sim_packet_bytes_dropped_total{reason=\"powered-off\"}",
                        payload.len() as u64,
                    );
                    let at = self.now;
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEntry {
                            at,
                            event: TraceEvent::Dropped {
                                from,
                                to,
                                bytes: payload.len(),
                                ctx,
                            },
                        });
                    }
                    return;
                }
                self.telemetry.incr("sim_packets_delivered_total");
                let at = self.now;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEntry {
                        at,
                        event: TraceEvent::Delivered {
                            from,
                            to,
                            bytes: payload.len(),
                            ctx,
                        },
                    });
                }
                self.with_actor(to, Some(ctx), |actor, actor_ctx| {
                    actor.on_packet(actor_ctx, from, &payload);
                });
            }
            EventKind::Timer { node, key } => {
                if self.nodes[node.0 as usize].powered {
                    self.with_actor(node, None, |actor, ctx| actor.on_timer(ctx, key));
                }
            }
            EventKind::Inject { fault } => self.inject(fault),
        }
    }

    /// Runs `f` against a node's actor with a fresh context, then applies
    /// the effects the actor produced.
    ///
    /// Causal propagation happens here: when the callback handles a
    /// delivered packet (`cause` is `Some`), every send it requests becomes
    /// a child span of that packet and every mark carries the packet's
    /// context verbatim. Callbacks with no cause (start, timers, power)
    /// lazily open a fresh trace on their first effect, so a heartbeat tick,
    /// a queued user action, or an attacker's injected frame each roots its
    /// own causal tree.
    fn with_actor(
        &mut self,
        id: NodeId,
        cause: Option<TraceCtx>,
        f: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>),
    ) {
        let mut effects = Vec::new();
        {
            let node = &mut self.nodes[id.0 as usize];
            let mut ctx = Ctx {
                now: self.now,
                self_id: id,
                rng: &mut self.rng,
                effects: &mut effects,
            };
            f(node.actor.as_mut(), &mut ctx);
        }
        let mut callback_trace = cause.map(|c| c.trace_id);
        let parent = cause.map_or(0, |c| c.span_id);
        for effect in effects {
            match effect {
                Effect::Send { dest, payload } => {
                    let trace_id = match callback_trace {
                        Some(t) => t,
                        None => {
                            let t = self.alloc_trace();
                            callback_trace = Some(t);
                            t
                        }
                    };
                    self.route(id, dest, payload, trace_id, parent);
                }
                Effect::Timer { fire_at, key } => {
                    self.push_event(fire_at, EventKind::Timer { node: id, key });
                }
                Effect::Mark { text } => {
                    let ctx = match cause {
                        // A mark made while handling a packet belongs to
                        // that packet's span: "this message caused this".
                        Some(c) => c,
                        None => {
                            let trace_id = match callback_trace {
                                Some(t) => t,
                                None => {
                                    let t = self.alloc_trace();
                                    callback_trace = Some(t);
                                    t
                                }
                            };
                            self.alloc_ctx(trace_id, 0)
                        }
                    };
                    let at = self.now;
                    if self.stream_tap {
                        self.telemetry.publish(at.as_u64(), "mark", &text);
                    }
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEntry {
                            at,
                            event: TraceEvent::Mark {
                                node: id,
                                text,
                                ctx,
                            },
                        });
                    }
                }
            }
        }
    }

    /// Allocates a fresh causal-tree id.
    fn alloc_trace(&mut self) -> u64 {
        let t = self.next_trace_id;
        self.next_trace_id += 1;
        t
    }

    /// Allocates a fresh span within `trace_id` under `parent_span_id`.
    fn alloc_ctx(&mut self, trace_id: u64, parent_span_id: u64) -> TraceCtx {
        let span_id = self.next_span_id;
        self.next_span_id += 1;
        TraceCtx {
            trace_id,
            span_id,
            parent_span_id,
        }
    }

    fn route(&mut self, from: NodeId, dest: Dest, payload: Bytes, trace_id: u64, parent: u64) {
        match dest {
            Dest::Unicast(to) => self.route_unicast(from, to, payload, trace_id, parent),
            Dest::Broadcast(lan) => {
                // Only a member of the LAN may broadcast on it, and only
                // while the LAN is up.
                if self.nodes[from.0 as usize].config.lan != Some(lan)
                    || self.partitioned_lans.contains(&lan)
                {
                    let ctx = self.alloc_ctx(trace_id, parent);
                    self.telemetry.incr("sim_packets_unroutable_total");
                    self.telemetry
                        .counter_add("sim_packet_bytes_unroutable_total", payload.len() as u64);
                    let at = self.now;
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEntry {
                            at,
                            event: TraceEvent::Unroutable {
                                from,
                                to: from,
                                bytes: payload.len(),
                                ctx,
                            },
                        });
                    }
                    return;
                }
                let recipients: Vec<NodeId> = self
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(i, n)| {
                        NodeId(*i as u32) != from && n.powered && n.config.lan == Some(lan)
                    })
                    .map(|(i, _)| NodeId(i as u32))
                    .collect();
                let quality = self.effective_lan_quality(lan);
                for to in recipients {
                    let ctx = self.alloc_ctx(trace_id, parent);
                    self.schedule_delivery(from, to, payload.clone(), quality, ctx);
                }
            }
        }
    }

    fn route_unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Bytes,
        trace_id: u64,
        parent: u64,
    ) {
        let ctx = self.alloc_ctx(trace_id, parent);
        let Some(quality) = self.path_quality(from, to) else {
            self.telemetry.incr("sim_packets_unroutable_total");
            self.telemetry
                .counter_add("sim_packet_bytes_unroutable_total", payload.len() as u64);
            let at = self.now;
            if let Some(t) = self.trace.as_mut() {
                t.push(TraceEntry {
                    at,
                    event: TraceEvent::Unroutable {
                        from,
                        to,
                        bytes: payload.len(),
                        ctx,
                    },
                });
            }
            return;
        };
        // NAT semantics on the WAN path: a LAN-homed node sits behind its
        // home router and is unreachable from the WAN unless it initiated
        // traffic to that peer first (connection tracking). This enforces
        // the paper's adversary model: remote attackers can talk to the
        // cloud, never to the devices.
        let same_lan = {
            let a = &self.nodes[from.0 as usize].config;
            let b = &self.nodes[to.0 as usize].config;
            a.lan.is_some() && a.lan == b.lan
        };
        if !same_lan {
            let to_behind_nat = self.nodes[to.0 as usize].config.lan.is_some();
            if to_behind_nat && !self.nat_flows.contains(&(to, from)) {
                self.telemetry.incr("sim_packets_unroutable_total");
                self.telemetry
                    .counter_add("sim_packet_bytes_unroutable_total", payload.len() as u64);
                let at = self.now;
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEntry {
                        at,
                        event: TraceEvent::Unroutable {
                            from,
                            to,
                            bytes: payload.len(),
                            ctx,
                        },
                    });
                }
                return;
            }
            if self.nodes[from.0 as usize].config.lan.is_some() {
                self.nat_flows.insert((from, to));
            }
        }
        self.schedule_delivery(from, to, payload, quality, ctx);
    }

    /// The quality of a LAN after overrides.
    fn effective_lan_quality(&self, lan: LanId) -> LinkQuality {
        self.lan_quality_override
            .get(&lan)
            .copied()
            .unwrap_or(self.lan_quality)
    }

    /// The link quality of the path `from -> to`, or `None` if no path
    /// exists under the current topology (including injected partitions).
    fn path_quality(&self, from: NodeId, to: NodeId) -> Option<LinkQuality> {
        if from == to || to.0 as usize >= self.nodes.len() {
            return None;
        }
        let a = &self.nodes[from.0 as usize];
        let b = &self.nodes[to.0 as usize];
        let pair_override = self.pair_quality_override.get(&(from, to)).copied();
        // Same LAN: local path, unaffected by WAN partitions, unusable
        // while the LAN itself is partitioned.
        if a.config.lan.is_some() && a.config.lan == b.config.lan {
            let lan = a.config.lan.unwrap_or(LanId(0));
            if self.partitioned_lans.contains(&lan) {
                return None;
            }
            return Some(pair_override.unwrap_or_else(|| self.effective_lan_quality(lan)));
        }
        // Otherwise both ends need working WAN uplinks.
        if a.config.wan && b.config.wan && !a.wan_partitioned && !b.wan_partitioned {
            return Some(
                pair_override
                    .or(self.wan_quality_override)
                    .unwrap_or(self.wan_quality),
            );
        }
        None
    }

    fn schedule_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Bytes,
        quality: LinkQuality,
        ctx: TraceCtx,
    ) {
        self.telemetry.incr("sim_packets_sent_total");
        // The per-packet fault check (loss/latency/chaos sampling below)
        // is a zero-tick tally under whatever phase is open.
        self.profiler.tally("sim.fault_check", 0);
        let at = self.now;
        if let Some(t) = self.trace.as_mut() {
            t.push(TraceEntry {
                at,
                event: TraceEvent::Sent {
                    from,
                    to,
                    bytes: payload.len(),
                    ctx,
                },
            });
        }
        match quality.sample(&mut self.rng) {
            Some(latency) => {
                let mut latency = latency.max(1);
                // Chaos knobs: guarded so that no RNG draw happens unless a
                // fault plan turned them on — runs without chaos keep their
                // exact event streams.
                if self.reorder_per_mille > 0
                    && self.rng.chance(u32::from(self.reorder_per_mille), 1000)
                {
                    latency = latency
                        .saturating_add(self.rng.range_u64(0, self.reorder_extra_max.max(1)));
                }
                let deliver_at = self.now.saturating_add(latency);
                self.push_event(
                    deliver_at,
                    EventKind::Deliver {
                        from,
                        to,
                        payload: payload.clone(),
                        ctx,
                    },
                );
                if self.dup_per_mille > 0 && self.rng.chance(u32::from(self.dup_per_mille), 1000) {
                    // The duplicate takes an independent latency draw, so it
                    // may arrive before or after the original. It shares the
                    // original's span: one packet, two deliveries.
                    if let Some(dup_latency) = quality.sample(&mut self.rng) {
                        let dup_at = self.now.saturating_add(dup_latency.max(1));
                        self.telemetry.incr("sim_packets_duplicated_total");
                        self.push_event(
                            dup_at,
                            EventKind::Deliver {
                                from,
                                to,
                                payload,
                                ctx,
                            },
                        );
                    }
                }
            }
            None => {
                self.telemetry
                    .incr("sim_packets_dropped_total{reason=\"loss\"}");
                self.telemetry.counter_add(
                    "sim_packet_bytes_dropped_total{reason=\"loss\"}",
                    payload.len() as u64,
                );
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEntry {
                        at,
                        event: TraceEvent::Dropped {
                            from,
                            to,
                            bytes: payload.len(),
                            ctx,
                        },
                    });
                }
            }
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records everything it receives.
    struct Sink {
        received: Vec<(NodeId, Vec<u8>)>,
        timer_fired: Vec<TimerKey>,
        power_events: Vec<bool>,
    }

    impl Sink {
        fn new() -> Self {
            Sink {
                received: Vec::new(),
                timer_fired: Vec::new(),
                power_events: Vec::new(),
            }
        }
    }

    impl Actor for Sink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
            self.received.push((from, payload.to_vec()));
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, key: TimerKey) {
            self.timer_fired.push(key);
        }
        fn on_power(&mut self, _ctx: &mut Ctx<'_>, powered: bool) {
            self.power_events.push(powered);
        }
    }

    /// Sends one payload at start.
    struct OneShot {
        dest: Dest,
        payload: Vec<u8>,
    }

    impl Actor for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.dest, self.payload.clone());
        }
    }

    fn perfect_sim(seed: u64) -> Simulation {
        Simulation::with_quality(seed, LinkQuality::perfect(), LinkQuality::perfect())
    }

    #[test]
    fn stream_tap_mirrors_marks_and_faults_onto_the_bus() {
        struct Marker;
        impl Actor for Marker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.mark("probe observed");
            }
        }
        let mut sim = perfect_sim(5);
        sim.enable_stream_tap();
        let node = sim.add_node(NodeConfig::wan_only("m"), Box::new(Marker));
        sim.apply_fault_plan(&crate::FaultPlan::new().at(3, Fault::Crash { node }));
        sim.run_until(Tick(10));
        let (_, events) = sim.telemetry().events_since(0);
        let rendered: Vec<String> = events
            .iter()
            .map(|e| format!("{}:{}:{}", e.at, e.topic, e.body))
            .collect();
        assert_eq!(
            rendered,
            vec![
                "0:mark:probe observed".to_string(),
                "3:fault:crash n0".to_string()
            ]
        );
        // Without the tap, the bus stays silent.
        let mut quiet = perfect_sim(5);
        let node = quiet.add_node(NodeConfig::wan_only("m"), Box::new(Marker));
        quiet.apply_fault_plan(&crate::FaultPlan::new().at(3, Fault::Crash { node }));
        quiet.run_until(Tick(10));
        assert_eq!(quiet.telemetry().events_since(0).1.len(), 0);
    }

    #[test]
    fn unicast_over_wan_delivers() {
        let mut sim = perfect_sim(1);
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
        let _src = sim.add_node(
            NodeConfig::wan_only("src"),
            Box::new(OneShot {
                dest: Dest::Unicast(sink),
                payload: vec![1, 2, 3],
            }),
        );
        sim.run_until(Tick(10));
        let sink = sim.actor::<Sink>(sink).unwrap();
        assert_eq!(sink.received.len(), 1);
        assert_eq!(sink.received[0].1, vec![1, 2, 3]);
    }

    #[test]
    fn lan_only_node_is_unreachable_from_wan() {
        let mut sim = perfect_sim(1);
        sim.enable_trace();
        let lan = LanId(0);
        let sink = sim.add_node(NodeConfig::lan_only("device", lan), Box::new(Sink::new()));
        let _attacker = sim.add_node(
            NodeConfig::wan_only("attacker"),
            Box::new(OneShot {
                dest: Dest::Unicast(sink),
                payload: vec![9],
            }),
        );
        sim.run_until(Tick(10));
        assert!(sim.actor::<Sink>(sink).unwrap().received.is_empty());
        assert!(sim
            .trace()
            .iter()
            .any(|e| matches!(e.event, TraceEvent::Unroutable { .. })));
    }

    #[test]
    fn wan_only_node_cannot_broadcast_into_lan() {
        // The adversary-model invariant: no LAN access for remote attackers.
        let mut sim = perfect_sim(2);
        let lan = LanId(5);
        let dev = sim.add_node(NodeConfig::lan_only("device", lan), Box::new(Sink::new()));
        let _attacker = sim.add_node(
            NodeConfig::wan_only("attacker"),
            Box::new(OneShot {
                dest: Dest::Broadcast(lan),
                payload: vec![7],
            }),
        );
        sim.run_until(Tick(10));
        assert!(sim.actor::<Sink>(dev).unwrap().received.is_empty());
    }

    #[test]
    fn broadcast_reaches_all_lan_members_except_sender() {
        let mut sim = perfect_sim(3);
        let lan = LanId(0);
        let a = sim.add_node(NodeConfig::dual("a", lan), Box::new(Sink::new()));
        let b = sim.add_node(NodeConfig::lan_only("b", lan), Box::new(Sink::new()));
        let other = sim.add_node(
            NodeConfig::lan_only("other", LanId(1)),
            Box::new(Sink::new()),
        );
        let src = sim.add_node(
            NodeConfig::dual("src", lan),
            Box::new(OneShot {
                dest: Dest::Broadcast(lan),
                payload: vec![1],
            }),
        );
        sim.run_until(Tick(10));
        assert_eq!(sim.actor::<Sink>(a).unwrap().received.len(), 1);
        assert_eq!(sim.actor::<Sink>(b).unwrap().received.len(), 1);
        assert!(
            sim.actor::<Sink>(other).unwrap().received.is_empty(),
            "other LAN isolated"
        );
        assert_eq!(sim.actor::<Sink>(a).unwrap().received[0].0, src);
    }

    #[test]
    fn same_lan_works_even_when_wan_partitioned() {
        let mut sim = perfect_sim(4);
        let lan = LanId(0);
        let sink = sim.add_node(NodeConfig::dual("sink", lan), Box::new(Sink::new()));
        let src = sim.add_node(
            NodeConfig::dual("src", lan),
            Box::new(OneShot {
                dest: Dest::Unicast(sink),
                payload: vec![1],
            }),
        );
        sim.partition_wan(src, true);
        sim.partition_wan(sink, true);
        sim.run_until(Tick(10));
        assert_eq!(sim.actor::<Sink>(sink).unwrap().received.len(), 1);
    }

    #[test]
    fn wan_partition_blocks_cross_lan_traffic() {
        let mut sim = perfect_sim(5);
        let sink = sim.add_node(NodeConfig::wan_only("cloud"), Box::new(Sink::new()));
        let src = sim.add_node(
            NodeConfig::dual("device", LanId(0)),
            Box::new(OneShot {
                dest: Dest::Unicast(sink),
                payload: vec![1],
            }),
        );
        sim.partition_wan(src, true);
        sim.run_until(Tick(10));
        assert!(sim.actor::<Sink>(sink).unwrap().received.is_empty());
    }

    #[test]
    fn powered_off_node_drops_deliveries_and_timers() {
        let mut sim = perfect_sim(6);
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
        let _src = sim.add_node(
            NodeConfig::wan_only("src"),
            Box::new(OneShot {
                dest: Dest::Unicast(sink),
                payload: vec![1],
            }),
        );
        sim.set_power(sink, false);
        sim.run_until(Tick(10));
        let s = sim.actor::<Sink>(sink).unwrap();
        assert!(s.received.is_empty());
        assert_eq!(s.power_events, vec![false]);
        // Power back on: nothing replayed (packet was dropped, not queued).
        sim.set_power(sink, true);
        sim.run_until(Tick(20));
        assert!(sim.actor::<Sink>(sink).unwrap().received.is_empty());
    }

    #[test]
    fn timers_fire_in_order() {
        struct Holder {
            fired: Vec<(Tick, TimerKey)>,
        }
        impl Actor for Holder {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(30, 3);
                ctx.set_timer(10, 1);
                ctx.set_timer(20, 2);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
                self.fired.push((ctx.now(), key));
            }
        }
        let mut sim = perfect_sim(7);
        let h = sim.add_node(
            NodeConfig::wan_only("h"),
            Box::new(Holder { fired: Vec::new() }),
        );
        sim.run_until(Tick(100));
        let h = sim.actor::<Holder>(h).unwrap();
        assert_eq!(h.fired, vec![(Tick(10), 1), (Tick(20), 2), (Tick(30), 3)]);
    }

    #[test]
    fn identical_seeds_produce_identical_traces() {
        fn run(seed: u64) -> Vec<String> {
            let mut sim = Simulation::new(seed); // realistic jittery links
            sim.enable_trace();
            let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
            for i in 0..20 {
                sim.add_node(
                    NodeConfig::dual("src", LanId(0)),
                    Box::new(OneShot {
                        dest: Dest::Unicast(sink),
                        payload: vec![i],
                    }),
                );
            }
            sim.run_until(Tick(1000));
            sim.trace().iter().map(|e| e.to_string()).collect()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds must differ");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = perfect_sim(8);
        sim.run_until(Tick(500));
        assert_eq!(sim.now(), Tick(500));
        assert!(sim.is_idle());
    }

    #[test]
    fn step_processes_one_event_at_a_time() {
        let mut sim = perfect_sim(9);
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
        let src = sim.add_node(
            NodeConfig::wan_only("src"),
            Box::new(OneShot {
                dest: Dest::Unicast(sink),
                payload: vec![1],
            }),
        );
        // Events: Start(sink), Start(src) [sends], Deliver.
        assert!(sim.step());
        assert!(sim.step());
        assert!(sim.step());
        assert!(!sim.step());
        assert_eq!(sim.actor::<Sink>(sink).unwrap().received.len(), 1);
        assert_eq!(sim.node_name(src), "src");
        assert_eq!(sim.node_count(), 2);
    }

    #[test]
    fn actor_downcast_to_wrong_type_returns_none() {
        let mut sim = perfect_sim(10);
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
        assert!(sim.actor::<OneShot>(sink).is_none());
        assert!(sim.actor_mut::<Sink>(sink).is_some());
    }

    #[test]
    fn self_send_is_unroutable() {
        let mut sim = perfect_sim(11);
        struct SelfSender;
        impl Actor for SelfSender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.id();
                ctx.send(Dest::Unicast(me), vec![1]);
            }
        }
        sim.enable_trace();
        sim.add_node(NodeConfig::wan_only("s"), Box::new(SelfSender));
        sim.run_until(Tick(10));
        assert!(sim
            .trace()
            .iter()
            .any(|e| matches!(e.event, TraceEvent::Unroutable { .. })));
    }

    #[test]
    fn nat_blocks_unsolicited_wan_traffic_to_lan_nodes() {
        // A WAN-only sender cannot reach a dual (NAT'd) node cold…
        let mut sim = perfect_sim(20);
        let victim = sim.add_node(NodeConfig::dual("victim", LanId(0)), Box::new(Sink::new()));
        let _attacker = sim.add_node(
            NodeConfig::wan_only("attacker"),
            Box::new(OneShot {
                dest: Dest::Unicast(victim),
                payload: vec![6],
            }),
        );
        sim.run_until(Tick(10));
        assert!(
            sim.actor::<Sink>(victim).unwrap().received.is_empty(),
            "NAT held"
        );
    }

    #[test]
    fn nat_return_path_opens_after_outbound_traffic() {
        struct EchoServer;
        impl Actor for EchoServer {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
                ctx.send(Dest::Unicast(from), payload.to_vec());
            }
        }
        let mut sim = perfect_sim(21);
        let server = sim.add_node(NodeConfig::wan_only("server"), Box::new(EchoServer));
        struct Client {
            server: NodeId,
            replies: u32,
        }
        impl Actor for Client {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(Dest::Unicast(self.server), vec![1]);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _payload: &Bytes) {
                self.replies += 1;
            }
        }
        let client = sim.add_node(
            NodeConfig::dual("client", LanId(0)),
            Box::new(Client { server, replies: 0 }),
        );
        sim.run_until(Tick(50));
        assert_eq!(
            sim.actor::<Client>(client).unwrap().replies,
            1,
            "connection tracking lets replies back in"
        );
    }

    #[test]
    fn note_appears_in_trace() {
        let mut sim = perfect_sim(12);
        sim.enable_trace();
        let n = sim.add_node(NodeConfig::wan_only("n"), Box::new(Sink::new()));
        sim.note(n, "hello");
        assert!(sim
            .trace()
            .iter()
            .any(|e| matches!(&e.event, TraceEvent::Note { text, .. } if text == "hello")));
    }

    /// Sends one payload to `dest` every `every` ticks, forever.
    struct Beacon {
        dest: Dest,
        every: u64,
    }

    impl Actor for Beacon {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.every, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: TimerKey) {
            ctx.send(self.dest, vec![0xBE]);
            ctx.set_timer(self.every, 1);
        }
    }

    #[test]
    fn lan_partition_blocks_and_heals() {
        let mut sim = perfect_sim(30);
        let lan = LanId(0);
        let sink = sim.add_node(NodeConfig::lan_only("sink", lan), Box::new(Sink::new()));
        let _src = sim.add_node(
            NodeConfig::lan_only("src", lan),
            Box::new(Beacon {
                dest: Dest::Unicast(sink),
                every: 10,
            }),
        );
        let plan = FaultPlan::new().lan_blackout(lan, 25, 50);
        sim.apply_fault_plan(&plan);
        sim.run_until(Tick(25));
        let before = sim.actor::<Sink>(sink).unwrap().received.len();
        assert_eq!(before, 2, "t10, t20 delivered before the blackout");
        sim.run_until(Tick(75));
        assert_eq!(
            sim.actor::<Sink>(sink).unwrap().received.len(),
            before,
            "nothing delivered while the LAN is partitioned"
        );
        sim.run_until(Tick(120));
        assert!(
            sim.actor::<Sink>(sink).unwrap().received.len() > before,
            "traffic resumes after the heal"
        );
    }

    #[test]
    fn lan_partition_blocks_broadcast() {
        let mut sim = perfect_sim(31);
        let lan = LanId(0);
        let sink = sim.add_node(NodeConfig::lan_only("sink", lan), Box::new(Sink::new()));
        let _src = sim.add_node(
            NodeConfig::lan_only("src", lan),
            Box::new(Beacon {
                dest: Dest::Broadcast(lan),
                every: 10,
            }),
        );
        sim.apply_fault_plan(&FaultPlan::new().at(
            0,
            Fault::LanPartition {
                lan,
                partitioned: true,
            },
        ));
        sim.run_until(Tick(100));
        assert!(sim.actor::<Sink>(sink).unwrap().received.is_empty());
    }

    #[test]
    fn crash_restart_cycles_power_via_plan() {
        let mut sim = perfect_sim(32);
        let n = sim.add_node(NodeConfig::wan_only("n"), Box::new(Sink::new()));
        sim.enable_trace();
        sim.apply_fault_plan(&FaultPlan::new().crash_restart(n, 10, 40));
        sim.run_until(Tick(100));
        assert_eq!(
            sim.actor::<Sink>(n).unwrap().power_events,
            vec![false, true]
        );
        let faults: Vec<String> = sim
            .trace()
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::Fault { text } => Some(text.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            faults,
            vec!["crash n0".to_string(), "restart n0".to_string()]
        );
    }

    #[test]
    fn wan_quality_override_degrades_and_restores() {
        let mut sim = perfect_sim(33);
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
        let _src = sim.add_node(
            NodeConfig::wan_only("src"),
            Box::new(Beacon {
                dest: Dest::Unicast(sink),
                every: 10,
            }),
        );
        // Total loss for [20, 60): beacons at t20..t50 vanish.
        sim.apply_fault_plan(&FaultPlan::new().degrade_wan(20, 40, LinkQuality::lossy(1000)));
        sim.run_until(Tick(100));
        let got = sim.actor::<Sink>(sink).unwrap().received.len();
        // t10 + t60..t90 survive (delivery latency 1 tick).
        assert_eq!(got, 5, "got {got}");
    }

    #[test]
    fn chaos_duplication_duplicates_packets() {
        let mut sim = perfect_sim(34);
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
        let _src = sim.add_node(
            NodeConfig::wan_only("src"),
            Box::new(Beacon {
                dest: Dest::Unicast(sink),
                every: 10,
            }),
        );
        sim.set_chaos(1000, 0, 0); // duplicate everything
        sim.run_until(Tick(105));
        let got = sim.actor::<Sink>(sink).unwrap().received.len();
        assert_eq!(got, 20, "10 sends, each duplicated");
    }

    #[test]
    fn fault_free_chaos_knobs_do_not_disturb_determinism() {
        // A run with an *empty* fault plan must be bit-identical to a run
        // with no plan at all: chaos knobs at zero draw no RNG.
        fn run(with_empty_plan: bool) -> Vec<String> {
            let mut sim = Simulation::new(77);
            sim.enable_trace();
            let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
            let _src = sim.add_node(
                NodeConfig::dual("src", LanId(0)),
                Box::new(Beacon {
                    dest: Dest::Unicast(sink),
                    every: 7,
                }),
            );
            if with_empty_plan {
                sim.apply_fault_plan(&FaultPlan::new());
            }
            sim.run_until(Tick(500));
            sim.trace().iter().map(|e| e.to_string()).collect()
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn pair_quality_override_is_directional() {
        let mut sim = perfect_sim(35);
        let a = sim.add_node(NodeConfig::wan_only("a"), Box::new(Sink::new()));
        let b = sim.add_node(
            NodeConfig::wan_only("b"),
            Box::new(Beacon {
                dest: Dest::Unicast(a),
                every: 10,
            }),
        );
        // Kill only b -> a.
        sim.set_pair_quality(b, a, Some(LinkQuality::lossy(1000)));
        sim.run_until(Tick(100));
        assert!(sim.actor::<Sink>(a).unwrap().received.is_empty());
        sim.set_pair_quality(b, a, None);
        sim.run_until(Tick(200));
        assert!(!sim.actor::<Sink>(a).unwrap().received.is_empty());
    }
}
