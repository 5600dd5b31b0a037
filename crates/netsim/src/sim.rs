//! The discrete-event simulation engine.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use rb_prof::Profiler;
use rb_telemetry::{Counter, Gauge, Handles, Telemetry};

use crate::actor::{Actor, Ctx, Effect, TimerKey};
use crate::fault::{Fault, FaultPlan};
use crate::hash::{HashMap, HashSet};
use crate::quality::LinkQuality;
use crate::rng::SimRng;
use crate::time::Tick;
use crate::topology::{LanId, NodeId};
use crate::trace::{TraceCtx, TraceEntry, TraceEvent};

/// The simulator's counters and its clock gauge, registered once per
/// telemetry handle.
#[derive(Debug, Default)]
struct SimMetrics {
    events: Counter,
    now_ticks: Gauge,
    sent: Counter,
    delivered: Counter,
    duplicated: Counter,
    dropped_loss: Counter,
    dropped_loss_bytes: Counter,
    dropped_off: Counter,
    dropped_off_bytes: Counter,
    unroutable: Counter,
    unroutable_bytes: Counter,
    faults_injected: Counter,
    faults_rejected: Counter,
}

impl SimMetrics {
    fn register(t: &Telemetry) -> Self {
        SimMetrics {
            events: t.register_counter("sim_events_total"),
            now_ticks: t.register_gauge("sim_now_ticks"),
            sent: t.register_counter("sim_packets_sent_total"),
            delivered: t.register_counter("sim_packets_delivered_total"),
            duplicated: t.register_counter("sim_packets_duplicated_total"),
            dropped_loss: t.register_counter("sim_packets_dropped_total{reason=\"loss\"}"),
            dropped_loss_bytes: t
                .register_counter("sim_packet_bytes_dropped_total{reason=\"loss\"}"),
            dropped_off: t.register_counter("sim_packets_dropped_total{reason=\"powered-off\"}"),
            dropped_off_bytes: t
                .register_counter("sim_packet_bytes_dropped_total{reason=\"powered-off\"}"),
            unroutable: t.register_counter("sim_packets_unroutable_total"),
            unroutable_bytes: t.register_counter("sim_packet_bytes_unroutable_total"),
            faults_injected: t.register_counter("sim_faults_injected_total"),
            faults_rejected: t.register_counter("sim_faults_rejected_total"),
        }
    }
}

/// The three counters every event or delivery bumps, kept as plain
/// integers between public calls and added to their handles at once (see
/// [`Simulation::flush_counts`]): an atomic add per event is a full
/// barrier on x86.
#[derive(Debug, Default)]
struct PendingCounts {
    events: u64,
    delivered: u64,
    sent: u64,
}

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
    pub(crate) name: Arc<str>,
    /// LAN membership, if any.
    pub(crate) lan: Option<LanId>,
    /// Whether the node can reach the WAN.
    pub(crate) wan: bool,
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
    /// A wake is scheduled and has not fired yet: further
    /// [`Simulation::actor_mut`] calls in the same gap share it.
    wake_pending: bool,
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
    Wake {
        node: NodeId,
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
    /// Events due at exactly `now + 1`, in push order; every other event
    /// goes to `queue`, and the next event is whichever head is smaller.
    /// Every queued event is due at `now` or later and `now` never
    /// decreases, so a new lane event is due no earlier than those before
    /// it, with a larger `seq`: the lane is sorted by `(at, seq)` by
    /// construction.
    lane: VecDeque<Event>,
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
    /// Metrics sink and the simulator's handles on it. Recording never
    /// draws randomness or schedules events, so instrumentation cannot
    /// perturb the event stream.
    metrics: Handles<SimMetrics>,
    /// `events`, `delivered` and `sent` counted since the last flush.
    pending: PendingCounts,
    /// Phase profiler. Disabled by default (one branch per event); when a
    /// harness installs a recording handle, each dispatched event becomes
    /// a phase (`sim.deliver`, `sim.timer`, …) charged the tick gap that
    /// led up to it, and the per-packet fault check is tallied. Profiling
    /// never draws randomness or schedules events, so it cannot perturb
    /// the event stream.
    profiler: Profiler,
    /// The effects buffer handed to every callback, kept between
    /// dispatches so a callback does not allocate one.
    effects: Vec<Effect>,
    /// `(at, seq)` of every dispatched event, in dispatch order: the
    /// ordering tests compare it with a sort of everything scheduled.
    #[cfg(test)]
    dispatched: Vec<(Tick, u64)>,
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
            lane: VecDeque::new(),
            now: Tick::ZERO,
            seq: 0,
            rng: SimRng::new(seed),
            lan_quality: lan,
            wan_quality: wan,
            trace: None,
            nat_flows: HashSet::default(),
            partitioned_lans: HashSet::default(),
            lan_quality_override: HashMap::default(),
            wan_quality_override: None,
            pair_quality_override: HashMap::default(),
            dup_per_mille: 0,
            reorder_per_mille: 0,
            reorder_extra_max: 0,
            next_trace_id: 1,
            next_span_id: 1,
            metrics: Handles::unset(SimMetrics::register),
            pending: PendingCounts::default(),
            profiler: Profiler::disabled(),
            effects: Vec::new(),
            #[cfg(test)]
            dispatched: Vec::new(),
        }
    }

    /// Replaces the telemetry handle so several components can record into
    /// one externally owned registry. Call before the first event runs;
    /// metrics recorded into the previous handle are not migrated.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = Handles::new(telemetry, SimMetrics::register);
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

    /// Registers a node and schedules its [`Actor::on_start`] at the
    /// current instant. Returns the new node's id.
    pub fn add_node(&mut self, config: NodeConfig, actor: Box<dyn Actor>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            config,
            powered: true,
            wan_partitioned: false,
            wake_pending: false,
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

    /// Immutable access to a node's actor, downcast to its concrete type.
    pub fn actor<T: Actor>(&self, id: NodeId) -> Option<&T> {
        let a: &dyn Actor = self.nodes.get(id.0 as usize)?.actor.as_ref();
        (a as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable access to a node's actor, downcast to its concrete type.
    ///
    /// This is the one way code outside the simulation changes an actor,
    /// so it also schedules [`Actor::on_wake`] at `now + 1`: whatever the
    /// caller queued gets acted on without the actor polling for it. Calls
    /// in one gap between runs share a single wake.
    pub fn actor_mut<T: Actor>(&mut self, id: NodeId) -> Option<&mut T> {
        self.actor::<T>(id)?;
        let node = &mut self.nodes[id.0 as usize];
        if !node.wake_pending {
            node.wake_pending = true;
            let at = self.now.saturating_add(1);
            self.push_event(at, EventKind::Wake { node: id });
        }
        let a: &mut dyn Actor = self.nodes[id.0 as usize].actor.as_mut();
        (a as &mut dyn Any).downcast_mut::<T>()
    }

    /// Powers a node on or off. Powered-off nodes receive no packets,
    /// timers or wakes; pending deliveries to them are dropped at delivery
    /// time.
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
        self.flush_counts();
    }

    /// Cuts (or restores) a node's WAN uplink without touching its LAN —
    /// models the "connection disruption" consequence of the paper's A3
    /// attacks, and ISP outages for failure injection.
    pub fn partition_wan(&mut self, id: NodeId, partitioned: bool) {
        self.nodes[id.0 as usize].wan_partitioned = partitioned;
    }

    /// Partitions (or heals) a whole LAN: local unicast and broadcast on it
    /// fail while partitioned. WAN uplinks of its members are unaffected.
    pub(crate) fn partition_lan(&mut self, lan: LanId, partitioned: bool) {
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
    pub(crate) fn set_wan_quality(&mut self, quality: Option<LinkQuality>) {
        if let Some(q) = quality {
            assert!(q.is_valid(), "invalid wan quality override");
        }
        self.wan_quality_override = quality;
    }

    /// Overrides (or restores) the quality of the directed path
    /// `from -> to`. Takes precedence over LAN/WAN overrides.
    pub(crate) fn set_pair_quality(
        &mut self,
        from: NodeId,
        to: NodeId,
        quality: Option<LinkQuality>,
    ) {
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
    pub(crate) fn set_chaos(
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
    /// recorded in the trace. A fault naming a node that does not exist or
    /// setting an invalid [`LinkQuality`] is skipped when it comes due,
    /// counted in `sim_faults_rejected_total` and traced as `rejected …`.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for (at, fault) in plan.events() {
            let at = at.max(self.now);
            self.push_event(at, EventKind::Inject { fault });
        }
    }

    /// Whether `fault` can be applied: every node it names exists and every
    /// quality it sets is valid. A fault plan is adversary input, so an
    /// unappliable fault is rejected instead of panicking the event loop.
    fn admits(&self, fault: &Fault) -> bool {
        let exists = |node: &NodeId| (node.0 as usize) < self.nodes.len();
        let valid =
            |quality: &Option<LinkQuality>| quality.as_ref().is_none_or(LinkQuality::is_valid);
        match fault {
            Fault::WanPartition { node, .. } | Fault::Crash { node } | Fault::Restart { node } => {
                exists(node)
            }
            Fault::LanQuality { quality, .. } | Fault::WanQuality { quality } => valid(quality),
            Fault::PairQuality { from, to, quality } => {
                exists(from) && exists(to) && valid(quality)
            }
            Fault::LanPartition { .. } | Fault::Chaos { .. } => true,
        }
    }

    fn inject(&mut self, fault: Fault) {
        let admitted = self.admits(&fault);
        let metrics = self.metrics.get();
        if admitted {
            metrics.faults_injected.incr();
        } else {
            metrics.faults_rejected.incr();
        }
        let at = self.now;
        if let Some(t) = self.trace.as_mut() {
            let text = if admitted {
                fault.to_string()
            } else {
                format!("rejected {fault}")
            };
            t.push(TraceEntry {
                at,
                event: TraceEvent::Fault { text },
            });
        }
        if !admitted {
            return;
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
        while self.dispatch_next(until) {}
        // Before the clock moves on: the gauge reads the last event's tick.
        self.flush_counts();
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
    #[cfg(test)]
    pub(crate) fn step(&mut self) -> bool {
        let stepped = self.dispatch_next(Tick(u64::MAX));
        self.flush_counts();
        stepped
    }

    /// Whether any events remain scheduled.
    pub fn is_idle(&self) -> bool {
        self.lane.is_empty() && self.queue.is_empty()
    }

    // -- internals ----------------------------------------------------------

    fn push_event(&mut self, at: Tick, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        let ev = Event { at, seq, kind };
        if at == self.now.saturating_add(1) {
            self.lane.push_back(ev);
        } else {
            self.queue.push(Reverse(ev));
        }
    }

    /// Dispatches the next event if it is due by `until`: the lane's head
    /// or the heap's, whichever has the smaller `(at, seq)`. Returns
    /// whether one ran.
    fn dispatch_next(&mut self, until: Tick) -> bool {
        let from_lane = match (self.lane.front(), self.queue.peek()) {
            (Some(l), Some(Reverse(h))) => l < h,
            (l, _) => l.is_some(),
        };
        let ev = if from_lane {
            self.lane.pop_front_if(|ev| ev.at <= until)
        } else {
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.at <= until => self.queue.pop().map(|Reverse(ev)| ev),
                _ => None,
            }
        };
        let Some(ev) = ev else {
            return false;
        };
        #[cfg(test)]
        self.dispatched.push((ev.at, ev.seq));
        let gap = ev.at.as_u64().saturating_sub(self.now.as_u64());
        self.now = ev.at;
        self.dispatch_profiled(ev, gap);
        true
    }

    /// Adds the pending counts to their handles and sets the clock gauge
    /// to the tick of the last dispatched event (`now`: every caller
    /// flushes before the clock moves past it). Runs at the end of every
    /// public call that can dispatch or send, so every read and export
    /// sees the same values as recording per event would give. Counters
    /// with nothing pending are not touched: a metric shows in exports
    /// only once recorded.
    fn flush_counts(&mut self) {
        let PendingCounts {
            events,
            delivered,
            sent,
        } = std::mem::take(&mut self.pending);
        if events == 0 && sent == 0 {
            return;
        }
        let metrics = self.metrics.get();
        if events > 0 {
            metrics.events.add(events);
            metrics
                .now_ticks
                .set(i64::try_from(self.now.as_u64()).unwrap_or(i64::MAX));
        }
        if delivered > 0 {
            metrics.delivered.add(delivered);
        }
        if sent > 0 {
            metrics.sent.add(sent);
        }
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
            EventKind::Wake { .. } => "sim.wake",
            EventKind::Inject { .. } => "sim.inject",
        };
        let now = self.now.as_u64();
        let token = self.profiler.enter(name, now);
        self.dispatch(ev);
        self.profiler.exit_add(token, now, gap);
    }

    fn dispatch(&mut self, ev: Event) {
        self.pending.events += 1;
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
                    let metrics = self.metrics.get();
                    metrics.dropped_off.incr();
                    metrics.dropped_off_bytes.add(payload.len() as u64);
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
                self.pending.delivered += 1;
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
                    actor.on_packet(actor_ctx, from, payload);
                });
            }
            EventKind::Timer { node, key } => {
                if self.nodes[node.0 as usize].powered {
                    self.with_actor(node, None, |actor, ctx| actor.on_timer(ctx, key));
                }
            }
            EventKind::Wake { node } => {
                let n = &mut self.nodes[node.0 as usize];
                n.wake_pending = false;
                if n.powered {
                    self.with_actor(node, None, |actor, ctx| actor.on_wake(ctx));
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
    /// context verbatim. Callbacks with no cause (start, timers, wakes,
    /// power) lazily open a fresh trace on their first effect, so a
    /// heartbeat tick, a queued user action, or an attacker's injected
    /// frame each roots its own causal tree.
    fn with_actor(
        &mut self,
        id: NodeId,
        cause: Option<TraceCtx>,
        f: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>),
    ) {
        let mut effects = std::mem::take(&mut self.effects);
        {
            let node = &mut self.nodes[id.0 as usize];
            let mut ctx = Ctx {
                now: self.now,
                traces: self.trace.is_some(),
                rng: &mut self.rng,
                effects: &mut effects,
            };
            f(node.actor.as_mut(), &mut ctx);
        }
        let mut callback_trace = cause.map(|c| c.trace_id);
        let parent = cause.map_or(0, |c| c.span_id);
        for effect in effects.drain(..) {
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
        self.effects = effects;
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

    fn count_unroutable(&self, bytes: usize) {
        let metrics = self.metrics.get();
        metrics.unroutable.incr();
        metrics.unroutable_bytes.add(bytes as u64);
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
                    self.count_unroutable(payload.len());
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
                let quality = self.effective_lan_quality(lan);
                for i in 0..self.nodes.len() {
                    let to = NodeId(i as u32);
                    let n = &self.nodes[i];
                    if to != from && n.powered && n.config.lan == Some(lan) {
                        let ctx = self.alloc_ctx(trace_id, parent);
                        self.schedule_delivery(from, to, payload.clone(), quality, ctx);
                    }
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
            self.count_unroutable(payload.len());
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
                self.count_unroutable(payload.len());
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
        self.pending.sent += 1;
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
                // The duplicate takes an independent latency draw, so it
                // may arrive before or after the original. It shares the
                // original's span: one packet, two deliveries. Drawn before
                // the original is queued (pushing draws nothing, so the
                // RNG sequence is unchanged) so the payload is cloned only
                // when there is a duplicate to carry it.
                let dup_at = if self.dup_per_mille > 0
                    && self.rng.chance(u32::from(self.dup_per_mille), 1000)
                {
                    quality
                        .sample(&mut self.rng)
                        .map(|dup_latency| self.now.saturating_add(dup_latency.max(1)))
                } else {
                    None
                };
                let deliver = |payload| EventKind::Deliver {
                    from,
                    to,
                    payload,
                    ctx,
                };
                match dup_at {
                    None => self.push_event(deliver_at, deliver(payload)),
                    Some(dup_at) => {
                        self.push_event(deliver_at, deliver(payload.clone()));
                        self.metrics.get().duplicated.incr();
                        self.push_event(dup_at, deliver(payload));
                    }
                }
            }
            None => {
                let metrics = self.metrics.get();
                metrics.dropped_loss.incr();
                metrics.dropped_loss_bytes.add(payload.len() as u64);
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
            .field("pending_events", &(self.lane.len() + self.queue.len()))
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
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, payload: Bytes) {
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
        sim.add_node(
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
                // The only node, so the first id.
                ctx.send(Dest::Unicast(NodeId(0)), vec![1]);
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
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: Bytes) {
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
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _payload: Bytes) {
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
        // An actor's free-form annotation is a mark; one made at start
        // lands in the trace as a causal root.
        struct Noter;
        impl Actor for Noter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.mark("hello");
            }
        }
        let mut sim = perfect_sim(12);
        sim.enable_trace();
        sim.add_node(NodeConfig::wan_only("n"), Box::new(Noter));
        sim.run_until(Tick(1));
        assert!(sim.trace().iter().any(|e| matches!(
            &e.event,
            TraceEvent::Mark { text, ctx, .. } if text == "hello" && ctx.is_root()
        )));
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
    fn unappliable_faults_are_rejected_not_panicked_on() {
        let mut sim = perfect_sim(35);
        let tele = Telemetry::new();
        sim.set_telemetry(tele.clone());
        let n = sim.add_node(NodeConfig::wan_only("n"), Box::new(Sink::new()));
        sim.enable_trace();
        let ghost = NodeId(7);
        let bad = LinkQuality {
            latency_min: 5,
            latency_max: 1,
            drop_per_mille: 0,
        };
        sim.apply_fault_plan(
            &FaultPlan::new()
                .at(1, Fault::Crash { node: ghost })
                .at(2, Fault::Restart { node: ghost })
                .at(
                    3,
                    Fault::WanPartition {
                        node: ghost,
                        partitioned: true,
                    },
                )
                .at(
                    4,
                    Fault::LanQuality {
                        lan: LanId(0),
                        quality: Some(bad),
                    },
                )
                .at(5, Fault::WanQuality { quality: Some(bad) })
                .at(
                    6,
                    Fault::PairQuality {
                        from: n,
                        to: ghost,
                        quality: Some(bad),
                    },
                )
                .at(
                    6,
                    Fault::PairQuality {
                        from: ghost,
                        to: n,
                        quality: Some(LinkQuality::perfect()),
                    },
                )
                .at(7, Fault::Crash { node: n }),
        );
        sim.run_until(Tick(10));
        assert_eq!(tele.counter("sim_faults_rejected_total"), 7);
        assert_eq!(tele.counter("sim_faults_injected_total"), 1);
        assert_eq!(sim.actor::<Sink>(n).unwrap().power_events, vec![false]);
        let faults: Vec<String> = sim
            .trace()
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::Fault { text } => Some(text.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(faults.len(), 8);
        assert_eq!(faults[0], "rejected crash n7");
        assert!(faults[..7].iter().all(|f| f.starts_with("rejected ")));
        assert_eq!(faults[7], "crash n0");
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
    fn chaos_duplicate_is_a_second_delivery_of_one_span() {
        let mut sim = perfect_sim(36);
        sim.enable_trace();
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
        sim.add_node(
            NodeConfig::wan_only("src"),
            Box::new(OneShot {
                dest: Dest::Unicast(sink),
                payload: vec![4, 2],
            }),
        );
        sim.set_chaos(1000, 0, 0);
        sim.run_until(Tick(10));
        let received = &sim.actor::<Sink>(sink).unwrap().received;
        assert_eq!(received.len(), 2);
        assert!(received.iter().all(|(_, p)| p == &[4, 2]));
        let sent: Vec<TraceCtx> = sim
            .trace()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Sent { ctx, .. } => Some(ctx),
                _ => None,
            })
            .collect();
        let delivered: Vec<TraceCtx> = sim
            .trace()
            .iter()
            .filter_map(|e| match e.event {
                TraceEvent::Delivered { ctx, .. } => Some(ctx),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 1);
        assert_eq!(delivered, vec![sent[0], sent[0]]);
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

    /// Records the ticks it was woken at.
    struct Sleeper {
        woke: Vec<Tick>,
    }

    impl Actor for Sleeper {
        fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
            self.woke.push(ctx.now());
        }
    }

    #[test]
    fn actor_mut_calls_in_one_gap_share_one_wake_at_now_plus_one() {
        let mut sim = perfect_sim(40);
        let tele = Telemetry::new();
        sim.set_telemetry(tele.clone());
        let n = sim.add_node(
            NodeConfig::wan_only("n"),
            Box::new(Sleeper { woke: Vec::new() }),
        );
        sim.set_profiler(Profiler::new());
        sim.run_until(Tick(10));
        let events_before = tele.counter("sim_events_total");
        for _ in 0..3 {
            sim.actor_mut::<Sleeper>(n).unwrap();
        }
        sim.run_until(Tick(50));
        assert_eq!(sim.actor::<Sleeper>(n).unwrap().woke, vec![Tick(11)]);
        assert_eq!(tele.counter("sim_events_total") - events_before, 1);
        let wakes: Vec<(String, u64)> = sim
            .profiler()
            .snapshot()
            .entries()
            .into_iter()
            .filter(|e| e.path.ends_with("sim.wake"))
            .map(|e| (e.path, e.count))
            .collect();
        assert_eq!(wakes, vec![("sim.wake".to_string(), 1)]);
        // The wake has fired, so the next gap schedules a fresh one.
        sim.actor_mut::<Sleeper>(n).unwrap();
        sim.run_until(Tick(60));
        assert_eq!(
            sim.actor::<Sleeper>(n).unwrap().woke,
            vec![Tick(11), Tick(51)]
        );
        // A failed downcast is not a mutation: no wake.
        assert!(sim.actor_mut::<Sink>(n).is_none());
        assert!(sim.is_idle());
    }

    #[test]
    fn powered_off_node_is_not_woken() {
        let mut sim = perfect_sim(41);
        let n = sim.add_node(
            NodeConfig::wan_only("n"),
            Box::new(Sleeper { woke: Vec::new() }),
        );
        sim.run_until(Tick(5));
        sim.set_power(n, false);
        sim.actor_mut::<Sleeper>(n).unwrap();
        sim.run_until(Tick(20));
        assert!(sim.actor::<Sleeper>(n).unwrap().woke.is_empty());
        // The dropped wake does not block the next one.
        sim.set_power(n, true);
        sim.actor_mut::<Sleeper>(n).unwrap();
        sim.run_until(Tick(30));
        assert_eq!(sim.actor::<Sleeper>(n).unwrap().woke, vec![Tick(21)]);
    }

    #[test]
    fn default_wake_does_nothing() {
        let mut sim = perfect_sim(42);
        sim.enable_trace();
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
        sim.run_until(Tick(5));
        sim.actor_mut::<Sink>(sink).unwrap();
        sim.run_until(Tick(20));
        let s = sim.actor::<Sink>(sink).unwrap();
        assert!(s.received.is_empty() && s.timer_fired.is_empty());
        assert!(sim.trace().is_empty(), "a default wake has no effects");
        assert!(sim.is_idle());
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

    /// Every callback schedules a random mix drawn from the sim RNG:
    /// timers due now, at the next tick and later, and sends to random
    /// peers (on jittery links, under whatever chaos is in effect).
    struct Churner {
        peers: Vec<NodeId>,
        budget: u32,
    }

    impl Churner {
        fn churn(&mut self, ctx: &mut Ctx<'_>) {
            if self.budget == 0 {
                return;
            }
            self.budget -= 1;
            for _ in 0..ctx.rng().range_u64(0, 3) {
                match ctx.rng().range_u64(0, 2) {
                    0 => ctx.set_timer(0, 0),
                    1 => ctx.set_timer(1, 1),
                    2 => {
                        let delay = ctx.rng().range_u64(2, 9);
                        ctx.set_timer(delay, 2);
                    }
                    _ => unreachable!("range_u64 is inclusive of 0..=2"),
                }
                if !self.peers.is_empty() && ctx.rng().chance(1, 2) {
                    let i = ctx.rng().range_u64(0, self.peers.len() as u64 - 1) as usize;
                    ctx.send(Dest::Unicast(self.peers[i]), vec![i as u8]);
                }
            }
        }
    }

    impl Actor for Churner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.churn(ctx);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, _payload: Bytes) {
            self.churn(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: TimerKey) {
            self.churn(ctx);
        }
        fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
            self.churn(ctx);
        }
    }

    /// The dispatch order so far is a sort by `(at, seq)` of everything
    /// ever scheduled: every event dispatched is the smallest of all
    /// events not yet dispatched, and every event left is due after
    /// `until`.
    fn assert_sorted_dispatch(sim: &Simulation, until: Tick) {
        let pending = sim
            .lane
            .iter()
            .chain(sim.queue.iter().map(|Reverse(ev)| ev))
            .map(|ev| (ev.at, ev.seq));
        let mut reference: Vec<(Tick, u64)> =
            sim.dispatched.iter().copied().chain(pending).collect();
        reference.sort_unstable();
        let seqs: Vec<u64> = {
            let mut s: Vec<u64> = reference.iter().map(|&(_, seq)| seq).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(seqs, (0..sim.seq).collect::<Vec<_>>(), "no event lost");
        let done = sim.dispatched.len();
        assert_eq!(sim.dispatched[..], reference[..done]);
        assert!(reference[done..].iter().all(|&(at, _)| at > until));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn dispatch_order_is_a_sort_by_at_then_seq(
            seed in proptest::prelude::any::<u64>(),
            nodes in 2usize..6,
            latency_max in 1u64..4,
            chaos_at in 0u64..40,
            slices in proptest::collection::vec((1u64..30, 0usize..6), 1..8),
        ) {
            let wan = LinkQuality {
                latency_min: 1,
                latency_max,
                drop_per_mille: 50,
            };
            let mut sim = Simulation::with_quality(seed, LinkQuality::perfect(), wan);
            let ids: Vec<NodeId> = (0..nodes as u32).map(NodeId).collect();
            for i in 0..nodes {
                let peers = ids.iter().copied().filter(|&p| p != ids[i]).collect();
                sim.add_node(
                    NodeConfig::wan_only(format!("n{i}")),
                    Box::new(Churner { peers, budget: 40 }),
                );
            }
            // Duplicates and reordering from a fault plan, a crash and a
            // restart, and a chaos window that ends.
            sim.apply_fault_plan(
                &FaultPlan::new()
                    .chaos_window(chaos_at, 60, 300, 300, 6)
                    .crash_restart(ids[0], chaos_at + 1, 5)
                    .at(1, Fault::Chaos { dup_per_mille: 200, reorder_per_mille: 0, reorder_extra_max: 0 }),
            );
            let mut until = sim.now();
            for (delta, woken) in slices {
                until = until.saturating_add(delta);
                sim.run_until(until);
                assert_sorted_dispatch(&sim, until);
                // Wakes from outside, due at the next tick.
                if let Some(&id) = ids.get(woken) {
                    sim.actor_mut::<Churner>(id).unwrap().budget += 2;
                }
                sim.apply_fault_plan(&FaultPlan::new().at(until.as_u64() + 1, Fault::Chaos {
                    dup_per_mille: 100,
                    reorder_per_mille: 100,
                    reorder_extra_max: 3,
                }));
            }
            sim.run_until(until.saturating_add(1_000));
            assert_sorted_dispatch(&sim, until.saturating_add(1_000));
            assert!(sim.is_idle());
        }
    }

    /// Sends one frame to `peer` at start and on every power-on.
    struct PowerPinger {
        peer: NodeId,
    }

    impl Actor for PowerPinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(Dest::Unicast(self.peer), vec![1]);
        }
        fn on_power(&mut self, ctx: &mut Ctx<'_>, powered: bool) {
            if powered {
                ctx.send(Dest::Unicast(self.peer), vec![2]);
            }
        }
    }

    /// The simulator's counters and clock gauge as exported, next to what
    /// recording per event gives: one event per dispatch, the clock at the
    /// last one, and one delivery and one send per traced entry. A zero
    /// count is absent, as a never-recorded counter is.
    fn sim_metrics(sim: &Simulation, tele: &Telemetry) -> (Vec<(String, u64)>, Option<i64>) {
        let registry = tele.snapshot();
        let counted: Vec<(String, u64)> = registry
            .counters()
            .filter(|(name, _)| {
                matches!(
                    *name,
                    "sim_events_total" | "sim_packets_delivered_total" | "sim_packets_sent_total"
                )
            })
            .map(|(name, n)| (name.to_owned(), n))
            .collect();
        let traced =
            |f: fn(&TraceEvent) -> bool| sim.trace().iter().filter(|e| f(&e.event)).count() as u64;
        let expected: Vec<(String, u64)> = [
            ("sim_events_total", sim.dispatched.len() as u64),
            (
                "sim_packets_delivered_total",
                traced(|e| matches!(e, TraceEvent::Delivered { .. })),
            ),
            (
                "sim_packets_sent_total",
                traced(|e| matches!(e, TraceEvent::Sent { .. })),
            ),
        ]
        .into_iter()
        .filter(|&(_, n)| n > 0)
        .map(|(name, n)| (name.to_owned(), n))
        .collect();
        assert_eq!(counted, expected);
        let gauge = registry.gauge("sim_now_ticks");
        let last = sim.dispatched.last().map(|&(at, _)| at.as_u64() as i64);
        assert_eq!(gauge, last, "the clock gauge reads the last event's tick");
        (counted, gauge)
    }

    #[test]
    fn counters_read_as_recorded_per_event_at_every_public_boundary() {
        let mut sim = Simulation::with_quality(
            50,
            LinkQuality::perfect(),
            LinkQuality {
                latency_min: 1,
                latency_max: 4,
                drop_per_mille: 0,
            },
        );
        sim.enable_trace();
        let tele = Telemetry::new();
        sim.set_telemetry(tele.clone());
        assert_eq!(sim_metrics(&sim, &tele), (Vec::new(), None), "nothing yet");
        let sink = sim.add_node(NodeConfig::wan_only("sink"), Box::new(Sink::new()));
        let pinger = sim.add_node(
            NodeConfig::wan_only("pinger"),
            Box::new(PowerPinger { peer: sink }),
        );
        // Both starts run at tick 0; the ping is still in flight.
        sim.run_for(0);
        let (counted, _) = sim_metrics(&sim, &tele);
        assert_eq!(counted.len(), 2, "events and sent, nothing delivered yet");
        sim.run_until(Tick(10));
        sim_metrics(&sim, &tele);
        // A power-on sends from outside any event.
        sim.set_power(pinger, false);
        sim.set_power(pinger, true);
        sim_metrics(&sim, &tele);
        // One event at a time.
        assert!(sim.step());
        sim_metrics(&sim, &tele);
        assert!(!sim.step());
        sim_metrics(&sim, &tele);
        // A run past the last event leaves the gauge at that event.
        sim.run_until(Tick(100));
        sim.run_for(0);
        let (counted, gauge) = sim_metrics(&sim, &tele);
        assert_eq!(counted.len(), 3);
        assert!(gauge < Some(100));
    }
}
