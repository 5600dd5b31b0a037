//! The actor abstraction and its execution context.

use std::any::Any;

use bytes::Bytes;

use crate::rng::SimRng;
use crate::sim::Dest;
use crate::time::Tick;
use crate::topology::NodeId;

/// A timer key chosen by the actor; delivered back in
/// [`Actor::on_timer`].
pub type TimerKey = u64;

/// A participant in the simulation: a device, an app, the cloud, or an
/// attacker.
///
/// Actors are driven entirely by callbacks; all effects (sends, timers) go
/// through the [`Ctx`]. An actor runs only when something is due: a packet
/// arrives, one of its own timers fires, or code outside the simulation
/// changed it through [`crate::Simulation::actor_mut`] (a wake). Nothing
/// polls. Implementations must be deterministic given the callback sequence
/// and the RNG draws they make.
pub trait Actor: Any {
    /// Called once when the simulation starts (before any packet flows).
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when a packet addressed to this node (or broadcast on its
    /// LAN) is delivered. The payload is the shared buffer the simulator
    /// routed, so decoders can slice it (a refcount bump) instead of
    /// copying; it derefs to `&[u8]` for actors that only read it.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        let _ = (ctx, from, payload);
    }

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        let _ = (ctx, key);
    }

    /// Called one tick after code outside the simulation mutated this actor
    /// through [`crate::Simulation::actor_mut`] — queued a frame, a user
    /// action, a restart. Mutations made in one gap between runs share one
    /// wake. The default does nothing.
    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// Called when the node's power state changes (powered off devices stop
    /// receiving packets; `on_power(true)` models reboot).
    fn on_power(&mut self, ctx: &mut Ctx<'_>, powered: bool) {
        let _ = (ctx, powered);
    }
}

/// Effects requested by an actor during one callback.
#[derive(Debug)]
pub(crate) enum Effect {
    Send { dest: Dest, payload: Bytes },
    Timer { fire_at: Tick, key: TimerKey },
    Mark { text: String },
}

/// Execution context handed to actor callbacks.
///
/// Collects the actor's effects and exposes the virtual clock and the
/// simulation RNG.
pub struct Ctx<'a> {
    pub(crate) now: Tick,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) effects: &'a mut Vec<Effect>,
}

impl<'a> Ctx<'a> {
    /// The current virtual time.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// The simulation RNG (deterministic per seed).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Queues a packet for delivery. Whether it arrives — and when — is
    /// decided by the network (connectivity, latency, loss). Broadcasts,
    /// duplicates and the delivery event all share this one buffer.
    pub fn send(&mut self, dest: Dest, payload: impl Into<Bytes>) {
        self.effects.push(Effect::Send {
            dest,
            payload: payload.into(),
        });
    }

    /// Schedules [`Actor::on_timer`] after `delay` ticks.
    pub fn set_timer(&mut self, delay: u64, key: TimerKey) {
        self.effects.push(Effect::Timer {
            fire_at: self.now.saturating_add(delay),
            key,
        });
    }

    /// Emits a causally-attributed trace mark (a no-op unless tracing is
    /// enabled). Marks emitted while handling a delivered packet carry
    /// that packet's [`crate::TraceCtx`], so forensic tooling can tie an
    /// application-level statement ("shadow went unbound") to the exact
    /// message that caused it; marks from timers become causal roots.
    pub fn mark(&mut self, text: impl Into<String>) {
        self.effects.push(Effect::Mark { text: text.into() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_effects_in_order() {
        let mut rng = SimRng::new(0);
        let mut effects = Vec::new();
        let mut ctx = Ctx {
            now: Tick(5),
            rng: &mut rng,
            effects: &mut effects,
        };
        ctx.send(Dest::Unicast(NodeId(2)), vec![1]);
        ctx.set_timer(10, 99);
        assert_eq!(ctx.now(), Tick(5));
        assert_eq!(effects.len(), 2);
        match &effects[1] {
            Effect::Timer { fire_at, key } => {
                assert_eq!(*fire_at, Tick(15));
                assert_eq!(*key, 99);
            }
            other => panic!("unexpected effect {other:?}"),
        }
    }

    #[test]
    fn default_actor_callbacks_are_noops() {
        struct Passive;
        impl Actor for Passive {}
        let mut a = Passive;
        let mut rng = SimRng::new(0);
        let mut effects = Vec::new();
        let mut ctx = Ctx {
            now: Tick(0),
            rng: &mut rng,
            effects: &mut effects,
        };
        a.on_start(&mut ctx);
        a.on_packet(&mut ctx, NodeId(1), &Bytes::from(b"x".to_vec()));
        a.on_timer(&mut ctx, 1);
        a.on_wake(&mut ctx);
        a.on_power(&mut ctx, false);
        assert!(effects.is_empty());
    }
}
