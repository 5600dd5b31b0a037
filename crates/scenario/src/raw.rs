//! A raw, externally steered network endpoint — the attacker's vantage
//! point.
//!
//! The attack engine works like the paper's authors did with Postman and
//! raw sockets: craft bytes, send them, read what comes back. A
//! [`RawEndpoint`] holds an outbox that external code fills between
//! simulation runs and an inbox of everything received.

use std::collections::VecDeque;

use bytes::Bytes;
use rb_netsim::{Actor, Ctx, Dest, NodeId, TimerKey};

const TIMER_DRAIN: TimerKey = 1;

/// An actor with no protocol of its own: it transmits whatever was queued
/// and records whatever arrives.
#[derive(Debug, Default)]
pub struct RawEndpoint {
    outbox: VecDeque<(Dest, Bytes)>,
    /// Everything received: `(sender, payload)`.
    pub inbox: Vec<(NodeId, Bytes)>,
}

impl RawEndpoint {
    /// An empty endpoint.
    pub fn new() -> Self {
        RawEndpoint::default()
    }

    /// Queues a frame for transmission on the next tick.
    pub fn queue(&mut self, dest: Dest, payload: impl Into<Bytes>) {
        self.outbox.push_back((dest, payload.into()));
    }

    /// Drains and returns the inbox.
    pub fn take_inbox(&mut self) -> Vec<(NodeId, Bytes)> {
        std::mem::take(&mut self.inbox)
    }
}

impl Actor for RawEndpoint {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(1, TIMER_DRAIN);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        self.inbox.push((from, payload.clone()));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: TimerKey) {
        if key == TIMER_DRAIN {
            while let Some((dest, payload)) = self.outbox.pop_front() {
                ctx.send(dest, payload);
            }
            ctx.set_timer(1, TIMER_DRAIN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_netsim::{LinkQuality, NodeConfig, Simulation, Tick};

    #[test]
    fn queued_frames_are_sent_and_replies_collected() {
        let mut sim = Simulation::with_quality(1, LinkQuality::perfect(), LinkQuality::perfect());
        struct Echo;
        impl Actor for Echo {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
                ctx.send(Dest::Unicast(from), payload.clone());
            }
        }
        let echo = sim.add_node(NodeConfig::wan_only("echo"), Box::new(Echo));
        let raw = sim.add_node(NodeConfig::wan_only("raw"), Box::new(RawEndpoint::new()));
        sim.actor_mut::<RawEndpoint>(raw)
            .unwrap()
            .queue(Dest::Unicast(echo), vec![1, 2, 3]);
        sim.run_until(Tick(100));
        let endpoint = sim.actor_mut::<RawEndpoint>(raw).unwrap();
        let inbox = endpoint.take_inbox();
        assert_eq!(inbox, vec![(echo, Bytes::from(vec![1, 2, 3]))]);
        assert!(endpoint.inbox.is_empty(), "take_inbox drains");
    }
}
