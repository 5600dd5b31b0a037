//! A raw, externally steered network endpoint — the attacker's vantage
//! point.
//!
//! The attack engine works like the paper's authors did with Postman and
//! raw sockets: craft bytes, send them, read what comes back. A
//! [`RawEndpoint`] holds an outbox that external code fills between
//! simulation runs and an inbox of everything received. Filling the outbox
//! goes through [`rb_netsim::Simulation::actor_mut`], which wakes the
//! endpoint one tick later to send it; an idle endpoint schedules nothing.

use std::collections::VecDeque;

use bytes::Bytes;
use rb_netsim::{Actor, Ctx, Dest, NodeId};

/// An actor with no protocol of its own: it transmits whatever was queued
/// and records whatever arrives.
#[derive(Debug, Default)]
pub struct RawEndpoint {
    outbox: VecDeque<(Dest, Bytes)>,
    /// Everything received: `(sender, payload)`.
    pub(crate) inbox: Vec<(NodeId, Bytes)>,
}

impl RawEndpoint {
    /// An empty endpoint.
    pub fn new() -> Self {
        RawEndpoint::default()
    }

    /// Queues a frame for transmission on the next tick (frames queued in
    /// one gap between runs leave together, in one causal trace).
    pub fn queue(&mut self, dest: Dest, payload: impl Into<Bytes>) {
        self.outbox.push_back((dest, payload.into()));
    }

    /// Drains the inbox in arrival order. The inbox keeps its capacity, so
    /// an endpoint drained between runs does not regrow it; frames the
    /// caller leaves unread are dropped with the iterator.
    pub fn drain_inbox(&mut self) -> std::vec::Drain<'_, (NodeId, Bytes)> {
        self.inbox.drain(..)
    }
}

impl Actor for RawEndpoint {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, from: NodeId, payload: Bytes) {
        self.inbox.push((from, payload));
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((dest, payload)) = self.outbox.pop_front() {
            ctx.send(dest, payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_netsim::{LinkQuality, NodeConfig, Simulation, Tick, TraceEvent};

    #[test]
    fn queued_frames_are_sent_and_replies_collected() {
        let mut sim = Simulation::with_quality(1, LinkQuality::perfect(), LinkQuality::perfect());
        sim.enable_trace();
        struct Echo;
        impl Actor for Echo {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: Bytes) {
                ctx.send(Dest::Unicast(from), payload);
            }
        }
        let echo = sim.add_node(NodeConfig::wan_only("echo"), Box::new(Echo));
        let raw = sim.add_node(NodeConfig::wan_only("raw"), Box::new(RawEndpoint::new()));
        sim.run_until(Tick(10));
        assert!(sim.is_idle(), "an idle endpoint schedules nothing");
        // Two frames queued in one gap leave together at now + 1, in one
        // causal trace.
        sim.actor_mut::<RawEndpoint>(raw)
            .unwrap()
            .queue(Dest::Unicast(echo), vec![1, 2, 3]);
        sim.actor_mut::<RawEndpoint>(raw)
            .unwrap()
            .queue(Dest::Unicast(echo), vec![4]);
        sim.run_until(Tick(100));
        let sent: Vec<(Tick, u64)> = sim
            .trace()
            .iter()
            .filter_map(|e| match &e.event {
                TraceEvent::Sent { from, ctx, .. } if *from == raw => Some((e.at, ctx.trace_id)),
                _ => None,
            })
            .collect();
        assert_eq!(sent.len(), 2);
        assert!(sent.iter().all(|&(at, _)| at == Tick(11)), "{sent:?}");
        assert_eq!(sent[0].1, sent[1].1, "one causal trace");
        let endpoint = sim.actor_mut::<RawEndpoint>(raw).unwrap();
        let inbox: Vec<_> = endpoint.drain_inbox().collect();
        assert_eq!(
            inbox,
            vec![
                (echo, Bytes::from(vec![1, 2, 3])),
                (echo, Bytes::from(vec![4]))
            ]
        );
        assert!(endpoint.inbox.is_empty(), "drain_inbox drains");
        assert!(endpoint.inbox.capacity() >= 2, "and keeps the capacity");
    }

    #[test]
    fn inbox_holds_the_delivered_buffer_itself() {
        // The frame an actor sends is the buffer the endpoint stores: the
        // simulator moves it into the delivery event, and `on_packet`
        // takes it by value, so no byte is copied on the way.
        struct Sender {
            to: NodeId,
            frame: Bytes,
        }
        impl Actor for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(Dest::Unicast(self.to), self.frame.clone());
            }
        }
        let mut sim = Simulation::with_quality(2, LinkQuality::perfect(), LinkQuality::perfect());
        let raw = sim.add_node(NodeConfig::wan_only("raw"), Box::new(RawEndpoint::new()));
        let frame = Bytes::from(vec![7u8; 32]);
        let data = frame.as_ptr();
        sim.add_node(
            NodeConfig::wan_only("sender"),
            Box::new(Sender { to: raw, frame }),
        );
        sim.run_until(Tick(10));
        let inbox: Vec<_> = sim
            .actor_mut::<RawEndpoint>(raw)
            .unwrap()
            .drain_inbox()
            .collect();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].1.as_ptr(), data, "same data pointer");
    }
}
