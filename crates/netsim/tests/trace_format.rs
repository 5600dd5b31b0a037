//! Golden `Display` strings for every `TraceEvent` variant, so exporter
//! formats cannot drift silently. The chaos golden
//! trace, the telemetry goldens, the forensic timeline, and every
//! experiment that greps rendered traces all depend on these exact shapes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use rb_netsim::{NodeId, Tick, TraceCtx, TraceEntry, TraceEvent};

fn ctx(trace_id: u64, span_id: u64, parent_span_id: u64) -> TraceCtx {
    TraceCtx {
        trace_id,
        span_id,
        parent_span_id,
    }
}

/// One exemplar of every variant (including `Fault` and `Mark`), with its
/// pinned `Display` rendering.
fn exemplars() -> Vec<(TraceEntry, &'static str)> {
    vec![
        (
            TraceEntry {
                at: Tick(3),
                event: TraceEvent::Sent {
                    from: NodeId(1),
                    to: NodeId(2),
                    bytes: 10,
                    ctx: ctx(1, 4, 0),
                },
            },
            "t3 n1 -> n2 sent 10B [1:4]",
        ),
        (
            TraceEntry {
                at: Tick(4),
                event: TraceEvent::Delivered {
                    from: NodeId(1),
                    to: NodeId(2),
                    bytes: 128,
                    ctx: ctx(1, 4, 0),
                },
            },
            "t4 n1 -> n2 delivered 128B [1:4]",
        ),
        (
            TraceEntry {
                at: Tick(9),
                event: TraceEvent::Dropped {
                    from: NodeId(0),
                    to: NodeId(7),
                    bytes: 33,
                    ctx: ctx(2, 6, 4),
                },
            },
            "t9 n0 -> n7 DROPPED 33B [2:6<4]",
        ),
        (
            TraceEntry {
                at: Tick(12),
                event: TraceEvent::Unroutable {
                    from: NodeId(9),
                    to: NodeId(1),
                    bytes: 21,
                    ctx: ctx(3, 7, 0),
                },
            },
            "t12 n9 -> n1 UNROUTABLE 21B [3:7]",
        ),
        (
            TraceEntry {
                at: Tick(50),
                event: TraceEvent::Power {
                    node: NodeId(3),
                    powered: false,
                },
            },
            "t50 n3 power=off",
        ),
        (
            TraceEntry {
                at: Tick(51),
                event: TraceEvent::Power {
                    node: NodeId(3),
                    powered: true,
                },
            },
            "t51 n3 power=on",
        ),
        (
            TraceEntry {
                at: Tick(61),
                event: TraceEvent::Mark {
                    node: NodeId(0),
                    text: "shadow dev=d1 from=control to=online".to_string(),
                    ctx: ctx(5, 11, 9),
                },
            },
            "t61 n0 mark: shadow dev=d1 from=control to=online [5:11<9]",
        ),
        (
            TraceEntry {
                at: Tick(75),
                event: TraceEvent::Fault {
                    text: "wan-partition n4 on".to_string(),
                },
            },
            "t75 FAULT wan-partition n4 on",
        ),
    ]
}

#[test]
fn display_goldens_cover_every_variant() {
    for (entry, display) in exemplars() {
        assert_eq!(entry.to_string(), display);
    }
}

#[test]
fn live_sim_marks_carry_the_delivered_context() {
    // An end-to-end check over a real traced run: a mark emitted while
    // handling a delivered packet is tied to that packet's span.
    use rb_netsim::{Actor, Ctx, Dest, NodeConfig, Simulation};

    struct Chatter {
        peer: Option<NodeId>,
    }
    impl Actor for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(peer) = self.peer {
                ctx.send(Dest::Unicast(peer), vec![0xAB; 16]);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, _payload: Bytes) {
            ctx.mark("got one");
        }
    }

    let mut sim = Simulation::new(11);
    sim.enable_trace();
    let a = sim.add_node(NodeConfig::wan_only("a"), Box::new(Chatter { peer: None }));
    let _b = sim.add_node(
        NodeConfig::wan_only("b"),
        Box::new(Chatter { peer: Some(a) }),
    );
    sim.run_for(1_000);
    let delivered = sim
        .trace()
        .iter()
        .find_map(|e| match &e.event {
            TraceEvent::Delivered { ctx, .. } => Some(*ctx),
            _ => None,
        })
        .unwrap();
    assert!(sim.trace().iter().any(
        |e| matches!(&e.event, TraceEvent::Mark { ctx, text, .. } if *ctx == delivered && text == "got one")
    ));
}

#[test]
fn causal_propagation_builds_request_reply_trees() {
    // A request/response pair: the reply's span must be a child of the
    // request's span within the same trace; the request is a root.
    use rb_netsim::{Actor, Ctx, Dest, NodeConfig, Simulation};

    struct Echo;
    impl Actor for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: Bytes) {
            ctx.send(Dest::Unicast(from), payload.to_vec());
        }
    }
    struct Caller {
        peer: NodeId,
    }
    impl Actor for Caller {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(5, 1);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: u64) {
            ctx.send(Dest::Unicast(self.peer), vec![1, 2, 3]);
        }
    }

    let mut sim = Simulation::new(7);
    sim.enable_trace();
    let echo = sim.add_node(NodeConfig::wan_only("echo"), Box::new(Echo));
    let _caller = sim.add_node(
        NodeConfig::wan_only("caller"),
        Box::new(Caller { peer: echo }),
    );
    sim.run_for(1_000);

    let sents: Vec<TraceCtx> = sim
        .trace()
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Sent { ctx, .. } => Some(*ctx),
            _ => None,
        })
        .collect();
    assert_eq!(sents.len(), 2, "request + reply");
    let (request, reply) = (sents[0], sents[1]);
    assert!(request.is_root(), "timer-driven send roots a fresh trace");
    assert_eq!(reply.trace_id, request.trace_id, "same causal tree");
    assert_eq!(
        reply.parent_span_id, request.span_id,
        "reply is a child of the request"
    );
    assert_ne!(reply.span_id, request.span_id);
}
