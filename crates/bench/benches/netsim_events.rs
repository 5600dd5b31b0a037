//! Network-simulator throughput: events per second through the scheduler
//! under a ping-pong load and a broadcast fan-out load.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rb_netsim::{Actor, Ctx, Dest, LanId, LinkQuality, NodeConfig, NodeId, Simulation};

/// Two nodes exchanging a packet forever.
struct PingPong {
    peer: Option<NodeId>,
}

impl Actor for PingPong {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(peer) = self.peer {
            ctx.send(Dest::Unicast(peer), vec![0u8; 32]);
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &Bytes) {
        ctx.send(Dest::Unicast(from), payload.to_vec());
    }
}

/// Broadcasts on every timer tick.
struct Broadcaster {
    lan: LanId,
}

impl Actor for Broadcaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(1, 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: u64) {
        ctx.send(Dest::Broadcast(self.lan), vec![0u8; 16]);
        ctx.set_timer(1, 0);
    }
}

struct Sink;
impl Actor for Sink {}

fn bench_netsim(c: &mut Criterion) {
    let mut group = c.benchmark_group("netsim");

    group.throughput(Throughput::Elements(10_000));
    group.bench_function("ping_pong_10k_events", |b| {
        b.iter(|| {
            let mut sim =
                Simulation::with_quality(1, LinkQuality::perfect(), LinkQuality::perfect());
            let a = sim.add_node(NodeConfig::wan_only("a"), Box::new(PingPong { peer: None }));
            let _b = sim.add_node(
                NodeConfig::wan_only("b"),
                Box::new(PingPong { peer: Some(a) }),
            );
            for _ in 0..10_000 {
                if !sim.step() {
                    break;
                }
            }
            black_box(sim.now())
        })
    });

    for fanout in [10usize, 100] {
        group.throughput(Throughput::Elements(1_000 * fanout as u64));
        group.bench_with_input(
            BenchmarkId::new("broadcast_fanout", fanout),
            &fanout,
            |b, &fanout| {
                b.iter(|| {
                    let mut sim =
                        Simulation::with_quality(1, LinkQuality::perfect(), LinkQuality::perfect());
                    let lan = LanId(0);
                    sim.add_node(NodeConfig::dual("tx", lan), Box::new(Broadcaster { lan }));
                    for i in 0..fanout {
                        sim.add_node(NodeConfig::lan_only(format!("rx{i}"), lan), Box::new(Sink));
                    }
                    sim.run_until(rb_netsim::Tick(1_000));
                    black_box(sim.now())
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_netsim);
criterion_main!(benches);
