//! Property tests for the network simulator: determinism, isolation, and
//! conservation.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use proptest::prelude::*;
use rb_netsim::{
    Actor, Ctx, Dest, LanId, LinkQuality, NodeConfig, NodeId, Retry, RetryPolicy, SimRng,
    Simulation, Tick,
};

/// Sends `count` packets to `dest` at start; counts everything received.
struct Chatter {
    dest: Option<NodeId>,
    count: u32,
    received: u32,
}

impl Actor for Chatter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(dest) = self.dest {
            for i in 0..self.count {
                ctx.send(Dest::Unicast(dest), vec![i as u8]);
            }
        }
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _from: NodeId, _payload: Bytes) {
        self.received += 1;
    }
}

fn star_world(
    seed: u64,
    senders: u32,
    per_sender: u32,
    quality: LinkQuality,
) -> (Simulation, NodeId) {
    let mut sim = Simulation::with_quality(seed, LinkQuality::perfect(), quality);
    let hub = sim.add_node(
        NodeConfig::wan_only("hub"),
        Box::new(Chatter {
            dest: None,
            count: 0,
            received: 0,
        }),
    );
    for i in 0..senders {
        sim.add_node(
            NodeConfig::wan_only(format!("s{i}")),
            Box::new(Chatter {
                dest: Some(hub),
                count: per_sender,
                received: 0,
            }),
        );
    }
    (sim, hub)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Same seed, same construction ⇒ identical delivery counts at every
    /// horizon (the determinism the whole evaluation rests on).
    #[test]
    fn identical_seeds_are_bit_identical(
        seed in any::<u64>(),
        senders in 1u32..8,
        per_sender in 1u32..16,
        horizon in 1u64..5_000,
    ) {
        let quality = LinkQuality { latency_min: 1, latency_max: 50, drop_per_mille: 100 };
        let (mut a, hub_a) = star_world(seed, senders, per_sender, quality);
        let (mut b, hub_b) = star_world(seed, senders, per_sender, quality);
        a.run_until(Tick(horizon));
        b.run_until(Tick(horizon));
        let ra = a.actor::<Chatter>(hub_a).unwrap().received;
        let rb = b.actor::<Chatter>(hub_b).unwrap().received;
        prop_assert_eq!(ra, rb);
    }

    /// On lossless links every packet is delivered exactly once
    /// (conservation), regardless of seed and load.
    #[test]
    fn lossless_links_conserve_packets(
        seed in any::<u64>(),
        senders in 1u32..10,
        per_sender in 1u32..20,
    ) {
        let (mut sim, hub) = star_world(seed, senders, per_sender, LinkQuality::perfect());
        sim.run_until(Tick(100_000));
        prop_assert_eq!(
            sim.actor::<Chatter>(hub).unwrap().received,
            senders * per_sender
        );
    }

    /// A WAN-only node never receives LAN broadcasts, whatever the traffic
    /// pattern — the paper's adversary boundary as a property.
    #[test]
    fn lan_broadcasts_never_reach_the_wan(
        seed in any::<u64>(),
        bursts in 1u32..20,
    ) {
        struct Beacon { lan: LanId, bursts: u32 }
        impl Actor for Beacon {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..self.bursts {
                    ctx.send(Dest::Broadcast(self.lan), vec![0xAB; 8]);
                }
            }
        }
        let mut sim = Simulation::with_quality(seed, LinkQuality::lan(), LinkQuality::wan());
        let lan = LanId(0);
        let outsider = sim.add_node(
            NodeConfig::wan_only("attacker"),
            Box::new(Chatter { dest: None, count: 0, received: 0 }),
        );
        let insider = sim.add_node(
            NodeConfig::lan_only("resident", lan),
            Box::new(Chatter { dest: None, count: 0, received: 0 }),
        );
        sim.add_node(NodeConfig::dual("beacon", lan), Box::new(Beacon { lan, bursts }));
        sim.run_until(Tick(50_000));
        prop_assert_eq!(sim.actor::<Chatter>(outsider).unwrap().received, 0);
        prop_assert!(sim.actor::<Chatter>(insider).unwrap().received > 0);
    }

    /// The *base* (pre-jitter) backoff schedule is monotone non-decreasing:
    /// with jitter disabled, each retry waits at least as long as the last.
    #[test]
    fn backoff_base_schedule_is_monotone(
        base in 1u64..1_000,
        cap_mult in 1u64..64,
        budget in 1u32..32,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy::new(base, base * cap_mult)
            .budget(budget)
            .jitter(0);
        let mut rng = SimRng::new(seed);
        let mut retry = Retry::new(policy);
        let mut prev = 0u64;
        while let Some(delay) = retry.next(&mut rng) {
            prop_assert!(delay >= prev, "delay {delay} < previous {prev}");
            prev = delay;
        }
        prop_assert_eq!(retry.attempts(), budget);
    }

    /// Every delay — jitter included — is bounded by the policy cap and
    /// is never zero, for any jitter amplitude (even out-of-range ones).
    #[test]
    fn backoff_delays_are_bounded_by_the_cap(
        base in 1u64..1_000,
        cap_mult in 1u64..64,
        jitter in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let cap = base * cap_mult;
        let policy = RetryPolicy::new(base, cap).budget(24).jitter(jitter);
        let mut rng = SimRng::new(seed);
        let mut retry = Retry::new(policy);
        while let Some(delay) = retry.next(&mut rng) {
            prop_assert!(delay >= 1);
            prop_assert!(delay <= policy.cap, "delay {delay} > cap {}", policy.cap);
        }
    }

    /// The jittered schedule is a pure function of (policy, seed): two
    /// `Retry` instances driven by equal-seeded RNGs agree exactly.
    #[test]
    fn backoff_schedule_is_seed_deterministic(
        base in 1u64..500,
        jitter in 0u16..1_000,
        seed in any::<u64>(),
    ) {
        let policy = RetryPolicy::new(base, base * 16).budget(16).jitter(jitter);
        let (mut ra, mut rb) = (SimRng::new(seed), SimRng::new(seed));
        let (mut a, mut b) = (Retry::new(policy), Retry::new(policy));
        loop {
            let (da, db) = (a.next(&mut ra), b.next(&mut rb));
            prop_assert_eq!(da, db);
            if da.is_none() { break; }
        }
    }

    /// Loss rates are honored within statistical tolerance across seeds.
    #[test]
    fn loss_rate_is_statistically_sound(seed in any::<u64>()) {
        let quality = LinkQuality { latency_min: 1, latency_max: 1, drop_per_mille: 300 };
        let (mut sim, hub) = star_world(seed, 10, 100, quality);
        sim.run_until(Tick(100_000));
        let received = sim.actor::<Chatter>(hub).unwrap().received;
        // 1000 packets at 30% loss: expect ~700, allow ±10 percentage points.
        prop_assert!((600..=800).contains(&received), "received {received}");
    }
}
