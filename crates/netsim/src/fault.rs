//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seed-reproducible schedule of [`Fault`]s — link
//! flaps, LAN/WAN partitions, node crash/restart cycles, per-path quality
//! overrides, and message duplication/reordering windows. The plan is built
//! up front (optionally from a [`SimRng`], so a `(seed, spec)` pair fully
//! determines it), handed to [`Simulation::apply_fault_plan`], and executed
//! by the event loop exactly like any other scheduled event: two runs with
//! the same seed and plan produce bit-identical traces.
//!
//! [`Simulation::apply_fault_plan`]: crate::Simulation::apply_fault_plan

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::quality::LinkQuality;
use crate::rng::SimRng;
use crate::time::Tick;
use crate::topology::{LanId, NodeId};

/// One injectable fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Cut (or restore) a node's WAN uplink — an ISP outage or the flap of
    /// a congested home router.
    WanPartition {
        /// The affected node.
        node: NodeId,
        /// `true` cuts the uplink, `false` restores it.
        partitioned: bool,
    },
    /// Take a whole LAN down (or back up): local unicast and broadcast on
    /// the LAN fail while partitioned; WAN uplinks are unaffected.
    LanPartition {
        /// The affected LAN.
        lan: LanId,
        /// `true` partitions the LAN, `false` heals it.
        partitioned: bool,
    },
    /// Crash a node: power is cut, pending deliveries to it are dropped at
    /// delivery time, and timers stop firing (in-RAM state is lost to the
    /// extent the actor models a reboot in `on_power`).
    Crash {
        /// The node to crash.
        node: NodeId,
    },
    /// Restart a crashed node (power back on; the actor's `on_power(true)`
    /// reboot path runs).
    Restart {
        /// The node to restart.
        node: NodeId,
    },
    /// Override (or clear, with `None`) the quality of one LAN.
    LanQuality {
        /// The affected LAN.
        lan: LanId,
        /// New quality, or `None` to restore the simulation default.
        quality: Option<LinkQuality>,
    },
    /// Override (or clear, with `None`) the quality of the WAN.
    WanQuality {
        /// New quality, or `None` to restore the simulation default.
        quality: Option<LinkQuality>,
    },
    /// Override (or clear, with `None`) the quality of one directed path.
    /// Takes precedence over LAN/WAN overrides.
    PairQuality {
        /// Sender side of the path.
        from: NodeId,
        /// Receiver side of the path.
        to: NodeId,
        /// New quality, or `None` to restore the default resolution.
        quality: Option<LinkQuality>,
    },
    /// Set the delivery-chaos knobs: each successfully delivered packet is
    /// duplicated with probability `dup_per_mille / 1000`, and delayed by
    /// up to `reorder_extra_max` extra ticks with probability
    /// `reorder_per_mille / 1000` (which reorders it behind later sends).
    /// All zeros turns chaos off.
    Chaos {
        /// Duplication probability in per-mille.
        dup_per_mille: u16,
        /// Reordering probability in per-mille.
        reorder_per_mille: u16,
        /// Maximum extra latency a reordered packet picks up.
        reorder_extra_max: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::WanPartition { node, partitioned } => {
                write!(
                    f,
                    "wan {} {node}",
                    if *partitioned { "cut" } else { "restored" }
                )
            }
            Fault::LanPartition { lan, partitioned } => {
                write!(
                    f,
                    "{lan} {}",
                    if *partitioned { "partitioned" } else { "healed" }
                )
            }
            Fault::Crash { node } => write!(f, "crash {node}"),
            Fault::Restart { node } => write!(f, "restart {node}"),
            Fault::LanQuality { lan, quality } => match quality {
                Some(q) => write!(f, "{lan} quality {}..{}/{}", q.latency_min, q.latency_max, q.drop_per_mille),
                None => write!(f, "{lan} quality restored"),
            },
            Fault::WanQuality { quality } => match quality {
                Some(q) => write!(f, "wan quality {}..{}/{}", q.latency_min, q.latency_max, q.drop_per_mille),
                None => write!(f, "wan quality restored"),
            },
            Fault::PairQuality { from, to, quality } => match quality {
                Some(q) => write!(f, "path {from}->{to} quality {}..{}/{}", q.latency_min, q.latency_max, q.drop_per_mille),
                None => write!(f, "path {from}->{to} quality restored"),
            },
            Fault::Chaos {
                dup_per_mille,
                reorder_per_mille,
                reorder_extra_max,
            } => write!(
                f,
                "chaos dup={dup_per_mille}\u{2030} reorder={reorder_per_mille}\u{2030}/{reorder_extra_max}t"
            ),
        }
    }
}

/// A schedule of faults, ordered by injection time.
///
/// Build one with the combinators below (possibly drawing times from a
/// [`SimRng`]), then hand it to `Simulation::apply_fault_plan`. Events at
/// equal ticks fire in insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<(Tick, Fault)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules one fault at `at`.
    pub(crate) fn at(mut self, at: u64, fault: Fault) -> Self {
        self.events.push((Tick(at), fault));
        self
    }

    /// Cuts `node`'s WAN uplink at `at` and restores it `down_for` ticks
    /// later (one link flap).
    pub(crate) fn wan_flap(self, node: NodeId, at: u64, down_for: u64) -> Self {
        self.at(
            at,
            Fault::WanPartition {
                node,
                partitioned: true,
            },
        )
        .at(
            at.saturating_add(down_for),
            Fault::WanPartition {
                node,
                partitioned: false,
            },
        )
    }

    /// Partitions `lan` at `at` and heals it `down_for` ticks later.
    pub fn lan_blackout(self, lan: LanId, at: u64, down_for: u64) -> Self {
        self.at(
            at,
            Fault::LanPartition {
                lan,
                partitioned: true,
            },
        )
        .at(
            at.saturating_add(down_for),
            Fault::LanPartition {
                lan,
                partitioned: false,
            },
        )
    }

    /// Crashes `node` at `at` and restarts it `down_for` ticks later.
    pub fn crash_restart(self, node: NodeId, at: u64, down_for: u64) -> Self {
        self.at(at, Fault::Crash { node })
            .at(at.saturating_add(down_for), Fault::Restart { node })
    }

    /// Degrades the WAN to `quality` for a window of `lasting` ticks.
    pub fn degrade_wan(self, at: u64, lasting: u64, quality: LinkQuality) -> Self {
        self.at(
            at,
            Fault::WanQuality {
                quality: Some(quality),
            },
        )
        .at(
            at.saturating_add(lasting),
            Fault::WanQuality { quality: None },
        )
    }

    /// Degrades one LAN to `quality` for a window of `lasting` ticks.
    pub fn degrade_lan(self, lan: LanId, at: u64, lasting: u64, quality: LinkQuality) -> Self {
        self.at(
            at,
            Fault::LanQuality {
                lan,
                quality: Some(quality),
            },
        )
        .at(
            at.saturating_add(lasting),
            Fault::LanQuality { lan, quality: None },
        )
    }

    /// Enables duplication/reordering chaos for a window of `lasting`
    /// ticks.
    pub fn chaos_window(
        self,
        at: u64,
        lasting: u64,
        dup_per_mille: u16,
        reorder_per_mille: u16,
        reorder_extra_max: u64,
    ) -> Self {
        self.at(
            at,
            Fault::Chaos {
                dup_per_mille,
                reorder_per_mille,
                reorder_extra_max,
            },
        )
        .at(
            at.saturating_add(lasting),
            Fault::Chaos {
                dup_per_mille: 0,
                reorder_per_mille: 0,
                reorder_extra_max: 0,
            },
        )
    }

    /// Schedules `flaps` WAN flaps of `node` at deterministic random times
    /// in `window`, each lasting a random duration drawn from `down` ticks.
    /// Same `rng` state, same plan.
    pub fn random_wan_flaps(
        mut self,
        rng: &mut SimRng,
        node: NodeId,
        flaps: u32,
        window: std::ops::Range<u64>,
        down: std::ops::Range<u64>,
    ) -> Self {
        let hi = window.end.max(window.start + 1) - 1;
        for _ in 0..flaps {
            let at = rng.range_u64(window.start, hi);
            let lasting = rng.range_u64(down.start, down.end.max(down.start));
            self = self.wan_flap(node, at, lasting);
        }
        self
    }

    /// Merges another plan into this one.
    pub fn merge(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        self
    }

    /// The scheduled events, sorted by time (stable: ties keep insertion
    /// order).
    pub(crate) fn events(&self) -> Vec<(Tick, Fault)> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|(at, _)| *at);
        evs
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinators_schedule_paired_events() {
        let plan = FaultPlan::new()
            .wan_flap(NodeId(1), 100, 50)
            .lan_blackout(LanId(0), 10, 5)
            .crash_restart(NodeId(2), 30, 70);
        assert_eq!(plan.events().len(), 6);
        let evs = plan.events();
        // Sorted by tick, pairs preserved.
        assert_eq!(evs[0].0, Tick(10));
        assert_eq!(evs[1].0, Tick(15));
        assert!(matches!(evs[2].1, Fault::Crash { .. }));
        assert!(matches!(
            evs[5].1,
            Fault::WanPartition {
                partitioned: false,
                ..
            }
        ));
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let mk = |seed| {
            FaultPlan::new().random_wan_flaps(
                &mut SimRng::new(seed),
                NodeId(3),
                4,
                0..10_000,
                100..500,
            )
        };
        assert_eq!(mk(9), mk(9));
        assert_ne!(mk(9), mk(10));
    }

    #[test]
    fn display_is_human_readable() {
        let f = Fault::Crash { node: NodeId(7) };
        assert_eq!(f.to_string(), "crash n7");
        let f = Fault::WanQuality {
            quality: Some(LinkQuality::lossy(300)),
        };
        assert!(f.to_string().contains("300"));
    }

    #[test]
    fn empty_plan() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.events().len(), 0);
        assert!(plan.events().is_empty());
    }
}
