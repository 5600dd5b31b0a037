//! Chaos scenario builder: named fault profiles over a standard world.
//!
//! A [`ChaosProfile`] turns `(world topology, seed)` into a deterministic
//! [`FaultPlan`]; the same pair always yields the same plan, so a chaos run
//! is reproducible end to end from two integers. The profiles cover the
//! failure classes the binding life cycle (paper Sec. III–IV) must survive:
//! lossy links, WAN flaps, crash/restart with state loss, duplication and
//! reordering, and LAN partitions.

use rb_netsim::{FaultPlan, LinkQuality, SimRng};

use crate::World;

/// A named class of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// A long window of heavily degraded WAN quality (high latency, 20%
    /// loss) while the binding flow runs.
    DropStorm,
    /// Repeated WAN uplink flaps of the device and the app at
    /// seed-determined times.
    WanFlaps,
    /// The device crashes mid-setup and reboots with its RAM state lost;
    /// later the phone does the same.
    CrashRestart,
    /// Every packet may be duplicated or delayed past its neighbors
    /// (at-least-once delivery with reordering).
    DupReorder,
    /// The home LAN blacks out during provisioning, then limps on a
    /// degraded local link.
    LanPartition,
}

impl ChaosProfile {
    /// Every profile, in a stable order (the chaos matrix iterates this).
    pub const ALL: [ChaosProfile; 5] = [
        ChaosProfile::DropStorm,
        ChaosProfile::WanFlaps,
        ChaosProfile::CrashRestart,
        ChaosProfile::DupReorder,
        ChaosProfile::LanPartition,
    ];

    /// Stable human-readable name (used in test output and trace files).
    pub fn name(self) -> &'static str {
        match self {
            ChaosProfile::DropStorm => "drop-storm",
            ChaosProfile::WanFlaps => "wan-flaps",
            ChaosProfile::CrashRestart => "crash-restart",
            ChaosProfile::DupReorder => "dup-reorder",
            ChaosProfile::LanPartition => "lan-partition",
        }
    }

    /// Builds this profile's fault plan for `world`, deterministically
    /// derived from `seed`. Only home 0 is targeted; multi-home worlds
    /// keep their other homes fault-free as in-run controls.
    pub fn plan(self, world: &World, seed: u64) -> FaultPlan {
        let home = &world.homes[0];
        let mut rng = SimRng::new(seed ^ 0xc4a0_5bad);
        match self {
            ChaosProfile::DropStorm => {
                FaultPlan::new().degrade_wan(1_000, 40_000, LinkQuality::degraded())
            }
            ChaosProfile::WanFlaps => FaultPlan::new()
                .random_wan_flaps(&mut rng, home.device, 3, 1_000..30_000, 500..4_000)
                .random_wan_flaps(&mut rng, home.app, 2, 1_000..30_000, 500..4_000),
            ChaosProfile::CrashRestart => {
                let dev_at = rng.range_u64(2_000, 15_000);
                let app_at = rng.range_u64(20_000, 35_000);
                FaultPlan::new()
                    .crash_restart(home.device, dev_at, rng.range_u64(1_000, 6_000))
                    .crash_restart(home.app, app_at, rng.range_u64(1_000, 6_000))
            }
            ChaosProfile::DupReorder => FaultPlan::new().chaos_window(500, 60_000, 250, 250, 30),
            ChaosProfile::LanPartition => FaultPlan::new()
                .lan_blackout(home.lan, rng.range_u64(1_000, 6_000), 8_000)
                .degrade_lan(home.lan, 20_000, 25_000, LinkQuality::degraded()),
        }
    }
}

impl std::fmt::Display for ChaosProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
