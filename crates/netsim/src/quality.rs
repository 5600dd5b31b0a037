//! Link-quality models: latency, jitter, loss.

use serde::{Deserialize, Serialize};

use crate::rng::SimRng;

/// Latency/loss characteristics of a network path.
///
/// Latency for each packet is drawn uniformly from
/// `[latency_min, latency_max]` ticks; the packet is dropped with
/// probability `drop_per_mille / 1000`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkQuality {
    /// Minimum one-way latency in ticks.
    pub latency_min: u64,
    /// Maximum one-way latency in ticks.
    pub latency_max: u64,
    /// Loss rate in packets per thousand.
    pub drop_per_mille: u16,
}

impl LinkQuality {
    /// A perfect link: 1-tick latency, no loss. Useful in unit tests.
    pub fn perfect() -> Self {
        LinkQuality {
            latency_min: 1,
            latency_max: 1,
            drop_per_mille: 0,
        }
    }

    /// A typical home LAN: 1–4 ms, negligible loss.
    pub fn lan() -> Self {
        LinkQuality {
            latency_min: 1,
            latency_max: 4,
            drop_per_mille: 1,
        }
    }

    /// A typical WAN path to a cloud region: 20–80 ms, light loss.
    pub fn wan() -> Self {
        LinkQuality {
            latency_min: 20,
            latency_max: 80,
            drop_per_mille: 5,
        }
    }

    /// A badly degraded but still usable path: high, jittery latency and
    /// 20% loss. The canonical "bad weather" preset for chaos scenarios.
    pub fn degraded() -> Self {
        LinkQuality {
            latency_min: 50,
            latency_max: 400,
            drop_per_mille: 200,
        }
    }

    /// A degraded path for failure-injection experiments.
    pub fn lossy(drop_per_mille: u16) -> Self {
        LinkQuality {
            latency_min: 20,
            latency_max: 200,
            drop_per_mille,
        }
    }

    /// Draws a delivery latency, or `None` if the packet is lost.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> Option<u64> {
        if self.drop_per_mille > 0 && rng.chance(u32::from(self.drop_per_mille), 1000) {
            return None;
        }
        Some(rng.range_u64(self.latency_min, self.latency_max))
    }

    /// Validates that `latency_min <= latency_max` and the drop rate is a
    /// probability.
    pub(crate) fn is_valid(&self) -> bool {
        self.latency_min <= self.latency_max && self.drop_per_mille <= 1000
    }
}

impl Default for LinkQuality {
    fn default() -> Self {
        LinkQuality::perfect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_link_never_drops() {
        let q = LinkQuality::perfect();
        let mut rng = SimRng::new(1);
        for _ in 0..1000 {
            assert_eq!(q.sample(&mut rng), Some(1));
        }
    }

    #[test]
    fn latency_stays_in_bounds() {
        let q = LinkQuality {
            latency_min: 10,
            latency_max: 50,
            drop_per_mille: 0,
        };
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            let l = q.sample(&mut rng).unwrap();
            assert!((10..=50).contains(&l));
        }
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let q = LinkQuality {
            latency_min: 1,
            latency_max: 1,
            drop_per_mille: 250,
        };
        let mut rng = SimRng::new(99);
        let drops = (0..10_000).filter(|_| q.sample(&mut rng).is_none()).count();
        // 25% ± 3%.
        assert!((2200..=2800).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn full_loss_drops_everything() {
        let q = LinkQuality {
            latency_min: 1,
            latency_max: 1,
            drop_per_mille: 1000,
        };
        let mut rng = SimRng::new(3);
        assert!((0..100).all(|_| q.sample(&mut rng).is_none()));
    }

    #[test]
    fn validity() {
        assert!(LinkQuality::lan().is_valid());
        assert!(LinkQuality::wan().is_valid());
        assert!(!LinkQuality {
            latency_min: 5,
            latency_max: 1,
            drop_per_mille: 0
        }
        .is_valid());
        assert!(!LinkQuality {
            latency_min: 1,
            latency_max: 2,
            drop_per_mille: 1001
        }
        .is_valid());
    }
}
