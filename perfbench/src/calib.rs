//! A fixed calibration probe run before every timed rep, so each rep's
//! throughput can be scaled to a reference machine speed.
//!
//! The 2-vCPU Xeon microVM the bounds were fixed on is shared: other
//! tenants load its memory system in phases of tens of seconds. In one
//! 90-second pinned `fleet_setup` run the mean rep time of 7-second blocks
//! ranged from 0.17 to 0.24 s (±18%) while the rep/probe ratio stayed
//! within ±6.5%. The probe is ordinary benchmark code — ordered and hashed
//! maps and small allocations, like the simulator's working set — so no
//! change to the program moves it, while a slow phase of the machine slows
//! it in step with the rep next to it. A pure ALU loop did not track the
//! reps (±15%), so the probe is memory-bound like the workloads.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Probe time, in seconds, of the machine the throughput is scaled to: a
/// quiet phase of the 2-CPU box the bounds were fixed on.
pub const REFERENCE_S: f64 = 0.020;

/// Operations per probe.
const OPS: u64 = 36_000;

/// Runs the probe once and returns its wall time in seconds.
pub fn probe() -> f64 {
    let t = Instant::now();
    black_box(work(black_box(OPS)));
    t.elapsed().as_secs_f64()
}

/// Map churn and small allocations over a fixed pseudo-random sequence.
fn work(ops: u64) -> usize {
    let mut ordered = BTreeMap::new();
    // A fixed hasher, so every process probes with the same layout.
    let mut hashed: HashMap<u64, Vec<u8>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut boxes: Vec<Box<[u8; 48]>> = Vec::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.insert(x % 50_000, i);
        hashed.insert(x % 20_000, vec![i as u8; (x % 64) as usize]);
        if i % 3 == 0 {
            ordered.remove(&((x >> 8) % 50_000));
        }
        boxes.push(Box::new([i as u8; 48]));
        if boxes.len() > 4_096 {
            boxes.clear();
        }
    }
    ordered.len() + hashed.len() + boxes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_fixed_work() {
        assert_eq!(work(5_000), work(5_000));
        assert!(probe() > 0.0);
    }
}
