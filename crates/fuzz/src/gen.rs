//! The seeded generator: random *legal* interleavings by construction.
//!
//! Generation is rejection-free: at every position the generator asks
//! the DSL which acts are legal in the current model state
//! (`crate::dsl::legal_acts`) and picks one uniformly with the
//! deterministic [`SimRng`]. Each run forks its own stream from the
//! campaign seed and the run index, so runs are independent of one
//! another and the whole corpus is a pure function of `(seed, runs,
//! max_len)` — the determinism gate `exp_fuzz` enforces byte-for-byte.

use crate::dsl::{self, Act};
use rb_core::design::VendorDesign;
use rb_mc::model::PState;
use rb_netsim::SimRng;

/// The per-run stream: the campaign seed dispersed by the run index with
/// a splitmix-style odd multiplier, so neighbouring runs share no prefix.
pub fn run_rng(seed: u64, run: u32) -> SimRng {
    SimRng::new(seed ^ u64::from(run).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates one legal act sequence of 3..=`max_len` acts. Legality is
/// by construction: each act is drawn from the acts enabled in the state
/// the prefix reaches, so [`crate::dsl::compile_seq`] always succeeds on
/// the result.
pub fn generate(design: &VendorDesign, rng: &mut SimRng, max_len: usize) -> Vec<Act> {
    let len = rng.range_u64(3, max_len.max(3) as u64) as usize;
    let mut s = PState::initial();
    let mut acts = Vec::with_capacity(len);
    for _ in 0..len {
        let legal = dsl::legal_acts(design, s);
        // Control/Chaos are always legal, so the menu is never empty.
        let pick = legal[rng.range_u64(0, legal.len() as u64 - 1) as usize];
        if let Some(c) = dsl::compile_act(design, s, pick) {
            s = c.end(s);
        }
        acts.push(pick);
    }
    acts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::vendors::*;

    #[test]
    fn generated_sequences_always_compile() {
        for design in vendor_designs() {
            let mut rng = run_rng(0xF022_2019, 7);
            for _ in 0..64 {
                let acts = generate(&design, &mut rng, 12);
                assert!(
                    dsl::compile_seq(&design, &acts).is_some(),
                    "{}: illegal sequence {acts:?}",
                    design.vendor
                );
                assert!((3..=12).contains(&acts.len()));
            }
        }
    }

    #[test]
    fn the_same_seed_reproduces_the_same_sequence() {
        let d = tp_link();
        let a = generate(&d, &mut run_rng(42, 3), 12);
        let b = generate(&d, &mut run_rng(42, 3), 12);
        assert_eq!(a, b);
    }

    #[test]
    fn different_runs_diverge() {
        let d = tp_link();
        let seqs: Vec<_> = (0..16)
            .map(|r| generate(&d, &mut run_rng(1, r), 12))
            .collect();
        let distinct: std::collections::BTreeSet<_> =
            seqs.iter().map(|s| format!("{s:?}")).collect();
        assert!(distinct.len() > 8, "runs are suspiciously correlated");
    }
}
