//! Pins the two explorers' full reports over the whole design space.
//!
//! `rb_core::spec::check` and `rb_mc::explore::explore` are rewritten for
//! speed from time to time; their verdicts, minimal witnesses, reachable
//! and transition counts and shadow-edge coverage must not move when they
//! are. This test folds the `Debug` rendering of every report over
//! `all_designs()` into one FNV-1a digest (stable across runs and
//! platforms, unlike `RandomState`) and compares it with the value the
//! reports had before the last such rewrite. Any changed witness, count
//! or coverage set changes the digest.

use rb_core::explore::all_designs;
use rb_core::spec;
use rb_mc::explore::explore;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn spec_and_explore_reports_are_pinned_over_every_design() {
    let designs = all_designs();
    assert_eq!(designs.len(), 17_920);
    let mut spec_digest = 0xcbf2_9ce4_8422_2325u64;
    let mut mc_digest = 0xcbf2_9ce4_8422_2325u64;
    for design in &designs {
        fnv1a(
            &mut spec_digest,
            format!("{:?}\n", spec::check(design)).as_bytes(),
        );
        fnv1a(
            &mut mc_digest,
            format!("{:?}\n", explore(design, 1)).as_bytes(),
        );
    }
    assert_eq!(
        spec_digest, 0x1e9a_f8df_1c69_61e9,
        "spec::check digest {spec_digest:#018x}"
    );
    assert_eq!(
        mc_digest, 0x2e79_fd9e_f18a_6c49,
        "explore digest {mc_digest:#018x}"
    );
}
