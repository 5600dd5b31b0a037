//! Every minimal counterexample in the design space replays live.
//!
//! The vendor tests cover ten designs; this one replays each witness
//! `explore` finds on every one of the 17,920 coherent designs in the
//! packet-level simulator, so a design class no vendor has (say, a
//! device-channel bind behind a local-proof check) cannot hide a
//! model⇔simulator divergence. The witness count is pinned too, so a
//! design that stops yielding witnesses cannot read as a pass.

use rb_core::explore::all_designs;
use rb_core::par::{available_threads, par_map};
use rb_mc::explore::explore;
use rb_mc::replay::replay;

#[test]
fn every_witness_in_the_design_space_replays() {
    let designs = all_designs();
    let per_design = par_map(&designs, available_threads(), |design| {
        let report = explore(design, 1);
        let mut witnesses = 0usize;
        let mut failures = Vec::new();
        for (property, witness) in report.violations() {
            witnesses += 1;
            if let Err(e) = replay(design, property, witness) {
                failures.push(format!("{property} {witness:?}: {e}"));
            }
        }
        (witnesses, failures)
    });
    let witnesses: usize = per_design.iter().map(|(n, _)| n).sum();
    let failures: Vec<&String> = per_design.iter().flat_map(|(_, f)| f).collect();
    assert!(
        failures.is_empty(),
        "{} of {witnesses} witnesses failed to replay; first: {:#?}",
        failures.len(),
        &failures[..failures.len().min(5)]
    );
    assert_eq!(witnesses, 21_088);
}
