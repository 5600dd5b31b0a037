//! Pins every attack run the campaigns produce.
//!
//! The executors' message construction is rewritten from time to time;
//! what the attacks observe must not move when it is. This test folds
//! the `Debug` rendering of every `AttackRun` (attack, outcome with its
//! note, evidence lines, interventions and, where recorded, the forensic
//! capture with its frame sizes) into one FNV-1a digest per battery:
//!
//! * `run_all(1)`: the ten vendors of Table III;
//! * `run_reference_campaign(1)`: the two secure reference designs;
//! * the hardened-policy grid `exp_defense` runs: every cell feasible
//!   against the undefended cloud at its seed, rerun under
//!   `DefensePolicy::hardened()` with a forensic capture.
//!
//! The pinned values are the digests the executors produced before the
//! last such rewrite; any changed outcome, note, evidence line or frame
//! changes them.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_attack::campaign::{run_all, run_reference_campaign, VendorCampaign};
use rb_attack::{run_attack, run_attack_opts, AttackOpts, AttackRun};
use rb_cloud::DefensePolicy;
use rb_core::attacks::{AttackId, Feasibility};
use rb_core::vendors::vendor_designs;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(h: &mut u64, vendor: &str, run: &AttackRun) {
    fnv1a(h, format!("{vendor} {run:?}\n").as_bytes());
}

fn campaigns_digest(campaigns: &[VendorCampaign]) -> u64 {
    let mut h = FNV_OFFSET;
    for campaign in campaigns {
        for run in campaign.runs.values() {
            fold(&mut h, &campaign.design.vendor, run);
        }
    }
    h
}

/// `exp_defense`'s seed for the defended grid.
const DEFENSE_SEED: u64 = 0xDEF_2019;

/// The digests of `run_all(1)`, `run_reference_campaign(1)` and the
/// defended grid.
const TABLE3: u64 = 0x723c_27a1_61a7_cf86;
const REFERENCE: u64 = 0x645e_aaa9_75d7_b90f;
const DEFENDED: u64 = 0x8dc4_62bc_2872_d75e;

#[test]
fn table3_campaign_runs_are_pinned() {
    let got = campaigns_digest(&run_all(1));
    assert_eq!(got, TABLE3, "run_all(1) digest moved: {got:#018x}");
}

#[test]
fn reference_campaign_runs_are_pinned() {
    let got = campaigns_digest(&run_reference_campaign(1));
    assert_eq!(
        got, REFERENCE,
        "run_reference_campaign(1) digest moved: {got:#018x}"
    );
}

#[test]
fn hardened_grid_runs_are_pinned() {
    let mut h = FNV_OFFSET;
    let mut cells = 0;
    for design in vendor_designs() {
        for id in AttackId::ALL {
            if run_attack(&design, id, DEFENSE_SEED).outcome != Feasibility::Feasible {
                continue;
            }
            let opts = AttackOpts {
                defense: DefensePolicy::hardened(),
                capture: true,
                ..AttackOpts::default()
            };
            fold(
                &mut h,
                &design.vendor,
                &run_attack_opts(&design, id, DEFENSE_SEED, &opts),
            );
            cells += 1;
        }
    }
    assert!(cells > 0, "the defended grid has feasible cells");
    assert_eq!(h, DEFENDED, "hardened grid digest moved: {h:#018x}");
}
