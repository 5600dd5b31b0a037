//! Chaos regression suite: the binding life cycle under injected faults.
//!
//! A seed-swept matrix of `(design, seed, ChaosProfile)` runs asserting:
//!
//! 1. **Determinism** — two runs with the same seed and profile produce
//!    bit-identical traces (compared by FNV-1a hash of the rendered
//!    `TraceEntry` log).
//! 2. **Liveness** — the happy-path binding eventually completes, or the
//!    app cleanly aborts (`gave_up`); it never wedges silently.
//! 3. **Convergence** — at quiescence (home powered off, heartbeat
//!    timeout elapsed) no shadow is left in `Online`/`Control`: the
//!    cloud's expiry sweeps half-open state.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_core::design::VendorDesign;
use rb_core::shadow::ShadowState;
use rb_core::vendors;
use rb_netsim::TraceEvent;
use rb_scenario::{ChaosProfile, World, WorldBuilder};

/// The fixed seed sweep (acceptance: ≥ 16 distinct seeds).
const SEEDS: [u64; 16] = [
    1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597,
];

/// Ticks the setup loop may take before we require a clean abort. Every
/// profile's faults have healed long before this horizon.
const SETUP_HORIZON: u64 = 120_000;

/// Every profile schedules its last fault event before this tick.
const FAULT_HORIZON: u64 = 70_000;

/// Quiescence margin after powering the home off: the cloud's
/// 30 000-tick heartbeat timeout plus a full 15 000-tick expiry-sweep
/// period, with margin.
const QUIESCE_TICKS: u64 = 50_000;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn trace_hash(world: &World) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for entry in world.sim.trace() {
        fnv1a(&mut h, entry.to_string().as_bytes());
        fnv1a(&mut h, b"\n");
    }
    h
}

fn chaos_world(design: &VendorDesign, seed: u64, profile: ChaosProfile) -> World {
    let mut world = WorldBuilder::new(design.clone(), seed)
        .realistic_links()
        .trace()
        .build();
    let plan = profile.plan(&world, seed);
    world.apply_fault_plan(&plan);
    world
}

struct ChaosOutcome {
    hash: u64,
    converged: bool,
    gave_up: bool,
    shadow_at_quiescence: ShadowState,
}

/// One full chaos run: setup under faults, then power the home off and
/// run past the heartbeat timeout so the cloud's expiry has fired.
fn run_chaos(design: &VendorDesign, seed: u64, profile: ChaosProfile) -> ChaosOutcome {
    let mut world = chaos_world(design, seed, profile);
    let converged = world.try_run_setup(SETUP_HORIZON);
    let gave_up = world.app(0).gave_up();
    // Let every scheduled fault fire before quiescing — a pending Restart
    // would otherwise power the device back on mid-quiescence.
    let now = world.now().as_u64();
    if now < FAULT_HORIZON {
        world.run_for(FAULT_HORIZON - now);
    }
    let (app, device) = (world.homes[0].app, world.homes[0].device);
    world.sim.set_power(app, false);
    world.sim.set_power(device, false);
    world.run_for(QUIESCE_TICKS);
    ChaosOutcome {
        hash: trace_hash(&world),
        converged,
        gave_up,
        shadow_at_quiescence: world.shadow_state(0),
    }
}

fn assert_chaos_invariants(design: &VendorDesign, seed: u64, profile: ChaosProfile) {
    let first = run_chaos(design, seed, profile);
    assert!(
        first.converged || first.gave_up,
        "{} seed {seed} {profile}: binding neither completed nor cleanly aborted",
        design.vendor,
    );
    assert!(
        !first.shadow_at_quiescence.is_online(),
        "{} seed {seed} {profile}: shadow stuck {} at quiescence",
        design.vendor,
        first.shadow_at_quiescence,
    );
    let second = run_chaos(design, seed, profile);
    assert_eq!(
        first.hash, second.hash,
        "{} seed {seed} {profile}: trace hash differs between identical runs",
        design.vendor,
    );
}

/// The main matrix: 16 seeds × all 5 profiles for the design whose
/// device-sent bind historically wedged on one lost packet (TP-LINK's
/// `AclDevice` flow), each run executed twice for the determinism check.
#[test]
fn chaos_matrix_acl_device() {
    let design = vendors::tp_link();
    for profile in ChaosProfile::ALL {
        for seed in SEEDS {
            assert_chaos_invariants(&design, seed, profile);
        }
    }
}

/// Cross-design sweep: every bind scheme (app-sent ACL, device-sent ACL,
/// capability) survives every profile on a smaller seed set.
#[test]
fn chaos_matrix_cross_design() {
    let designs = [
        vendors::d_link(),
        vendors::e_link(),
        vendors::capability_reference(),
    ];
    for design in &designs {
        for profile in ChaosProfile::ALL {
            for seed in [2, 55, 610, 1597] {
                assert_chaos_invariants(design, seed, profile);
            }
        }
    }
}

/// A fault-free run through the chaos harness converges for every design
/// in Table II — the harness itself introduces no failures.
#[test]
fn fault_free_baseline_converges() {
    for design in vendors::vendor_designs() {
        let mut world = WorldBuilder::new(design.clone(), 42)
            .realistic_links()
            .build();
        assert!(
            world.try_run_setup(SETUP_HORIZON),
            "{}: fault-free setup did not converge",
            design.vendor
        );
        assert!(!world.app(0).gave_up());
    }
}

/// With the cloud unreachable for longer than the whole retry budget, the
/// app aborts cleanly instead of spinning forever, and the sim quiesces.
#[test]
fn unreachable_cloud_aborts_cleanly() {
    let design = vendors::d_link();
    let mut world = WorldBuilder::new(design, 7).build();
    // Cut the app's WAN uplink before the first login and never heal it.
    world.sim.partition_wan(world.homes[0].app, true);
    let converged = world.try_run_setup(SETUP_HORIZON);
    assert!(!converged, "setup cannot complete without a cloud path");
    assert!(
        world.app(0).gave_up(),
        "the app must abort once the retry budget is exhausted"
    );
    assert!(world.app(0).events.contains(&rb_app::AppEvent::GaveUp));
}

/// A give-up is not final: once the path heals, `restart_setup` (the user
/// tapping "add device" again) resumes the flow, which then converges.
#[test]
fn restart_after_give_up_resumes_setup() {
    let design = vendors::d_link();
    let mut world = WorldBuilder::new(design, 7).build();
    let app = world.homes[0].app;
    world.sim.partition_wan(app, true);
    assert!(!world.try_run_setup(SETUP_HORIZON));
    assert!(world.app(0).gave_up());
    world.sim.partition_wan(app, false);
    world.app_mut(0).restart_setup();
    assert!(
        world.try_run_setup(300_000),
        "the restarted flow must converge once the cloud is reachable"
    );
    assert!(!world.app(0).gave_up());
    assert!(world.app(0).is_bound());
}

/// The setup-time histogram holds converged setups only. An attempt that
/// gives up records nothing; the restarted attempt that converges records
/// one observation, timed from its own first send to its bind.
#[test]
fn setup_histogram_counts_only_converged_setups() {
    const SETUP: &str = "span_ticks{name=\"app_setup\"}";
    let design = vendors::d_link();
    let mut world = WorldBuilder::new(design, 7).trace().build();
    let app = world.homes[0].app;
    world.sim.partition_wan(app, true);
    assert!(!world.try_run_setup(SETUP_HORIZON));
    assert!(world.app(0).gave_up());
    assert!(
        world.telemetry().snapshot().histogram(SETUP).is_none(),
        "a given-up attempt records no setup time"
    );
    world.sim.partition_wan(app, false);
    let restarted_at = world.now();
    world.app_mut(0).restart_setup();
    assert!(world.try_run_setup(300_000));
    let trace = world.sim.trace();
    let started = trace
        .iter()
        .find(|e| {
            e.at >= restarted_at && matches!(e.event, TraceEvent::Sent { from, .. } if from == app)
        })
        .expect("the restarted attempt sends")
        .at;
    let bound = trace
        .iter()
        .find(|e| matches!(&e.event, TraceEvent::Mark { node, text, .. } if *node == app && text == "app bound"))
        .expect("the restarted attempt binds")
        .at;
    let snap = world.telemetry().snapshot();
    let setup = snap
        .histogram(SETUP)
        .expect("the converged attempt records");
    // One observation, so its exact max is its value.
    assert_eq!(setup.count(), 1);
    assert_eq!(
        setup.max(),
        Some(bound - started),
        "timed from the restart, not the blackout"
    );
}

/// Golden trace: one canonical chaos run's full `TraceEntry` log is
/// pinned byte-for-byte, so engine refactors cannot silently change event
/// ordering, fault application, or delivery scheduling. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p rb-scenario --test chaos golden`.
#[test]
fn golden_chaos_trace_is_pinned() {
    let design = vendors::tp_link();
    let mut world = chaos_world(&design, 7, ChaosProfile::CrashRestart);
    world.run_for(12_000);
    let mut text = String::new();
    for entry in world.sim.trace() {
        text.push_str(&entry.to_string());
        text.push('\n');
    }
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos_trace.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        text, want,
        "the canonical chaos trace drifted; regenerate with UPDATE_GOLDEN=1 if intended"
    );
}

/// A per-home degraded LAN (satellite: per-link quality overrides through
/// world-building) slows setup but does not break it, while a pristine
/// second home is unaffected.
#[test]
fn degraded_home_lan_still_converges() {
    let design = vendors::d_link();
    let mut world = WorldBuilder::new(design, 11)
        .homes(2)
        .home_lan_quality(0, rb_netsim::LinkQuality::degraded())
        .build();
    assert!(world.try_run_setup(SETUP_HORIZON));
    assert!(world.app(0).is_bound());
    assert!(world.app(1).is_bound());
}
