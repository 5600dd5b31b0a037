//! EXP-DOS — §V-C: "given that some vendors use sequential device IDs for
//! its products, attackers can enumerate or brute-force the device IDs,
//! and it could even cause scalable denial-of-service attacks to the
//! entire product series of a vendor."
//!
//! The attacker enumerates the ID space of a product series and occupies
//! every binding before the owners set up. Measured across series sizes,
//! for a vulnerable design vs the capability-based reference — under the
//! phase profiler and the counting allocator, so the bench also reports
//! homes/sec, peak bytes/home, and where the ticks went.
//!
//! Prints the human table, then a single `BENCH ` line with the
//! schema-versioned [`rb_bench::report::BenchReport`] document;
//! `benches/baselines/dos_scale.json` gates the deterministic fields in
//! CI via `rb_bench::compare`. The §V-C shape check is computed from the
//! table: the binary exits 1 unless every vulnerable series is fully
//! occupied and locked out and no capability series is touched at all.
//!
//! ```text
//! cargo run -p rb-bench --bin exp_dos_scale
//! cargo run -p rb-bench --bin exp_dos_scale -- out.json
//! ```

use std::time::Instant;

use rb_attack::acts::AtkStep;
use rb_attack::Adversary;
use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_core::design::VendorDesign;
use rb_core::vendors;
use rb_prof::{AllocScope, CountingAlloc, Profiler};
use rb_scenario::WorldBuilder;
use rb_wire::ids::IdScheme;
use rb_wire::messages::Response;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Occupies every enumerable device of a series pre-setup, then lets the
/// victims try. The attacker fires the bind `forge_as` accepts: a
/// capability series has no bind to forge, so it is probed with the ACL
/// series' app-channel bind, which its cloud must refuse on its merits.
/// Returns (bindings occupied, victims locked out).
fn dos_series(
    design: &VendorDesign,
    forge_as: &VendorDesign,
    homes: usize,
    seed: u64,
    profiler: &Profiler,
) -> (usize, usize) {
    let mut world = WorldBuilder::new(design.clone(), seed)
        .homes(homes)
        .victim_paused()
        .with_profiler(profiler.clone())
        .build();
    let mut adv = Adversary::new();
    let token = profiler.enter("dos.enumerate", world.now().as_u64());
    let user_token = adv.login(&mut world);

    // Enumerate the ID space in allocation order (sequential IDs!) and fire
    // a bind for each candidate — the attacker does not even know which IDs
    // were sold.
    let mut occupied = 0;
    let budget = (homes as u64) * 2; // sweep a window of the sequence
    for i in 0..budget {
        let dev_id = design.id_scheme.id_at(i);
        let Some(bind) = AtkStep::Bind.forge(forge_as, &dev_id, Some(user_token)) else {
            unreachable!("an ACL bind is forgeable after login");
        };
        let rsp = adv.request_wait(&mut world, bind, 300);
        if matches!(rsp, Some(Response::Bound { .. })) {
            occupied += 1;
        }
    }
    profiler.exit(token, world.now().as_u64());

    // The victims unbox their devices.
    let token = profiler.enter("dos.victim_setup", world.now().as_u64());
    world.resume_victims();
    world.try_run_setup(150_000);
    let locked_out = (0..homes).filter(|&i| !world.app(i).is_bound()).count();
    profiler.exit(token, world.now().as_u64());
    (occupied, locked_out)
}

fn main() {
    println!("EXP-DOS: scalable binding denial-of-service over a product series\n");
    let out_path = std::env::args().nth(1);

    // A vulnerable vendor with sequential IDs (OZWI-style camera line).
    let mut vulnerable = vendors::ozwi();
    vulnerable.id_scheme = IdScheme::SequentialSerial {
        vendor: 0x0102,
        start: 0,
    };
    let secure = vendors::capability_reference();

    let profiler = Profiler::new();
    let scope = AllocScope::start();
    let started = Instant::now();
    let mut report = BenchReport::new("exp_dos_scale");
    let mut rows = Vec::new();
    let mut shape_violations = Vec::new();
    let mut homes_total = 0usize;
    for homes in [1usize, 2, 4, 8, 16] {
        let (occ_v, lock_v) = dos_series(
            &vulnerable,
            &vulnerable,
            homes,
            7_000 + homes as u64,
            &profiler,
        );
        let (occ_s, lock_s) =
            dos_series(&secure, &vulnerable, homes, 9_000 + homes as u64, &profiler);
        homes_total += homes * 2;
        if (occ_v, lock_v) != (homes, homes) {
            shape_violations.push(format!(
                "vulnerable series of {homes}: {occ_v} occupied, {lock_v} locked out, \
                 expected {homes} and {homes}"
            ));
        }
        if (occ_s, lock_s) != (0, 0) {
            shape_violations.push(format!(
                "capability series of {homes}: {occ_s} occupied, {lock_s} locked out, \
                 expected 0 and 0"
            ));
        }
        report
            .metric_u64(&format!("occupied_vulnerable_{homes}"), occ_v as u64)
            .metric_u64(&format!("locked_out_vulnerable_{homes}"), lock_v as u64)
            .metric_u64(&format!("occupied_capability_{homes}"), occ_s as u64)
            .metric_u64(&format!("locked_out_capability_{homes}"), lock_s as u64);
        rows.push(vec![
            homes.to_string(),
            format!("{occ_v}/{homes}"),
            format!("{lock_v}/{homes}"),
            format!("{occ_s}/{homes}"),
            format!("{lock_s}/{homes}"),
        ]);
    }
    let elapsed_secs = started.elapsed().as_secs_f64();
    let alloc = scope.finish();
    let profile = profiler.snapshot();
    println!(
        "{}",
        render_table(
            &[
                "series size",
                "occupied (vulnerable)",
                "victims locked out (vulnerable)",
                "occupied (capability)",
                "victims locked out (capability)"
            ],
            &rows
        )
    );

    let verdict = if shape_violations.is_empty() {
        "holds"
    } else {
        "FAILS"
    };
    println!("shape check (paper §V-C) {verdict}: the DoS occupies and locks out the whole");
    println!("series for ACL designs with sequential IDs, and nothing for capability binding.");
    println!(
        "\nenvelope: {homes_total} homes in {elapsed_secs:.2}s ({:.0} homes/s), peak live {} bytes \
         ({:.0} bytes/home)",
        homes_total as f64 / elapsed_secs,
        alloc.peak_live_bytes,
        alloc.peak_live_bytes as f64 / homes_total.max(1) as f64
    );
    println!("phase ticks: {}\n", profile.total_ticks());

    report
        .meta("series_sizes", "1,2,4,8,16")
        .metric_u64("homes_total", homes_total as u64)
        .metric_u64("total_ticks", profile.total_ticks())
        .metric_f64("elapsed_secs", elapsed_secs)
        .metric_f64("homes_per_sec", homes_total as f64 / elapsed_secs)
        .metric_u64("peak_alloc_bytes", alloc.peak_live_bytes)
        .metric_u64(
            "peak_bytes_per_home",
            alloc.peak_live_bytes / homes_total.max(1) as u64,
        )
        .with_alloc(alloc)
        .with_profile(&profile);
    emit(&report, out_path.as_deref());
    if !shape_violations.is_empty() {
        for violation in &shape_violations {
            eprintln!("exp_dos_scale: GATE FAILED — {violation}");
        }
        std::process::exit(1);
    }
}
