//! Golden fleet report: a small perfect-link sweep over all ten vendor
//! designs is pinned byte-for-byte, so a change to how agents are
//! scheduled (timers, wakes) cannot silently move a setup's outcome or its
//! convergence tick. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p rb-fleet --test golden`.

use rb_core::vendors::vendor_designs;
use rb_fleet::{run_fleet, FleetSpec};

#[test]
fn perfect_link_sweep_render_is_pinned() {
    // 10 designs x 4 seeds x 5 homes per cell.
    let spec = FleetSpec::new(vendor_designs(), vec![0, 1, 2, 3], 200).threads(2);
    let text = run_fleet(&spec).0.render();
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_render.txt");
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
        "the fleet report drifted; regenerate with UPDATE_GOLDEN=1 if intended"
    );
}
