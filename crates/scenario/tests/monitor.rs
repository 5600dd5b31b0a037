//! Monitor-enabled world tests: the streaming monitor's alert stream and
//! state render byte-identically at any thread count, and the canonical
//! monitor-enabled Prometheus export (alert + mitigation families
//! included) is pinned as a golden.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_core::par::par_map;
use rb_core::vendors;
use rb_scenario::monitor_run;

/// The little vendor × seed matrix the determinism sweep runs. Small on
/// purpose: the full grid belongs to `exp_defense`.
fn matrix() -> Vec<(rb_core::design::VendorDesign, u64)> {
    let mut cells = Vec::new();
    for design in [vendors::tp_link(), vendors::e_link(), vendors::ozwi()] {
        for seed in [7, 11] {
            cells.push((design.clone(), seed));
        }
    }
    cells
}

/// Runs the matrix on `threads` workers (in-order `par_map`) and returns
/// one byte-stable artifact per cell.
fn sweep(threads: usize) -> Vec<String> {
    par_map(&matrix(), threads, |(design, seed)| {
        let run = monitor_run(design, *seed);
        format!(
            "== {} seed={seed}\n{}\n{}\n{}",
            design.vendor,
            run.alert_stream,
            run.state,
            run.telemetry.to_prometheus()
        )
    })
}

#[test]
fn alert_stream_and_state_are_identical_at_1_4_and_8_threads() {
    let one = sweep(1);
    let four = sweep(4);
    let eight = sweep(8);
    assert_eq!(one, four, "4-thread sweep must be byte-identical");
    assert_eq!(one, eight, "8-thread sweep must be byte-identical");
}

#[test]
fn monitor_run_detects_and_mitigates_the_scripted_attacker() {
    let run = monitor_run(&vendors::tp_link(), 7);
    assert!(run.converged, "benign setup converges before the attack");
    assert!(
        run.alert_stream.contains("enumeration"),
        "the ID sweep is flagged:\n{}",
        run.alert_stream
    );
    let snap = run.telemetry.snapshot();
    let alerts: u64 = snap
        .counters()
        .filter(|(name, _)| name.starts_with("cloud_alerts_total"))
        .map(|(_, v)| v)
        .sum();
    assert!(alerts >= 2, "several detectors fire on TP-LINK: {alerts}");
    let mitigations: u64 = snap
        .counters()
        .filter(|(name, _)| name.starts_with("cloud_mitigations_total"))
        .map(|(_, v)| v)
        .sum();
    assert!(
        mitigations >= 1,
        "the hardened policy reacts: {mitigations}"
    );
    // Detection latency histograms are tick-valued and populated.
    assert!(
        run.telemetry
            .to_prometheus()
            .contains("monitor_detection_latency_ticks"),
        "latency histograms exported"
    );
}

/// Golden monitor-enabled Prometheus export: the canonical TP-LINK seed-7
/// `monitor_run` is pinned byte-for-byte, alert and mitigation families
/// included. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p rb-scenario --test monitor golden`.
#[test]
fn golden_monitor_prometheus_export_is_pinned() {
    let run = monitor_run(&vendors::tp_link(), 7);
    let text = format!(
        "{}\n---\n{}\n---\n{}",
        run.alert_stream,
        run.state,
        run.telemetry.to_prometheus()
    );
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/monitor_prom.txt");
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
        "the monitor export drifted; regenerate with UPDATE_GOLDEN=1 if intended"
    );
}
