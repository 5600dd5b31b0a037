//! EXP-WIN — §V-E (A4-2): "the attacker can bind with the user's device
//! before the user does, by exploiting the time window during user's
//! device setup."
//!
//! Sweeps the human setup delay (the online-unbound window) and measures
//! the hijack success rate for the vulnerable OZWI design, a DevToken
//! design (Belkin), and a device-initiated design (TP-LINK, whose window
//! is a few milliseconds).
//!
//! The shape check is computed from the win table: the binary exits 1
//! unless OZWI wins every seed at every window of at least the probe
//! interval, and Belkin and TP-LINK win none at any window.
//!
//! ```text
//! cargo run -p rb-bench --bin exp_attack_window [seeds-per-point]
//! ```

use rb_attack::acts::{forged_control, AtkStep};
use rb_attack::Adversary;
use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_core::design::{BindScheme, FirmwareKnowledge, VendorDesign};
use rb_core::par::{available_threads, par_map};
use rb_core::vendors;
use rb_netsim::Telemetry;
use rb_scenario::WorldBuilder;
use rb_wire::messages::Response;
use rb_wire::tokens::UserId;

/// One race: attacker fires binds every `probe_every` ticks while the
/// victim sets up with `window` ticks of human delay. Returns whether the
/// attacker ends up *controlling the device* (A4-2 is a hijack, not just
/// an occupation).
fn race(
    design: &VendorDesign,
    window: u64,
    probe_every: u64,
    seed: u64,
    telemetry: &Telemetry,
) -> bool {
    let mut world = WorldBuilder::new(design.clone(), seed)
        .user_bind_delay(window)
        .victim_paused()
        .with_telemetry(telemetry.clone())
        .build();
    let mut adv = Adversary::new();
    let user_token = adv.login(&mut world);
    let dev_id = world.homes[0].dev_id.clone();
    if design.bind == BindScheme::AclDevice && design.firmware == FirmwareKnowledge::Opaque {
        return false; // the device-channel bind format is unknown without firmware
    }
    let Some(bind) = AtkStep::Bind.forge(design, &dev_id, Some(user_token)) else {
        return false; // a capability bind cannot be forged at all
    };
    world.resume_victims();

    let deadline = world.now().saturating_add(window + 120_000);
    while world.now() < deadline {
        adv.fire(&mut world, bind.clone());
        world.run_for(probe_every);
        adv.drain(&mut world, None);
        if adv
            .stashed_responses()
            .iter()
            .any(|(_, r)| matches!(r, Response::Bound { .. }))
        {
            break;
        }
        if world.app(0).is_bound() && !design.bind_replaces() {
            break; // victim won a sticky binding; no point continuing
        }
    }
    world.try_run_setup(60_000);
    let holds_binding = world.cloud().bound_user(&world.homes[0].dev_id)
        == Some(UserId::new(rb_attack::adversary::ATTACKER_ID));
    if !holds_binding {
        return false;
    }
    // The hijack only counts if the attacker's commands reach the relay.
    let session = adv
        .stashed_responses()
        .iter()
        .find_map(|(_, r)| match r {
            Response::Bound { session } => Some(*session),
            _ => None,
        })
        .flatten();
    adv.request(&mut world, forged_control(&dev_id, user_token, session));
    world.run_for(5_000);
    world.device(0).is_on()
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let probe_every = 250;
    println!(
        "EXP-WIN: A4-2 setup-window race (attacker probes every {probe_every} ms, {seeds} seeds/point)\n"
    );

    let designs = [
        ("OZWI (DevId, app bind)", vendors::ozwi()),
        ("Belkin (DevToken)", vendors::belkin()),
        ("TP-LINK (device bind)", vendors::tp_link()),
    ];

    // Map the (window, design) grid over the detected cores; every cell is
    // an independent deterministic world, and results come back in grid
    // order (window-major).
    let windows = [500u64, 2_000, 5_000, 15_000, 60_000];
    let grid: Vec<(u64, &VendorDesign)> = windows
        .iter()
        .flat_map(|&window| designs.iter().map(move |(_, design)| (window, design)))
        .collect();
    let results = par_map(&grid, available_threads(), |&(window, design)| {
        // One registry per grid cell: the monitor's alert counters
        // accumulate across the cell's seeds, so the detectability table
        // below is a snapshot lookup, not a trace re-scan.
        let telemetry = Telemetry::new();
        let wins = (0..seeds)
            .filter(|&s| {
                race(
                    design,
                    window,
                    probe_every,
                    0xA42 + s * 31 + window,
                    &telemetry,
                )
            })
            .count();
        let alerts = telemetry.counter("cloud_alerts_total{kind=\"contested-binding\"}");
        (wins, alerts)
    });
    let cell = |wi: usize, di: usize| results[wi * designs.len() + di];
    let mut rows = Vec::new();
    let mut violations = Vec::new();
    for (wi, &window) in windows.iter().enumerate() {
        let mut row = vec![format!("{} ms", window)];
        for (di, (name, _)) in designs.iter().enumerate() {
            let (wins, _) = cell(wi, di);
            row.push(format!("{wins}/{seeds}"));
            // Only the DevId + app-bind design (the first) yields control,
            // and it must once the window reaches the probe interval.
            let expected = if di == 0 { seeds as usize } else { 0 };
            if (di != 0 || window >= probe_every) && wins != expected {
                violations.push(format!(
                    "{name} at {window} ms: {wins}/{seeds} wins, expected {expected}/{seeds}"
                ));
            }
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("setup window")
        .chain(designs.iter().map(|(n, _)| *n))
        .collect();
    println!("{}", render_table(&headers, &rows));

    // Detectability: what a watchful vendor saw while the race ran, read
    // straight off each cell's telemetry snapshot.
    let mut alert_rows = Vec::new();
    for (wi, &window) in windows.iter().enumerate() {
        let mut row = vec![format!("{} ms", window)];
        for di in 0..designs.len() {
            let (_, alerts) = cell(wi, di);
            row.push(alerts.to_string());
        }
        alert_rows.push(row);
    }
    println!("contested-binding alerts raised at the cloud during the race:");
    println!("{}", render_table(&headers, &alert_rows));

    let verdict = if violations.is_empty() {
        "holds"
    } else {
        "FAILS"
    };
    println!("shape check (paper §V-E) {verdict}: the race wins reliably on the DevId+app-bind design once");
    println!("the window exceeds the probe interval; DevToken designs never yield control; the");
    println!("device-initiated design leaves a ~2 ms window that realistic probing cannot hit.");

    // The machine-readable artifact: the full win/alert grid, keyed by
    // design and window (all deterministic sim-domain counts).
    let mut report = BenchReport::new("exp_attack_window");
    report.meta("seeds_per_point", seeds);
    for (wi, &window) in windows.iter().enumerate() {
        for (di, (name, _)) in designs.iter().enumerate() {
            let (wins, alerts) = cell(wi, di);
            let key =
                |stat: &str| format!("{}.win_{window}ms.{stat}", name.replace([' ', '/'], "_"));
            report
                .metric_u64(&key("wins"), wins as u64)
                .metric_u64(&key("alerts"), alerts);
        }
    }
    emit(&report, None);
    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("exp_attack_window: GATE FAILED — {violation}");
        }
        std::process::exit(1);
    }
}
