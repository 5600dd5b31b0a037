//! # rb-bench
//!
//! Experiment binaries regenerating every table and figure of the paper.
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured records.
//!
//! Binaries (each prints its artifact to stdout):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1_procedures` | Figure 1 — the remote-binding procedure sequence |
//! | `fig2_state_machine` | Figure 2 — the device-shadow state machine |
//! | `fig3_device_auth` | Figure 3 — device-authentication flows |
//! | `fig4_binding_creation` | Figure 4 — binding-creation flows |
//! | `table2_taxonomy` | Table II — the attack taxonomy |
//! | `table3_attacks` | Table III — attacks on the ten vendor designs |
//! | `exp_idspace` | §I/§III-A — device-ID search spaces & enumeration |
//! | `exp_dos_scale` | §V-C — scalable binding denial-of-service |
//! | `exp_attack_window` | §V-E — the A4-2 setup-window race |
//! | `exp_ablation` | §VII — mitigation ablation matrix |
//! | `exp_design_space` | extension — exhaustive design-space survey |
//! | `exp_detection` | extension — runtime detectability of the attacks |
//! | `exp_lint` | extension — design-linter soundness/precision sweep |
//! | `exp_chaos` | extension — setup convergence under injected faults |
//! | `exp_observability` | extension — binding-latency percentiles + sim throughput |
//! | `rbsim` | the whole toolkit as one CLI |

pub mod report;

use std::fmt::Write as _;

/// Renders an ASCII table: a header row plus data rows, column-aligned.
///
/// The experiment binaries print tables with this one helper so their
/// output stays uniform and diffable.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| display_width(h)).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(display_width(cell));
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{}", "-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {}{} ", h, " ".repeat(widths[i] - display_width(h)));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(
                out,
                "| {}{} ",
                cell,
                " ".repeat(widths[i] - display_width(cell))
            );
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Approximate display width: counts chars, treating the table symbols the
/// paper uses (✓ ✗) as single cells.
fn display_width(s: &str) -> usize {
    s.chars().count()
}

/// Formats a duration in seconds into a human-friendly unit.
pub fn human_secs(secs: f64) -> String {
    if secs < 1.0 {
        format!("{:.0} ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{secs:.1} s")
    } else if secs < 7200.0 {
        format!("{:.1} min", secs / 60.0)
    } else if secs < 48.0 * 3600.0 {
        format!("{:.1} h", secs / 3600.0)
    } else if secs < 730.0 * 24.0 * 3600.0 {
        format!("{:.1} days", secs / 86_400.0)
    } else {
        format!("{:.1} years", secs / (365.25 * 86_400.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_holds() {
        let t = render_table(
            &["vendor", "A1"],
            &[
                vec!["Belkin".into(), "✗".into()],
                vec!["D-LINK".into(), "✓".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 6); // 3 separators + header + 2 rows
        let width = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == width), "{t}");
        assert!(t.contains("| Belkin"));
    }

    #[test]
    fn human_secs_units() {
        assert_eq!(human_secs(0.5), "500 ms");
        assert_eq!(human_secs(55.9), "55.9 s");
        assert_eq!(human_secs(3_600.0), "60.0 min");
        assert_eq!(human_secs(10_000.0), "2.8 h");
        assert!(human_secs(1e7).ends_with("days"));
        assert!(human_secs(1e12).ends_with("years"));
    }
}
