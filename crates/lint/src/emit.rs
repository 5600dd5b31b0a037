//! Report emitters: human-readable, JSON, and SARIF 2.1.0.
//!
//! All three renderings are deterministic — reports are pre-sorted by
//! [`LintReport::new`](crate::diagnostic::LintReport::new) and the
//! emitters add no timestamps, hashes, or host details — so golden tests
//! can compare output byte-for-byte.
//!
//! JSON is produced by hand (this workspace carries no JSON serializer);
//! `json_escape` covers the control characters, quotes, and backslashes
//! RFC 8259 requires.

use crate::diagnostic::{Diagnostic, LintReport, RuleId, Severity};
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON string literal (without the
/// surrounding quotes).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn attack_list(diagnostic: &Diagnostic) -> String {
    diagnostic
        .related_attacks
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders one report the way a compiler would print it.
pub fn render_human(report: &LintReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} finding(s)",
        report.vendor,
        report.diagnostics.len()
    );
    for d in &report.diagnostics {
        let _ = writeln!(out, "{}[{}]: {}", d.severity, d.rule, d.message);
        let _ = writeln!(out, "  --> design.{}", d.span);
        if !d.related_attacks.is_empty() {
            let _ = writeln!(out, "  = enables: {}", attack_list(d));
        }
        if let Some(fix) = &d.fix {
            let _ = writeln!(out, "  = fix({}): {}", fix.recommendation, fix.advice);
        }
    }
    if report.is_clean() {
        let _ = writeln!(out, "no findings: the design passes every registered lint");
    } else {
        let _ = writeln!(
            out,
            "{} error(s), {} warning(s), {} note(s)",
            report.count(Severity::Error),
            report.count(Severity::Warning),
            report.count(Severity::Note),
        );
    }
    out
}

fn diagnostic_json(d: &Diagnostic, indent: &str) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{indent}{{\"rule\": \"{}\", \"name\": \"{}\", \"severity\": \"{}\", \
         \"span\": \"{}\", \"message\": \"{}\", \"related_attacks\": [{}]",
        d.rule,
        d.rule.name(),
        d.severity,
        json_escape(&d.span),
        json_escape(&d.message),
        d.related_attacks
            .iter()
            .map(|a| format!("\"{a}\""))
            .collect::<Vec<_>>()
            .join(", "),
    );
    if let Some(fix) = &d.fix {
        let _ = write!(
            out,
            ", \"fix\": {{\"recommendation\": \"{}\", \"advice\": \"{}\", \
             \"eliminates\": [{}]}}",
            fix.recommendation,
            json_escape(&fix.advice),
            fix.eliminates
                .iter()
                .map(|a| format!("\"{a}\""))
                .collect::<Vec<_>>()
                .join(", "),
        );
    }
    out.push('}');
    out
}

/// Renders one report as a standalone JSON document.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"vendor\": \"{}\",", json_escape(&report.vendor));
    let _ = writeln!(out, "  \"diagnostics\": [");
    let body = report
        .diagnostics
        .iter()
        .map(|d| diagnostic_json(d, "    "))
        .collect::<Vec<_>>()
        .join(",\n");
    if !body.is_empty() {
        let _ = writeln!(out, "{body}");
    }
    let _ = writeln!(out, "  ]");
    out.push('}');
    out.push('\n');
    out
}

/// Renders a batch of reports as one SARIF 2.1.0 log: a single `run` of
/// the `rb-lint` driver, with one `result` per finding. The span goes in a
/// logical location (designs are models, not files) and the related
/// attacks ride in the result's property bag.
pub fn render_sarif(reports: &[LintReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"rb-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.org/iot-remote-binding\",\n");
    out.push_str("          \"rules\": [\n");
    // Every rule of the shared diagnostic model is declared, not just the
    // linter's: the same log may carry cross-check (RB013) and model-
    // checker (RB014–RB017) results.
    let rules = RuleId::ALL
        .iter()
        .map(|id| {
            format!(
                "            {{\"id\": \"{}\", \"name\": \"{}\", \
                 \"shortDescription\": {{\"text\": \"{}\"}}}}",
                id,
                id.name(),
                json_escape(id.summary())
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let _ = writeln!(out, "{rules}");
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    let mut results = Vec::new();
    for report in reports {
        for d in &report.diagnostics {
            let attacks = d
                .related_attacks
                .iter()
                .map(|a| format!("\"{a}\""))
                .collect::<Vec<_>>()
                .join(", ");
            results.push(format!(
                "        {{\"ruleId\": \"{}\", \"level\": \"{}\", \
                 \"message\": {{\"text\": \"{}\"}}, \
                 \"locations\": [{{\"logicalLocations\": [{{\"fullyQualifiedName\": \
                 \"{}.{}\"}}]}}], \
                 \"properties\": {{\"vendor\": \"{}\", \"relatedAttacks\": [{}]}}}}",
                d.rule,
                d.severity,
                json_escape(&d.message),
                json_escape(&report.vendor),
                json_escape(&d.span),
                json_escape(&report.vendor),
                attacks,
            ));
        }
    }
    if !results.is_empty() {
        let _ = writeln!(out, "{}", results.join(",\n"));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::lint_design;
    use rb_core::explore::minimal_secure_design;
    use rb_core::vendors::{belkin, vendor_designs};

    #[test]
    fn json_escape_covers_the_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }

    #[test]
    fn human_output_names_rule_span_and_fix() {
        let text = render_human(&lint_design(&belkin()));
        assert!(text.contains("error[RB001]"), "{text}");
        assert!(
            text.contains("--> design.checks.verify_unbind_is_bound_user"),
            "{text}"
        );
        assert!(text.contains("fix(check-unbind-ownership)"), "{text}");
    }

    #[test]
    fn clean_report_says_so() {
        let text = render_human(&lint_design(&minimal_secure_design()));
        assert!(text.contains("no findings"), "{text}");
    }

    #[test]
    fn emitters_are_deterministic() {
        let report = lint_design(&belkin());
        assert_eq!(render_human(&report), render_human(&report));
        assert_eq!(render_json(&report), render_json(&report));
        assert_eq!(
            render_sarif(std::slice::from_ref(&report)),
            render_sarif(std::slice::from_ref(&report))
        );
    }

    #[test]
    fn sarif_lists_every_rule_and_every_finding() {
        let reports: Vec<_> = vendor_designs().iter().map(lint_design).collect();
        let sarif = render_sarif(&reports);
        for rule in crate::diagnostic::RuleId::ALL {
            assert!(
                sarif.contains(&format!("\"id\": \"{rule}\"")),
                "{rule} missing"
            );
        }
        let total: usize = reports.iter().map(|r| r.diagnostics.len()).sum();
        assert_eq!(sarif.matches("\"ruleId\"").count(), total);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
    }
}
