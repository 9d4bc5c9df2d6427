//! Typed diagnostics and the shared sink all analysis stages report into.
//!
//! Every finding of `coign check` is a [`Diagnostic`] with a stable
//! `COIGN0xx` code, a severity, the subject it is about, a human message,
//! and (usually) a suggestion. Stages push diagnostics into one
//! [`DiagnosticSink`], which renders the collected report either for humans
//! or as JSON, and decides the process exit status (nonzero iff at least one
//! [`Severity::Error`] fired).

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A derived fact worth knowing; nothing is wrong.
    Info,
    /// Suspicious but not fatal: the pipeline still runs, with consequences.
    Warn,
    /// The pipeline cannot produce a valid distribution from this input.
    Error,
}

impl Severity {
    /// Stable lowercase name, shared by both renderers.
    fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the static analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code, e.g. `"COIGN020"`.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// What the finding is about: a class, an interface method, an import
    /// slot, or a constraint group.
    pub subject: String,
    /// Human-readable description of the finding.
    pub message: String,
    /// How to fix or silence the finding, when there is a known remedy.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Renders the diagnostic as the one- or two-line human form used by
    /// every reporting path (so `coign check` and a failing `coign analyze`
    /// print byte-identical diagnostics).
    pub fn render(&self) -> String {
        let mut line = format!(
            "{} {:<5} {}: {}",
            self.code,
            self.severity.as_str(),
            self.subject,
            self.message
        );
        if let Some(suggestion) = &self.suggestion {
            line.push_str("\n    help: ");
            line.push_str(suggestion);
        }
        line
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Collects diagnostics from all analysis stages.
#[derive(Debug, Default)]
pub struct DiagnosticSink {
    diagnostics: Vec<Diagnostic>,
}

impl DiagnosticSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        DiagnosticSink::default()
    }

    /// Reports a finding.
    pub(crate) fn report(
        &mut self,
        code: &'static str,
        severity: Severity,
        subject: impl Into<String>,
        message: impl Into<String>,
        suggestion: Option<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            subject: subject.into(),
            message: message.into(),
            suggestion,
        });
    }

    /// All collected diagnostics, in reporting order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of diagnostics at the given severity.
    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True if at least one [`Severity::Error`] diagnostic fired.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// True if nothing was reported.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// One-line totals, e.g. `"1 error(s), 3 warning(s), 2 note(s)"`.
    fn summary(&self) -> String {
        format!(
            "{} error(s), {} warning(s), {} note(s)",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        )
    }

    /// Renders the full report for a terminal: one entry per diagnostic
    /// followed by the summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(&diag.render());
            out.push('\n');
        }
        out.push_str("check: ");
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// Renders the report as a JSON object with counts and the full
    /// diagnostic list (machine-readable `--json` mode).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"errors\":{},\"warnings\":{},\"notes\":{},\"diagnostics\":[",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"subject\":{},\"message\":{},\"suggestion\":{}}}",
                d.code,
                d.severity,
                json_string(&d.subject),
                json_string(&d.message),
                match &d.suggestion {
                    Some(s) => json_string(s),
                    None => "null".to_string(),
                },
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Quotes and escapes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink_with_samples() -> DiagnosticSink {
        let mut sink = DiagnosticSink::new();
        sink.report(
            "COIGN010",
            Severity::Warn,
            "IShared::Map(handle)",
            "opaque pointer parameter",
            Some("use a marshalable type".to_string()),
        );
        sink.report(
            "COIGN020",
            Severity::Error,
            "group {A, B}",
            "pinned to both machines",
            None,
        );
        sink.report(
            "COIGN012",
            Severity::Info,
            "IShared",
            "colocation fact",
            None,
        );
        sink
    }

    #[test]
    fn counts_and_error_detection() {
        let sink = sink_with_samples();
        assert_eq!(sink.count(Severity::Error), 1);
        assert_eq!(sink.count(Severity::Warn), 1);
        assert_eq!(sink.count(Severity::Info), 1);
        assert!(sink.has_errors());
        assert!(!sink.is_empty());
        assert!(!DiagnosticSink::new().has_errors());
    }

    #[test]
    fn human_report_lists_all_and_summarizes() {
        let report = sink_with_samples().render_human();
        assert!(report.contains("COIGN010 warn  IShared::Map(handle): opaque pointer parameter"));
        assert!(report.contains("help: use a marshalable type"));
        assert!(report.contains("COIGN020 error group {A, B}: pinned to both machines"));
        assert!(report.contains("check: 1 error(s), 1 warning(s), 1 note(s)"));
    }

    #[test]
    fn json_report_escapes_and_counts() {
        let mut sink = DiagnosticSink::new();
        sink.report(
            "COIGN035",
            Severity::Error,
            "section \".coign\"",
            "line1\nline2",
            None,
        );
        let json = sink.render_json();
        assert!(json.starts_with("{\"errors\":1,\"warnings\":0,\"notes\":0,"));
        assert!(json.contains("\"subject\":\"section \\\".coign\\\"\""));
        assert!(json.contains("\"message\":\"line1\\nline2\""));
        assert!(json.contains("\"suggestion\":null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn render_is_stable_between_paths() {
        // `Display` and `render` agree — callers embedding a diagnostic in
        // an error string produce exactly what `coign check` prints.
        let sink = sink_with_samples();
        for d in sink.diagnostics() {
            assert_eq!(d.to_string(), d.render());
        }
    }
}
