//! The diagnostics model: codes, severities, spans, and rendering.

use benchpark_yamlite::Span;
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The composition will fail (at setup, concretization, or execution).
    Error,
    /// Suspicious but not fatal; `--deny warnings` promotes these.
    Warn,
    /// Informational.
    Note,
}

impl Severity {
    /// The lowercase label used in rendered output (`error` / `warning` /
    /// `note`).
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding: a stable `BP####` code, a message, and where it points.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule code (`BP0101`, …). Documented in `docs/LINT.md`.
    pub code: &'static str,
    /// Severity the rule fired at.
    pub severity: Severity,
    /// Human-readable statement of the problem.
    pub message: String,
    /// Name of the artifact (file) the diagnostic is in, e.g. `ramble.yaml`.
    pub artifact: String,
    /// 1-based line/column the diagnostic points at, when known.
    pub span: Option<Span>,
    /// The offending source line, captured at emit time.
    pub snippet: Option<String>,
    /// An optional `help:` line suggesting the fix.
    pub help: Option<String>,
    /// Additional `= note:` lines — the solver rules put justification
    /// chains here so an unsat finding explains *why* (rustc-style).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Renders this diagnostic in rustc style:
    ///
    /// ```text
    /// error[BP0301]: job `bench` references unknown stage `deploy`
    ///   --> .gitlab-ci.yml:7:10
    ///    |
    ///  7 |   stage: deploy
    ///    |          ^
    ///    = help: declare the stage in `stages:`
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}[{}]: {}\n",
            self.severity.label(),
            self.code,
            self.message
        );
        match self.span {
            Some(span) => {
                out.push_str(&format!(
                    "  --> {}:{}:{}\n",
                    self.artifact, span.line, span.col
                ));
                if let Some(snippet) = &self.snippet {
                    let (shown, caret) = snippet_window(snippet, span.col);
                    let no = span.line.to_string();
                    let pad = " ".repeat(no.len());
                    out.push_str(&format!("{pad} |\n"));
                    out.push_str(&format!("{no} | {shown}\n"));
                    let caret_pad = " ".repeat(caret);
                    out.push_str(&format!("{pad} | {caret_pad}^\n"));
                }
            }
            None => out.push_str(&format!("  --> {}\n", self.artifact)),
        }
        if let Some(help) = &self.help {
            out.push_str(&format!("  = help: {help}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("  = note: {note}\n"));
        }
        out
    }
}

/// The most characters of a source line that a rendered diagnostic echoes.
/// A longer line is cut to this window around the caret, so one
/// pathological line cannot grow a report without bound.
const SNIPPET_WINDOW: usize = 120;

/// The text of `line` that a rendered diagnostic echoes for the 1-based
/// byte column `col`, and the caret's offset in characters within it. A
/// line longer than [`SNIPPET_WINDOW`] characters is cut on character
/// boundaries to a window around the caret, each cut marked `…`.
fn snippet_window(line: &str, col: usize) -> (String, usize) {
    let caret_byte = col.saturating_sub(1);
    let caret = line
        .char_indices()
        .take_while(|&(i, _)| i < caret_byte)
        .count();
    let len = line.chars().count();
    if len <= SNIPPET_WINDOW {
        return (line.to_string(), caret);
    }
    let start = caret
        .saturating_sub(SNIPPET_WINDOW / 2)
        .min(len - SNIPPET_WINDOW);
    let mut shown: String = line.chars().skip(start).take(SNIPPET_WINDOW).collect();
    let mut caret = caret - start;
    if start > 0 {
        shown.insert(0, '…');
        caret += 1;
    }
    if start + SNIPPET_WINDOW < len {
        shown.push('…');
    }
    (shown, caret)
}

/// The outcome of a lint pass: every diagnostic, sorted for determinism.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, sorted by (artifact, line, col, code).
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> LintReport {
        LintReport::default()
    }

    /// Sorts diagnostics into the deterministic presentation order.
    pub fn finish(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            let ka = (
                a.artifact.as_str(),
                a.span.map(|s| (s.line, s.col)).unwrap_or((0, 0)),
                a.code,
            );
            let kb = (
                b.artifact.as_str(),
                b.span.map(|s| (s.line, s.col)).unwrap_or((0, 0)),
                b.code,
            );
            ka.cmp(&kb)
        });
    }

    /// Number of `Error` diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warn` diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// True when the report holds no diagnostics at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when nothing would fail the run: no errors (and, with
    /// `deny_warnings`, no warnings either).
    pub fn is_clean(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && (!deny_warnings || self.warnings() == 0)
    }

    /// Renders every diagnostic plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&self.summary());
        out.push('\n');
        out
    }

    /// The one-line summary (`2 errors, 1 warning` / `clean`).
    pub fn summary(&self) -> String {
        if self.diagnostics.is_empty() {
            return "lint: clean".to_string();
        }
        let notes = self.count(Severity::Note);
        let mut parts = Vec::new();
        for (n, name) in [
            (self.errors(), "error"),
            (self.warnings(), "warning"),
            (notes, "note"),
        ] {
            if n > 0 {
                parts.push(format!("{n} {name}{}", if n == 1 { "" } else { "s" }));
            }
        }
        format!("lint: {}", parts.join(", "))
    }

    /// Renders the report as a JSON document (no external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"code\": {}, ", json_str(d.code)));
            out.push_str(&format!("\"severity\": {}, ", json_str(d.severity.label())));
            out.push_str(&format!("\"artifact\": {}, ", json_str(&d.artifact)));
            match d.span {
                Some(s) => out.push_str(&format!("\"line\": {}, \"col\": {}, ", s.line, s.col)),
                None => out.push_str("\"line\": null, \"col\": null, "),
            }
            match &d.help {
                Some(h) => out.push_str(&format!("\"help\": {}, ", json_str(h))),
                None => out.push_str("\"help\": null, "),
            }
            out.push_str("\"notes\": [");
            for (j, note) in d.notes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(note));
            }
            out.push_str("], ");
            out.push_str(&format!("\"message\": {}", json_str(&d.message)));
            out.push('}');
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"errors\": {},\n  \"warnings\": {}\n}}\n",
            self.errors(),
            self.warnings()
        ));
        out
    }
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
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
