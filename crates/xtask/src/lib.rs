//! `tecopt-xtask`: workspace-native static analysis for the tecopt crates.
//!
//! PR 2 fixed three bugs of the same shape — NaN-unsafe
//! `partial_cmp().unwrap()` sorts, a NaN-ranking argmax, and a stale
//! factorization cache — all found by hand after they shipped. This crate
//! makes the first two bug classes (and several neighbors) mechanical:
//! `cargo run -p tecopt-xtask -- lint` scans every workspace crate with a
//! hand-rolled token-level engine (no `syn`; the build environment has no
//! crates.io access) and fails on violations of the project's
//! numerical-safety and concurrency invariants.
//!
//! See [`rules::CATALOG`] for the rule set and `DESIGN.md` §11 for the
//! rationale, known limitations, and how to add a rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub mod flow;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod workspace;

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use rules::{Finding, Severity};

/// Aggregated result of linting the workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, sorted by `(file, line, col, rule)`.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Findings silenced by `tecopt:allow` comments.
    pub suppressed: usize,
}

impl Report {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }
}

/// Lints every source file of the workspace rooted at `root`. Every run
/// analyses every file and writes nothing: per-file analysis fans out
/// over `tecopt::parallel`, then the workspace-global flow passes (lock
/// graph, blocking chains, Result discards) run over the combined
/// summaries.
///
/// # Errors
///
/// Returns a message describing the first I/O or manifest-parse failure;
/// the CLI maps this to exit code 2.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let files = workspace::workspace_files(root)?;
    let analyses = tecopt::parallel::collect_first_err(tecopt::parallel::par_map_init(
        files,
        || (),
        |(), (path, rel)| -> Result<rules::FileAnalysis, String> {
            let src = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Ok(rules::analyze_source(&src, &workspace::context_for(&rel)))
        },
    ))?;

    let mut report = Report {
        files_scanned: analyses.len(),
        ..Report::default()
    };
    let mut summaries = Vec::with_capacity(analyses.len());
    for fa in analyses {
        report.suppressed += fa.outcome.suppressed;
        report.findings.extend(fa.outcome.findings);
        summaries.push(fa.summary);
    }

    // Workspace-global flow passes over all summaries (path order, as
    // `workspace_files` sorts).
    let refs: Vec<&flow::FileSummary> = summaries.iter().collect();
    let global = flow::analyze(&refs);
    report.suppressed += global.suppressed;
    report.findings.extend(global.findings);

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(report)
}

/// Renders the report as human-readable diagnostics.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!(
            "{}[{}]: {}\n  --> {}:{}:{}\n",
            f.severity.label(),
            f.rule,
            f.message,
            f.file,
            f.line,
            f.col
        ));
    }
    out.push_str(&format!(
        "tecopt-xtask lint: {} file(s) scanned, {} error(s), {} warning(s), {} suppressed\n",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        report.suppressed
    ));
    out
}

/// Renders the report as deterministic JSON (findings already sorted).
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (k, f) in report.findings.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"col\": {}, \"message\": \"{}\"}}",
            json_escape(f.rule),
            f.severity.label(),
            json_escape(&f.file),
            f.line,
            f.col,
            json_escape(&f.message)
        ));
    }
    out.push_str(&format!(
        "\n  ],\n  \"summary\": {{\"files_scanned\": {}, \"errors\": {}, \
         \"warnings\": {}, \"suppressed\": {}}}\n}}\n",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        report.suppressed
    ));
    out
}

/// Renders the report as SARIF-2.1.0-shaped JSON: one run, the rule
/// catalog as the tool driver, one result per finding with a stable
/// FNV fingerprint (the same fingerprint the baseline file stores).
pub fn render_sarif(report: &Report) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [{\n    \"tool\": {\"driver\": {\n      \
         \"name\": \"tecopt-xtask\",\n      \"rules\": [",
    );
    for (k, r) in rules::CATALOG.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            json_escape(r.id),
            json_escape(r.summary)
        ));
    }
    out.push_str("\n      ]\n    }},\n    \"results\": [");
    for (k, f) in report.findings.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n      {{\"ruleId\": \"{}\", \"level\": \"{}\", \
             \"message\": {{\"text\": \"{}\"}}, \
             \"locations\": [{{\"physicalLocation\": {{\
             \"artifactLocation\": {{\"uri\": \"{}\"}}, \
             \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}], \
             \"fingerprints\": {{\"tecoptFnv/v1\": \"{:016x}\"}}}}",
            json_escape(f.rule),
            f.severity.label(),
            json_escape(&f.message),
            json_escape(&f.file),
            f.line,
            f.col,
            baseline_fingerprint(f)
        ));
    }
    out.push_str("\n    ]\n  }]\n}\n");
    out
}

/// FNV fingerprint of a finding, stable across unrelated edits: the file,
/// the rule, and the message (which pins the lock ids / callees involved,
/// not raw positions elsewhere in the file).
pub fn baseline_fingerprint(f: &Finding) -> u64 {
    tecopt::record::fingerprint(&format!("{}|{}|{}", f.file, f.rule, f.message))
}

/// Result of checking a report against a baseline file.
#[derive(Debug, Default)]
pub struct BaselineCheck {
    /// Findings not in the baseline — these fail the run.
    pub fresh: Vec<Finding>,
    /// Findings matched by the baseline (tracked, not failing).
    pub grandfathered: usize,
    /// Baseline entries no finding matched anymore (fixed or drifted);
    /// prune them with `--update-baseline`.
    pub stale: usize,
}

/// Parses a baseline file: one `<16-hex-fnv>\t<rule>\t<file>` line per
/// grandfathered finding (only the fingerprint is matched; the rest is
/// for human readers). Blank lines and `#` comments are ignored.
///
/// # Errors
///
/// Returns a message naming the unreadable path or the malformed line.
pub fn load_baseline(path: &Path) -> Result<BTreeSet<u64>, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let mut set = BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fp = line.split_whitespace().next().unwrap_or("");
        let fp = u64::from_str_radix(fp, 16)
            .map_err(|_| format!("{}:{}: malformed fingerprint", path.display(), i + 1))?;
        set.insert(fp);
    }
    Ok(set)
}

/// Splits the report's findings into fresh vs. grandfathered against a
/// baseline set and counts stale entries.
pub fn apply_baseline(report: &Report, baseline: &BTreeSet<u64>) -> BaselineCheck {
    let mut check = BaselineCheck::default();
    let mut matched = BTreeSet::new();
    for f in &report.findings {
        let fp = baseline_fingerprint(f);
        if baseline.contains(&fp) {
            check.grandfathered += 1;
            matched.insert(fp);
        } else {
            check.fresh.push(f.clone());
        }
    }
    check.stale = baseline.len() - matched.len();
    check
}

/// Renders the report's findings in the baseline file format (what
/// `--update-baseline` writes).
pub fn render_baseline(report: &Report) -> String {
    let mut out = String::from(
        "# tecopt-xtask lint baseline: grandfathered findings by FNV fingerprint.\n\
         # Regenerate with: cargo run -p tecopt-xtask -- lint --update-baseline <this file>\n",
    );
    for f in &report.findings {
        out.push_str(&format!(
            "{:016x}\t{}\t{}\n",
            baseline_fingerprint(f),
            f.rule,
            f.file
        ));
    }
    out
}

/// Escapes a string for embedding in JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
