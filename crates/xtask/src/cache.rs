//! Incremental analysis cache: per-file content hash → (local findings,
//! flow summary).
//!
//! The cache lives in `target/xtask-lint-cache.txt` as a line-oriented
//! text format (no serde offline). A header fingerprints the rule
//! catalog and the cache format version, so any rule change invalidates
//! the whole cache. Per file, the entry stores everything
//! [`crate::rules::analyze_source`] produced: the suppressed local
//! outcome and the [`crate::flow::FileSummary`] the workspace-global
//! passes consume — the global analysis itself is cheap and re-runs
//! every time, so cross-file effects are never stale.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::flow::{Acquisition, Discard, Event, EventKind, FileSummary, FnSummary};
use crate::lexer::Suppression;
use crate::rules::{rule_id_static, rule_severity, Finding, CATALOG};

/// Bump when the entry layout changes.
const FORMAT: u32 = 1;

/// One cached per-file result.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// FNV fingerprint of the file contents.
    pub hash: u64,
    /// Local findings that survived suppression.
    pub findings: Vec<Finding>,
    /// Local findings silenced by `tecopt:allow` comments.
    pub suppressed: usize,
    /// Flow summary for the global passes.
    pub summary: FileSummary,
}

/// The cache file: path → entry.
#[derive(Debug, Default)]
pub struct Cache {
    /// Entries keyed by repo-relative path.
    pub entries: BTreeMap<String, CacheEntry>,
}

/// Where the cache lives under the workspace root.
pub fn cache_path(root: &Path) -> PathBuf {
    root.join("target").join("xtask-lint-cache.txt")
}

/// Fingerprint of the rule catalog + format version: any rule edit
/// invalidates every entry.
fn revision() -> u64 {
    let mut text = format!("xtask-cache-format {FORMAT};");
    for r in CATALOG {
        text.push_str(r.id);
        text.push('|');
        text.push_str(r.summary);
        text.push(';');
    }
    tecopt::record::fingerprint(&text)
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => break,
        }
    }
    out
}

fn ev_code(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Lock => "L",
        EventKind::Call => "C",
        EventKind::Blocking => "B",
    }
}

fn ev_kind(code: &str) -> Option<EventKind> {
    match code {
        "L" => Some(EventKind::Lock),
        "C" => Some(EventKind::Call),
        "B" => Some(EventKind::Blocking),
        _ => None,
    }
}

/// Serializes the cache (header + entries) to the on-disk text format.
pub fn render(cache: &Cache) -> String {
    let mut out = format!("tecopt-xtask-cache {:016x}\n", revision());
    for (path, e) in &cache.entries {
        out.push_str(&format!("file\t{:016x}\t{}\n", e.hash, esc(path)));
        out.push_str(&format!("sup\t{}\n", e.suppressed));
        for f in &e.findings {
            out.push_str(&format!(
                "find\t{}\t{}\t{}\t{}\n",
                f.rule,
                f.line,
                f.col,
                esc(&f.message)
            ));
        }
        for s in &e.summary.suppressions {
            out.push_str(&format!("allow\t{}\t{}\n", s.line, s.rules.join(",")));
        }
        out.push_str(&format!(
            "ctx\t{}\n",
            if e.summary.check_locks { 1 } else { 0 }
        ));
        for f in &e.summary.fns {
            out.push_str(&format!(
                "fn\t{}\t{}\t{}\t{}\n",
                esc(&f.name),
                esc(&f.qualified),
                f.returns_guard
                    .as_deref()
                    .map(esc)
                    .unwrap_or_else(|| "-".into()),
                if f.returns_result { 1 } else { 0 },
            ));
            if !f.direct_locks.is_empty() {
                out.push_str(&format!("locks\t{}\n", f.direct_locks.join("\t")));
            }
            if !f.calls.is_empty() {
                out.push_str(&format!("calls\t{}\n", f.calls.join("\t")));
            }
            for b in &f.blocking {
                out.push_str(&format!("blk\t{}\t{}\t{}\n", esc(&b.name), b.line, b.col));
            }
            for a in &f.acqs {
                out.push_str(&format!("acq\t{}\t{}\t{}\n", esc(&a.lock), a.line, a.col));
                for ev in &a.events {
                    out.push_str(&format!(
                        "ev\t{}\t{}\t{}\t{}\n",
                        ev_code(ev.kind),
                        esc(&ev.name),
                        ev.line,
                        ev.col
                    ));
                }
            }
            for d in &f.discards {
                out.push_str(&format!(
                    "disc\t{}\t{}\t{}\t{}\n",
                    esc(&d.callee),
                    if d.via_ok { 1 } else { 0 },
                    d.line,
                    d.col
                ));
            }
        }
        out.push_str("end\n");
    }
    out
}

/// Parses the on-disk cache. A missing file, a stale revision, or any
/// malformed line yields an empty cache — the cost is a cold run, never
/// a wrong result.
pub fn parse(text: &str) -> Cache {
    let mut cache = Cache::default();
    let mut lines = text.lines();
    let expected = format!("tecopt-xtask-cache {:016x}", revision());
    if lines.next() != Some(expected.as_str()) {
        return cache;
    }
    let mut cur: Option<(String, CacheEntry)> = None;
    for line in lines {
        let mut parts = line.split('\t');
        let tag = parts.next().unwrap_or("");
        let fields: Vec<&str> = parts.collect();
        let ok = match tag {
            "file" => start_entry(&mut cache, &mut cur, &fields),
            "end" => {
                if let Some((path, entry)) = cur.take() {
                    cache.entries.insert(path, entry);
                    true
                } else {
                    false
                }
            }
            _ => match &mut cur {
                Some((path, entry)) => entry_line(path, entry, tag, &fields),
                None => false,
            },
        };
        if !ok {
            return Cache::default();
        }
    }
    cache
}

fn start_entry(cache: &mut Cache, cur: &mut Option<(String, CacheEntry)>, fields: &[&str]) -> bool {
    if let Some((path, entry)) = cur.take() {
        cache.entries.insert(path, entry);
    }
    let [hash, path] = fields else { return false };
    let Ok(hash) = u64::from_str_radix(hash, 16) else {
        return false;
    };
    let path = unesc(path);
    let entry = CacheEntry {
        hash,
        findings: Vec::new(),
        suppressed: 0,
        summary: FileSummary {
            path: path.clone(),
            ..FileSummary::default()
        },
    };
    *cur = Some((path, entry));
    true
}

/// Applies one non-`file` line to the open entry.
fn entry_line(path: &str, e: &mut CacheEntry, tag: &str, fields: &[&str]) -> bool {
    match (tag, fields) {
        ("sup", [n]) => match n.parse() {
            Ok(n) => {
                e.suppressed = n;
                true
            }
            Err(_) => false,
        },
        ("find", [rule, line, col, message]) => {
            let (Some(rule), Ok(line), Ok(col)) = (rule_id_static(rule), line.parse(), col.parse())
            else {
                return false;
            };
            e.findings.push(Finding {
                rule,
                severity: rule_severity(rule),
                file: path.to_string(),
                line,
                col,
                message: unesc(message),
            });
            true
        }
        ("allow", [line, rules]) => match line.parse() {
            Ok(line) => {
                e.summary.suppressions.push(Suppression {
                    line,
                    rules: rules.split(',').map(str::to_string).collect(),
                });
                true
            }
            Err(_) => false,
        },
        ("ctx", [locks]) => {
            e.summary.check_locks = *locks == "1";
            true
        }
        ("fn", [name, qualified, guard, result]) => {
            e.summary.fns.push(FnSummary {
                name: unesc(name),
                qualified: unesc(qualified),
                returns_guard: (*guard != "-").then(|| unesc(guard)),
                returns_result: *result == "1",
                ..FnSummary::default()
            });
            true
        }
        ("locks", ids) => with_fn(e, |f| {
            f.direct_locks = ids.iter().map(|s| s.to_string()).collect();
        }),
        ("calls", names) => with_fn(e, |f| {
            f.calls = names.iter().map(|s| s.to_string()).collect();
        }),
        ("blk", [name, line, col]) => {
            let (Ok(line), Ok(col)) = (line.parse(), col.parse()) else {
                return false;
            };
            let name = unesc(name);
            with_fn(e, |f| {
                f.blocking.push(Event {
                    kind: EventKind::Blocking,
                    name,
                    line,
                    col,
                })
            })
        }
        ("acq", [lock, line, col]) => {
            let (Ok(line), Ok(col)) = (line.parse(), col.parse()) else {
                return false;
            };
            let lock = unesc(lock);
            with_fn(e, |f| {
                f.acqs.push(Acquisition {
                    lock,
                    line,
                    col,
                    events: Vec::new(),
                })
            })
        }
        ("ev", [kind, name, line, col]) => {
            let (Some(kind), Ok(line), Ok(col)) = (ev_kind(kind), line.parse(), col.parse()) else {
                return false;
            };
            let name = unesc(name);
            with_fn(e, |f| {
                if let Some(a) = f.acqs.last_mut() {
                    a.events.push(Event {
                        kind,
                        name,
                        line,
                        col,
                    })
                }
            })
        }
        ("disc", [callee, via_ok, line, col]) => {
            let (Ok(line), Ok(col)) = (line.parse(), col.parse()) else {
                return false;
            };
            let callee = unesc(callee);
            let via_ok = *via_ok == "1";
            with_fn(e, |f| {
                f.discards.push(Discard {
                    callee,
                    via_ok,
                    line,
                    col,
                })
            })
        }
        _ => false,
    }
}

fn with_fn(e: &mut CacheEntry, apply: impl FnOnce(&mut FnSummary)) -> bool {
    match e.summary.fns.last_mut() {
        Some(f) => {
            apply(f);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{analyze_source, FileContext};

    #[test]
    fn round_trips_an_analyzed_file() {
        let src = "struct S { m: std::sync::Mutex<u32> }\n\
                   impl S {\n\
                   fn hold(&self) -> Result<(), E> {\n\
                   let g = self.m.lock();\n\
                   stream.write_all(b\"x\");\n\
                   helper();\n\
                   Ok(())\n\
                   }\n\
                   }\n\
                   fn discards() { let _ = hold(); }\n";
        let mut ctx = FileContext::plain("crates/serve/src/x.rs");
        ctx.check_locks = true;
        let fa = analyze_source(src, &ctx);
        let mut cache = Cache::default();
        cache.entries.insert(
            ctx.path.clone(),
            CacheEntry {
                hash: 42,
                findings: fa.outcome.findings.clone(),
                suppressed: fa.outcome.suppressed,
                summary: fa.summary.clone(),
            },
        );
        let parsed = parse(&render(&cache));
        assert_eq!(parsed.entries.len(), 1);
        let e = &parsed.entries[&ctx.path];
        assert_eq!(e.hash, 42);
        let orig = &fa.summary.fns;
        assert_eq!(e.summary.fns.len(), orig.len());
        for (a, b) in e.summary.fns.iter().zip(orig) {
            assert_eq!(a.qualified, b.qualified);
            assert_eq!(a.direct_locks, b.direct_locks);
            assert_eq!(a.calls, b.calls);
            assert_eq!(a.acqs.len(), b.acqs.len());
            assert_eq!(a.blocking.len(), b.blocking.len());
            assert_eq!(a.discards.len(), b.discards.len());
            assert_eq!(a.returns_result, b.returns_result);
        }
        // The round-tripped summaries drive the global pass identically.
        let before = crate::flow::analyze(&[&fa.summary]);
        let after = crate::flow::analyze(&[&e.summary]);
        let sig = |o: &crate::flow::AnalyzeOutcome| {
            o.findings
                .iter()
                .map(|f| (f.rule, f.line, f.col))
                .collect::<Vec<_>>()
        };
        assert_eq!(sig(&before), sig(&after));
        assert!(!sig(&before).is_empty(), "fixture should produce findings");
    }

    #[test]
    fn stale_revision_or_garbage_yields_empty() {
        assert!(parse("tecopt-xtask-cache 0000000000000000\n")
            .entries
            .is_empty());
        assert!(parse("not a cache\nfile\tzz\tx\n").entries.is_empty());
        let garbled = format!(
            "tecopt-xtask-cache {:016x}\nfind\tno-open-entry\t1\t1\tmsg\n",
            super::revision()
        );
        assert!(parse(&garbled).entries.is_empty());
    }
}
