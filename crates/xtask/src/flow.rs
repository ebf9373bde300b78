//! Flow-aware concurrency analysis on top of [`crate::parser`].
//!
//! Per file, [`summarize`] computes a [`FileSummary`]: every function's
//! lock acquisitions with guard scopes (`let g = x.lock()` runs to the
//! end of the enclosing block or an explicit `drop(g)`; un-bound
//! acquisitions live for their statement), call sites, blocking
//! operations, and discarded results. [`analyze`] then runs the
//! workspace-global passes over all summaries: a lock-acquisition graph
//! with cycle detection (`lock-order-inversion`), guard-across-blocking
//! detection with transitive call chains (`lock-across-blocking`), and
//! `Result`-discard matching against the workspace's own
//! `Result`-returning functions and a named list of std `io::Result`
//! methods (`swallowed-result`, [`IO_RESULT_METHODS`]). `uncancelled-loop`
//! is file-local and computed inside [`summarize`].
//!
//! Lock identity (DESIGN.md §16): `self.field.lock()` resolves to
//! `Type::field` via the enclosing impl; a bare identifier resolves to a
//! file-level `static` if one matches, else to a function-local id
//! (which never aliases across functions); a multi-segment non-`self`
//! receiver falls back to `field:<name>`. Helper methods whose return
//! type names a `*Guard` and whose body performs exactly one acquisition
//! acquire on behalf of their caller. `Condvar::wait`/`wait_timeout`
//! consume the guard and are deliberately *not* blocking operations.
//! Closure bodies are excluded from enclosing guard scopes (they run at
//! an unknown time) but are analyzed as part of the defining function.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Suppression, Tok, TokKind};
use crate::parser::{Block, Function, ParsedFile, Span, Stmt, StmtKind};
use crate::rules::{apply_suppressions, rule_severity, FileContext, Finding, LintOutcome};

/// Method names that block the calling thread (IO, joins, sleeps).
const BLOCKING_METHODS: &[&str] = &[
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "read_bytes",
    "write",
    "write_all",
    "write_all_bytes",
    "write_fmt",
    "flush",
    "accept",
    "connect",
    "sleep",
    "join",
    "recv",
    "recv_timeout",
    "sync_all",
    "sync_data",
    "send_to",
];

/// `std` socket and write methods returning `io::Result`: a `let _ =` on
/// one of them is a `swallowed-result` like one on a workspace
/// `Result`-returning fn, since a dropped error there hides a dead peer.
pub const IO_RESULT_METHODS: &[&str] = &[
    "write",
    "write_all",
    "write_fmt",
    "flush",
    "set_nodelay",
    "set_nonblocking",
    "set_read_timeout",
    "set_write_timeout",
    "shutdown",
];

/// Identifiers that count as consulting a cancellation token inside a
/// loop body (the `RunContext`/`CancelToken` surface).
const CONSULT_IDENTS: &[&str] = &[
    "ensure_live",
    "admit",
    "admit_probe",
    "is_cancelled",
    "remaining_time",
    "token",
];

/// Keywords and constructors never treated as workspace call edges.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "unsafe", "move", "in", "as", "let", "else",
    "break", "continue", "fn", "impl", "use", "pub", "mut", "ref", "where", "dyn", "Some", "None",
    "Ok", "Err", "box", "await",
];

/// One event inside a function body, in source order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A lock acquisition (direct `.lock()` or via a guard-returning
    /// helper); the event name is the resolved lock id.
    Lock,
    /// A call to a (potentially workspace) function; the event name is
    /// the bare callee name.
    Call,
    /// A blocking operation; the event name describes it (`write_all`,
    /// `writeln!`, `std::io::copy`).
    Blocking,
}

/// An event with its source position.
#[derive(Debug, Clone)]
pub struct Event {
    /// Classification.
    pub kind: EventKind,
    /// Lock id, callee name, or blocking-op description.
    pub name: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// A scoped lock acquisition: the guard's live range and every event
/// inside it.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Resolved lock id.
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// 1-based column of the acquisition.
    pub col: u32,
    /// Events while the guard is live, in source order.
    pub events: Vec<Event>,
}

/// A discarded value site (`let _ = f(...)` or a statement-level `.ok()`).
#[derive(Debug, Clone)]
pub struct Discard {
    /// Final depth-zero callee of the discarded expression (empty for a
    /// bare `.ok()` with no preceding call).
    pub callee: String,
    /// `true` for statement-position `.ok();` (always a `Result`).
    pub via_ok: bool,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Everything the global passes need to know about one function.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// Bare name.
    pub name: String,
    /// `Type::name` inside an impl, else the bare name.
    pub qualified: String,
    /// Lock id the returned guard holds, for guard-returning helpers.
    pub returns_guard: Option<String>,
    /// Return type names `Result`.
    pub returns_result: bool,
    /// Scoped acquisitions with their in-scope events.
    pub acqs: Vec<Acquisition>,
    /// Every lock acquired directly (including escaping guards), sorted.
    pub direct_locks: Vec<String>,
    /// Direct blocking operations anywhere in the body.
    pub blocking: Vec<Event>,
    /// Bare names of direct callees, sorted and deduplicated.
    pub calls: Vec<String>,
    /// Discarded-result candidates.
    pub discards: Vec<Discard>,
}

/// Per-file analysis summary: the input to [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct FileSummary {
    /// Repo-relative display path.
    pub path: String,
    /// Lock rules report findings located in this file.
    pub check_locks: bool,
    /// Function summaries in source order.
    pub fns: Vec<FnSummary>,
    /// `tecopt:allow` comments, for suppressing global findings.
    pub suppressions: Vec<Suppression>,
}

/// Result of the workspace-global analysis passes.
#[derive(Debug, Default)]
pub struct AnalyzeOutcome {
    /// Findings that survived suppression, sorted by position.
    pub findings: Vec<Finding>,
    /// Findings silenced by `tecopt:allow` comments.
    pub suppressed: usize,
}

// ---------------------------------------------------------------------
// Per-file summarization
// ---------------------------------------------------------------------

/// Builds the [`FileSummary`] for one parsed file and appends the
/// file-local `uncancelled-loop` findings to `local`.
pub fn summarize(
    toks: &[Tok],
    parsed: &ParsedFile,
    ctx: &FileContext,
    suppressions: &[Suppression],
    local: &mut Vec<Finding>,
) -> FileSummary {
    // Pass 1: direct acquisitions per function, to identify the
    // guard-returning helpers before resolving helper calls.
    let direct: Vec<Vec<(usize, String)>> = parsed
        .functions
        .iter()
        .map(|f| direct_acquisitions(toks, f, parsed))
        .collect();
    let mut guard_fns: BTreeMap<String, String> = BTreeMap::new();
    for (f, acqs) in parsed.functions.iter().zip(&direct) {
        if f.ret.contains("Guard") && acqs.len() == 1 {
            guard_fns.insert(f.name.clone(), acqs[0].1.clone());
            guard_fns.insert(f.qualified.clone(), acqs[0].1.clone());
        }
    }

    let mut fns = Vec::new();
    for f in &parsed.functions {
        let mut s = summarize_fn(toks, f, parsed, &guard_fns);
        if ctx.check_cancellation {
            uncancelled_loops(toks, f, ctx, local);
        }
        s.returns_guard = guard_fns.get(&f.qualified).cloned();
        fns.push(s);
    }
    FileSummary {
        path: ctx.path.clone(),
        check_locks: ctx.check_locks,
        fns,
        suppressions: suppressions.to_vec(),
    }
}

/// Runs the full flow pipeline over in-memory sources — the fixture-test
/// entry point mirroring a whole-workspace run (token rules included).
pub fn flow_lint(sources: &[(&str, &FileContext)]) -> LintOutcome {
    let mut out = LintOutcome::default();
    let mut summaries = Vec::new();
    for (src, ctx) in sources {
        let fa = crate::rules::analyze_source(src, ctx);
        out.findings.extend(fa.outcome.findings);
        out.suppressed += fa.outcome.suppressed;
        summaries.push(fa.summary);
    }
    let refs: Vec<&FileSummary> = summaries.iter().collect();
    let global = analyze(&refs);
    out.findings.extend(global.findings);
    out.suppressed += global.suppressed;
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

/// The impl-type prefix of a qualified name (`Engine::submit` → `Engine`).
fn impl_ty(qualified: &str) -> Option<&str> {
    qualified.split_once("::").map(|(ty, _)| ty)
}

/// Walks a `.lock()` receiver chain backwards from the `.` at `dot`.
/// Returns the chain outer-to-inner (`self.cache.lock()` → `[self,
/// cache]`), or `None` for non-chain receivers (call results, literals).
fn receiver_chain(toks: &[Tok], dot: usize) -> Option<Vec<String>> {
    let mut chain = Vec::new();
    let mut k = dot;
    loop {
        // `k` is the `.`/`::` joining the chain; the segment (possibly
        // with index suffixes) sits just before it.
        let mut seg_end = k.checked_sub(1)?;
        while toks.get(seg_end).is_some_and(|t| t.is_punct("]")) {
            let mut depth = 0isize;
            loop {
                let t = toks.get(seg_end)?;
                if t.is_punct("]") {
                    depth += 1;
                } else if t.is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                seg_end = seg_end.checked_sub(1)?;
            }
            seg_end = seg_end.checked_sub(1)?;
        }
        let seg = toks.get(seg_end)?;
        if seg.kind != TokKind::Ident {
            return None;
        }
        chain.push(seg.text.clone());
        match seg_end.checked_sub(1).map(|p| &toks[p]) {
            Some(prev) if prev.is_punct(".") || prev.is_punct("::") => k = seg_end - 1,
            _ => break,
        }
    }
    chain.reverse();
    Some(chain)
}

/// Resolves a `.lock()` receiver chain to a lock id. `None` means the
/// receiver is bare `self` — a helper-method call, not a field lock.
fn lock_id(chain: &[String], fn_q: &str, parsed: &ParsedFile) -> Option<String> {
    match chain {
        [one] if one == "self" => None,
        [self_, rest @ ..] if self_ == "self" && !rest.is_empty() => {
            let ty = impl_ty(fn_q).unwrap_or("Self");
            Some(format!("{ty}::{}", rest[rest.len() - 1]))
        }
        [one] => {
            if parsed.statics.iter().any(|s| s == one) {
                Some(format!("static:{one}"))
            } else {
                Some(format!("local:{fn_q}:{one}"))
            }
        }
        many => {
            let last = &many[many.len() - 1];
            if parsed.statics.iter().any(|s| s == last)
                || last
                    .chars()
                    .all(|c| c.is_uppercase() || c == '_' || c.is_ascii_digit())
            {
                Some(format!("static:{last}"))
            } else {
                Some(format!("field:{last}"))
            }
        }
    }
}

/// Direct `.lock()` acquisitions in a function body as `(token index,
/// lock id)`, excluding `self.lock()` helper calls.
fn direct_acquisitions(toks: &[Tok], f: &Function, parsed: &ParsedFile) -> Vec<(usize, String)> {
    let Some(body) = &f.body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for k in body.span.start..body.span.end {
        if toks[k].is_ident("lock")
            && k > 0
            && toks[k - 1].is_punct(".")
            && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
        {
            if let Some(chain) = receiver_chain(toks, k - 1) {
                if let Some(id) = lock_id(&chain, &f.qualified, parsed) {
                    out.push((k, id));
                }
            }
        }
    }
    out
}

/// Extracts the flat event list (acquisitions, calls, blocking ops) for
/// one function, with token indices.
fn extract_events(
    toks: &[Tok],
    f: &Function,
    parsed: &ParsedFile,
    guard_fns: &BTreeMap<String, String>,
) -> Vec<(usize, Event)> {
    let Some(body) = &f.body else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for k in body.span.start..body.span.end {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = k > 0 && toks[k - 1].is_punct(".");
        let prev_path = k > 0 && toks[k - 1].is_punct("::");
        let next_paren = toks.get(k + 1).is_some_and(|t| t.is_punct("("));
        let next_bang = toks.get(k + 1).is_some_and(|t| t.is_punct("!"));
        let ev = |kind, name: String| Event {
            kind,
            name,
            line: t.line,
            col: t.col,
        };

        // `.lock()` — field acquisition or guard-helper method call.
        if t.text == "lock" && prev_dot && next_paren {
            if let Some(chain) = receiver_chain(toks, k - 1) {
                match lock_id(&chain, &f.qualified, parsed) {
                    Some(id) => out.push((k, ev(EventKind::Lock, id))),
                    None => {
                        // `self.lock()`: the impl's guard-returning helper.
                        let ty = impl_ty(&f.qualified).unwrap_or("Self");
                        if let Some(lock) = guard_fns.get(&format!("{ty}::lock")) {
                            out.push((k, ev(EventKind::Lock, lock.clone())));
                        }
                    }
                }
            }
            continue;
        }

        // `write!`/`writeln!` macros do formatted IO on their target.
        if (t.text == "write" || t.text == "writeln") && next_bang {
            out.push((k, ev(EventKind::Blocking, format!("{}!", t.text))));
            continue;
        }

        // `std::io::`/`std::net::` free-function calls (lowercase head:
        // type paths like `std::io::Error::new` are not blocking).
        if t.text == "std"
            && toks.get(k + 1).is_some_and(|t| t.is_punct("::"))
            && toks
                .get(k + 2)
                .is_some_and(|t| t.is_ident("io") || t.is_ident("net"))
            && toks.get(k + 3).is_some_and(|t| t.is_punct("::"))
            && toks.get(k + 4).is_some_and(|t| {
                t.kind == TokKind::Ident && t.text.starts_with(|c: char| c.is_lowercase())
            })
            && toks.get(k + 5).is_some_and(|t| t.is_punct("("))
        {
            let what = format!("std::{}::{}", toks[k + 2].text, toks[k + 4].text);
            out.push((k, ev(EventKind::Blocking, what)));
            continue;
        }

        if !next_paren {
            continue;
        }

        // Blocking method/path calls.
        if (prev_dot || prev_path) && BLOCKING_METHODS.contains(&t.text.as_str()) {
            out.push((k, ev(EventKind::Blocking, t.text.clone())));
            continue;
        }

        // Plain calls: lowercase, not a keyword, not a definition.
        let prev_fn = k > 0 && toks[k - 1].is_ident("fn");
        if prev_fn
            || NON_CALL_IDENTS.contains(&t.text.as_str())
            || !t.text.starts_with(|c: char| c.is_lowercase() || c == '_')
        {
            continue;
        }
        if let Some(lock) = guard_fns.get(&t.text) {
            // A call to a guard-returning helper acquires its lock here.
            out.push((k, ev(EventKind::Lock, lock.clone())));
        } else {
            out.push((k, ev(EventKind::Call, t.text.clone())));
        }
    }
    out
}

/// Spans of blocks that are closure bodies (preceded by `|`): events in
/// them execute at an unknown time, so they are excluded from enclosing
/// guard scopes.
fn closure_spans(toks: &[Tok], block: &Block, out: &mut Vec<Span>) {
    for stmt in &block.stmts {
        for b in &stmt.blocks {
            if b.span.start > 0 && toks[b.span.start - 1].is_punct("|") {
                out.push(b.span);
            }
            closure_spans(toks, b, out);
        }
    }
}

/// Builds one function's summary: scoped acquisitions, direct locks,
/// blocking ops, call names, and discard sites.
fn summarize_fn(
    toks: &[Tok],
    f: &Function,
    parsed: &ParsedFile,
    guard_fns: &BTreeMap<String, String>,
) -> FnSummary {
    let events = extract_events(toks, f, parsed, guard_fns);
    let mut s = FnSummary {
        name: f.name.clone(),
        qualified: f.qualified.clone(),
        returns_result: f.ret.split_whitespace().any(|w| w == "Result"),
        ..FnSummary::default()
    };
    let mut locks = BTreeSet::new();
    let mut calls = BTreeSet::new();
    for (_, ev) in &events {
        match ev.kind {
            EventKind::Lock => {
                locks.insert(ev.name.clone());
            }
            EventKind::Call => {
                calls.insert(ev.name.clone());
            }
            EventKind::Blocking => s.blocking.push(ev.clone()),
        }
    }
    s.direct_locks = locks.into_iter().collect();
    s.calls = calls.into_iter().collect();

    let Some(body) = &f.body else {
        return s;
    };
    let mut closures = Vec::new();
    closure_spans(toks, body, &mut closures);

    // Guard-returning helpers: their sole acquisition escapes to the
    // caller, so it opens no scope here.
    let escaping = if guard_fns.contains_key(&f.qualified) {
        direct_acquisitions(toks, f, parsed)
            .first()
            .map(|(k, _)| *k)
    } else {
        None
    };

    collect_scopes(toks, body, &events, &closures, escaping, &mut s.acqs);
    collect_discards(toks, body, &mut s.discards);
    s
}

/// Token-index ranges covered by a statement excluding its nested blocks.
fn direct_ranges(stmt: &Stmt) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut cur = stmt.span.start;
    for b in &stmt.blocks {
        if b.span.start > cur {
            ranges.push((cur, b.span.start));
        }
        cur = b.span.end;
    }
    if stmt.span.end > cur {
        ranges.push((cur, stmt.span.end));
    }
    ranges
}

fn in_ranges(ranges: &[(usize, usize)], k: usize) -> bool {
    ranges.iter().any(|&(s, e)| k >= s && k < e)
}

fn in_spans(spans: &[Span], k: usize) -> bool {
    spans.iter().any(|s| k >= s.start && k < s.end)
}

/// Recursively assigns guard scopes and collects in-scope events.
fn collect_scopes(
    toks: &[Tok],
    block: &Block,
    events: &[(usize, Event)],
    closures: &[Span],
    escaping: Option<usize>,
    out: &mut Vec<Acquisition>,
) {
    for (si, stmt) in block.stmts.iter().enumerate() {
        let ranges = direct_ranges(stmt);
        for (k, ev) in events {
            if ev.kind != EventKind::Lock || Some(*k) == escaping || !in_ranges(&ranges, *k) {
                continue;
            }
            // Scope: a single named `let` binding runs to the end of the
            // enclosing block or an explicit `drop`; everything else
            // (temporaries, `_`, destructuring) lives for the statement.
            // (Edition-2021 semantics: an `if`/`match` scrutinee
            // temporary lives to the end of the whole statement.)
            // An explicit drop truncates at the `drop` token itself: a
            // conditional `drop(g)` in one match arm positionally ends
            // the scope for later arms too — a documented approximation
            // that under-reports rather than fabricates (DESIGN.md §16).
            let scope_end = match &stmt.kind {
                StmtKind::Let { pats, .. } if pats.len() == 1 && pats[0] != "_" => block.stmts
                    [si + 1..]
                    .iter()
                    .find_map(|later| drop_pos(toks, later, &pats[0]))
                    .unwrap_or(block.span.end - 1),
                _ => stmt.span.end,
            };
            let in_scope: Vec<Event> = events
                .iter()
                .filter(|(j, e)| {
                    *j > *k
                        && *j < scope_end
                        && !in_spans(closures, *j)
                        && !(e.kind == EventKind::Lock && e.name == ev.name)
                })
                .map(|(_, e)| e.clone())
                .collect();
            out.push(Acquisition {
                lock: ev.name.clone(),
                line: ev.line,
                col: ev.col,
                events: in_scope,
            });
        }
        for b in &stmt.blocks {
            collect_scopes(toks, b, events, closures, escaping, out);
        }
    }
}

/// Token index of the first `drop(var)` / `mem::drop(var)` in `stmt`.
fn drop_pos(toks: &[Tok], stmt: &Stmt, var: &str) -> Option<usize> {
    let r = stmt.span;
    (r.start..r.end.saturating_sub(2)).find(|&k| {
        toks[k].is_ident("drop") && toks[k + 1].is_punct("(") && toks[k + 2].is_ident(var)
    })
}

/// Collects `let _ = ...` and statement-level `.ok();` discard sites.
fn collect_discards(toks: &[Tok], block: &Block, out: &mut Vec<Discard>) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Let { pats, .. } if pats.len() == 1 && pats[0] == "_" => {
                if let Some((line, col, callee)) = top_level_callee(toks, stmt) {
                    out.push(Discard {
                        callee,
                        via_ok: false,
                        line,
                        col,
                    });
                }
            }
            StmtKind::Expr => {
                // `<expr>.ok();` in statement position discards a Result.
                let (s, e) = (stmt.span.start, stmt.span.end);
                if e >= 5
                    && e - s >= 5
                    && toks[e - 1].is_punct(";")
                    && toks[e - 2].is_punct(")")
                    && toks[e - 3].is_punct("(")
                    && toks[e - 4].is_ident("ok")
                    && toks[e - 5].is_punct(".")
                {
                    out.push(Discard {
                        callee: last_depth0_call(toks, stmt, e - 4).unwrap_or_default(),
                        via_ok: true,
                        line: toks[e - 4].line,
                        col: toks[e - 4].col,
                    });
                }
            }
            _ => {}
        }
        for b in &stmt.blocks {
            collect_discards(toks, b, out);
        }
    }
}

/// For `let _ = <init>;`: the last paren-depth-zero call in the
/// initializer (the one whose return value is discarded), with the
/// statement's position.
fn top_level_callee(toks: &[Tok], stmt: &Stmt) -> Option<(u32, u32, String)> {
    let eq = (stmt.span.start..stmt.span.end).find(|&k| toks[k].is_punct("="))?;
    let mut depth = 0isize;
    let mut callee = None;
    for k in eq + 1..stmt.span.end {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0
            && t.kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
            && !NON_CALL_IDENTS.contains(&t.text.as_str())
        {
            callee = Some(t.text.clone());
        }
    }
    let head = &toks[stmt.span.start];
    callee.map(|c| (head.line, head.col, c))
}

/// The last depth-zero call name before token `until` in `stmt`.
fn last_depth0_call(toks: &[Tok], stmt: &Stmt, until: usize) -> Option<String> {
    let mut depth = 0isize;
    let mut callee = None;
    for k in stmt.span.start..until {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0
            && t.kind == TokKind::Ident
            && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
            && !NON_CALL_IDENTS.contains(&t.text.as_str())
            && t.text != "ok"
        {
            callee = Some(t.text.clone());
        }
    }
    callee
}

// ---------------------------------------------------------------------
// uncancelled-loop (file-local)
// ---------------------------------------------------------------------

/// Flags `while`/`loop` statements in `RunContext`-taking functions whose
/// bodies never consult the context or a cancel token. `for` loops are
/// exempt (bounded iteration); a loop must contain at least one call to
/// count as doing work.
fn uncancelled_loops(toks: &[Tok], f: &Function, ctx: &FileContext, out: &mut Vec<Finding>) {
    let Some(ctx_param) = f
        .params
        .iter()
        .find(|(_, ty)| ty.contains("RunContext"))
        .map(|(name, _)| name.clone())
    else {
        return;
    };
    let Some(body) = &f.body else { return };
    let mut loops = Vec::new();
    outermost_loops(body, &mut loops);
    for stmt in loops {
        let head = (stmt.span.start..stmt.span.end)
            .find(|&k| toks[k].is_ident("while") || toks[k].is_ident("loop"));
        let Some(head) = head else { continue };
        let mut consults = false;
        let mut has_call = false;
        for k in stmt.span.start..stmt.span.end {
            let t = &toks[k];
            if t.kind != TokKind::Ident {
                continue;
            }
            if t.text == ctx_param || CONSULT_IDENTS.contains(&t.text.as_str()) {
                consults = true;
                break;
            }
            if toks.get(k + 1).is_some_and(|n| n.is_punct("("))
                && !NON_CALL_IDENTS.contains(&t.text.as_str())
            {
                has_call = true;
            }
        }
        if !consults && has_call {
            out.push(Finding {
                rule: "uncancelled-loop",
                severity: rule_severity("uncancelled-loop"),
                file: ctx.path.clone(),
                line: toks[head].line,
                col: toks[head].col,
                message: format!(
                    "`{}` loop in `{}` never consults `{}`/a cancel token; a \
                     cancelled or deadline-expired run cannot stop it — check \
                     `{}.ensure_live()` (or `admit`) each iteration",
                    toks[head].text, f.qualified, ctx_param, ctx_param
                ),
            });
        }
    }
}

/// Collects `while`/`loop` statements not nested inside another loop.
fn outermost_loops<'a>(block: &'a Block, out: &mut Vec<&'a Stmt>) {
    for stmt in &block.stmts {
        if stmt.kind == StmtKind::Loop {
            out.push(stmt);
        } else {
            for b in &stmt.blocks {
                outermost_loops(b, out);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Workspace-global analysis
// ---------------------------------------------------------------------

/// Where a transitive blocking chain bottoms out.
#[derive(Debug, Clone)]
struct BlockInfo {
    what: String,
    file: String,
    line: u32,
    col: u32,
    chain: Vec<String>,
}

/// A lock-graph edge witness: who acquired the edge's source lock, and
/// how the edge reaches its target.
#[derive(Debug, Clone)]
struct EdgeWitness {
    file: String,
    fn_q: String,
    line: u32,
    col: u32,
    via: String,
    in_scope: bool,
}

/// Runs the global passes over all file summaries.
pub fn analyze(files: &[&FileSummary]) -> AnalyzeOutcome {
    let mut raw: Vec<Finding> = Vec::new();

    // Function index: bare name → (file idx, fn idx).
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    let mut result_fns: BTreeSet<&str> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push((fi, gi));
            if f.returns_result {
                result_fns.insert(&f.name);
            }
        }
    }
    // Conservative resolver: same-file candidates win; otherwise only a
    // globally unique match. Ambiguous bare names resolve to nothing —
    // merging unrelated `new`s would fabricate cycles.
    let resolve = |name: &str, fi: usize| -> Vec<(usize, usize)> {
        let Some(cands) = by_name.get(name) else {
            return Vec::new();
        };
        let local: Vec<_> = cands.iter().copied().filter(|&(f, _)| f == fi).collect();
        if !local.is_empty() {
            local
        } else if cands.len() == 1 {
            cands.clone()
        } else {
            Vec::new()
        }
    };

    // swallowed-result: discards whose final callee is a workspace
    // Result-returning fn or a std `io::Result` socket/write method, plus
    // every statement-position `.ok()`.
    for file in files {
        for f in &file.fns {
            for d in &f.discards {
                let what = if d.via_ok {
                    "statement-level `.ok()` discards a Result".to_string()
                } else if result_fns.contains(d.callee.as_str()) {
                    format!(
                        "`let _ =` discards the Result of workspace fn `{}`",
                        d.callee
                    )
                } else if IO_RESULT_METHODS.contains(&d.callee.as_str()) {
                    format!(
                        "`let _ =` discards the io::Result of std method `{}`",
                        d.callee
                    )
                } else {
                    continue;
                };
                raw.push(Finding {
                    rule: "swallowed-result",
                    severity: rule_severity("swallowed-result"),
                    file: file.path.clone(),
                    line: d.line,
                    col: d.col,
                    message: format!(
                        "{what}; handle the error, or document why dropping it \
                         is sound and suppress"
                    ),
                });
            }
        }
    }

    // Transitive lock sets and blocking witnesses, to fixpoint.
    let n_files = files.len();
    let mut locks: Vec<Vec<BTreeSet<String>>> = (0..n_files)
        .map(|fi| {
            files[fi]
                .fns
                .iter()
                .map(|f| f.direct_locks.iter().cloned().collect())
                .collect()
        })
        .collect();
    let mut blocks: Vec<Vec<Option<BlockInfo>>> = (0..n_files)
        .map(|fi| {
            files[fi]
                .fns
                .iter()
                .map(|f| {
                    f.blocking.first().map(|b| BlockInfo {
                        what: b.name.clone(),
                        file: files[fi].path.clone(),
                        line: b.line,
                        col: b.col,
                        chain: Vec::new(),
                    })
                })
                .collect()
        })
        .collect();
    // Call edges are resolved once up front; the fixpoint then only does
    // set unions (resolution is name-based and does not change between
    // rounds, and re-resolving per round dominated the analyze cost).
    let call_edges: Vec<Vec<Vec<(usize, usize)>>> = files
        .iter()
        .enumerate()
        .map(|(fi, file)| {
            file.fns
                .iter()
                .enumerate()
                .map(|(gi, f)| {
                    let mut out: Vec<(usize, usize)> = f
                        .calls
                        .iter()
                        .flat_map(|callee| resolve(callee, fi))
                        .filter(|&t| t != (fi, gi))
                        .collect();
                    out.sort_unstable();
                    out.dedup();
                    out
                })
                .collect()
        })
        .collect();
    for _ in 0..32 {
        let mut changed = false;
        for fi in 0..n_files {
            for gi in 0..files[fi].fns.len() {
                for &(cf, cg) in &call_edges[fi][gi] {
                    let add: Vec<String> = locks[cf][cg]
                        .iter()
                        .filter(|l| !locks[fi][gi].contains(*l))
                        .cloned()
                        .collect();
                    for l in add {
                        locks[fi][gi].insert(l);
                        changed = true;
                    }
                    if blocks[fi][gi].is_none() {
                        if let Some(b) = blocks[cf][cg].clone() {
                            let mut chain = vec![files[cf].fns[cg].qualified.clone()];
                            chain.extend(b.chain.iter().take(3).cloned());
                            blocks[fi][gi] = Some(BlockInfo { chain, ..b });
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // lock-across-blocking: first blocking event (direct or via a
    // transitively-blocking callee) inside each guard scope.
    for (fi, file) in files.iter().enumerate() {
        for f in &file.fns {
            for acq in &f.acqs {
                let mut hit: Option<(String, u32, u32)> = None;
                for ev in &acq.events {
                    match ev.kind {
                        EventKind::Blocking => {
                            hit = Some((format!("blocking `{}`", ev.name), ev.line, ev.col));
                        }
                        EventKind::Call => {
                            for (cf, cg) in resolve(&ev.name, fi) {
                                if let Some(b) = &blocks[cf][cg] {
                                    let mut chain = vec![files[cf].fns[cg].qualified.clone()];
                                    chain.extend(b.chain.iter().take(2).cloned());
                                    hit = Some((
                                        format!(
                                            "call to `{}` (reaches blocking `{}` at {}:{}:{} \
                                             via {})",
                                            ev.name,
                                            b.what,
                                            b.file,
                                            b.line,
                                            b.col,
                                            chain.join(" → "),
                                        ),
                                        ev.line,
                                        ev.col,
                                    ));
                                    break;
                                }
                            }
                        }
                        EventKind::Lock => {}
                    }
                    if hit.is_some() {
                        break;
                    }
                }
                if let Some((what, line, col)) = hit {
                    if file.check_locks {
                        raw.push(Finding {
                            rule: "lock-across-blocking",
                            severity: rule_severity("lock-across-blocking"),
                            file: file.path.clone(),
                            line,
                            col,
                            message: format!(
                                "guard on `{}` (acquired in `{}` at {}:{}:{}) is held across \
                                 {what}; shorten the critical section or drop the guard first",
                                acq.lock, f.qualified, file.path, acq.line, acq.col
                            ),
                        });
                    }
                }
            }
        }
    }

    // lock-order-inversion: acquisition graph + cycle detection.
    let mut edges: BTreeMap<(String, String), EdgeWitness> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for f in &file.fns {
            for acq in &f.acqs {
                for ev in &acq.events {
                    let (to_locks, via): (Vec<String>, String) = match ev.kind {
                        EventKind::Lock => (
                            vec![ev.name.clone()],
                            format!("then `{}` at {}:{}:{}", ev.name, file.path, ev.line, ev.col),
                        ),
                        EventKind::Call => {
                            let mut ls = Vec::new();
                            for (cf, cg) in resolve(&ev.name, fi) {
                                ls.extend(locks[cf][cg].iter().cloned());
                            }
                            (
                                ls,
                                format!(
                                    "then calls `{}` at {}:{}:{}, which acquires it",
                                    ev.name, file.path, ev.line, ev.col
                                ),
                            )
                        }
                        EventKind::Blocking => continue,
                    };
                    for to in to_locks {
                        if to == acq.lock {
                            continue; // self-edges: see DESIGN.md §16
                        }
                        let key = (acq.lock.clone(), to);
                        edges.entry(key).or_insert_with(|| EdgeWitness {
                            file: file.path.clone(),
                            fn_q: f.qualified.clone(),
                            line: acq.line,
                            col: acq.col,
                            via: via.clone(),
                            in_scope: file.check_locks,
                        });
                    }
                }
            }
        }
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((a, b), w_ab) in &edges {
        // 2-cycles and 3-cycles, canonicalized by their sorted lock set.
        if let Some(w_ba) = edges.get(&(b.clone(), a.clone())) {
            let mut key = vec![a.clone(), b.clone()];
            key.sort();
            if seen_cycles.insert(key) && (w_ab.in_scope || w_ba.in_scope) {
                raw.push(inversion_finding(&[(a, w_ab), (b, w_ba)]));
            }
            continue;
        }
        for ((b2, c), w_bc) in &edges {
            if b2 != b || c == a {
                continue;
            }
            if let Some(w_ca) = edges.get(&(c.clone(), a.clone())) {
                let mut key = vec![a.clone(), b.clone(), c.clone()];
                key.sort();
                if seen_cycles.insert(key) && (w_ab.in_scope || w_bc.in_scope || w_ca.in_scope) {
                    raw.push(inversion_finding(&[(a, w_ab), (b, w_bc), (c, w_ca)]));
                }
            }
        }
    }

    // Apply per-file suppressions to the global findings.
    let mut out = AnalyzeOutcome::default();
    let by_file: BTreeMap<&str, &FileSummary> =
        files.iter().map(|f| (f.path.as_str(), *f)).collect();
    for f in raw {
        let sups: &[Suppression] = by_file
            .get(f.file.as_str())
            .map(|s| s.suppressions.as_slice())
            .unwrap_or(&[]);
        let one = apply_suppressions(vec![f], sups);
        out.suppressed += one.suppressed;
        out.findings.extend(one.findings);
    }
    out.findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    out
}

/// Builds the cycle finding, anchored at the first witness's acquisition.
fn inversion_finding(path: &[(&String, &EdgeWitness)]) -> Finding {
    let cycle: Vec<&str> = path
        .iter()
        .map(|(a, _)| a.as_str())
        .chain(std::iter::once(path[0].0.as_str()))
        .collect();
    let chains: Vec<String> = path
        .iter()
        .enumerate()
        .map(|(i, (a, w))| {
            format!(
                "path {}: `{}` acquires `{}` at {}:{}:{}, {}",
                i + 1,
                w.fn_q,
                a,
                w.file,
                w.line,
                w.col,
                w.via
            )
        })
        .collect();
    let w0 = path[0].1;
    Finding {
        rule: "lock-order-inversion",
        severity: rule_severity("lock-order-inversion"),
        file: w0.file.clone(),
        line: w0.line,
        col: w0.col,
        message: format!(
            "lock-order inversion {}: {}; two threads interleaving these paths \
             deadlock — impose a single acquisition order",
            cycle.join(" → "),
            chains.join("; ")
        ),
    }
}
