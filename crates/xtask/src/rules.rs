//! The rule catalog and the token-stream matchers behind it.
//!
//! Every rule has an id, a severity, and a `// tecopt:allow(<rule>)`
//! escape hatch (same line or the line directly above the finding; each
//! live suppression must be justified in `DESIGN.md` §11). Rules operate
//! on the lexed token stream after `#[cfg(test)]` items are filtered
//! out — see [`crate::lexer`] for what the tokens do and do not capture.

use crate::lexer::{lex, Suppression, Tok, TokKind};

/// How serious a finding is. Both severities fail the lint (exit code 1);
/// the distinction is informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A bug class that has shipped before; must be fixed or justified.
    Error,
    /// A readiness/robustness smell.
    Warning,
}

impl Severity {
    /// Lower-case label used in human and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One diagnostic produced by the engine.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`nan-unsafe-cmp`, ...).
    pub rule: &'static str,
    /// Rule severity.
    pub severity: Severity,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// Per-file lint configuration, derived from the file's workspace path
/// (see [`crate::workspace`]) or constructed directly by fixture tests.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Display path for diagnostics.
    pub path: String,
    /// File is a designated numerical hot-path module:
    /// `float-cast-truncation` applies (and `panic-in-kernel`, via
    /// [`FileContext::check_panics`]).
    pub kernel: bool,
    /// `panic-in-kernel` applies: on for the kernels and for the
    /// trust-boundary parsers (wire codec, record files, HotSpot files).
    pub check_panics: bool,
    /// The indexing sub-check of `panic-in-kernel` applies. Off for the
    /// dense linear-algebra kernels, where bounds-checked slice indexing
    /// against constructor-established dimensions is the core idiom
    /// (DESIGN.md §11).
    pub check_indexing: bool,
    /// `sleep-in-kernel` applies: blocking sleeps and busy-wait loops are
    /// banned from solver hot paths and the thread-management module,
    /// where they would stall cooperative cancellation.
    pub check_sleep: bool,
    /// File is the sanctioned thread-management module
    /// (`crates/core/src/parallel.rs`): `unbounded-spawn` does not apply.
    pub allow_thread: bool,
    /// `unbounded-queue` applies: queue-growth calls without a visible
    /// capacity guard are flagged. On for the service layer
    /// (`crates/serve/src/*`) and the thread module, where an unbounded
    /// backlog defeats admission control.
    pub check_queue: bool,
    /// File is on the `unsafe` allowlist (currently empty).
    pub allow_unsafe: bool,
    /// `unclamped-current` applies: assignments to commanded-current
    /// identifiers must show clamping evidence on their right-hand side.
    /// On for the transient simulator and the safety envelope, where an
    /// unclamped command is exactly the bug class the envelope exists to
    /// stop.
    pub check_current_clamp: bool,
    /// `cholesky-factor-in-loop` applies: a `Cholesky::factor` call inside
    /// a loop body is an O(n³)-per-iteration refactorization — the cost
    /// profile the placement factor (`StampedSystem::placement_factor`,
    /// driven by `SteadySolver`) exists to avoid. On for
    /// `crates/core/src/*`; the linalg crate itself legitimately factors
    /// in loops (bisection probes, tests of the factorizer).
    pub check_factor_in_loop: bool,
    /// The flow-aware lock rules (`lock-order-inversion`,
    /// `lock-across-blocking`) report findings located in this file. On
    /// for the service layer and the shared-state core modules; the lock
    /// graph itself is always built workspace-wide.
    pub check_locks: bool,
    /// `uncancelled-loop` applies: `while`/`loop` bodies in functions
    /// taking a `RunContext` must consult it. On for the supervised sweep
    /// kernels and the serve engine.
    pub check_cancellation: bool,
    /// `retry-without-backoff` applies: a reconnect/resend/ping call
    /// inside a `while`/`loop` body must show backoff evidence in the
    /// same body, or the loop hammers a refusing peer at CPU speed. On
    /// for the service layer, where every retry loop must pace itself
    /// (DESIGN.md §17).
    pub check_retry_backoff: bool,
    /// `non-atomic-persist` applies: whole-file writes to a final path
    /// with no rename evidence nearby leave a torn file after a crash.
    /// On for the ledger/checkpoint persistence modules, where every
    /// durable write must go through the temp-file+rename protocol
    /// (`tecopt::record::atomic_replace`) or a torn-tail-tolerant
    /// append (DESIGN.md §18).
    pub check_persist: bool,
}

impl FileContext {
    /// A context with every check enabled — what fixture tests use.
    pub fn strictest(path: &str) -> FileContext {
        FileContext {
            path: path.to_string(),
            kernel: true,
            check_panics: true,
            check_indexing: true,
            check_sleep: true,
            allow_thread: false,
            allow_unsafe: false,
            check_queue: true,
            check_current_clamp: true,
            check_factor_in_loop: true,
            check_locks: true,
            check_cancellation: true,
            check_retry_backoff: true,
            check_persist: true,
        }
    }

    /// A context with only the everywhere-rules enabled.
    pub fn plain(path: &str) -> FileContext {
        FileContext {
            path: path.to_string(),
            kernel: false,
            check_panics: false,
            check_indexing: false,
            check_sleep: false,
            allow_thread: false,
            allow_unsafe: false,
            check_queue: false,
            check_current_clamp: false,
            check_factor_in_loop: false,
            check_locks: false,
            check_cancellation: false,
            check_retry_backoff: false,
            check_persist: false,
        }
    }
}

/// Catalog entry describing one rule, for `tecopt-xtask rules` and the
/// DESIGN.md table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id as used in diagnostics and suppression comments.
    pub id: &'static str,
    /// Severity of every finding the rule produces.
    pub severity: Severity,
    /// One-line rationale.
    pub summary: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
}

/// The full rule catalog, in documentation order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "nan-unsafe-cmp",
        severity: Severity::Error,
        summary: "partial_cmp().unwrap()/.expect()/.unwrap_or(), sort/min/max \
                  with raw partial_cmp, and float ==/!= against a non-zero \
                  literal panic or misorder on NaN; use total_cmp on \
                  validated floats",
        scope: "all workspace sources",
    },
    RuleInfo {
        id: "panic-in-kernel",
        severity: Severity::Error,
        summary: "unwrap/expect/panic!/unreachable! and [] indexing are \
                  panicking paths inside solver hot-path modules and \
                  trust-boundary parsers; return a typed error or justify \
                  the invariant in DESIGN.md §11",
        scope: "crates/linalg/src/*, crates/core/src/{system,runaway,convexity,lambda}.rs, \
                and the trust-boundary parsers crates/serve/src/wire.rs, \
                crates/core/src/record.rs, crates/power/src/hotspot_io.rs \
                (indexing sub-check: core kernels and parsers only)",
    },
    RuleInfo {
        id: "unbounded-spawn",
        severity: Severity::Error,
        summary: "std::thread outside the deterministic fork/join helpers \
                  bypasses worker capping and first-error-by-index semantics; \
                  use tecopt::parallel",
        scope: "everywhere except crates/core/src/parallel.rs",
    },
    RuleInfo {
        id: "unbounded-queue",
        severity: Severity::Error,
        summary: "std::sync::mpsc::channel() and VecDeque push_back/push_front \
                  with no visible len/capacity guard grow without bound under \
                  load; every service-layer queue must be bounded and shed \
                  (guard heuristic: a `len`/`capacity` token within the \
                  preceding 64 tokens)",
        scope: "crates/serve/src/* and crates/core/src/parallel.rs",
    },
    RuleInfo {
        id: "unsafe-code",
        severity: Severity::Error,
        summary: "unsafe blocks outside an allowlisted module (the allowlist \
                  is empty; every crate also carries #![forbid(unsafe_code)])",
        scope: "all workspace sources",
    },
    RuleInfo {
        id: "sleep-in-kernel",
        severity: Severity::Error,
        summary: "thread::sleep/park/yield_now/spin_loop calls and empty \
                  busy-wait loops stall solver hot paths and starve the \
                  cooperative cancellation checks; block on real \
                  synchronization primitives instead",
        scope: "kernel modules (panic-in-kernel's scope minus the parsers) \
                plus crates/core/src/parallel.rs",
    },
    RuleInfo {
        id: "unclamped-current",
        severity: Severity::Error,
        summary: "an assignment to a commanded-current identifier \
                  (`current`, `*_current`, `commanded*`) with no `clamp` \
                  call on its right-hand side can reach the solver at or \
                  beyond the runaway limit; route commands through \
                  SafetyEnvelope::clamp_command",
        scope: "crates/core/src/transient.rs and crates/core/src/envelope.rs",
    },
    RuleInfo {
        id: "float-cast-truncation",
        severity: Severity::Warning,
        summary: "`as` casts from float to int silently truncate/saturate; \
                  use try_from on a checked rounding or keep the value in \
                  float space",
        scope: "kernel modules (panic-in-kernel's scope minus the parsers)",
    },
    RuleInfo {
        id: "todo-markers",
        severity: Severity::Warning,
        summary: "todo!/unimplemented! must not reach production code",
        scope: "all workspace sources",
    },
    RuleInfo {
        id: "cholesky-factor-in-loop",
        severity: Severity::Warning,
        summary: "`Cholesky::factor` inside a loop body analyses and \
                  refactorizes on every iteration; reuse a cached factorization \
                  (SteadySolver / StampedSystem::placement_factor) or hoist \
                  the factor out of the loop",
        scope: "crates/core/src/*",
    },
    RuleInfo {
        id: "lock-order-inversion",
        severity: Severity::Error,
        summary: "two lock-acquisition paths that take the same locks in \
                  opposite orders (built from guard scopes plus \
                  intra-workspace call edges) deadlock when two threads \
                  interleave them; both witness chains are reported",
        scope: "graph built workspace-wide; findings in crates/serve/src/* \
                and crates/core/src/{parallel,supervise,system}.rs",
    },
    RuleInfo {
        id: "lock-across-blocking",
        severity: Severity::Error,
        summary: "a guard held across blocking IO, sleep, join, or recv \
                  (directly or through a workspace call chain) stalls every \
                  thread contending on that lock for the duration of the \
                  blocking call; Condvar::wait is exempt (it releases the \
                  guard)",
        scope: "same as lock-order-inversion",
    },
    RuleInfo {
        id: "swallowed-result",
        severity: Severity::Warning,
        summary: "`let _ =` on a workspace Result-returning call or on a \
                  std io::Result socket/write method (write, write_all, \
                  write_fmt, flush, set_nodelay, set_nonblocking, \
                  set_read_timeout, set_write_timeout, shutdown), or a \
                  statement-position `.ok()`, silently drops an error the \
                  callee went out of its way to report",
        scope: "all workspace sources (flow analysis, tests excluded)",
    },
    RuleInfo {
        id: "uncancelled-loop",
        severity: Severity::Warning,
        summary: "a `while`/`loop` body in a RunContext-taking function that \
                  never consults the context or a cancel token keeps running \
                  after cancellation or deadline expiry; `for` loops are \
                  exempt (bounded)",
        scope: "supervised sweep kernels and the serve engine",
    },
    RuleInfo {
        id: "retry-without-backoff",
        severity: Severity::Warning,
        summary: "a connect/reconnect/resend/ping call whose innermost \
                  enclosing `while`/`loop` body shows no backoff evidence \
                  (a backoff/jitter/delay helper, pause, sleep, or a timed \
                  wait) hammers a refusing peer at CPU speed; pace every \
                  retry loop with capped jittered backoff \
                  (`util::backoff_duration`)",
        scope: "crates/serve/src/* (`for` loops are exempt: one pass over \
                a bounded iterator is not a retry)",
    },
    RuleInfo {
        id: "non-atomic-persist",
        severity: Severity::Error,
        summary: "`fs::write`/`File::create` on a final path, or an \
                  OpenOptions chain that creates/truncates/writes without \
                  `append(true)`, with no `rename` evidence in the \
                  following tokens leaves a torn file if the process dies \
                  mid-write; route durable writes through the \
                  temp-file+rename protocol \
                  (`tecopt::record::atomic_replace`) or a \
                  torn-tail-tolerant append",
        scope: "ledger/checkpoint persistence modules \
                (crates/core/src/{record,supervise,transient}.rs, \
                crates/explore/src/ledger.rs)",
    },
];

/// Looks up a catalog entry by id.
fn rule(id: &str) -> &'static RuleInfo {
    CATALOG.iter().find(|r| r.id == id).unwrap_or(&CATALOG[0])
}

/// Severity of the catalog rule `id` (first entry if unknown).
pub fn rule_severity(id: &str) -> Severity {
    rule(id).severity
}

/// Result of linting one source buffer.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Findings that survived suppression, in source order.
    pub findings: Vec<Finding>,
    /// Number of findings silenced by `tecopt:allow` comments.
    pub suppressed: usize,
}

/// Lints one source buffer under `ctx` with the token-level rules only.
/// (The flow rules need the whole workspace: use [`analyze_source`] plus
/// [`crate::flow::analyze`], or [`crate::flow::flow_lint`] in tests.)
pub fn lint_source(src: &str, ctx: &FileContext) -> LintOutcome {
    let lexed = lex(src);
    let toks = strip_cfg_test(&lexed.tokens);
    let findings = token_rule_findings(&toks, ctx);
    apply_suppressions(findings, &lexed.suppressions)
}

/// Per-file result of [`analyze_source`]: suppressed token + file-local
/// flow findings, plus the summary the workspace-global passes consume.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Findings from token rules and file-local flow rules, suppressed.
    pub outcome: LintOutcome,
    /// Input to [`crate::flow::analyze`].
    pub summary: crate::flow::FileSummary,
}

/// Lints one source buffer and builds its flow summary in a single
/// lex/parse pass.
pub fn analyze_source(src: &str, ctx: &FileContext) -> FileAnalysis {
    let lexed = lex(src);
    let toks = strip_cfg_test(&lexed.tokens);
    let mut findings = token_rule_findings(&toks, ctx);
    let parsed = crate::parser::parse(&toks);
    let summary = crate::flow::summarize(&toks, &parsed, ctx, &lexed.suppressions, &mut findings);
    FileAnalysis {
        outcome: apply_suppressions(findings, &lexed.suppressions),
        summary,
    }
}

/// Runs every token-level rule enabled by `ctx` over the stripped stream.
fn token_rule_findings(toks: &[Tok], ctx: &FileContext) -> Vec<Finding> {
    let mut findings = Vec::new();

    check_nan_unsafe_cmp(toks, ctx, &mut findings);
    if ctx.check_panics {
        check_panic_in_kernel(toks, ctx, &mut findings);
    }
    if ctx.kernel {
        check_float_cast(toks, ctx, &mut findings);
    }
    if ctx.check_sleep {
        check_sleep_in_kernel(toks, ctx, &mut findings);
    }
    if !ctx.allow_thread {
        check_unbounded_spawn(toks, ctx, &mut findings);
    }
    if ctx.check_queue {
        check_unbounded_queue(toks, ctx, &mut findings);
    }
    if ctx.check_current_clamp {
        check_unclamped_current(toks, ctx, &mut findings);
    }
    if ctx.check_factor_in_loop {
        check_factor_in_loop(toks, ctx, &mut findings);
    }
    if ctx.check_retry_backoff {
        check_retry_without_backoff(toks, ctx, &mut findings);
    }
    if ctx.check_persist {
        check_non_atomic_persist(toks, ctx, &mut findings);
    }
    if !ctx.allow_unsafe {
        check_unsafe(toks, ctx, &mut findings);
    }
    check_todo_markers(toks, ctx, &mut findings);

    findings
}

/// Drops findings covered by a `tecopt:allow` comment on the same line or
/// the line directly above.
pub(crate) fn apply_suppressions(findings: Vec<Finding>, sups: &[Suppression]) -> LintOutcome {
    let mut out = LintOutcome::default();
    for f in findings {
        let silenced = sups.iter().any(|s| {
            (s.line == f.line || s.line + 1 == f.line) && s.rules.iter().any(|r| r == f.rule)
        });
        if silenced {
            out.suppressed += 1;
        } else {
            out.findings.push(f);
        }
    }
    out
}

// ---------------------------------------------------------------------
// `#[cfg(test)]` filtering
// ---------------------------------------------------------------------

/// Removes every item annotated `#[cfg(test)]` (module, fn, use, ...)
/// from the token stream. Token-level heuristic: after the attribute
/// (and any further attributes), the item is skipped up to its balanced
/// `{...}` body or terminating `;` at bracket depth zero.
fn strip_cfg_test(toks: &[Tok]) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let attr_end = matching_bracket(toks, i + 1);
            if attr_is_cfg_test(&toks[i + 2..attr_end]) {
                let mut j = attr_end + 1;
                // Skip any further attributes on the same item.
                while toks.get(j).is_some_and(|t| t.is_punct("#"))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct("["))
                {
                    j = matching_bracket(toks, j + 1) + 1;
                }
                i = skip_item(toks, j);
                continue;
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// `true` if the attribute tokens (inside `#[...]`) are a `cfg` whose
/// arguments mention `test` (`cfg(test)`, `cfg(all(test, ...))`, ...).
fn attr_is_cfg_test(attr: &[Tok]) -> bool {
    attr.first().is_some_and(|t| t.is_ident("cfg")) && attr.iter().any(|t| t.is_ident("test"))
}

/// Index of the `]` matching the `[` at `open` (or the last token).
fn matching_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct("[") {
            depth += 1;
        } else if toks[i].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

/// Skips one item starting at `start`: consumes up to and including the
/// first `;` at depth zero, or the balanced `{...}` block if a `{` at
/// depth zero comes first. Returns the index after the item.
fn skip_item(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0isize;
    let mut i = start;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct(";") {
            return i + 1;
        } else if depth == 0 && t.is_punct("{") {
            let mut braces = 0isize;
            while i < toks.len() {
                if toks[i].is_punct("{") {
                    braces += 1;
                } else if toks[i].is_punct("}") {
                    braces -= 1;
                    if braces == 0 {
                        return i + 1;
                    }
                }
                i += 1;
            }
            return i;
        }
        i += 1;
    }
    i
}

// ---------------------------------------------------------------------
// Rule matchers
// ---------------------------------------------------------------------

fn push(findings: &mut Vec<Finding>, id: &'static str, ctx: &FileContext, tok: &Tok, msg: String) {
    findings.push(Finding {
        rule: id,
        severity: rule(id).severity,
        file: ctx.path.clone(),
        line: tok.line,
        col: tok.col,
        message: msg,
    });
}

/// Index just past the `)` matching the `(` at `open`.
fn matching_paren_end(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct("(") {
            depth += 1;
        } else if toks[i].is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Parses a float literal's numeric value (`1_000.5f64` → 1000.5).
fn float_value(text: &str) -> Option<f64> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let cleaned = cleaned
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('.');
    cleaned.parse::<f64>().ok()
}

const SORT_FAMILY: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_cached_key",
    "max_by",
    "min_by",
];

fn check_nan_unsafe_cmp(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    // Pass 1: sort/min/max combinators whose argument span uses raw
    // `partial_cmp` with no `total_cmp` anywhere in the closure.
    let mut flagged_spans: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && SORT_FAMILY.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let end = matching_paren_end(toks, i + 1);
            let span = &toks[i + 1..end];
            let has_partial = span.iter().any(|s| s.is_ident("partial_cmp"));
            let has_total = span.iter().any(|s| s.is_ident("total_cmp"));
            if has_partial && !has_total {
                flagged_spans.push((i + 1, end));
                push(
                    findings,
                    "nan-unsafe-cmp",
                    ctx,
                    t,
                    format!(
                        "`{}` with a raw `partial_cmp` comparator panics or \
                         misorders on NaN; use `total_cmp` on validated floats",
                        t.text
                    ),
                );
            }
        }
    }

    for (i, t) in toks.iter().enumerate() {
        // Pass 2: `partial_cmp(...)` chained into unwrap/expect/unwrap_or,
        // unless already covered by a flagged sort-family span.
        if t.is_ident("partial_cmp") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            if flagged_spans.iter().any(|&(s, e)| i > s && i < e) {
                continue;
            }
            let after = matching_paren_end(toks, i + 1);
            if toks.get(after).is_some_and(|n| n.is_punct("."))
                && toks.get(after + 1).is_some_and(|n| {
                    n.is_ident("unwrap") || n.is_ident("expect") || n.is_ident("unwrap_or")
                })
            {
                let m = &toks[after + 1].text;
                push(
                    findings,
                    "nan-unsafe-cmp",
                    ctx,
                    t,
                    format!(
                        "`partial_cmp().{m}()` panics or silently misorders on \
                         NaN; use `total_cmp` on validated floats"
                    ),
                );
            }
        }

        // Pass 3: float ==/!= against a non-zero literal. Exact-zero
        // comparisons are well-defined IEEE-754 sentinel tests and exempt.
        if t.is_punct("==") || t.is_punct("!=") {
            let nonzero_float = |tok: Option<&Tok>| {
                tok.is_some_and(|n| {
                    n.kind == TokKind::Float && float_value(&n.text).is_some_and(|v| v != 0.0)
                })
            };
            if nonzero_float(i.checked_sub(1).and_then(|p| toks.get(p)))
                || nonzero_float(toks.get(i + 1))
            {
                push(
                    findings,
                    "nan-unsafe-cmp",
                    ctx,
                    t,
                    format!(
                        "float `{}` against a non-zero literal is exact-equality \
                         on inexact arithmetic; compare against a tolerance",
                        t.text
                    ),
                );
            }
        }
    }
}

/// Keyword-ish identifiers that can precede `[` without it being an index
/// expression (`&mut [f64]`, `for [a, b] in ...`, `dyn [..]`, ...).
const NON_INDEX_PRECEDERS: &[&str] = &[
    "mut", "dyn", "ref", "in", "as", "impl", "where", "return", "break", "continue", "else",
    "match", "if", "let", "const", "static", "pub", "crate", "move", "box", "fn", "type", "use",
    "mod", "enum", "struct", "trait", "for", "loop", "while", "yield", "unsafe",
];

fn check_panic_in_kernel(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    let (place, module) = if ctx.kernel {
        ("a solver hot path", "a solver hot-path module")
    } else {
        ("a trust-boundary parser", "a trust-boundary parser")
    };
    for (i, t) in toks.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && prev.is_some_and(|p| p.is_punct(".") || p.is_punct("::"))
        {
            push(
                findings,
                "panic-in-kernel",
                ctx,
                t,
                format!(
                    "`{}` is a panicking path in {module}; \
                     return a typed error (or justify the invariant in \
                     DESIGN.md §11 and suppress)",
                    t.text
                ),
            );
        }
        if (t.is_ident("panic") || t.is_ident("unreachable"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            push(
                findings,
                "panic-in-kernel",
                ctx,
                t,
                format!("`{}!` aborts {place}; return a typed error", t.text),
            );
        }
        if ctx.check_indexing && t.is_punct("[") {
            let indexes_expr = prev.is_some_and(|p| match p.kind {
                TokKind::Ident => !NON_INDEX_PRECEDERS.contains(&p.text.as_str()),
                TokKind::Punct => p.is_punct(")") || p.is_punct("]"),
                _ => false,
            });
            if indexes_expr {
                push(
                    findings,
                    "panic-in-kernel",
                    ctx,
                    t,
                    format!(
                        "`[]` indexing panics on out-of-bounds in {place}; use \
                         iterators/`get`, or justify the bound invariant in \
                         DESIGN.md §11 and suppress"
                    ),
                );
            }
        }
    }
}

/// Blocking or spinning primitives that have no place in a solver hot
/// path: they stall the worker between cancellation checks.
const SLEEP_CALLS: &[&str] = &[
    "sleep",
    "sleep_ms",
    "park",
    "park_timeout",
    "yield_now",
    "spin_loop",
];

fn check_sleep_in_kernel(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        // Pass 1: blocking/spinning calls, path-qualified or bare.
        if t.kind == TokKind::Ident
            && SLEEP_CALLS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            push(
                findings,
                "sleep-in-kernel",
                ctx,
                t,
                format!(
                    "`{}` blocks a solver hot path and starves the cooperative \
                     cancellation checks; use a real synchronization primitive",
                    t.text
                ),
            );
        }

        // Pass 2: empty busy-wait loops — `while <cond> {}` and `loop {}`
        // burn a core polling a condition the loop body never advances.
        let empty_body_at = |open: usize| {
            toks.get(open).is_some_and(|n| n.is_punct("{"))
                && toks.get(open + 1).is_some_and(|n| n.is_punct("}"))
        };
        if t.is_ident("loop") && empty_body_at(i + 1) {
            push(
                findings,
                "sleep-in-kernel",
                ctx,
                t,
                "empty `loop {}` busy-waits a core in a solver hot path; \
                 block on a synchronization primitive"
                    .to_string(),
            );
        }
        if t.is_ident("while") {
            // Find the body `{` of this `while` at paren/bracket depth 0.
            let mut depth = 0isize;
            let mut j = i + 1;
            while j < toks.len() {
                let n = &toks[j];
                if n.is_punct("(") || n.is_punct("[") {
                    depth += 1;
                } else if n.is_punct(")") || n.is_punct("]") {
                    depth -= 1;
                } else if depth == 0 && (n.is_punct("{") || n.is_punct(";")) {
                    break;
                }
                j += 1;
            }
            if empty_body_at(j) {
                push(
                    findings,
                    "sleep-in-kernel",
                    ctx,
                    t,
                    "`while ... {}` busy-waits a core in a solver hot path; \
                     block on a synchronization primitive"
                        .to_string(),
                );
            }
        }
    }
}

const THREAD_API: &[&str] = &[
    "spawn",
    "scope",
    "Builder",
    "sleep",
    "park",
    "yield_now",
    "current",
    "available_parallelism",
];

fn check_unbounded_spawn(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        let hit = if t.is_ident("std")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("thread"))
        {
            true
        } else {
            // `thread::spawn(...)` after a `use std::thread;` import. The
            // path-rooted form above already covers `std::thread::...`.
            t.is_ident("thread")
                && !i
                    .checked_sub(1)
                    .and_then(|p| toks.get(p))
                    .is_some_and(|p| p.is_punct("::") || p.is_punct("."))
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| THREAD_API.contains(&n.text.as_str()))
        };
        if hit {
            push(
                findings,
                "unbounded-spawn",
                ctx,
                t,
                "direct std::thread use outside crates/core/src/parallel.rs \
                 bypasses the capped, deterministic fork/join helpers; use \
                 tecopt::parallel"
                    .to_string(),
            );
        }
    }
}

/// How far back (in tokens) the guard scan of `unbounded-queue` looks for
/// a `len`/`capacity` mention before a growth call. Wide enough for a
/// guard clause a few statements up, narrow enough that an unrelated
/// `len()` in a different function rarely shadows a real finding.
const QUEUE_GUARD_WINDOW: usize = 64;

fn check_unbounded_queue(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        // Pass 1: the unbounded std channel constructor. `sync_channel`
        // (bounded) is a different identifier and never matches.
        if t.is_ident("channel") && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            push(
                findings,
                "unbounded-queue",
                ctx,
                t,
                "`channel()` is the *unbounded* std mpsc constructor; a \
                 service-layer queue must be bounded so overload sheds with \
                 a typed error instead of growing the backlog"
                    .to_string(),
            );
        }

        // Pass 2: VecDeque growth with no visible capacity guard nearby.
        if (t.is_ident("push_back") || t.is_ident("push_front"))
            && i.checked_sub(1)
                .and_then(|p| toks.get(p))
                .is_some_and(|p| p.is_punct("."))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            let start = i.saturating_sub(QUEUE_GUARD_WINDOW);
            let guarded = toks[start..i]
                .iter()
                .any(|g| g.is_ident("len") || g.is_ident("capacity"));
            if !guarded {
                push(
                    findings,
                    "unbounded-queue",
                    ctx,
                    t,
                    format!(
                        "`{}` with no visible len/capacity guard in the \
                         preceding {QUEUE_GUARD_WINDOW} tokens grows a queue \
                         without bound under load; check depth against a cap \
                         and shed before pushing",
                        t.text
                    ),
                );
            }
        }
    }
}

/// Identifier shapes treated as "a commanded current". Deliberately
/// narrow: `current_total` or `recurrent` are not commands, and a rename
/// that dodges the shape also dodges the reviewer-facing convention the
/// rule enforces.
fn is_current_ident(text: &str) -> bool {
    text == "current" || text.ends_with("_current") || text.starts_with("commanded")
}

fn check_unclamped_current(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !is_current_ident(&t.text) {
            continue;
        }
        // Only plain assignments (including `let` bindings): the lexer
        // merges `==`, `!=`, `<=`, `>=` and `=>` into single tokens, so a
        // bare `=` after the identifier is always an assignment target.
        if !toks.get(i + 1).is_some_and(|n| n.is_punct("=")) {
            continue;
        }
        // Scan the right-hand side — up to the `;` at bracket depth zero —
        // for clamping evidence: any identifier mentioning `clamp`
        // (`clamp`, `clamp_command`, `clamped_fallback`, ...).
        let mut depth = 0isize;
        let mut j = i + 2;
        let mut clamped = false;
        while let Some(n) = toks.get(j) {
            if n.is_punct("(") || n.is_punct("[") || n.is_punct("{") {
                depth += 1;
            } else if n.is_punct(")") || n.is_punct("]") || n.is_punct("}") {
                depth -= 1;
                if depth < 0 {
                    break; // end of the enclosing block: expression tail
                }
            } else if depth == 0 && n.is_punct(";") {
                break;
            } else if n.kind == TokKind::Ident && n.text.contains("clamp") {
                clamped = true;
            }
            j += 1;
        }
        if !clamped {
            push(
                findings,
                "unclamped-current",
                ctx,
                t,
                format!(
                    "`{}` is assigned with no clamping evidence on the \
                     right-hand side; route commanded currents through \
                     `SafetyEnvelope::clamp_command` (or a clamp helper) \
                     before they can reach the solver",
                    t.text
                ),
            );
        }
    }
}

/// Finds the body-opening `{` of a `while`/`for` header starting at
/// `start`, skipping over parenthesized/bracketed sub-expressions. A
/// `for` header must contain an `in` at depth zero before the body —
/// that is what distinguishes a for-loop from `impl Trait for Type {`
/// and `for<'a>` higher-ranked bounds. Returns `None` when a `;` ends
/// the construct first (no body: a trait bound, a macro fragment, ...).
fn loop_body_open(toks: &[Tok], start: usize, needs_in: bool) -> Option<usize> {
    let mut depth = 0isize;
    let mut saw_in = false;
    let mut j = start;
    while let Some(n) = toks.get(j) {
        if n.is_punct("(") || n.is_punct("[") {
            depth += 1;
        } else if n.is_punct(")") || n.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && n.is_punct(";") {
            return None;
        } else if depth == 0 && n.is_punct("{") {
            return (!needs_in || saw_in).then_some(j);
        } else if depth == 0 && n.is_ident("in") {
            saw_in = true;
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn matching_brace_end(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct("{") {
            depth += 1;
        } else if toks[i].is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len().saturating_sub(1)
}

fn check_factor_in_loop(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    // Pass 1: collect every loop-body brace span — `loop { ... }`,
    // `while <cond> { ... }`, `for <pat> in <iter> { ... }`.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let open = if t.is_ident("loop") {
            toks.get(i + 1)
                .is_some_and(|n| n.is_punct("{"))
                .then_some(i + 1)
        } else if t.is_ident("while") {
            loop_body_open(toks, i + 1, false)
        } else if t.is_ident("for") {
            loop_body_open(toks, i + 1, true)
        } else {
            None
        };
        if let Some(open) = open {
            spans.push((open, matching_brace_end(toks, open)));
        }
    }

    // Pass 2: flag `Cholesky::factor` inside any collected span.
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("Cholesky")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("factor"))
            && spans.iter().any(|&(s, e)| i > s && i < e)
        {
            push(
                findings,
                "cholesky-factor-in-loop",
                ctx,
                t,
                "`Cholesky::factor` inside a loop body pays O(n³) per \
                 iteration; reuse a cached factorization (SteadySolver, \
                 StampedSystem::placement_factor) or hoist the factor out of \
                 the loop"
                    .to_string(),
            );
        }
    }
}

/// Calls whose presence in a `while`/`loop` body marks the loop as a
/// retry loop: reconnect/resend/probe verbs against a peer.
const RETRY_CALLS: &[&str] = &["connect", "ensure_connected", "reconnect", "resend", "ping"];

/// Identifiers accepted as pacing evidence inside a retry-loop body: the
/// backoff helpers themselves (any ident mentioning backoff/jitter/delay)
/// or a blocking pause/timed wait.
fn is_backoff_evidence(text: &str) -> bool {
    text.contains("backoff")
        || text.contains("jitter")
        || text.contains("delay")
        || matches!(
            text,
            "pause" | "sleep" | "wait_timeout" | "recv_timeout" | "park_timeout"
        )
}

fn check_retry_without_backoff(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    // Pass 1: collect `while`/`loop` spans. A span runs from the loop
    // keyword (so a retry call in a `while` *condition* is covered) to
    // the body's closing brace. `for` loops are exempt — one pass over a
    // bounded iterator is not a retry.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let open = if t.is_ident("loop") {
            toks.get(i + 1)
                .is_some_and(|n| n.is_punct("{"))
                .then_some(i + 1)
        } else if t.is_ident("while") {
            loop_body_open(toks, i + 1, false)
        } else {
            None
        };
        if let Some(open) = open {
            spans.push((i, matching_brace_end(toks, open)));
        }
    }

    // Pass 2: flag retry-family calls whose *innermost* enclosing loop
    // body shows no pacing evidence. Innermost, because that is the loop
    // whose iteration rate the missing backoff would govern.
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident
            || !RETRY_CALLS.contains(&t.text.as_str())
            || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            continue;
        }
        // A definition (`fn connect(...)`) is not a call site.
        if i.checked_sub(1)
            .and_then(|p| toks.get(p))
            .is_some_and(|p| p.is_ident("fn"))
        {
            continue;
        }
        let innermost = spans
            .iter()
            .filter(|&&(s, e)| i > s && i < e)
            .min_by_key(|&&(s, e)| e - s);
        let Some(&(s, e)) = innermost else {
            continue;
        };
        let paced = toks[s..=e.min(toks.len() - 1)]
            .iter()
            .any(|g| g.kind == TokKind::Ident && is_backoff_evidence(&g.text));
        if !paced {
            push(
                findings,
                "retry-without-backoff",
                ctx,
                t,
                format!(
                    "`{}` retried in a loop with no visible backoff evidence \
                     hammers a refusing peer at CPU speed; pace the loop with \
                     capped jittered backoff (`util::backoff_duration`)",
                    t.text
                ),
            );
        }
    }
}

/// Tokens scanned *after* a flagged persist call for `rename` evidence
/// (the temp-file+rename protocol) before it is reported. Generous: the
/// write, sync, and rename of `atomic_replace` fit in a fraction of this.
const RENAME_WINDOW: usize = 120;

/// `true` if an identifier mentioning `rename` appears within
/// [`RENAME_WINDOW`] tokens after index `i` — the visible tail of the
/// temp-file+rename protocol.
fn renames_after(toks: &[Tok], i: usize) -> bool {
    toks[i..toks.len().min(i + RENAME_WINDOW)]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.contains("rename"))
}

fn check_non_atomic_persist(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        // Pass 1: direct whole-file writers — `fs::write(...)` and
        // `File::create(...)` — replace or truncate the target in place;
        // a kill mid-write leaves a torn final path unless the call is
        // part of a temp-file+rename sequence.
        let direct = ((t.is_ident("write")
            && i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("fs"))
            || (t.is_ident("create")
                && i >= 2
                && toks[i - 1].is_punct("::")
                && toks[i - 2].is_ident("File")))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if direct && !renames_after(toks, i) {
            push(
                findings,
                "non-atomic-persist",
                ctx,
                t,
                format!(
                    "`{}` writes the final path in place with no rename \
                     evidence in the following {RENAME_WINDOW} tokens; a \
                     kill mid-write leaves a torn file — write through \
                     `tecopt::record::atomic_replace` (temp sibling + \
                     rename) instead",
                    t.text
                ),
            );
        }

        // Pass 2: an `OpenOptions` builder chain that creates, truncates,
        // or opens for write without `append(true)` is the same in-place
        // overwrite spelled long-hand. Append chains are exempt: ledger
        // and checkpoint item records are torn-tail-tolerant appends.
        if t.is_ident("OpenOptions") {
            let mut has_append = false;
            let mut has_writer = false;
            let mut depth = 0isize;
            for n in toks.iter().skip(i + 1).take(80) {
                if n.is_punct("(") || n.is_punct("[") || n.is_punct("{") {
                    depth += 1;
                } else if n.is_punct(")") || n.is_punct("]") || n.is_punct("}") {
                    depth -= 1;
                    if depth < 0 {
                        break; // end of the enclosing expression
                    }
                } else if depth == 0 && n.is_punct(";") {
                    break; // end of the builder statement
                } else if n.kind == TokKind::Ident {
                    match n.text.as_str() {
                        "append" => has_append = true,
                        "create" | "create_new" | "truncate" | "write" => has_writer = true,
                        _ => {}
                    }
                }
            }
            if has_writer && !has_append && !renames_after(toks, i) {
                push(
                    findings,
                    "non-atomic-persist",
                    ctx,
                    t,
                    "`OpenOptions` chain creates/truncates/writes the final \
                     path without `append(true)` and with no rename evidence \
                     nearby; a kill mid-write leaves a torn file — use \
                     `tecopt::record::atomic_replace` or a \
                     torn-tail-tolerant append"
                        .to_string(),
                );
            }
        }
    }
}

fn check_unsafe(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    for t in toks {
        if t.is_ident("unsafe") {
            push(
                findings,
                "unsafe-code",
                ctx,
                t,
                "`unsafe` outside an allowlisted module (the allowlist is \
                 empty; see DESIGN.md §11)"
                    .to_string(),
            );
        }
    }
}

const INT_TYPES: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
];

fn check_float_cast(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    // Pre-pass: identifiers with visible float evidence — an explicit
    // `: f64`/`: f32` annotation (lets, params, fields) or a direct
    // float-literal initializer. No type inference (DESIGN.md §11).
    let mut float_idents: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let ann = toks.get(i + 1).is_some_and(|n| n.is_punct(":"))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_ident("f64") || n.is_ident("f32"));
        let init = toks.get(i + 1).is_some_and(|n| n.is_punct("="))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Float);
        if ann || init {
            float_idents.push(&t.text);
        }
    }

    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("as")
            || !toks
                .get(i + 1)
                .is_some_and(|n| INT_TYPES.contains(&n.text.as_str()))
        {
            continue;
        }
        let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
            continue;
        };
        let floaty = prev.kind == TokKind::Float
            || (prev.kind == TokKind::Ident && float_idents.contains(&prev.text.as_str()));
        if floaty {
            push(
                findings,
                "float-cast-truncation",
                ctx,
                t,
                format!(
                    "float-to-`{}` `as` cast silently truncates and saturates; \
                     round explicitly and use a checked conversion",
                    toks[i + 1].text
                ),
            );
        }
    }
}

fn check_todo_markers(toks: &[Tok], ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if (t.is_ident("todo") || t.is_ident("unimplemented"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
        {
            push(
                findings,
                "todo-markers",
                ctx,
                t,
                format!("`{}!` must not reach production code", t.text),
            );
        }
    }
}
