//! Fixture-driven contract tests for the lint engine: every rule is pinned
//! to exact `(rule, line, col)` findings on a small corpus under
//! `fixtures/`, and the live workspace itself must lint clean.

use std::path::Path;

use tecopt_xtask::flow::{flow_lint, EventKind};
use tecopt_xtask::rules::{lint_source, FileContext, LintOutcome, CATALOG};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn triples(out: &LintOutcome) -> Vec<(&'static str, u32, u32)> {
    out.findings
        .iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect()
}

#[test]
fn catalog_is_complete_and_unique() {
    let ids: Vec<&str> = CATALOG.iter().map(|r| r.id).collect();
    assert_eq!(
        ids,
        [
            "nan-unsafe-cmp",
            "panic-in-kernel",
            "unbounded-spawn",
            "unbounded-queue",
            "unsafe-code",
            "sleep-in-kernel",
            "unclamped-current",
            "float-cast-truncation",
            "todo-markers",
            "cholesky-factor-in-loop",
            "lock-order-inversion",
            "lock-across-blocking",
            "swallowed-result",
            "uncancelled-loop",
            "retry-without-backoff",
            "non-atomic-persist",
        ]
    );
}

/// The lock-rule profile for flow fixtures: concurrency checks on, the
/// kernel/token profiles off so `.unwrap()` etc. stay quiet.
fn locks_ctx() -> FileContext {
    FileContext {
        check_locks: true,
        ..FileContext::plain("fx")
    }
}

#[test]
fn nan_unsafe_cmp_fixture() {
    let out = lint_source(&fixture("nan_unsafe_cmp.rs"), &FileContext::plain("fx"));
    assert_eq!(
        triples(&out),
        [
            // sort_by with a raw partial_cmp comparator (the inner
            // `.unwrap()` is folded into the same finding, not doubled).
            ("nan-unsafe-cmp", 2, 7),
            // chained partial_cmp().unwrap() outside a sort combinator.
            ("nan-unsafe-cmp", 4, 21),
            // float == against a non-zero literal; == 0.0 is exempt.
            ("nan-unsafe-cmp", 6, 15),
        ]
    );
    assert_eq!(out.suppressed, 0);
}

#[test]
fn panic_in_kernel_fixture() {
    let out = lint_source(
        &fixture("panic_in_kernel.rs"),
        &FileContext::strictest("fx"),
    );
    assert_eq!(
        triples(&out),
        [
            ("panic-in-kernel", 2, 23), // .unwrap()
            ("panic-in-kernel", 3, 22), // .expect()
            ("panic-in-kernel", 5, 9),  // panic!
            ("panic-in-kernel", 7, 14), // v[0] indexing
            ("panic-in-kernel", 9, 14), // unreachable!
        ]
    );
}

#[test]
fn indexing_subcheck_is_scoped() {
    // The same source under a kernel context without the indexing
    // sub-check (the linalg profile) keeps everything but the `[` finding.
    let mut ctx = FileContext::strictest("fx");
    ctx.check_indexing = false;
    let out = lint_source(&fixture("panic_in_kernel.rs"), &ctx);
    assert_eq!(
        triples(&out),
        [
            ("panic-in-kernel", 2, 23),
            ("panic-in-kernel", 3, 22),
            ("panic-in-kernel", 5, 9),
            ("panic-in-kernel", 9, 14),
        ]
    );
}

#[test]
fn kernel_rules_do_not_fire_outside_kernels() {
    let out = lint_source(&fixture("panic_in_kernel.rs"), &FileContext::plain("fx"));
    assert_eq!(triples(&out), []);
}

#[test]
fn unbounded_spawn_fixture() {
    let out = lint_source(&fixture("unbounded_spawn.rs"), &FileContext::plain("fx"));
    assert_eq!(
        triples(&out),
        [
            ("unbounded-spawn", 1, 5),  // use std::thread;
            ("unbounded-spawn", 4, 13), // std::thread::spawn
            ("unbounded-spawn", 6, 5),  // bare thread::sleep after the use
        ]
    );

    // The sanctioned thread module is exempt wholesale.
    let mut ctx = FileContext::plain("fx");
    ctx.allow_thread = true;
    let out = lint_source(&fixture("unbounded_spawn.rs"), &ctx);
    assert_eq!(triples(&out), []);
}

#[test]
fn unbounded_queue_fixture() {
    let mut ctx = FileContext::plain("fx");
    ctx.check_queue = true;
    let out = lint_source(&fixture("unbounded_queue.rs"), &ctx);
    assert_eq!(
        triples(&out),
        [
            // the unbounded std mpsc constructor
            ("unbounded-queue", 3, 37),
            // VecDeque growth with no len/capacity guard in the window
            ("unbounded-queue", 4, 7),
            ("unbounded-queue", 5, 7),
            // `sync_channel` and the len-guarded push_back are not findings
        ]
    );
    // The justified growth on line 10 is silenced by its allow comment.
    assert_eq!(out.suppressed, 1);

    // Outside the queue scope (everywhere but crates/serve and the thread
    // module) the rule is fully off.
    let out = lint_source(&fixture("unbounded_queue.rs"), &FileContext::plain("fx"));
    assert_eq!(triples(&out), []);
}

#[test]
fn unsafe_code_fixture() {
    let out = lint_source(&fixture("unsafe_code.rs"), &FileContext::plain("fx"));
    assert_eq!(triples(&out), [("unsafe-code", 2, 5)]);

    let mut ctx = FileContext::plain("fx");
    ctx.allow_unsafe = true;
    let out = lint_source(&fixture("unsafe_code.rs"), &ctx);
    assert_eq!(triples(&out), []);
}

#[test]
fn sleep_in_kernel_fixture() {
    // Lint under the thread-module profile (sleep checked, std::thread
    // sanctioned) so the findings are the sleep rule's alone.
    let mut ctx = FileContext::plain("fx");
    ctx.check_sleep = true;
    ctx.allow_thread = true;
    let out = lint_source(&fixture("sleep_in_kernel.rs"), &ctx);
    assert_eq!(
        triples(&out),
        [
            ("sleep-in-kernel", 4, 18),  // std::thread::sleep(...)
            ("sleep-in-kernel", 5, 5),   // while ... {} busy-wait
            ("sleep-in-kernel", 6, 5),   // loop {} busy-wait
            ("sleep-in-kernel", 10, 18), // std::thread::yield_now()
        ]
    );
    // Line 12's busy-wait is silenced by the comment above it; the final
    // while loop has a real body and is not a finding at all.
    assert_eq!(out.suppressed, 1);

    // Outside the sleep scope the rule is fully off.
    let out = lint_source(&fixture("sleep_in_kernel.rs"), &FileContext::plain("fx"));
    assert!(triples(&out)
        .iter()
        .all(|(rule, _, _)| *rule != "sleep-in-kernel"));
}

#[test]
fn unclamped_current_fixture() {
    let mut ctx = FileContext::plain("fx");
    ctx.check_current_clamp = true;
    let out = lint_source(&fixture("unclamped_current.rs"), &ctx);
    assert_eq!(
        triples(&out),
        [
            // `let current = policy.next_current(...)` — no clamp in sight.
            ("unclamped-current", 2, 9),
            // `commanded*` and `*_current` shapes are covered too; the
            // clamp_command assignment on line 3, the `current_total`
            // accumulator, the non-current binding, and the `==`
            // comparison are all non-findings.
            ("unclamped-current", 4, 9),
            ("unclamped-current", 5, 9),
        ]
    );
    // Line 12's startup default is justified by its allow comment.
    assert_eq!(out.suppressed, 1);

    // Outside the transient/envelope scope the rule is fully off.
    let out = lint_source(&fixture("unclamped_current.rs"), &FileContext::plain("fx"));
    assert_eq!(triples(&out), []);
}

#[test]
fn float_cast_fixture() {
    let out = lint_source(&fixture("float_cast.rs"), &FileContext::strictest("fx"));
    assert_eq!(
        triples(&out),
        [
            // float literal cast straight to an int type.
            ("float-cast-truncation", 2, 17),
            // `: f64`-annotated identifier cast to an int type; the
            // int-literal and unannotated-identifier casts below are not
            // flagged (no visible float evidence — see DESIGN.md §11).
            ("float-cast-truncation", 3, 15),
        ]
    );
}

#[test]
fn todo_markers_fixture() {
    let out = lint_source(&fixture("todo_markers.rs"), &FileContext::plain("fx"));
    assert_eq!(
        triples(&out),
        [("todo-markers", 2, 5), ("todo-markers", 6, 5)]
    );
}

#[test]
fn cholesky_factor_in_loop_fixture() {
    let mut ctx = FileContext::plain("fx");
    ctx.check_factor_in_loop = true;
    let out = lint_source(&fixture("cholesky_factor_in_loop.rs"), &ctx);
    assert_eq!(
        triples(&out),
        [
            // for-loop and while-loop bodies refactorizing per iteration;
            // the factor after the loops and the one inside the
            // `impl Factorable for Holder` body (a `for` that heads no
            // loop) are non-findings.
            ("cholesky-factor-in-loop", 4, 17),
            ("cholesky-factor-in-loop", 8, 17),
        ]
    );
    // The justified loop-body probe on line 13 is silenced by its comment.
    assert_eq!(out.suppressed, 1);

    // Outside the core orchestration scope the rule is fully off.
    let out = lint_source(
        &fixture("cholesky_factor_in_loop.rs"),
        &FileContext::plain("fx"),
    );
    assert_eq!(triples(&out), []);
}

#[test]
fn retry_without_backoff_fixture() {
    let mut ctx = FileContext::plain("fx");
    ctx.check_retry_backoff = true;
    let out = lint_source(&fixture("retry_without_backoff.rs"), &ctx);
    assert_eq!(
        triples(&out),
        [
            // a bare `loop { connect() }` with no pacing evidence.
            ("retry-without-backoff", 3, 14),
            // a retry call in a `while` *condition* with an empty body is
            // covered too — the span starts at the loop keyword. The
            // paced `while` (backoff_duration/pause/jitter in the body)
            // and the bounded `for` probe are non-findings.
            ("retry-without-backoff", 37, 17),
        ]
    );
    // The justified hot resend loop on line 29 is silenced by its comment.
    assert_eq!(out.suppressed, 1);

    // Outside the service-layer scope the rule is fully off.
    let out = lint_source(
        &fixture("retry_without_backoff.rs"),
        &FileContext::plain("fx"),
    );
    assert_eq!(triples(&out), []);
}

#[test]
fn non_atomic_persist_fixture() {
    let mut ctx = FileContext::plain("fx");
    ctx.check_persist = true;
    let out = lint_source(&fixture("non_atomic_persist.rs"), &ctx);
    assert_eq!(
        triples(&out),
        [
            // `fs::write` straight to the final path; the rename-paired
            // write in `atomic` above it is exempt.
            ("non-atomic-persist", 11, 9),
            // `File::create` on the final path.
            ("non-atomic-persist", 15, 11),
            // an OpenOptions chain that truncates without `append(true)`;
            // the append chain in `appender` is exempt.
            ("non-atomic-persist", 19, 5),
        ]
    );
    // The justified scratch write on line 28 is silenced by its comment.
    assert_eq!(out.suppressed, 1);

    // Outside the persistence-module scope the rule is fully off.
    let out = lint_source(&fixture("non_atomic_persist.rs"), &FileContext::plain("fx"));
    assert_eq!(triples(&out), []);
}

#[test]
fn suppression_comments_silence_only_their_rule_and_lines() {
    let out = lint_source(&fixture("suppressed.rs"), &FileContext::strictest("fx"));
    // Line 3 is covered by the comment on the line above, line 4 by the
    // trailing same-line comment; line 10 names the wrong rule and stays.
    assert_eq!(triples(&out), [("panic-in-kernel", 10, 15)]);
    assert_eq!(out.suppressed, 2);
}

#[test]
fn cfg_test_items_are_skipped_and_scanning_resumes_after() {
    let out = lint_source(
        &fixture("cfg_test_skipped.rs"),
        &FileContext::strictest("fx"),
    );
    // The `#[cfg(test)]` module's NaN-unsafe sort, macro indexing, and
    // unwrap are all invisible; the item *after* the module is still
    // scanned, proving the skip consumed exactly the balanced body.
    assert_eq!(triples(&out), [("panic-in-kernel", 17, 15)]);
}

#[test]
fn severities_match_the_catalog() {
    let out = lint_source(&fixture("float_cast.rs"), &FileContext::strictest("fx"));
    assert!(out.findings.iter().all(|f| f.severity.label() == "warning"));
    let out = lint_source(&fixture("unsafe_code.rs"), &FileContext::plain("fx"));
    assert!(out.findings.iter().all(|f| f.severity.label() == "error"));
}

#[test]
fn lock_order_inversion_fixture() {
    let src = fixture("lock_order_inversion.rs");
    let out = flow_lint(&[(&src, &locks_ctx())]);
    // One finding for the a->b / b->a cycle, anchored at path 1's first
    // acquisition; `ab_again` repeats an existing edge and adds nothing.
    assert_eq!(triples(&out), [("lock-order-inversion", 12, 25)]);
    let msg = &out.findings[0].message;
    assert!(
        msg.contains("path 1: `Pair::ab` acquires `Pair::a` at fx:12:25"),
        "first chain missing: {msg}"
    );
    assert!(
        msg.contains("path 2: `Pair::ba` acquires `Pair::b` at fx:18:25"),
        "second chain missing: {msg}"
    );

    // Outside the lock scope the graph collects no in-scope witnesses.
    let out = flow_lint(&[(&src, &FileContext::plain("fx"))]);
    assert_eq!(triples(&out), []);
}

#[test]
fn lock_across_blocking_fixture() {
    let src = fixture("lock_across_blocking.rs");
    let out = flow_lint(&[(&src, &locks_ctx())]);
    assert_eq!(
        triples(&out),
        [
            // guard live across a direct `write_all`.
            ("lock-across-blocking", 13, 13),
            // guard live across a call whose callee reaches `connect`;
            // the explicit-drop and temporary-guard fns are clean.
            ("lock-across-blocking", 31, 5),
        ]
    );
    assert!(
        out.findings[1].message.contains("via pause"),
        "transitive chain missing: {}",
        out.findings[1].message
    );
    let out = flow_lint(&[(&src, &FileContext::plain("fx"))]);
    assert_eq!(triples(&out), []);
}

#[test]
fn swallowed_result_fixture() {
    let src = fixture("swallowed_result.rs");
    let out = flow_lint(&[(&src, &FileContext::plain("fx"))]);
    assert_eq!(
        triples(&out),
        [
            // `let _ =` on a workspace fn returning Result.
            ("swallowed-result", 12, 5),
            // statement-position `.ok()`; the `?`-propagating call and
            // the discarded non-Result call are clean.
            ("swallowed-result", 13, 13),
        ]
    );
}

#[test]
fn swallowed_io_result_fixture() {
    let src = fixture("swallowed_io_result.rs");
    let out = flow_lint(&[(&src, &FileContext::plain("fx"))]);
    assert_eq!(
        triples(&out),
        [
            // `let _ =` on std socket and write methods returning
            // io::Result, with no workspace fn of that name in sight.
            ("swallowed-result", 8, 5),
            ("swallowed-result", 9, 5),
            ("swallowed-result", 10, 5),
        ]
    );
    // The `flush` discard carries its allow comment.
    assert_eq!(out.suppressed, 1);
    // The rule catalog states the method list the rule checks.
    let rule = CATALOG
        .iter()
        .find(|r| r.id == "swallowed-result")
        .expect("rule in catalog");
    for method in tecopt_xtask::flow::IO_RESULT_METHODS {
        assert!(rule.summary.contains(method), "catalog omits {method}");
    }
}

#[test]
fn uncancelled_loop_fixture() {
    let src = fixture("uncancelled_loop.rs");
    let ctx = FileContext {
        check_cancellation: true,
        ..FileContext::plain("fx")
    };
    let out = flow_lint(&[(&src, &ctx)]);
    // The unconsulting `while`; the polling `loop` and the bounded `for`
    // are clean.
    assert_eq!(triples(&out), [("uncancelled-loop", 12, 5)]);
    let out = flow_lint(&[(&src, &FileContext::plain("fx"))]);
    assert_eq!(triples(&out), []);
}

/// Regression pin for the shortened `Engine::submit` critical section:
/// the dedup cache guard must stay free of nested lock acquisitions,
/// blocking calls, and the `Ticket::resolved` construction (which takes
/// the ticket's own state lock).
#[test]
fn engine_submit_cache_guard_scope_stays_tight() {
    let root = workspace_root();
    let rel = "crates/serve/src/engine.rs";
    let src = std::fs::read_to_string(root.join(rel)).expect("read engine.rs");
    let fa = tecopt_xtask::rules::analyze_source(&src, &tecopt_xtask::workspace::context_for(rel));
    let submit = fa
        .summary
        .fns
        .iter()
        .find(|f| f.qualified == "Engine::submit")
        .expect("Engine::submit summarized");
    let cache_acqs: Vec<_> = submit
        .acqs
        .iter()
        .filter(|a| a.lock == "Engine::cache")
        .collect();
    assert!(!cache_acqs.is_empty(), "submit no longer locks the cache?");
    for acq in cache_acqs {
        for ev in &acq.events {
            assert!(
                ev.kind != EventKind::Blocking
                    && ev.kind != EventKind::Lock
                    && ev.name != "resolved",
                "Engine::submit's cache critical section widened again: \
                 {:?} in scope of the guard at {}:{}",
                ev,
                acq.line,
                acq.col
            );
        }
    }
}

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn live_workspace_is_lint_clean() {
    // The tree itself must stay clean: zero findings, and exactly the
    // suppressions justified in DESIGN.md §11. If you add a suppression,
    // document it there and bump this count in the same change.
    let report = tecopt_xtask::lint_workspace(&workspace_root()).expect("workspace scan");
    let rendered = tecopt_xtask::render_human(&report);
    assert!(
        report.findings.is_empty(),
        "live workspace has lint findings:\n{rendered}"
    );
    assert!(
        report.files_scanned > 50,
        "scan looks truncated: {rendered}"
    );
    assert_eq!(
        report.suppressed, 5,
        "suppression count drifted from DESIGN.md §11:\n{rendered}"
    );
}

/// Every file under `dir`, as sorted paths relative to it.
fn tree_listing(dir: &Path) -> Vec<String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).expect("list dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root");
                out.push(rel.to_string_lossy().into_owned());
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

#[test]
fn lint_is_read_only_and_repeatable() {
    // A throwaway workspace: one member whose only source file carries
    // one `todo-markers` finding.
    let root = std::env::temp_dir().join(format!("tecopt-xtask-readonly-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let src_dir = root.join("crates").join("demo").join("src");
    std::fs::create_dir_all(&src_dir).expect("create temp workspace");
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write root manifest");
    std::fs::write(
        root.join("crates").join("demo").join("Cargo.toml"),
        "[package]\nname = \"demo\"\nversion = \"0.1.0\"\n",
    )
    .expect("write member manifest");
    std::fs::write(src_dir.join("lib.rs"), "pub fn later() {\n    todo!()\n}\n")
        .expect("write member source");
    let before = tree_listing(&root);

    let first = tecopt_xtask::lint_workspace(&root).expect("first scan");
    let second = tecopt_xtask::lint_workspace(&root).expect("second scan");
    let after = tree_listing(&root);
    let _ = std::fs::remove_dir_all(&root);

    let found: Vec<_> = first
        .findings
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line, f.col))
        .collect();
    assert_eq!(found, [("todo-markers", "crates/demo/src/lib.rs", 2, 5)]);
    assert_eq!((first.suppressed, first.files_scanned), (0, 1));
    assert_eq!(
        tecopt_xtask::render_json(&first),
        tecopt_xtask::render_json(&second),
        "a repeat lint changed its verdict"
    );
    assert_eq!(before, after, "lint wrote to the workspace tree");
}

#[test]
fn json_output_is_deterministic_and_escaped() {
    let src = "pub fn f(v: &[f64]) -> f64 { v.first().unwrap() + \"x\\\"y\".len() as f64 }\n";
    let outcome = lint_source(src, &FileContext::strictest("a\"b.rs"));
    let report = tecopt_xtask::Report {
        findings: outcome.findings,
        files_scanned: 1,
        ..Default::default()
    };
    let json = tecopt_xtask::render_json(&report);
    assert!(json.contains("\"file\": \"a\\\"b.rs\""), "{json}");
    assert!(json.contains("\"summary\""), "{json}");
    assert_eq!(json, tecopt_xtask::render_json(&report), "must be stable");
}
