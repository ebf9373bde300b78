//! Workspace discovery: which files get linted, under which context.
//!
//! Members come from the root `Cargo.toml` (`[workspace] members`, with
//! single-component `*` globs expanded). Per-file rule scoping lives in
//! [`context_for`]; the policy decisions it encodes (which modules are
//! kernels, where indexing is idiomatic, where threads are sanctioned)
//! are documented in `DESIGN.md` §11.

use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::FileContext;

/// Core-crate files designated as numerical hot paths: `panic-in-kernel`
/// and `float-cast-truncation` apply, including the indexing sub-check.
const KERNEL_CORE_FILES: &[&str] = &[
    "crates/core/src/system.rs",
    "crates/core/src/runaway.rs",
    "crates/core/src/convexity.rs",
    "crates/core/src/lambda.rs",
];

/// Trust-boundary parsers: they read bytes from peers and files, so a
/// panicking path there is a remote crash. `panic-in-kernel` applies,
/// including the indexing sub-check, but not the numeric kernel rules.
const PARSER_FILES: &[&str] = &[
    "crates/serve/src/wire.rs",
    "crates/core/src/record.rs",
    "crates/power/src/hotspot_io.rs",
];

/// Prefix of the dense/sparse linear-algebra kernels. Panicking calls are
/// flagged; the `[]` indexing sub-check is exempt here — bounds-checked
/// slice indexing against constructor-established dimensions is the core
/// idiom of the dense kernels (DESIGN.md §11).
const LINALG_PREFIX: &str = "crates/linalg/src/";

/// The one module allowed to touch `std::thread`.
const THREAD_MODULE: &str = "crates/core/src/parallel.rs";

/// Prefix of the service layer: every queue here must be bounded
/// (`unbounded-queue`), or admission control is a fiction.
const QUEUE_PREFIX: &str = "crates/serve/src/";

/// Modules allowed to contain `unsafe`. Currently empty: every crate also
/// carries `#![forbid(unsafe_code)]`, so the two layers agree.
const UNSAFE_ALLOWLIST: &[&str] = &[];

/// Files where every assignment to a commanded-current identifier must
/// show clamping evidence (`unclamped-current`): the transient simulator
/// and the safety envelope itself.
const CURRENT_CLAMP_FILES: &[&str] = &[
    "crates/core/src/transient.rs",
    "crates/core/src/envelope.rs",
];

/// Prefix where `cholesky-factor-in-loop` applies: the orchestration
/// layer, whose loops should drive the placement factor (through
/// `SteadySolver`) rather than refactorize per iteration.
const FACTOR_LOOP_PREFIX: &str = "crates/core/src/";

/// Core files whose shared state participates in the service-layer lock
/// graph: the flow-aware lock rules report findings here as well as in
/// the service layer itself (the graph is always built workspace-wide).
const LOCK_CORE_FILES: &[&str] = &[
    "crates/core/src/parallel.rs",
    "crates/core/src/record.rs",
    "crates/core/src/supervise.rs",
    "crates/core/src/system.rs",
];

/// Files whose `RunContext`-taking functions drive long-running sweeps:
/// `uncancelled-loop` applies.
const CANCELLATION_FILES: &[&str] = &[
    "crates/core/src/convexity.rs",
    "crates/core/src/deploy.rs",
    "crates/core/src/multipin.rs",
    "crates/core/src/runaway.rs",
    "crates/core/src/supervise.rs",
    "crates/core/src/transient.rs",
    "crates/serve/src/engine.rs",
];

/// Durable-persistence modules: every whole-file write to a final path
/// must show rename evidence (`non-atomic-persist`), or a crash mid-write
/// leaves a torn ledger/checkpoint. The record module that owns every
/// durable write, and its three consumers: the sweep checkpoints, the
/// transient playback checkpoints, and the explorer's work ledger.
const PERSIST_FILES: &[&str] = &[
    "crates/core/src/record.rs",
    "crates/core/src/supervise.rs",
    "crates/core/src/transient.rs",
    "crates/explore/src/ledger.rs",
];

/// Directory names never descended into below a member's `src/`.
const SKIP_DIRS: &[&str] = &["tests", "fixtures", "benches", "examples", "target"];

/// Member path prefixes excluded from linting: the `shims/` crates are
/// vendored stand-ins for crates.io dependencies, not project code.
const SKIP_MEMBER_PREFIXES: &[&str] = &["shims/"];

/// Derives the per-file rule configuration from a repo-relative path.
pub fn context_for(rel: &str) -> FileContext {
    let kernel = rel.starts_with(LINALG_PREFIX) || KERNEL_CORE_FILES.contains(&rel);
    let parser = PARSER_FILES.contains(&rel);
    FileContext {
        path: rel.to_string(),
        kernel,
        check_panics: kernel || parser,
        check_indexing: (kernel && !rel.starts_with(LINALG_PREFIX)) || parser,
        // Sleeps and busy-waits are banned from the hot paths *and* from
        // the sanctioned thread module: its fork/join workers sit between
        // the supervisor's cancellation checks.
        check_sleep: kernel || rel == THREAD_MODULE,
        allow_thread: rel == THREAD_MODULE,
        allow_unsafe: UNSAFE_ALLOWLIST.contains(&rel),
        // Queues grown in the service layer or inside the thread module's
        // work distribution must stay visibly bounded.
        check_queue: rel.starts_with(QUEUE_PREFIX) || rel == THREAD_MODULE,
        check_current_clamp: CURRENT_CLAMP_FILES.contains(&rel),
        // Repeated O(n³) refactorization is the cost profile the placement
        // factor exists to avoid; the linalg crate itself factors in loops
        // legitimately (bisection probes, factorizer tests).
        check_factor_in_loop: rel.starts_with(FACTOR_LOOP_PREFIX),
        check_locks: rel.starts_with(QUEUE_PREFIX) || LOCK_CORE_FILES.contains(&rel),
        check_cancellation: CANCELLATION_FILES.contains(&rel),
        // Every service-layer retry loop must pace itself; a reconnect
        // storm against a refusing peer is a self-inflicted outage.
        check_retry_backoff: rel.starts_with(QUEUE_PREFIX),
        // Durable writers must be atomic (temp-file+rename) or appends
        // whose torn tails the loaders tolerate.
        check_persist: PERSIST_FILES.contains(&rel),
    }
}

/// Every `.rs` file the lint pass covers, as `(absolute path, repo-relative
/// display path)`, deterministically ordered.
pub fn workspace_files(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let manifest = root.join("Cargo.toml");
    let toml = fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let mut member_dirs = expand_members(root, &parse_members(&toml)?)?;
    if toml.contains("[package]") {
        // The root manifest also defines a package (the umbrella crate).
        member_dirs.push(root.to_path_buf());
    }

    let mut files = Vec::new();
    for dir in member_dirs {
        let rel_dir = dir
            .strip_prefix(root)
            .unwrap_or(&dir)
            .to_string_lossy()
            .replace('\\', "/");
        if SKIP_MEMBER_PREFIXES
            .iter()
            .any(|p| rel_dir.starts_with(p.trim_end_matches('/')))
        {
            continue;
        }
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }

    let mut out: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            (p, rel)
        })
        .collect();
    out.sort_by(|a, b| a.1.cmp(&b.1));
    out.dedup_by(|a, b| a.1 == b.1);
    Ok(out)
}

/// Extracts the `members` array of the `[workspace]` table. Minimal,
/// format-tolerant scan: no TOML dependency is available offline.
fn parse_members(toml: &str) -> Result<Vec<String>, String> {
    let start = toml
        .find("members")
        .ok_or_else(|| "no `members` key in root Cargo.toml".to_string())?;
    let after = &toml[start..];
    let open = after
        .find('[')
        .ok_or_else(|| "malformed `members` array".to_string())?;
    let close = after[open..]
        .find(']')
        .ok_or_else(|| "unterminated `members` array".to_string())?;
    let body = &after[open + 1..open + close];
    Ok(body
        .split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty() && !s.starts_with('#'))
        .collect())
}

/// Expands member entries; a trailing `/*` component lists every child
/// directory containing a `Cargo.toml`.
fn expand_members(root: &Path, members: &[String]) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    for m in members {
        if let Some(prefix) = m.strip_suffix("/*") {
            let dir = root.join(prefix);
            let entries =
                fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
                let path = entry.path();
                if path.is_dir() && path.join("Cargo.toml").is_file() {
                    out.push(path);
                }
            }
        } else {
            out.push(root.join(m));
        }
    }
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, skipping [`SKIP_DIRS`].
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry: {e}"))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_globs_parse() {
        let members =
            parse_members("[workspace]\nmembers = [\"crates/*\", \"shims/*\"]\n").unwrap();
        assert_eq!(members, vec!["crates/*", "shims/*"]);
    }

    #[test]
    fn kernel_scoping() {
        let c = context_for("crates/linalg/src/cholesky.rs");
        assert!(c.kernel && !c.check_indexing);
        let c = context_for("crates/core/src/convexity.rs");
        assert!(c.kernel && c.check_indexing);
        let c = context_for("crates/core/src/designer.rs");
        assert!(!c.kernel && !c.check_panics);
        // Trust-boundary parsers: panics and indexing, no kernel rules.
        for parser in [
            "crates/serve/src/wire.rs",
            "crates/core/src/record.rs",
            "crates/power/src/hotspot_io.rs",
        ] {
            let c = context_for(parser);
            assert!(c.check_panics && c.check_indexing, "{parser}");
            assert!(!c.kernel && !c.check_sleep, "{parser}");
        }
        assert!(!context_for("crates/serve/src/server.rs").check_panics);
        assert!(!context_for("crates/power/src/floorplan.rs").check_panics);
        assert!(context_for("crates/core/src/parallel.rs").allow_thread);
        assert!(!context_for("crates/core/src/runaway.rs").allow_thread);
        // Sleep scoping: hot paths and the thread module, nothing else.
        assert!(context_for("crates/core/src/parallel.rs").check_sleep);
        assert!(context_for("crates/linalg/src/cg.rs").check_sleep);
        assert!(context_for("crates/core/src/runaway.rs").check_sleep);
        assert!(!context_for("crates/core/src/designer.rs").check_sleep);
        // Queue-bounding scoping: the service layer and the thread module.
        assert!(context_for("crates/serve/src/queue.rs").check_queue);
        assert!(context_for("crates/serve/src/engine.rs").check_queue);
        assert!(context_for("crates/core/src/parallel.rs").check_queue);
        assert!(!context_for("crates/core/src/designer.rs").check_queue);
        assert!(!context_for("crates/linalg/src/cholesky.rs").check_queue);
        // Current-clamp scoping: transient playback and the envelope only.
        assert!(context_for("crates/core/src/transient.rs").check_current_clamp);
        assert!(context_for("crates/core/src/envelope.rs").check_current_clamp);
        assert!(!context_for("crates/core/src/current.rs").check_current_clamp);
        assert!(!context_for("crates/serve/src/engine.rs").check_current_clamp);
        // Factor-in-loop scoping: the core orchestration layer only.
        assert!(context_for("crates/core/src/deploy.rs").check_factor_in_loop);
        assert!(context_for("crates/core/src/system.rs").check_factor_in_loop);
        assert!(!context_for("crates/linalg/src/cholesky.rs").check_factor_in_loop);
        assert!(!context_for("crates/serve/src/engine.rs").check_factor_in_loop);
        // Lock-rule scoping: the service layer plus the shared-state core
        // modules; the graph itself is still built workspace-wide.
        assert!(context_for("crates/serve/src/queue.rs").check_locks);
        assert!(context_for("crates/serve/src/server.rs").check_locks);
        assert!(context_for("crates/core/src/supervise.rs").check_locks);
        assert!(context_for("crates/core/src/record.rs").check_locks);
        assert!(context_for("crates/core/src/system.rs").check_locks);
        assert!(!context_for("crates/core/src/designer.rs").check_locks);
        assert!(!context_for("crates/linalg/src/cholesky.rs").check_locks);
        // Cancellation scoping: supervised sweep kernels and the engine.
        assert!(context_for("crates/core/src/runaway.rs").check_cancellation);
        assert!(context_for("crates/serve/src/engine.rs").check_cancellation);
        assert!(!context_for("crates/serve/src/server.rs").check_cancellation);
        assert!(!context_for("crates/core/src/designer.rs").check_cancellation);
        // Retry-pacing scoping: the service layer only.
        assert!(context_for("crates/serve/src/client.rs").check_retry_backoff);
        assert!(context_for("crates/serve/src/router.rs").check_retry_backoff);
        assert!(!context_for("crates/core/src/parallel.rs").check_retry_backoff);
        assert!(!context_for("crates/core/src/designer.rs").check_retry_backoff);
        // Persist scoping: the durable ledger/checkpoint modules only.
        assert!(context_for("crates/core/src/record.rs").check_persist);
        assert!(context_for("crates/core/src/supervise.rs").check_persist);
        assert!(context_for("crates/core/src/transient.rs").check_persist);
        assert!(context_for("crates/explore/src/ledger.rs").check_persist);
        assert!(!context_for("crates/explore/src/engine.rs").check_persist);
        assert!(!context_for("crates/serve/src/engine.rs").check_persist);
        assert!(!context_for("crates/core/src/designer.rs").check_persist);
    }
}
