//! CLI for the workspace lint pass: `cargo run -p tecopt-xtask -- lint`.
//!
//! Exit codes: `0` clean, `1` findings, `2` internal error (bad usage,
//! unreadable manifest, I/O failure).

#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use std::path::PathBuf;
use std::process::ExitCode;

use tecopt_xtask::rules::CATALOG;

const USAGE: &str = "\
Usage: cargo run -p tecopt-xtask -- <command> [options]

Commands:
  lint   Run the numerical-safety & concurrency static-analysis pass
         over every workspace file; writes nothing
  rules  Print the rule catalog

Options:
  --format <human|json|sarif>  Output format (default: human)
  --root <dir>                 Workspace root (default: nearest ancestor
                               with a [workspace] Cargo.toml)
  --baseline <file>            Fail only on findings not fingerprinted in
                               <file>; grandfathered ones are tracked
  --update-baseline <file>     Write the current findings to <file> and
                               exit 0
";

struct Args {
    command: String,
    format: Format,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    update_baseline: Option<PathBuf>,
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Format {
    Human,
    Json,
    Sarif,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(|| USAGE.to_string())?;
    let mut args = Args {
        command,
        format: Format::Human,
        root: None,
        baseline: None,
        update_baseline: None,
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--format" => {
                args.format = match argv.next().as_deref() {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!(
                            "--format expects `human`, `json`, or `sarif`, got {other:?}\n{USAGE}"
                        ))
                    }
                };
            }
            "--root" => {
                args.root =
                    Some(PathBuf::from(argv.next().ok_or_else(|| {
                        format!("--root expects a directory\n{USAGE}")
                    })?));
            }
            "--baseline" => {
                args.baseline =
                    Some(PathBuf::from(argv.next().ok_or_else(|| {
                        format!("--baseline expects a file\n{USAGE}")
                    })?));
            }
            "--update-baseline" => {
                args.update_baseline =
                    Some(PathBuf::from(argv.next().ok_or_else(|| {
                        format!("--update-baseline expects a file\n{USAGE}")
                    })?));
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Nearest ancestor of the current directory whose `Cargo.toml` declares a
/// `[workspace]`.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no ancestor directory with a [workspace] Cargo.toml".to_string());
        }
    }
}

fn run_lint(args: &Args) -> Result<ExitCode, String> {
    let root = match &args.root {
        Some(r) => r.clone(),
        None => find_root()?,
    };
    let report = tecopt_xtask::lint_workspace(&root)?;

    if let Some(path) = &args.update_baseline {
        std::fs::write(path, tecopt_xtask::render_baseline(&report))
            .map_err(|e| format!("cannot write baseline {}: {e}", path.display()))?;
        println!(
            "tecopt-xtask lint: baseline updated with {} finding(s) -> {}",
            report.findings.len(),
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let (shown, failing, note) = match &args.baseline {
        Some(path) => {
            let set = tecopt_xtask::load_baseline(path)?;
            let check = tecopt_xtask::apply_baseline(&report, &set);
            let note = format!(
                "baseline {}: {} grandfathered, {} stale\n",
                path.display(),
                check.grandfathered,
                check.stale
            );
            let failing = !check.fresh.is_empty();
            let shown = tecopt_xtask::Report {
                findings: check.fresh,
                files_scanned: report.files_scanned,
                suppressed: report.suppressed,
            };
            (shown, failing, note)
        }
        None => {
            let failing = !report.findings.is_empty();
            (report, failing, String::new())
        }
    };

    match args.format {
        Format::Human => print!("{}{}", tecopt_xtask::render_human(&shown), note),
        Format::Json => print!("{}", tecopt_xtask::render_json(&shown)),
        Format::Sarif => print!("{}", tecopt_xtask::render_sarif(&shown)),
    }
    if failing {
        Ok(ExitCode::from(1))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    match args.command.as_str() {
        "lint" => run_lint(&args),
        "rules" => {
            for r in CATALOG {
                match args.format {
                    Format::Human => {
                        println!("{} [{}]", r.id, r.severity.label());
                        println!("  scope: {}", r.scope);
                        println!("  {}", r.summary);
                    }
                    _ => println!(
                        "{{\"id\": \"{}\", \"severity\": \"{}\"}}",
                        r.id,
                        r.severity.label()
                    ),
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("tecopt-xtask: {msg}");
            ExitCode::from(2)
        }
    }
}
