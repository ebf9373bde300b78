//! The tecopt benchmark: four seeded workloads, each timed end to end and,
//! in a separate traced run, split by layer. See `README.md` beside this
//! crate for the workloads, the metrics and what each one should move.
//!
//! ```text
//! tecopt-perfbench --workload <table1|explore|transient|serve> --seed <n>
//!                  --seconds <s> --trace <0|1> [--workdir <dir>]
//! tecopt-perfbench --reference     # regenerate reference/table1.tsv
//! ```
//!
//! Human-readable notes go to stderr; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and every metric.

mod common;
mod explore;
mod report;
mod serve;
mod stats;
mod table1;
mod trace;
mod transient;

use common::Run;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: tecopt-perfbench --workload <table1|explore|transient|serve> --seed <n> \
         --seconds <s> --trace <0|1> [--workdir <dir>]\n       tecopt-perfbench --reference"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--calibrate") {
        let mut t: Vec<f64> = (0..200).map(|_| common::reference_kernel_s()).collect();
        t.sort_by(f64::total_cmp);
        println!(
            "min {:.6} p10 {:.6} p50 {:.6} p90 {:.6}",
            t[0], t[20], t[100], t[180]
        );
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--reference") {
        return match table1::write_reference() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut workdir = std::env::temp_dir();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--workdir" => workdir = PathBuf::from(value),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let run = Run {
        seed,
        seconds,
        trace,
        workdir,
    };
    let mut report = Report::default();
    let outcome = match workload.as_str() {
        "table1" => table1::run(&run, &mut report),
        "explore" => explore::run(&run, &mut report),
        "transient" => transient::run(&run, &mut report),
        "serve" => serve::run(&run, &mut report),
        _ => return usage(),
    };
    if let Err(e) = outcome {
        report.problem(format!("workload aborted: {e}"));
    }
    if !trace {
        report.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
        report.metric("error_ratio", report.error_ratio(), "ratio");
    }
    for p in report.problems() {
        eprintln!("FAILED: {p}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
