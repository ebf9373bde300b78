//! `table1`: the paper's Table-I pipeline on Alpha + HC01–HC10 at 12×12.
//!
//! Timed phase: every chip's greedy deployment with default current
//! setting at the limit its Table-I row uses (the E7 "deploy + current
//! setting" time), chips in seeded order, repeated until the run's
//! seconds are spent. The rest of the pipeline is checked outside the
//! timed phase on seeded chips: the 1 °C limit-raise rule (the deployment
//! one degree below the row's limit must fail) and the full-cover
//! baseline. Library defaults throughout: `FactorStrategy::Refactor`,
//! `SolverBackend::Auto`, one thread.

use crate::common::{
    nodes_of, repeated_setup, replay_greedy, report_linalg, report_shared_layers, Replay, Rng, Run,
    Sampler,
};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{Tracer, GLUE};
use std::time::Instant;
use tecopt::{
    full_cover, greedy_deploy, optimize_current_with, runaway_limit, CoolingSystem,
    CurrentSettings, DeployOutcome, DeploySettings, FactorStrategy, TileIndex,
};
use tecopt_bench::{all_benchmarks, THETA_LIMIT};
use tecopt_units::{Amperes, Celsius};

/// Reference rows, regenerated with `tecopt-perfbench --reference`.
const REFERENCE: &str = include_str!("../reference/table1.tsv");

/// Optimal currents may differ by this much from the reference: the
/// golden-section search stops on a 1e-3 A bracket, so a change in the
/// last bits of a solve can move the reported optimum within it.
const CURRENT_TOL_A: f64 = 2e-3;
/// Peak temperatures may differ by this much from the reference.
const PEAK_TOL_C: f64 = 1e-3;

/// One reference row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    name: String,
    theta: f64,
    tiles: Vec<TileIndex>,
    i_opt: f64,
    greedy_peak: f64,
    full_cover_peak: f64,
}

fn parse_tiles(s: &str) -> Result<Vec<TileIndex>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|rc| {
            let (r, c) = rc.split_once(',').ok_or(format!("bad tile {rc:?}"))?;
            let r = r.parse().map_err(|_| format!("bad tile row {r:?}"))?;
            let c = c.parse().map_err(|_| format!("bad tile col {c:?}"))?;
            Ok(TileIndex::new(r, c))
        })
        .collect()
}

fn format_tiles(tiles: &[TileIndex]) -> String {
    if tiles.is_empty() {
        return "-".into();
    }
    let parts: Vec<String> = tiles
        .iter()
        .map(|t| format!("{},{}", t.row, t.col))
        .collect();
    parts.join(";")
}

/// Parses the reference: `name theta tecs i_opt greedy_peak
/// full_cover_peak tiles` per line, `#` comments.
pub fn parse_reference(text: &str) -> Result<Vec<Row>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 7 {
                return Err(format!("reference line has {} fields: {line}", f.len()));
            }
            let num = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number {s:?}"));
            let tiles = parse_tiles(f[6])?;
            let tecs: usize = f[2].parse().map_err(|_| format!("bad count {:?}", f[2]))?;
            if tecs != tiles.len() {
                return Err(format!("{}: {tecs} TECs but {} tiles", f[0], tiles.len()));
            }
            Ok(Row {
                name: f[0].to_string(),
                theta: num(f[1])?,
                tiles,
                i_opt: num(f[3])?,
                greedy_peak: num(f[4])?,
                full_cover_peak: num(f[5])?,
            })
        })
        .collect()
}

/// Runs the full pipeline (limit raising from 85 °C, full cover) on every
/// chip and renders the reference file.
pub fn write_reference() -> Result<String, String> {
    let chips = all_benchmarks().map_err(|e| e.to_string())?;
    let mut out = String::from(
        "# Table I reference for the table1 workload, written by `tecopt-perfbench --reference`.\n\
         # name theta_limit_C tecs i_opt_A greedy_peak_C full_cover_peak_C tiles(row,col;...)\n",
    );
    for (name, base) in &chips {
        let peak0 = base.solve(Amperes(0.0)).map_err(|e| e.to_string())?.peak();
        let mut theta = THETA_LIMIT;
        let mut outcome =
            greedy_deploy(base, DeploySettings::with_limit(theta)).map_err(|e| e.to_string())?;
        while !outcome.is_satisfied() && theta.value() < peak0.value() {
            theta = Celsius(theta.value() + 1.0);
            outcome = greedy_deploy(base, DeploySettings::with_limit(theta))
                .map_err(|e| e.to_string())?;
        }
        let d = outcome.deployment();
        let full = full_cover(base, CurrentSettings::default()).map_err(|e| e.to_string())?;
        out.push_str(&format!(
            "{name} {:?} {} {:?} {:?} {:?} {}\n",
            theta.value(),
            d.device_count(),
            current_of(&outcome),
            d.optimum().state().peak().value(),
            full.optimum().state().peak().value(),
            format_tiles(d.tiles()),
        ));
    }
    Ok(out)
}

/// The deployed current, 0 for an empty (passive) deployment.
fn current_of(outcome: &DeployOutcome) -> f64 {
    let d = outcome.deployment();
    if d.device_count() == 0 {
        0.0
    } else {
        d.optimum().current().value()
    }
}

fn check_row(report: &mut Report, row: &Row, outcome: &DeployOutcome) {
    let d = outcome.deployment();
    let peak = d.optimum().state().peak().value();
    let current = current_of(outcome);
    let ok = outcome.is_satisfied()
        && d.tiles() == row.tiles.as_slice()
        && (current - row.i_opt).abs() <= CURRENT_TOL_A
        && (peak - row.greedy_peak).abs() <= PEAK_TOL_C;
    report.check(ok, || {
        format!(
            "{}: {} TECs at {current} A, peak {peak} °C (satisfied {}); reference {} TECs at {} A, peak {} °C",
            row.name,
            d.device_count(),
            outcome.is_satisfied(),
            row.tiles.len(),
            row.i_opt,
            row.greedy_peak
        )
    });
}

/// Bit-level identity of two deployments (the same inputs must give the
/// same answer on every pass).
fn same_outcome(a: &DeployOutcome, b: &DeployOutcome) -> bool {
    let (x, y) = (a.deployment(), b.deployment());
    a.is_satisfied() == b.is_satisfied()
        && x.tiles() == y.tiles()
        && current_of(a).to_bits() == current_of(b).to_bits()
        && x.optimum().state().peak().value().to_bits()
            == y.optimum().state().peak().value().to_bits()
}

type Chips = Vec<(String, CoolingSystem)>;

/// The Alpha chip with its Table-I deployment from the reference — the
/// system the transient and serve workloads run on.
pub fn alpha_deployment() -> Result<CoolingSystem, String> {
    let rows = parse_reference(REFERENCE)?;
    let alpha = rows
        .iter()
        .find(|r| r.name == "Alpha")
        .ok_or("no Alpha row in the reference")?;
    let base = tecopt_bench::alpha_system().map_err(|e| e.to_string())?;
    base.with_tiles(&alpha.tiles).map_err(|e| e.to_string())
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let (chips, rows): (Chips, Vec<Row>) = repeated_setup(report, || {
        let chips = all_benchmarks().map_err(|e| e.to_string())?;
        let rows = parse_reference(REFERENCE)?;
        Ok((chips, rows))
    })?;
    let names: Vec<&str> = chips.iter().map(|(n, _)| n.as_str()).collect();
    let ref_names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    if names != ref_names {
        return Err(format!(
            "chips {names:?} do not match the reference {ref_names:?}"
        ));
    }
    let n = chips.len();
    let mut rng = Rng::new(run.seed, 1);
    let order = rng.permutation(n);
    let deploy = |chip: usize| {
        greedy_deploy(
            &chips[chip].1,
            DeploySettings::with_limit(Celsius(rows[chip].theta)),
        )
        .map_err(|e| format!("{}: {e}", rows[chip].name))
    };

    // Timed phase: whole passes in seeded order, at least one.
    let mut times: Vec<Sampler> = (0..n).map(|_| Sampler::default()).collect();
    let mut first: Vec<Option<DeployOutcome>> = vec![None; n];
    // The traced run times one untraced pass, the baseline of its overhead.
    let max_k = if run.trace { n } else { usize::MAX };
    let start = Instant::now();
    let mut k = 0;
    while k < n || (k < max_k && start.elapsed().as_secs_f64() < run.seconds) {
        let chip = order[k % n];
        let outcome = times[chip].time(|| deploy(chip))?;
        match &first[chip] {
            None => first[chip] = Some(outcome),
            Some(f) => report.check(same_outcome(f, &outcome), || {
                format!(
                    "{}: a repeated deployment differs from the first",
                    rows[chip].name
                )
            }),
        }
        k += 1;
    }
    let outcomes: Vec<DeployOutcome> = first.into_iter().flatten().collect();
    let per_chip: Vec<f64> = times.iter().map(Sampler::median).collect();
    let wall_s: f64 = per_chip.iter().sum();
    let wall_raw_s: f64 = times.iter().map(|t| median(&t.raw).unwrap_or(0.0)).sum();

    for (row, outcome) in rows.iter().zip(&outcomes) {
        check_row(report, row, outcome);
    }

    // The rest of the pipeline on seeded chips, outside the timed phase.
    let raised: Vec<usize> = (0..n)
        .filter(|&c| rows[c].theta > THETA_LIMIT.value())
        .collect();
    let raise_chip = raised[rng.below(raised.len())];
    let below = greedy_deploy(
        &chips[raise_chip].1,
        DeploySettings::with_limit(Celsius(rows[raise_chip].theta - 1.0)),
    )
    .map_err(|e| e.to_string())?;
    report.check(!below.is_satisfied(), || {
        format!(
            "{}: the limit {} °C is met, so the row's raised limit {} °C is not the first that works",
            rows[raise_chip].name,
            rows[raise_chip].theta - 1.0,
            rows[raise_chip].theta
        )
    });
    let cover_chip = rng.below(n);
    let mut tracer = Tracer::new(Instant::now());
    let (cover_system, cover_current, cover_probes) = if run.trace {
        traced_full_cover(&mut tracer, &chips[cover_chip].1)?
    } else {
        let full = full_cover(&chips[cover_chip].1, CurrentSettings::default())
            .map_err(|e| e.to_string())?;
        (full.system().clone(), full.optimum().current(), 0)
    };
    let full_peak = cover_system
        .solve(cover_current)
        .map_err(|e| e.to_string())?
        .peak()
        .value();
    report.check(
        (full_peak - rows[cover_chip].full_cover_peak).abs() <= PEAK_TOL_C,
        || {
            format!(
                "{}: full-cover peak {full_peak} °C, reference {}",
                rows[cover_chip].name, rows[cover_chip].full_cover_peak
            )
        },
    );
    // Swing loss = full-cover peak − greedy peak; greedy must win on average.
    let swing: f64 = rows
        .iter()
        .zip(&outcomes)
        .enumerate()
        .map(|(c, (row, o))| {
            let full = if c == cover_chip {
                full_peak
            } else {
                row.full_cover_peak
            };
            full - o.deployment().optimum().state().peak().value()
        })
        .sum::<f64>()
        / n as f64;
    report.check(swing > 0.0, || {
        format!("greedy loses to full cover on average: swing loss {swing}")
    });

    if run.trace {
        let extra = (cover_probes, nodes_of(&cover_system));
        traced(
            report,
            &mut tracer,
            &chips,
            &rows,
            &order,
            &outcomes,
            wall_s,
            extra,
        )?;
        return report_linalg(report, &cover_system, cover_current);
    }
    let slowest = (0..n)
        .max_by(|&a, &b| per_chip[a].total_cmp(&per_chip[b]))
        .unwrap_or(0);
    report.metric("wall_s", wall_s, "s");
    report.metric("wall_raw_s", wall_raw_s, "s");
    report.metric("chip_s_max", per_chip[slowest], "s");
    report.count("chip_samples", times.iter().map(|t| t.raw.len()).sum());
    eprintln!(
        "table1: pass {wall_s:.3} s; slowest chip {} {:.3} s; checked limit raise on {}, full cover on {}",
        rows[slowest].name, per_chip[slowest], rows[raise_chip].name, rows[cover_chip].name
    );
    Ok(())
}

/// The full-cover baseline through the same public calls as
/// `full_cover`, each in a span: the covered system, its optimal current
/// and the λ_m probes spent.
fn traced_full_cover(
    tracer: &mut Tracer,
    base: &CoolingSystem,
) -> Result<(CoolingSystem, Amperes, usize), String> {
    let e = |e: tecopt::OptError| e.to_string();
    tracer.span(GLUE, |t| {
        t.span("full_cover", |t| {
            let tiles: Vec<TileIndex> = base.config().grid().tiles().collect();
            let system = t.span("assembly", |_| base.with_tiles(&tiles)).map_err(e)?;
            let lim = t
                .span("lambda", |_| {
                    runaway_limit(&system, CurrentSettings::default().lambda_tolerance)
                })
                .map_err(e)?;
            let opt = t
                .span("current", |_| {
                    optimize_current_with(
                        &system,
                        CurrentSettings::default(),
                        FactorStrategy::Refactor,
                    )
                })
                .map_err(e)?;
            let current = opt.current();
            Ok((system, current, lim.probes()))
        })
    })
}

#[allow(clippy::too_many_arguments)]
fn traced(
    report: &mut Report,
    tracer: &mut Tracer,
    chips: &Chips,
    rows: &[Row],
    order: &[usize],
    outcomes: &[DeployOutcome],
    untraced_wall_s: f64,
    (cover_probes, nodes_max): (usize, usize),
) -> Result<(), String> {
    let mut replays: Vec<Option<Replay>> = (0..chips.len()).map(|_| None).collect();
    let mut pass = Sampler::default();
    pass.time(|| {
        tracer.span(GLUE, |t| -> Result<(), String> {
            for &chip in order {
                let theta = Celsius(rows[chip].theta);
                let base = &chips[chip].1;
                let replay = t.span("deploy", |t| {
                    replay_greedy(t, base, theta, FactorStrategy::Refactor)
                })?;
                replays[chip] = Some(replay);
            }
            Ok(())
        })
    })?;
    let traced_wall_s = pass.median();
    for ((replay, outcome), row) in replays.iter().flatten().zip(outcomes).zip(rows) {
        let d = outcome.deployment();
        let same = replay.satisfied == outcome.is_satisfied()
            && replay.tiles.as_slice() == d.tiles()
            && replay.current.to_bits() == current_of(outcome).to_bits()
            && replay.peak.to_bits() == d.optimum().state().peak().value().to_bits();
        report.check(same, || {
            format!("{}: the traced replay differs from greedy_deploy", row.name)
        });
    }

    let replays: Vec<&Replay> = replays.iter().flatten().collect();
    let probes: usize = replays.iter().map(|r| r.probes).sum::<usize>();
    let layers = tracer.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let current = layer("current");
    report.count("current.calls", current.calls);
    report.metric(
        "current.self_ms",
        (current.self_s - layer("lambda").self_s) * 1e3,
        "ms",
    );
    report.count(
        "current.evaluations",
        replays.iter().map(|r| r.evaluations).sum(),
    );
    report.count("deploy.calls", layer("deploy").calls);
    report.count(
        "deploy.limit_raises",
        rows.iter()
            .map(|r| (r.theta - THETA_LIMIT.value()).round() as usize)
            .sum(),
    );
    report.count(
        "deploy.iterations",
        replays.iter().map(|r| r.iterations).sum(),
    );
    report.metric("deploy.self_ms", layer("deploy").self_s * 1e3, "ms");
    report.metric("full_cover.ms", layer("full_cover").total_s * 1e3, "ms");
    report_shared_layers(
        report,
        tracer,
        probes + cover_probes,
        nodes_max,
        traced_wall_s,
        untraced_wall_s,
    );
    Ok(())
}
