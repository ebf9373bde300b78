//! `explore`: `Explorer::explore` on the Alpha system over a seeded
//! thickness × contact × placement grid, default `RankKUpdate` strategy,
//! a fresh durable ledger per sweep, `tecopt::parallel` at `nproc`
//! workers.
//!
//! The grid has one contact level the analytical first cut prunes, two it
//! admits, and fixed tile masks next to `Placement::Greedy`, so pruned
//! and evaluated candidates, mask evaluations and greedy deployments all
//! occur. The seed jitters every scale by up to ±3 % (keeping each level
//! on its side of the prune) and draws the masks from the hottest tiles.

use crate::common::{
    lambda_search, nodes_of, repeated_setup, replay_greedy, report_linalg, report_shared_layers,
    Rng, Run, Sampler,
};
use crate::report::Report;
use crate::stats::median;
use crate::trace::{Tracer, GLUE};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;
use tecopt::parallel::worker_count;
use tecopt::{optimize_current_with, CoolingSystem, RunContext, TecParams, TileIndex};
use tecopt_explore::{
    Candidate, CandidateEval, CandidateFailure, DesignSpace, ExploreReport, ExploreSettings,
    Explorer, Ledger, ParetoPoint, Placement,
};
use tecopt_units::{Amperes, Celsius};

/// The temperature limit of the space: the Alpha row's limit in Table I.
const THETA: Celsius = Celsius(87.0);
/// Base levels of the two scale axes; the seed jitters each by ±3 %.
/// The first cut prunes every contact-0.01 design (its bound is at most
/// 0.6× the required drop, at any thickness) and admits the others
/// (at least 12×), so the jitter never moves a candidate across it.
const THICKNESS: [f64; 4] = [0.5, 0.75, 1.0, 2.0];
const CONTACT: [f64; 3] = [0.01, 1.0, 2.0];
/// Fixed masks per grid, each of `MASK_TILES` tiles drawn from the
/// `MASK_POOL` hottest tiles of the passive chip.
const MASKS: usize = 3;
const MASK_TILES: usize = 4;
const MASK_POOL: usize = 16;
/// The hot-side temperature the engine's first-cut bound assumes.
const FIRST_CUT_HOT_SIDE_K: f64 = 350.0;

struct Setup {
    system: CoolingSystem,
    space: DesignSpace,
}

fn build(seed: u64) -> Result<Setup, String> {
    let system = tecopt_bench::alpha_system().map_err(|e| e.to_string())?;
    let passive = system.solve(Amperes(0.0)).map_err(|e| e.to_string())?;
    let mut hottest: Vec<(f64, TileIndex)> = system
        .config()
        .grid()
        .tiles()
        .zip(passive.silicon_temperatures())
        .map(|(t, c)| (c.value(), t))
        .collect();
    hottest.sort_by(|a, b| b.0.total_cmp(&a.0));
    let pool: Vec<TileIndex> = hottest.iter().take(MASK_POOL).map(|&(_, t)| t).collect();
    let mut rng = Rng::new(seed, 2);
    let mut jitter = |levels: &[f64]| -> Vec<f64> {
        levels
            .iter()
            .map(|v| v * (1.0 + 0.06 * (rng.unit() - 0.5)))
            .collect()
    };
    let thickness = jitter(&THICKNESS);
    let contact = jitter(&CONTACT);
    let mut placements: Vec<Placement> = (0..MASKS)
        .map(|_| {
            let mut tiles: Vec<TileIndex> = rng
                .permutation(pool.len())
                .into_iter()
                .take(MASK_TILES)
                .map(|k| pool[k])
                .collect();
            tiles.sort_unstable();
            Placement::Tiles(tiles)
        })
        .collect();
    placements.push(Placement::Greedy);
    let space =
        DesignSpace::new(thickness, contact, placements, THETA).map_err(|e| e.to_string())?;
    Ok(Setup { system, space })
}

fn ledger_path(dir: &Path, seed: u64, rep: usize) -> PathBuf {
    dir.join(format!(
        "explore-{seed}-{}-{rep}.ledger",
        std::process::id()
    ))
}

/// One sweep against a fresh ledger; the ledger file is returned for
/// inspection and must be removed by the caller.
fn sweep(explorer: &Explorer, path: &Path) -> Result<ExploreReport, String> {
    let _ = std::fs::remove_file(path);
    let ctx = RunContext::unbounded().checkpoint(path);
    explorer.explore(&ctx).map_err(|e| e.to_string())
}

fn front_bits(front: &[ParetoPoint]) -> Vec<(u64, u64, u64, u64)> {
    front
        .iter()
        .map(|p| {
            (
                p.id(),
                p.current().value().to_bits(),
                p.peak().value().to_bits(),
                p.tec_power().value().to_bits(),
            )
        })
        .collect()
}

/// The checks every sweep must pass: a non-dominated front in canonical
/// order (peak ascending, power strictly descending), nothing
/// quarantined, and exactly one settled ledger record per candidate.
fn check_sweep(report: &mut Report, space: &DesignSpace, rep: &ExploreReport, ledger: &Path) {
    let front = &rep.front;
    let non_dominated = front.iter().all(|p| front.iter().all(|q| !q.dominates(p)));
    let canonical = front.windows(2).all(|w| {
        w[0].peak().value() <= w[1].peak().value()
            && w[0].tec_power().value() > w[1].tec_power().value()
    });
    report.check(non_dominated && canonical && !front.is_empty(), || {
        format!(
            "front of {} points is dominated, empty or out of order",
            front.len()
        )
    });
    report.check(rep.quarantined.is_empty(), || {
        format!("{} candidates quarantined", rep.quarantined.len())
    });
    let mut settled: BTreeMap<u64, usize> = BTreeMap::new();
    let text = std::fs::read_to_string(ledger).unwrap_or_default();
    for line in text.lines() {
        let mut f = line.split_whitespace();
        if matches!(f.next(), Some("done" | "quar")) {
            if let Some(id) = f.next().and_then(|h| u64::from_str_radix(h, 16).ok()) {
                *settled.entry(id).or_default() += 1;
            }
        }
    }
    let ids: Vec<u64> = space.candidates().iter().map(|c| c.id).collect();
    let exact = settled.len() == ids.len() && ids.iter().all(|id| settled.get(id) == Some(&1));
    report.check(exact, || {
        format!(
            "ledger settles {} ids for {} candidates",
            settled.len(),
            ids.len()
        )
    });
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let setup = repeated_setup(report, || build(run.seed))?;
    let explorer = Explorer::new(
        &setup.system,
        setup.space.clone(),
        ExploreSettings::default(),
    );
    std::fs::create_dir_all(&run.workdir).map_err(|e| e.to_string())?;

    let mut first: Option<ExploreReport> = None;
    let mut times = Sampler::default();
    let start = Instant::now();
    while times.raw.is_empty() || (!run.trace && start.elapsed().as_secs_f64() < run.seconds) {
        let path = ledger_path(&run.workdir, run.seed, times.raw.len());
        let rep = times.time(|| sweep(&explorer, &path))?;
        check_sweep(report, &setup.space, &rep, &path);
        match &first {
            None => first = Some(rep),
            Some(f) => report.check(
                front_bits(&f.front) == front_bits(&rep.front) && f.evaluated == rep.evaluated,
                || "a repeated sweep differs from the first".into(),
            ),
        }
        if !run.trace {
            let _ = std::fs::remove_file(&path);
        }
    }
    let rep = first.ok_or("no sweep ran")?;
    let wall_s = times.median();
    let candidates = setup.space.len();
    eprintln!(
        "explore: {candidates} candidates, {} evaluated, {} pruned, {} front points; sweep {wall_s:.3} s over {} sweeps",
        rep.evaluated,
        rep.pruned,
        rep.front.len(),
        times.raw.len()
    );
    if run.trace {
        let path = ledger_path(&run.workdir, run.seed, 0);
        let raw_wall_s = median(&times.raw).unwrap_or(0.0);
        let out = traced(
            report,
            run,
            &setup,
            &explorer,
            &rep,
            (wall_s, raw_wall_s),
            &path,
        );
        let _ = std::fs::remove_file(&path);
        return out;
    }
    report.metric("wall_s", wall_s, "s");
    report.metric("wall_raw_s", median(&times.raw).unwrap_or(0.0), "s");
    report.count("sweeps", times.raw.len());
    report.metric(
        "explore.pruned_share",
        rep.pruned as f64 / candidates as f64,
        "ratio",
    );
    Ok(())
}

/// What the traced run keeps from one candidate evaluation.
#[derive(Default)]
struct Seen {
    probes: usize,
    /// The evaluated device and placement, to rebuild the sweep's largest
    /// system for the linear-algebra probe.
    design: Option<(TecParams, Vec<TileIndex>, Amperes)>,
}

/// `Explorer::explore`'s evaluation of one candidate, through the same
/// public calls, each in a span.
fn eval_traced(
    t: &mut Tracer,
    system: &CoolingSystem,
    theta: Celsius,
    cand: &Candidate,
    seen: &mut Seen,
) -> Result<CandidateEval, String> {
    let settings = ExploreSettings::default();
    let params = system.stamped().params();
    let scaled = cand.scaled_params(params).map_err(|e| e.to_string())?;
    let config = system.config();
    let powers = system.tile_powers().to_vec();
    match &cand.placement {
        Placement::Tiles(tiles) => {
            let sys = t
                .span("assembly", |_| {
                    CoolingSystem::new(config, scaled.clone(), tiles, powers)
                })
                .map_err(|e| e.to_string())?;
            let lim = t
                .span("lambda", |_| lambda_search(&sys, settings.strategy))
                .map_err(|e| e.to_string())?;
            seen.probes += lim.probes();
            let opt = t
                .span("current", |_| {
                    optimize_current_with(&sys, settings.current, settings.strategy)
                })
                .map_err(|e| e.to_string())?;
            seen.design = Some((scaled, tiles.clone(), opt.current()));
            Ok(CandidateEval {
                feasible: opt.state().peak().value() <= theta.value(),
                devices: tiles.len(),
                current: opt.current(),
                peak: opt.state().peak(),
                tec_power: opt.state().tec_power(),
                evaluations: opt.evaluations(),
            })
        }
        Placement::Greedy => {
            let base = t
                .span("assembly", |_| {
                    CoolingSystem::new(config, scaled.clone(), &[], powers)
                })
                .map_err(|e| e.to_string())?;
            let r = t.span("deploy", |t| {
                replay_greedy(t, &base, theta, settings.strategy)
            })?;
            seen.probes += r.probes;
            seen.design = Some((scaled, r.tiles.clone(), Amperes(r.current)));
            Ok(CandidateEval {
                feasible: r.satisfied,
                devices: r.tiles.len(),
                current: Amperes(r.current),
                peak: Celsius(r.peak),
                tec_power: tecopt_units::Watts(r.tec_power),
                evaluations: r.evaluations,
            })
        }
    }
}

fn traced(
    report: &mut Report,
    run: &Run,
    setup: &Setup,
    explorer: &Explorer,
    untraced: &ExploreReport,
    (untraced_wall_s, untraced_raw_wall_s): (f64, f64),
    untraced_ledger: &Path,
) -> Result<(), String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let workers: Mutex<Vec<(Tracer, f64, Seen)>> = Mutex::new(Vec::new());
    let theta = setup.space.theta_limit();
    let params = setup.system.stamped().params().clone();
    let passive_peak = setup
        .system
        .solve(Amperes(0.0))
        .map_err(|e| e.to_string())?
        .peak()
        .value();
    let required_drop = passive_peak - theta.value();
    // The engine's analytical first cut, restated from its public inputs.
    let prune = |cand: &Candidate| -> bool {
        let Ok(s) = cand.scaled_params(&params) else {
            return false;
        };
        let (c, h) = (s.cold_contact().value(), s.hot_contact().value());
        let series = c * h / (c + h);
        let derate = series / (series + s.conductance().value());
        let first_cut = 0.5 * s.figure_of_merit_z() * FIRST_CUT_HOT_SIDE_K.powi(2) * derate;
        required_drop > 0.0 && first_cut.is_finite() && first_cut < required_drop
    };
    let eval = |cand: &Candidate| -> Result<CandidateEval, CandidateFailure> {
        let mut t = Tracer::new(origin);
        let mut seen = Seen::default();
        let start = Instant::now();
        let out = t.span("candidate", |t| {
            eval_traced(t, &setup.system, theta, cand, &mut seen)
        });
        let took = start.elapsed().as_secs_f64();
        workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((t, took, seen));
        out.map_err(|e| CandidateFailure {
            error: tecopt::OptError::InvalidParameter(e),
            partial: None,
        })
    };
    let path = ledger_path(&run.workdir, run.seed, 1);
    let _ = std::fs::remove_file(&path);
    let ctx = RunContext::unbounded().checkpoint(&path);
    let mut pass = Sampler::default();
    let rep = pass
        .time(|| {
            tracer.span(GLUE, |t| {
                t.span("explore", |_| explorer.explore_with(&ctx, eval, prune))
            })
        })
        .map_err(|e| e.to_string());
    let traced_wall_s = pass.median();
    let _ = std::fs::remove_file(&path);
    let rep = rep?;
    report.check(
        front_bits(&rep.front) == front_bits(&untraced.front)
            && rep.evaluated == untraced.evaluated
            && rep.pruned == untraced.pruned,
        || "the traced sweep differs from Explorer::explore".into(),
    );

    // Ledger: size of the untraced sweep's ledger and the time to replay it.
    let bytes = std::fs::metadata(untraced_ledger)
        .map(|m| m.len())
        .unwrap_or(0);
    let text = std::fs::read_to_string(untraced_ledger).unwrap_or_default();
    let records = text.lines().skip(4).count();
    let (_, state) = tracer
        .span(GLUE, |t| {
            t.span("ledger", |_| {
                Ledger::open(untraced_ledger, explorer.fingerprint(), setup.space.len())
            })
        })
        .map_err(|e| e.to_string())?;
    report.check(state.settled_count() == setup.space.len(), || {
        format!(
            "ledger replay settles {} of {}",
            state.settled_count(),
            setup.space.len()
        )
    });

    let mut eval_times = Vec::new();
    let mut probes = 0;
    let mut largest: Option<(TecParams, Vec<TileIndex>, Amperes)> = None;
    for (t, took, seen) in workers
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
    {
        tracer.absorb(t);
        eval_times.push(took);
        probes += seen.probes;
        if let Some(d) = seen.design {
            if largest.as_ref().is_none_or(|l| d.1.len() > l.1.len()) {
                largest = Some(d);
            }
        }
    }
    let layers = tracer.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let candidates = setup.space.len();
    let workers_n = worker_count();
    report.count("explore.candidates", candidates);
    report.count("explore.evaluated", rep.evaluated);
    report.count("explore.pruned", rep.pruned);
    report.metric(
        "explore.pruned_share",
        rep.pruned as f64 / candidates as f64,
        "ratio",
    );
    report.count("explore.quarantined", rep.quarantined.len());
    report.count("explore.front_points", rep.front.len());
    report.metric(
        "explore.eval_ms_p50",
        median(&eval_times).unwrap_or(0.0) * 1e3,
        "ms",
    );
    report.count("ledger.records", records);
    report.count("ledger.bytes", bytes as usize);
    report.metric("ledger.replay_ms", layer("ledger").total_s * 1e3, "ms");
    report.count("parallel.workers", workers_n);
    // The traced evaluations ran λ_m once more beside each current
    // search; that extra time is not part of the untraced sweep.
    let serial_s = eval_times.iter().sum::<f64>() - layer("lambda").total_s;
    report.metric(
        "parallel.efficiency",
        serial_s / (untraced_raw_wall_s * workers_n as f64),
        "ratio",
    );
    report.count("current.calls", layer("current").calls);
    report.metric(
        "current.self_ms",
        (layer("current").self_s - layer("lambda").self_s) * 1e3,
        "ms",
    );
    report.count("deploy.calls", layer("deploy").calls);
    report.metric("deploy.self_ms", layer("deploy").self_s * 1e3, "ms");
    let (params, tiles, current) = largest.ok_or("no evaluation to probe the linear algebra on")?;
    let system = CoolingSystem::new(
        setup.system.config(),
        params,
        &tiles,
        setup.system.tile_powers().to_vec(),
    )
    .map_err(|e| e.to_string())?;
    report_shared_layers(
        report,
        &tracer,
        probes,
        nodes_of(&system),
        traced_wall_s,
        untraced_wall_s,
    );
    report_linalg(report, &system, current)
}
