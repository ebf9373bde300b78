//! `transient`: playback of a seeded Alpha phase trace on the Alpha chip
//! with its Table-I deployment, under an `EnvelopedController` around a
//! slew-limited, quantized `ProportionalController`, with the solve-site
//! guard at λ_m. Assembly, λ_m and trace generation run in set-up; the
//! timed phase is playbacks of the whole trace, each on a fresh
//! simulator, driven step by step through `TransientSimulator::step`
//! exactly as `run_schedule` drives it.

use crate::common::{nodes_of, repeated_setup, report_linalg, report_shared_layers, Run, Sampler};
use crate::report::Report;
use crate::stats::{median, nearest_rank};
use crate::trace::{Tracer, GLUE};
use std::collections::BTreeSet;
use std::time::Instant;
use tecopt::transient::{
    ProportionalController, SlewLimited, TecController, TransientSample, TransientSimulator,
};
use tecopt::{
    runaway_limit, CoolingSystem, CurrentSettings, EnvelopeSettings, EnvelopedController,
    SafetyEnvelope,
};
use tecopt_power::trace::{generate_trace, rasterize_trace, TraceSettings};
use tecopt_power::WorkloadModel;
use tecopt_units::{Amperes, Celsius, Kelvin, Watts};

/// Backward-Euler step, seconds.
const DT: f64 = 0.5;
/// Steps per playback; the schedule repeats until they are done, so
/// every seed does the same number of steps.
const STEPS: usize = 1200;
/// The controller's target peak.
const TARGET: Celsius = Celsius(70.0);
/// Proportional gain, A per K of error.
const GAIN: f64 = 2.0;
/// Slew limit and quantum of the commanded current, A, and the output
/// clamp: eight levels 0, 0.5, …, 3.5 A. Playback starts from the
/// uncooled worst-case steady state, so the controller saturates and
/// ramps through every level first: each seed factors the same eight
/// matrices, all of which fit the simulator's cache, and the rest of
/// the playback is answered by triangular solves.
const SLEW: f64 = 0.5;
const QUANTUM: f64 = 0.5;
const MAX_CURRENT: Amperes = Amperes(3.5);
/// Steps of the refactor-per-step oracle comparison.
const ORACLE_PREFIX: usize = 120;
/// Entries of the simulator's factorization cache (cleared when full).
const FACTOR_CACHE: usize = 8;

type Schedule = Vec<(f64, Vec<Watts>)>;

struct Setup {
    system: CoolingSystem,
    lambda: Amperes,
    schedule: Schedule,
    start: Vec<Kelvin>,
}

fn build(seed: u64) -> Result<Setup, String> {
    let system = crate::table1::alpha_deployment()?;
    let lambda = runaway_limit(&system, CurrentSettings::default().lambda_tolerance)
        .map_err(|e| e.to_string())?
        .lambda();
    let model = WorkloadModel::alpha_spec2000_like().map_err(|e| e.to_string())?;
    let trace =
        generate_trace(&model, seed, &TraceSettings::default()).map_err(|e| e.to_string())?;
    let schedule = rasterize_trace(&trace, system.config().grid()).map_err(|e| e.to_string())?;
    let start = system
        .solve(Amperes(0.0))
        .map_err(|e| e.to_string())?
        .node_temperatures()
        .to_vec();
    Ok(Setup {
        system,
        lambda,
        schedule,
        start,
    })
}

type Controller = EnvelopedController<SlewLimited<ProportionalController>>;

fn controller(lambda: Amperes) -> Result<Controller, String> {
    let inner = SlewLimited::new(
        ProportionalController::new(TARGET, GAIN, MAX_CURRENT),
        Amperes(SLEW),
        Amperes(QUANTUM),
    );
    let envelope =
        SafetyEnvelope::new(lambda, EnvelopeSettings::default()).map_err(|e| e.to_string())?;
    Ok(EnvelopedController::new(inner, envelope))
}

fn simulator(setup: &Setup, reuse: bool) -> Result<TransientSimulator, String> {
    let mut sim = TransientSimulator::new(setup.system.clone(), DT).map_err(|e| e.to_string())?;
    sim.set_guard(setup.lambda).map_err(|e| e.to_string())?;
    sim.start_from(&setup.start).map_err(|e| e.to_string())?;
    sim.set_factorization_reuse(reuse);
    Ok(sim)
}

/// One playback of `limit` steps of the schedule, repeated as needed. `step_hook`
/// wraps the controller call and the step (the traced run puts spans
/// there).
fn playback(
    setup: &Setup,
    reuse: bool,
    limit: usize,
    mut step_hook: impl FnMut(
        &mut dyn FnMut() -> Amperes,
        &mut dyn FnMut(Amperes) -> Result<TransientSample, String>,
    ) -> Result<TransientSample, String>,
) -> Result<(Vec<TransientSample>, TransientSimulator, Controller), String> {
    let mut sim = simulator(setup, reuse)?;
    let mut ctl = controller(setup.lambda)?;
    let mut samples = Vec::new();
    'outer: for (duration, powers) in setup.schedule.iter().cycle() {
        let steps = (duration / DT).ceil() as usize;
        for _ in 0..steps {
            if samples.len() == limit {
                break 'outer;
            }
            let peak = sim.peak();
            let mut command = || ctl.next_current(peak);
            let mut step = |i: Amperes| sim.step(powers, i).map_err(|e| e.to_string());
            samples.push(step_hook(&mut command, &mut step)?);
        }
    }
    Ok((samples, sim, ctl))
}

fn plain(
    command: &mut dyn FnMut() -> Amperes,
    step: &mut dyn FnMut(Amperes) -> Result<TransientSample, String>,
) -> Result<TransientSample, String> {
    let i = command();
    step(i)
}

fn sample_bits(s: &TransientSample) -> [u64; 4] {
    [
        s.time.to_bits(),
        s.peak.value().to_bits(),
        s.current.value().to_bits(),
        s.tec_power.value().to_bits(),
    ]
}

/// Factorizations the simulator's cache must make for `currents`: a miss
/// refactors, and a full cache is cleared before the insert.
fn cache_misses(currents: &[Amperes]) -> usize {
    let mut cache: BTreeSet<u64> = BTreeSet::new();
    let mut misses = 0;
    for i in currents {
        let key = i.value().to_bits();
        if !cache.contains(&key) {
            if cache.len() >= FACTOR_CACHE {
                cache.clear();
            }
            cache.insert(key);
            misses += 1;
        }
    }
    misses
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let setup = repeated_setup(report, || build(run.seed))?;
    let total_steps = STEPS;

    // Timed phase: whole playbacks, step latencies recorded from outside.
    let mut times = Sampler::default();
    let mut step_times = Vec::new();
    let mut first: Option<Vec<TransientSample>> = None;
    let start = Instant::now();
    while times.raw.is_empty() || (!run.trace && start.elapsed().as_secs_f64() < run.seconds) {
        let (samples, sim, ctl) = times.time(|| {
            playback(&setup, true, STEPS, |command, step| {
                let t = Instant::now();
                let out = plain(command, step);
                step_times.push(t.elapsed().as_secs_f64());
                out
            })
        })?;
        let guard = sim.guard_stats().unwrap_or_default();
        report.check(
            samples.len() == total_steps
                && guard.refused == 0
                && guard.solves_issued == total_steps as u64
                && ctl.envelope().trips() == 0,
            || {
                format!(
                    "playback: {} of {total_steps} steps, {} refused, {} trips",
                    samples.len(),
                    guard.refused,
                    ctl.envelope().trips()
                )
            },
        );
        match &first {
            None => first = Some(samples),
            Some(f) => report.check(
                f.iter()
                    .map(sample_bits)
                    .eq(samples.iter().map(sample_bits)),
                || "a repeated playback differs from the first".into(),
            ),
        }
    }
    let samples = first.ok_or("no playback ran")?;

    // The refactor-per-step oracle on a prefix, outside the timed phase.
    let (oracle, _, _) = playback(&setup, false, ORACLE_PREFIX, plain)?;
    report.check(
        oracle
            .iter()
            .map(sample_bits)
            .eq(samples.iter().take(ORACLE_PREFIX).map(sample_bits)),
        || format!("the first {ORACLE_PREFIX} steps differ from the refactor-per-step oracle"),
    );

    let currents: Vec<Amperes> = samples.iter().map(|s| s.current).collect();
    let distinct: BTreeSet<u64> = currents.iter().map(|i| i.value().to_bits()).collect();
    let wall_s = times.median();
    let peaks = samples.iter().map(|s| s.peak.value());
    let (lo, hi) = peaks.fold((f64::MAX, f64::MIN), |(a, b), p| (a.min(p), b.max(p)));
    eprintln!(
        "transient: {total_steps} steps, peak {lo:.2}..{hi:.2} °C, λm {:.3} A, {} distinct currents, {} factorizations (cache of {FACTOR_CACHE}); playback {wall_s:.3} s over {}",
        setup.lambda.value(),
        distinct.len(),
        cache_misses(&currents),
        times.raw.len()
    );
    if run.trace {
        return traced(report, &setup, &samples, wall_s);
    }
    report.metric("wall_s", wall_s, "s");
    report.metric("wall_raw_s", median(&times.raw).unwrap_or(0.0), "s");
    report.count("playbacks", times.raw.len());
    report.metric(
        "step_us_p50",
        nearest_rank(&step_times, 0.5).unwrap_or(0.0) * 1e6,
        "us",
    );
    if let Some((p, v)) = crate::stats::reportable_tail(&step_times) {
        report.metric(&format!("step_us_p{p}"), v * 1e6, "us");
    }
    report.count("step_samples", step_times.len());
    report.count("transient.distinct_currents", distinct.len());
    Ok(())
}

fn traced(
    report: &mut Report,
    setup: &Setup,
    untraced: &[TransientSample],
    untraced_wall_s: f64,
) -> Result<(), String> {
    let mut tracer = Tracer::new(Instant::now());
    // The set-up's layer calls, once more under spans.
    let probes = tracer.span(GLUE, |t| -> Result<usize, String> {
        let system = t.span("assembly", |_| crate::table1::alpha_deployment())?;
        let lim = t
            .span("lambda", |_| {
                runaway_limit(&system, CurrentSettings::default().lambda_tolerance)
            })
            .map_err(|e| e.to_string())?;
        Ok(lim.probes())
    })?;
    let mut step_spans = Vec::new();
    let mut pass = Sampler::default();
    let (samples, sim, ctl) = pass.time(|| {
        tracer.span(GLUE, |t| {
            playback(setup, true, STEPS, |command, step| {
                let i = t.span("envelope", |_| command());
                let s = Instant::now();
                let out = t.span("transient", |_| step(i));
                step_spans.push(s.elapsed().as_secs_f64());
                out
            })
        })
    })?;
    let traced_wall_s = pass.median();
    report.check(
        untraced
            .iter()
            .map(sample_bits)
            .eq(samples.iter().map(sample_bits)),
        || "the traced playback differs from the untraced one".into(),
    );
    let guard = sim.guard_stats().unwrap_or_default();
    let currents: Vec<Amperes> = samples.iter().map(|s| s.current).collect();
    let distinct: BTreeSet<u64> = currents.iter().map(|i| i.value().to_bits()).collect();
    report.count("transient.steps", samples.len());
    report.count("transient.solves_issued", guard.solves_issued as usize);
    report.count("transient.refused", guard.refused as usize);
    report.count("transient.distinct_currents", distinct.len());
    report.count("transient.factorizations", cache_misses(&currents));
    report.metric(
        "transient.step_us_p50",
        nearest_rank(&step_spans, 0.5).unwrap_or(0.0) * 1e6,
        "us",
    );
    report.metric(
        "transient.step_us_p99",
        nearest_rank(&step_spans, 0.99).unwrap_or(0.0) * 1e6,
        "us",
    );
    report.count("envelope.violations", ctl.envelope().violations_total());
    report.count("envelope.trips", ctl.envelope().trips());
    report_shared_layers(
        report,
        &tracer,
        probes,
        nodes_of(&setup.system),
        traced_wall_s,
        untraced_wall_s,
    );
    let typical =
        nearest_rank(&currents.iter().map(|i| i.value()).collect::<Vec<_>>(), 0.5).unwrap_or(0.0);
    report_linalg(report, &setup.system, Amperes(typical))
}
