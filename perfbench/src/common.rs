//! What every workload shares: the run parameters, the seeded input
//! generator, repeated set-up, and the layer metrics every traced run
//! reports (assembly, λ_m search, linear algebra, tracing overhead).

use crate::report::Report;
use crate::stats::median;
use crate::trace::{coverage, Tracer};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;
use tecopt::{
    optimize_current_with, runaway_limit, runaway_limit_fast, CoolingSystem, CurrentSettings,
    FactorStrategy, OptError, RunawayLimit, TileIndex,
};
use tecopt_linalg::{
    Cholesky, DiagonalUpdate, FactoredSystem, SolveMethod, SolverBackend, UpdatableFactor,
};
use tecopt_units::{Amperes, Celsius};

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Parameters of one benchmark run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed phase measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Scratch directory for files the workload writes.
    pub workdir: PathBuf,
}

/// SplitMix64: a small, fixed, dependency-free generator, so the same
/// seed gives the same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-purpose `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// Runs `setup` once untimed, then [`SETUP_REPEATS`] times under a
/// [`Sampler`]; reports the median normalized time of all of those as
/// `setup_s` (and the raw median as `setup_raw_s`), and keeps the last
/// result. The untimed run takes the first-touch page faults of a fresh
/// heap, whose cost depends on the allocator's state rather than on the
/// set-up's work. All samples, not the calmest: a set-up is short, and
/// the reference kernel's calm says little about it.
pub fn repeated_setup<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    setup()?;
    let mut sampler = Sampler::default();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        last = Some(sampler.time(&mut setup)?);
    }
    report.metric("setup_s", sampler.median_of_calmest(SETUP_REPEATS), "s");
    report.metric("setup_raw_s", median(&sampler.raw).unwrap_or(0.0), "s");
    last.ok_or_else(|| "set-up never ran".to_string())
}

/// What [`reference_kernel_s`] takes on the machine `README.md`
/// describes ("Noise") when its host does not slow it down.
pub const REFERENCE_NOMINAL_S: f64 = 0.034;

/// Timing samples, each taken between two runs of the reference kernel.
///
/// A sample's normalized time is its raw time scaled by how much slower
/// than nominal the kernel ran around it: "seconds at the reference
/// speed". The host's slow bursts are often shorter than a sample, so
/// the kernel next to a sample does not always see the slowdown the
/// sample saw; the samples whose slower neighbouring kernel run was
/// fastest are the calmest and the most trustworthy. [`Sampler::median`]
/// is the median normalized time of the calmest third.
#[derive(Debug, Default)]
pub struct Sampler {
    /// Raw wall times, seconds.
    pub raw: Vec<f64>,
    /// Reference-kernel times before and after each sample.
    around: Vec<(f64, f64)>,
}

impl Sampler {
    /// Times `f` as one sample.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = reference_kernel_s();
        let start = Instant::now();
        let out = f();
        let took = start.elapsed().as_secs_f64();
        let after = reference_kernel_s();
        self.raw.push(took);
        self.around.push((before, after));
        out
    }

    /// The median normalized time of the calmest third of the samples
    /// (at least one), 0 with no samples.
    pub fn median(&self) -> f64 {
        self.median_of_calmest(self.raw.len().div_ceil(3))
    }

    /// The median normalized time of the `keep` calmest samples.
    pub fn median_of_calmest(&self, keep: usize) -> f64 {
        let mut samples: Vec<(f64, f64)> = self
            .raw
            .iter()
            .zip(&self.around)
            .map(|(t, &(b, a))| (b.max(a), t * REFERENCE_NOMINAL_S / (0.5 * (b + a))))
            .collect();
        samples.sort_by(|x, y| x.0.total_cmp(&y.0));
        let calmest: Vec<f64> = samples
            .iter()
            .take(keep.max(1))
            .map(|&(_, norm)| norm)
            .collect();
        median(&calmest).unwrap_or(0.0)
    }
}

/// Dimension of the reference kernel's matrix and the triangular solve
/// pairs it runs after factoring it.
const REFERENCE_N: usize = 576;
const REFERENCE_SOLVES: usize = 96;

/// Times one fixed reference computation that shares no code with the
/// repository: a dense Cholesky factorization of a fixed 576×576
/// diagonally dominant matrix (2.6 MB, more than one core's L2, like the
/// workloads' 532–676-node systems) followed by 96 forward and backward
/// substitutions with the factor — the two operations the workloads
/// spend their time in. The machine this runs on changes speed by tens
/// of percent within seconds (see `README.md`, "Noise"); this kernel
/// slows down with it.
pub fn reference_kernel_s() -> f64 {
    let n = REFERENCE_N;
    let mut a: Vec<f64> = (0..n * n)
        .map(|k| {
            let (i, j) = (k / n, k % n);
            if i == j {
                n as f64
            } else {
                1.0 / (1.0 + (i + j) as f64)
            }
        })
        .collect();
    let mut x = vec![0.0; n];
    let start = Instant::now();
    for j in 0..n {
        let mut d = a[j * n + j];
        for k in 0..j {
            d -= a[j * n + k] * a[j * n + k];
        }
        let d = d.sqrt();
        a[j * n + j] = d;
        for i in j + 1..n {
            let mut v = a[i * n + j];
            for k in 0..j {
                v -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = v / d;
        }
    }
    for _ in 0..REFERENCE_SOLVES {
        x.fill(1.0);
        for i in 0..n {
            let row = &a[i * n..i * n + i];
            let v = x[i] - row.iter().zip(&x[..i]).map(|(l, y)| l * y).sum::<f64>();
            x[i] = v / a[i * n + i];
        }
        for i in (0..n).rev() {
            x[i] /= a[i * n + i];
            let xi = x[i];
            for (y, l) in x[..i].iter_mut().zip(&a[i * n..i * n + i]) {
                *y -= l * xi;
            }
        }
        std::hint::black_box(&x);
    }
    std::hint::black_box(&a);
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reports the layer metrics every traced workload shares, from its
/// spans: assembly and λ_m counts and self times, the traced wall time,
/// the tracing overhead against `untraced_wall_s`, and the share of the
/// traced wall time the layer spans account for.
pub fn report_shared_layers(
    report: &mut Report,
    tracer: &Tracer,
    lambda_probes: usize,
    nodes_max: usize,
    traced_wall_s: f64,
    untraced_wall_s: f64,
) {
    let layers = tracer.layers();
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let assembly = layer("assembly");
    report.count("assembly.calls", assembly.calls);
    report.metric("assembly.ms", assembly.self_s * 1e3, "ms");
    report.count("assembly.nodes_max", nodes_max);
    let lambda = layer("lambda");
    report.count("lambda.calls", lambda.calls);
    report.metric("lambda.ms", lambda.self_s * 1e3, "ms");
    report.count("lambda.probes", lambda_probes);
    report.metric(
        "lambda.ms_per_probe",
        lambda.self_s * 1e3 / lambda_probes.max(1) as f64,
        "ms",
    );
    report.metric("trace.wall_s", traced_wall_s, "s");
    report.metric("trace.overhead_s", traced_wall_s - untraced_wall_s, "s");
    let cover = coverage(tracer.spans());
    report.metric("trace.coverage", cover, "ratio");
    report.check(cover >= COVERAGE_MIN, || {
        format!("layer spans cover only {cover:.3} of the traced wall time")
    });
    for (name, t) in &layers {
        eprintln!(
            "  layer {name:<12} calls {:>7}  self {:>10.3} ms  total {:>10.3} ms",
            t.calls,
            t.self_s * 1e3,
            t.total_s * 1e3
        );
    }
}

/// The share of the traced wall time the layer spans must account for:
/// the benchmark's own glue between calls may take at most 5 %.
pub const COVERAGE_MIN: f64 = 0.95;

/// Largest node count among `systems`.
pub fn nodes_of(system: &CoolingSystem) -> usize {
    system.stamped().model().node_count()
}

/// Times the linear-algebra kernels on `system`'s matrix `G − i·D`
/// (the workload's largest) and reports `linalg.*`: dense factor and
/// triangular solve, the `Auto` backend's choice and its CG solve, and a
/// rank-k diagonal update of the `i = 0` factor plus one solve.
pub fn report_linalg(
    report: &mut Report,
    system: &CoolingSystem,
    current: Amperes,
) -> Result<(), String> {
    const REPS: usize = 5;
    let err = |e: &dyn std::fmt::Display| format!("linalg probe: {e}");
    let stamped = system.stamped();
    let a = stamped.system_matrix(current).map_err(|e| err(&e))?;
    let n = a.rows();
    let b: Vec<f64> = (0..n).map(|k| 1.0 + (k % 7) as f64).collect();

    let mut factor = Vec::new();
    let mut solve = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let c = Cholesky::factor(&a).map_err(|e| err(&e))?;
        factor.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(c.solve(&b).map_err(|e| err(&e))?);
        solve.push(t.elapsed().as_secs_f64());
    }
    report.metric(
        "linalg.factor_ms",
        median(&factor).unwrap_or(0.0) * 1e3,
        "ms",
    );
    report.metric("linalg.solve_us", median(&solve).unwrap_or(0.0) * 1e6, "us");

    let auto = FactoredSystem::factor_auto(&a, SolverBackend::Auto).map_err(|e| err(&e))?;
    let is_cg = auto.method() == SolveMethod::SparseCg;
    report.count("linalg.auto_cg", usize::from(is_cg));
    let cg = FactoredSystem::factor_auto(&a, SolverBackend::SparseCg(Default::default()))
        .map_err(|e| err(&e))?;
    let mut cg_times = Vec::new();
    let mut iters = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let s = cg.solve(&b).map_err(|e| err(&e))?;
        cg_times.push(t.elapsed().as_secs_f64());
        iters = s.iterations;
    }
    report.count("linalg.cg_iters", iters);
    report.metric("linalg.cg_ms", median(&cg_times).unwrap_or(0.0) * 1e3, "ms");

    // Rank-k: the i = 0 factor updated to `current` on the device nodes.
    let g0 = stamped.system_matrix(Amperes(0.0)).map_err(|e| err(&e))?;
    let d = stamped.d_diagonal();
    let nodes: Vec<usize> = (0..d.len()).filter(|&k| d[k] != 0.0).collect();
    let base = UpdatableFactor::new(Cholesky::factor(&g0).map_err(|e| err(&e))?, &nodes)
        .map_err(|e| err(&e))?;
    let update = DiagonalUpdate::new(nodes.iter().map(|&k| (k, -current.value() * d[k])))
        .map_err(|e| err(&e))?;
    let mut upd = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let applied = base.apply(&update).map_err(|e| err(&e))?;
        std::hint::black_box(applied.solve(&b).map_err(|e| err(&e))?);
        upd.push(t.elapsed().as_secs_f64());
    }
    report.metric("linalg.update_us", median(&upd).unwrap_or(0.0) * 1e6, "us");
    eprintln!(
        "  linalg on n = {n}: factor {:.2} ms, solve {:.1} us, auto {}, cg {} iters",
        median(&factor).unwrap_or(0.0) * 1e3,
        median(&solve).unwrap_or(0.0) * 1e6,
        if is_cg { "CG" } else { "dense" },
        iters
    );
    Ok(())
}

/// What one traced greedy replay found.
pub struct Replay {
    pub tiles: Vec<TileIndex>,
    pub current: f64,
    pub peak: f64,
    pub satisfied: bool,
    pub iterations: usize,
    pub evaluations: usize,
    pub probes: usize,
    pub tec_power: f64,
}

/// `greedy_deploy`'s loop, replayed through the same public calls with a
/// span around each. The λ_m search inside `optimize_current_with` is
/// not visible from outside, so it is run once more beside it and
/// subtracted: `current.self_ms` is the current span minus that λ_m span.
/// The λ_m search runs the way `optimize_current_with` runs it under
/// `strategy`.
pub fn replay_greedy(
    t: &mut Tracer,
    base: &CoolingSystem,
    theta: Celsius,
    strategy: FactorStrategy,
) -> Result<Replay, String> {
    let e = |e: tecopt::OptError| e.to_string();
    let passive = t.span("assembly", |_| base.with_tiles(&[])).map_err(e)?;
    let state0 = t
        .span("linalg", |_| passive.solve(Amperes(0.0)))
        .map_err(e)?;
    let mut hot = passive.tiles_above(&state0, theta);
    let mut out = Replay {
        tiles: Vec::new(),
        current: 0.0,
        peak: state0.peak().value(),
        satisfied: hot.is_empty(),
        tec_power: 0.0,
        iterations: 0,
        evaluations: 0,
        probes: 0,
    };
    let mut covered: BTreeSet<TileIndex> = BTreeSet::new();
    while !hot.is_empty() {
        covered.extend(hot.iter().copied());
        let tiles: Vec<TileIndex> = covered.iter().copied().collect();
        let system = t.span("assembly", |_| base.with_tiles(&tiles)).map_err(e)?;
        let lim = t
            .span("lambda", |_| lambda_search(&system, strategy))
            .map_err(e)?;
        let opt = t
            .span("current", |_| {
                optimize_current_with(&system, CurrentSettings::default(), strategy)
            })
            .map_err(e)?;
        out.iterations += 1;
        out.evaluations += opt.evaluations();
        out.probes += lim.probes();
        out.tiles = tiles;
        out.current = opt.current().value();
        out.peak = opt.state().peak().value();
        out.tec_power = opt.state().tec_power().value();
        hot = system.tiles_above(opt.state(), theta);
        out.satisfied = hot.is_empty();
        if hot.iter().all(|h| covered.contains(h)) {
            break;
        }
    }
    Ok(out)
}

/// The λ_m search `optimize_current_with` runs under `strategy`.
pub fn lambda_search(
    system: &CoolingSystem,
    strategy: FactorStrategy,
) -> Result<RunawayLimit, OptError> {
    let tol = CurrentSettings::default().lambda_tolerance;
    match strategy {
        FactorStrategy::Refactor => runaway_limit(system, tol),
        FactorStrategy::RankKUpdate => runaway_limit_fast(system, tol),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_permutes() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
        let mut p = Rng::new(3, 0).permutation(11);
        p.sort_unstable();
        assert_eq!(p, (0..11).collect::<Vec<_>>());
    }
}
