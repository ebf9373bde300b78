//! Ablation experiments A1–A3 (see `DESIGN.md` §5):
//!
//! - **A1** — convexity-certificate tightness vs. the number of Theorem-4
//!   sub-ranges,
//! - **A2** — deployment strategies: greedy vs. full cover vs. covering the
//!   top-K highest-power tiles,
//! - **A3** — sensitivity of the runaway limit `λ_m` and the optimum to the
//!   contact conductances `g_c`/`g_h` (the paper singles these out as
//!   "playing an important role in the thermal runaway problem").
//!
//! ```text
//! cargo run --release -p tecopt-bench --bin ablations
//! ```
//!
//! Stdout holds the deterministic tables; A1's wall-clock seconds per
//! certificate go to stderr.

#![warn(clippy::unwrap_used)]

use std::time::Instant;
use tecopt::{
    certify_convexity, greedy_deploy, optimize_current, runaway_limit, ConvexitySettings,
    CoolingSystem, CurrentSettings, DeploySettings, TileIndex,
};
use tecopt_bench::{alpha_system, paper_package, paper_tec, THETA_LIMIT};
use tecopt_units::Watts;

fn main() {
    let base = alpha_system().expect("alpha system");
    let deployed = greedy_deploy(&base, DeploySettings::with_limit(THETA_LIMIT))
        .expect("greedy")
        .deployment()
        .system()
        .clone();

    // --- A1: certificate vs sub-range count.
    println!("A1: convexity certificate vs sub-range count (Theorem 4)");
    println!("subranges,probes,certified");
    // Wall-clock seconds go to stderr: stdout holds only deterministic
    // results, so a rerun reproduces it byte for byte.
    eprintln!("A1 seconds per certificate");
    for m in [1usize, 2, 4, 8, 16, 32] {
        let t0 = Instant::now();
        let cert = certify_convexity(
            &deployed,
            ConvexitySettings {
                subranges: m,
                ..ConvexitySettings::default()
            },
        )
        .expect("certificate");
        println!("{m},{},{}", cert.probes, cert.is_certified());
        eprintln!("{m} subranges: {:.2} s", t0.elapsed().as_secs_f64());
    }

    // --- A2: deployment strategies.
    println!("\nA2: deployment strategy comparison on the Alpha benchmark");
    println!("strategy,devices,i_opt_amps,peak_celsius,p_tec_watts");
    let report = |label: &str, system: &CoolingSystem| {
        let opt = optimize_current(system, CurrentSettings::default()).expect("optimize");
        println!(
            "{label},{},{:.2},{:.2},{:.2}",
            system.device_count(),
            opt.current().value(),
            opt.state().peak().value(),
            opt.state().tec_power().value()
        );
    };
    report("greedy", &deployed);
    // Top-K densest tiles (K = greedy's device count): a natural heuristic
    // the greedy algorithm implicitly competes with.
    let k = deployed.device_count();
    let grid = base.config().grid().clone();
    let mut ranked: Vec<(TileIndex, Watts)> = grid
        .tiles()
        .zip(base.tile_powers().iter().copied())
        .collect();
    ranked.sort_by(|a, b| b.1.value().total_cmp(&a.1.value()));
    let top_k: Vec<TileIndex> = ranked.iter().take(k).map(|(t, _)| *t).collect();
    let top_k_system = base.with_tiles(&top_k).expect("top-k system");
    report("top_k_power", &top_k_system);
    let all: Vec<TileIndex> = grid.tiles().collect();
    let full = base.with_tiles(&all).expect("full cover");
    report("full_cover", &full);

    // --- A3: contact-conductance sweep.
    println!("\nA3: contact conductance sweep (g_c = g_h scaled)");
    println!("scale,g_contact_w_per_k,lambda_m_amps,i_opt_amps,peak_celsius");
    let config = paper_package().expect("package");
    let tiles = deployed.tec_tiles().to_vec();
    for scale in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let params = paper_tec().with_contact_scale(scale).expect("params");
        let g = params.cold_contact().value();
        let system = CoolingSystem::new(&config, params, &tiles, base.tile_powers().to_vec())
            .expect("system");
        let lim = runaway_limit(&system, 1e-9).expect("limit");
        let opt = optimize_current(&system, CurrentSettings::default()).expect("optimize");
        println!(
            "{scale},{g:.4},{:.2},{:.2},{:.2}",
            lim.lambda().value(),
            opt.current().value(),
            opt.state().peak().value()
        );
    }
}
