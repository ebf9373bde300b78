//! Regenerates **Figure 6** of the paper (experiment E3): `h_kl(i)` as a
//! function of the supply current — nonnegative, convex, diverging to `+∞`
//! as `i → λ_m⁻`.
//!
//! Emits a CSV with one row per sampled current and one column per tracked
//! `(k, l)` entry: the hotspot silicon node's response to heat injected at
//! its own TEC's cold and hot junctions, plus the junction self-responses.
//!
//! ```text
//! cargo run --release -p tecopt-bench --bin fig6_hkl
//! ```

#![warn(clippy::unwrap_used)]

use tecopt::{greedy_deploy, h_column, runaway_limit, DeploySettings};
use tecopt_bench::{alpha_system, THETA_LIMIT};
use tecopt_units::Amperes;

fn main() {
    let base = alpha_system().expect("alpha system");
    let outcome =
        greedy_deploy(&base, DeploySettings::with_limit(THETA_LIMIT)).expect("greedy deploy");
    let system = outcome.deployment().system().clone();
    assert!(system.device_count() > 0, "deployment has devices");
    let lim = runaway_limit(&system, 1e-11).expect("runaway limit");
    let lam = lim.feasible().value();
    eprintln!(
        "lambda_m = {:.3} A ({} bracket probes)",
        lim.lambda().value(),
        lim.probes()
    );

    // Track the hotspot tile's row of H against its own device's junctions.
    let state0 = system.solve(Amperes(0.0)).expect("solve at 0 A");
    let (k_hot_tile, _) = state0
        .silicon_temperatures()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.value().total_cmp(&b.1.value()))
        .expect("tiles");
    let k_node = system.stamped().model().silicon_nodes()[k_hot_tile].index();
    let (cold, hot) = system.stamped().junctions()[0];

    println!("i_amps,i_over_lambda,h_k_cold,h_k_hot,h_cold_cold,h_hot_hot");
    for step in 0..=40 {
        let f = match step {
            0..=35 => step as f64 / 36.0,
            36 => 0.985,
            37 => 0.992,
            38 => 0.996,
            39 => 0.998,
            _ => 0.999,
        };
        let i = Amperes(lam * f);
        let hc = h_column(&system, i, cold).expect("h column (cold)");
        let hh = h_column(&system, i, hot).expect("h column (hot)");
        println!(
            "{:.4},{:.4},{:.6e},{:.6e},{:.6e},{:.6e}",
            i.value(),
            f,
            hc[k_node],
            hh[k_node],
            hc[cold],
            hh[hot]
        );
    }
}
