//! Quickstart: design an active cooling system for a small chip with one
//! hotspot, in under a page of code.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tecopt::report::{deployment_map, solver_diagnostics};
use tecopt::{greedy_deploy, CoolingSystem, DeploySettings, OptError, PackageConfig, TecParams};
use tecopt_units::{Amperes, Celsius, Watts};

fn main() -> Result<(), OptError> {
    // 1. Describe the package: an 8x8 grid of 0.5 mm tiles on a
    //    HotSpot-4.1-class stack (die / TIM / copper spreader / sink / fan).
    let config = PackageConfig::hotspot41_like(8, 8)?;

    // 2. Worst-case power per tile: a quiet die with a strong hotspot
    //    cluster in the middle.
    let mut powers = vec![Watts(0.10); 64];
    for tile in [27usize, 28, 35, 36] {
        powers[tile] = Watts(0.55);
    }

    // 3. Build the system with the super-lattice thin-film TEC technology.
    let base =
        CoolingSystem::without_devices(&config, TecParams::superlattice_thin_film(), powers)?;
    let uncooled = base.solve(Amperes(0.0))?;
    println!("uncooled peak: {:.2}", uncooled.peak());

    // 4. Ask the optimizer to keep the die 3 °C cooler than that.
    let limit = Celsius(uncooled.peak().value() - 3.0);
    let outcome = greedy_deploy(&base, DeploySettings::with_limit(limit))?;
    let d = outcome.deployment();
    println!(
        "deployment: {} TEC devices at {:.2} (limit {:.1}, satisfied: {})",
        d.device_count(),
        d.optimum().current(),
        limit,
        outcome.is_satisfied(),
    );
    println!(
        "cooled peak: {:.2}  (swing {:.2}, TEC power {:.2})",
        d.optimum().state().peak(),
        d.cooling_swing(),
        d.optimum().state().tec_power(),
    );
    println!("solver: {}", solver_diagnostics(d.system()));
    println!("\ncovered tiles (# = TEC):\n");
    print!("{}", deployment_map(config.grid(), d.tiles()));
    Ok(())
}
