//! Thin-film thermoelectric cooler (TEC) device physics and thermal-network
//! stamping.
//!
//! A TEC device is a pair of dissimilar semiconductor strips connected
//! electrically in series and thermally in parallel; driving a current `i`
//! through it pumps heat from the cold side to the hot side (Peltier effect)
//! at the cost of Joule heating `r·i²` and back-conduction `κ·Δθ`
//! (Sec. III.A of the paper, Eqs. 1–3).
//!
//! - [`TecParams`] — lumped device parameters with the
//!   [`superlattice_thin_film`](TecParams::superlattice_thin_film) preset
//!   used throughout the paper's experiments,
//! - [`OperatingPoint`] and the flux/COP methods — the isolated-device
//!   relations (Eqs. 1–3),
//! - [`TecArray`] — electrical aggregation of series-connected devices
//!   behind a single package pin (Fig. 1(b)),
//! - [`StampedSystem`] — a package model with devices spliced into the TIM
//!   layer, exposing the `(G, D, p(i))` triple consumed by the optimizer.
//!
//! ```
//! use tecopt_device::{OperatingPoint, TecParams};
//! use tecopt_units::{Amperes, Kelvin};
//!
//! let tec = TecParams::superlattice_thin_film();
//! let op = OperatingPoint {
//!     current: Amperes(5.0),
//!     cold: Kelvin(350.0),
//!     hot: Kelvin(356.0),
//! };
//! let qc = tec.cold_side_flux(op);
//! let p = tec.input_power(op);
//! assert!(qc.value() > 0.0 && p.value() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

mod array;
mod error;
mod params;
mod physics;
mod stamp;

pub use array::TecArray;
pub use error::DeviceError;
pub use params::TecParams;
pub use physics::OperatingPoint;
pub use stamp::{PlacementDelta, StampedSystem};
