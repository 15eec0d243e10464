//! # vcoord-space
//!
//! Coordinate-space algebra for Internet coordinate systems.
//!
//! This crate provides the geometric substrate shared by the Vivaldi and NPS
//! implementations in the `vcoord` workspace:
//!
//! * [`Coord`] — a position in an embedding space: a runtime-dimension
//!   Euclidean vector optionally augmented with a *height* component
//!   (Vivaldi's height model, where the height models the access-link latency
//!   between a node and the high-speed core).
//! * [`Displacement`] — the difference between two coordinates, carrying the
//!   height-model semantics (heights *add* under subtraction).
//! * [`Space`] — the space a simulation embeds into (`Euclidean(d)` or
//!   `EuclideanHeight(d)`), with distance, direction and random-point
//!   primitives.
//! * [`simplex_downhill`] — a Nelder–Mead Simplex Downhill minimizer, the optimization
//!   engine used by GNP/NPS to embed nodes from latency measurements.
//!
//! Design notes (see `DESIGN.md` at the workspace root): dimensions are
//! runtime values rather than const generics — the workspace follows the
//! smoltcp guideline of preferring simplicity and robustness over
//! compile-time cleverness, and the evaluation sweeps dimension as an
//! experiment parameter anyway. The one exception sits behind the
//! runtime-dimension entry points: [`simplex_downhill`]'s descent kernel, and the NPS
//! fit objective it drives, are instantiated per dimension (the shared list
//! is the hidden `with_fixed_dim!`), because that is measurably where the
//! NPS fit's time went.

#![forbid(unsafe_code)]

mod coord;
mod simplex;
mod space;
pub mod vector;

pub use coord::{Coord, Displacement};
pub use simplex::{oracle, simplex_downhill, SimplexOptions, SimplexResult, SimplexScratch};
pub use space::Space;
