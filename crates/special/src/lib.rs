//! `srsf-special`: special functions and quadrature for the srsf solver.
//!
//! * [`bessel`] — double-precision Bessel functions `J0, J1, Y0, Y1` and the
//!   Hankel function `H0^(1)` needed by the 2-D Helmholtz kernel (Eq. 19 of
//!   the paper), one argument at a time or over a slice: fixed-length
//!   ascending series and Hankel asymptotic expansions, validated against
//!   high-precision reference values and the Wronskian identity.
//! * [`log`] — the natural logarithm over a slice, one vectorised lane
//!   formula (what the Laplace kernel's column evaluation ends in).
//! * [`gauss`] — Gauss–Legendre rules with runtime node computation (no
//!   tabulated magic constants).
//! * [`quad`] — adaptive 1-D quadrature and a nested adaptive `dblquad`
//!   equivalent (the paper evaluates its singular diagonal entries with
//!   `MultiQuad.jl`'s `dblquad`).
//! * [`singular`] — self-interaction integrals for the collocation diagonal:
//!   the closed-form log integral for Laplace (Eq. 17) and a
//!   singularity-subtracted evaluation of the Helmholtz diagonal (Eq. 21).

#![forbid(unsafe_code)]

pub mod bessel;
pub mod gauss;
pub mod log;
pub mod quad;
pub mod singular;

pub use bessel::{hankel0_1, hankel0_1_slice, j0, j1, y0, y1};
pub use gauss::GaussLegendre;
pub use log::{ln, ln_slice};
pub use quad::dblquad;
pub use singular::{helmholtz_self_integral, laplace_log_self_integral};
