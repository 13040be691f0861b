//! `srsf-linalg`: dense linear-algebra substrate for the srsf solver.
//!
//! The strong recursive skeletonization factorization needs a small but
//! complete set of dense kernels over both real (`f64`) and complex
//! ([`c64`]) scalars:
//!
//! * a column-major dense matrix type [`Mat`],
//! * matrix multiplication (plain / adjoint variants) in [`gemm`],
//! * partially pivoted LU ([`lu`]) and triangular solves ([`triangular`]),
//! * a packed block `L D Lᵀ` of a symmetric matrix ([`ldlt`]),
//! * a symmetric matrix held as one packed triangle ([`sym`]),
//! * a coupling block held in `f64` or rounded to `f32` ([`coupling`]),
//! * the RHS-major panel kernels of the blocked solve sweep ([`panel`]):
//!   `panel · M` and `panel · Mᵀ`, `M` dense or packed symmetric (plus
//!   the right-sided triangular solves of the general top and of inverse
//!   formation), with the right-hand sides in the register tile and `M`
//!   streamed where it lies,
//! * Householder QR and greedy column-pivoted QR ([`qr`]),
//! * the interpolative decomposition ([`id`]) used for skeletonization,
//! * BLAS-1 style vector helpers ([`vecops`]).
//!
//! Everything is written from scratch: the Rust ecosystem's hierarchical
//! linear-algebra support is thin, and the approved dependency set for this
//! reproduction does not include a BLAS binding. The hot kernels are
//! level-3 formulations — a cache-blocked GEMM with packed operand panels
//! and a register-tiled micro-kernel, compact-WY blocked Householder QR/CPQR with
//! downdated column norms, a panel-blocked LU, and blocked triangular
//! solves — each keeping its level-2 predecessor as a `*_naive` /
//! `*_unblocked` reference oracle for the randomized agreement tests.

#![forbid(unsafe_code)]

pub mod complex;
pub mod coupling;
pub mod gemm;
pub mod id;
pub mod ldlt;
pub mod lu;
pub mod mat;
pub mod norms;
pub mod op;
pub mod panel;
pub mod qr;
pub mod rid;
pub mod scalar;
pub mod sym;
pub mod triangular;
pub mod vecops;

pub use complex::c64;
pub use coupling::{Coupling, NarrowMat};
pub use id::{interp_decomp, IdResult};
pub use ldlt::{Ldlt, LdltBreakdown, SymPanels};
pub use lu::Lu;
pub use mat::Mat;
pub use op::{relative_residual, DenseOp, LinOp};
pub use qr::{cpqr, householder_qr, Cpqr};
pub use rid::{rand_interp_decomp, RidTelemetry};
pub use scalar::Scalar;
pub use sym::SymMat;
