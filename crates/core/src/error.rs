//! The unified error type for the factorization drivers.
//!
//! Every public entry point returns [`SrsfError`] instead of panicking on
//! bad input, so callers can distinguish configuration mistakes (empty,
//! non-finite or coincident points, nonsensical tolerances, oversized
//! process grids) from numerical failures (a singular sparsified diagonal
//! block).

use crate::elimination::FactorError;
use srsf_geometry::tree::BoxId;
use srsf_runtime::{tags, RecvError};

/// Errors raised by the factorization drivers and the [`crate::Solver`]
/// builder.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SrsfError {
    /// The point set is empty — there is nothing to factor.
    EmptyPointSet,
    /// A point has a NaN or infinite coordinate.
    NonFinitePoint {
        /// Index of the point in the input slice.
        index: usize,
    },
    /// Two points coincide (`+0.0` and `-0.0` are one coordinate): their
    /// kernel interaction is singular.
    DuplicatePoint {
        /// The lower of the two indices.
        first: usize,
        /// The higher of the two indices.
        second: usize,
    },
    /// The interpolative-decomposition tolerance must be positive and
    /// finite.
    InvalidTolerance {
        /// The offending tolerance.
        tol: f64,
    },
    /// The leaf population target must be at least 1.
    InvalidLeafSize,
    /// The colored driver needs at least one worker thread
    /// (`Driver::colored(threads)` with `threads >= 1`).
    InvalidThreadCount,
    /// An option was set that the selected driver does not support; the
    /// message names what to use instead. Raised rather than silently
    /// ignoring the option: `Solver::gather` is distributed-only, and the
    /// distributed driver refuses `resident(false)`, pointing at
    /// `Solver::gather`.
    UnsupportedOption {
        /// The option that was set.
        option: &'static str,
        /// The driver that rejects it.
        driver: &'static str,
        /// The knob to use with that driver instead.
        instead: &'static str,
    },
    /// The distributed driver needs a square power-of-two process grid,
    /// i.e. a rank count that is a power of four (1, 4, 16, …).
    InvalidProcessCount {
        /// The offending rank count.
        p: usize,
    },
    /// The process grid has more ranks than the quad-tree can feed: every
    /// rank must own at least a 2 x 2 block of leaf boxes, so that ranks
    /// of one process colour stay more than two boxes apart (Section
    /// III-B).
    GridTooLarge {
        /// Ranks in the process grid.
        p: usize,
        /// Leaf boxes in the quad-tree.
        leaf_boxes: usize,
    },
    /// The right-hand side length does not match the point count.
    RhsLength {
        /// Expected length (`N`, the number of points).
        expected: usize,
        /// Length of the supplied right-hand side.
        got: usize,
    },
    /// A sparsified diagonal block was singular — the compression
    /// tolerance is too loose for this kernel/geometry.
    SingularDiagonal {
        /// The box whose `X_RR` failed to factor.
        box_id: BoxId,
    },
    /// The dense top block was singular: the DOFs surviving above the
    /// compression levels form a rank-deficient system. Unlike
    /// [`SrsfError::SingularDiagonal`] this is a property of the whole
    /// remaining active set, not of any particular box.
    SingularTop {
        /// Dimension of the dense top block.
        size: usize,
        /// Elimination step at which the pivoted LU broke down.
        step: usize,
    },
    /// A distributed rank died (or its link went down) mid-operation.
    /// The surviving ranks observed the failure within their receive
    /// timeout and the operation was abandoned; a resident world that
    /// raises this is poisoned — it refuses further solves but still
    /// reaps its workers on drop. Recover with
    /// [`crate::Solver::restore_resident`] from a checkpoint directory.
    RankFailed {
        /// The rank that failed (as observed by the rank reporting it).
        rank: usize,
        /// The protocol step the failure was observed at, in algorithm
        /// terms: a `srsf_runtime::tags::describe` string and what went
        /// wrong in it (timed out, link lost, malformed frame), or a
        /// relayed panic message.
        step: String,
    },
    /// The resident rank world was already shut down
    /// ([`crate::Solver::shutdown`]), so its ranks can no longer be asked
    /// for their part of the factorization.
    ServiceShutDown,
    /// An on-disk checkpoint could not be written, or failed validation
    /// (bad magic/version, truncation, CRC mismatch) before any decode
    /// allocation.
    Checkpoint {
        /// Path of the offending file or directory.
        path: String,
        /// What went wrong.
        reason: String,
    },
}

impl core::fmt::Display for SrsfError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SrsfError::EmptyPointSet => write!(f, "the point set is empty"),
            SrsfError::NonFinitePoint { index } => {
                write!(f, "point {index} has a non-finite coordinate")
            }
            SrsfError::DuplicatePoint { first, second } => {
                write!(f, "points {first} and {second} coincide")
            }
            SrsfError::InvalidTolerance { tol } => {
                write!(f, "tolerance must be positive and finite, got {tol}")
            }
            SrsfError::InvalidLeafSize => write!(f, "leaf_size must be at least 1"),
            SrsfError::InvalidThreadCount => {
                write!(f, "the selected driver needs at least one worker thread")
            }
            SrsfError::UnsupportedOption {
                option,
                driver,
                instead,
            } => {
                write!(
                    f,
                    "`{option}` is not supported by the {driver} driver; use {instead} instead"
                )
            }
            SrsfError::InvalidProcessCount { p } => {
                write!(
                    f,
                    "process count must be a power of four (1, 4, 16, ...), got {p}"
                )
            }
            SrsfError::GridTooLarge { p, leaf_boxes } => write!(
                f,
                "process grid with {p} ranks is too large for {leaf_boxes} leaf boxes \
                 (every rank needs a 2x2 block of leaves)"
            ),
            SrsfError::RhsLength { expected, got } => {
                write!(f, "right-hand side has length {got}, expected {expected}")
            }
            SrsfError::SingularDiagonal { box_id } => {
                write!(f, "singular sparsified diagonal block at {box_id:?}")
            }
            SrsfError::SingularTop { size, step } => {
                write!(
                    f,
                    "singular dense top block ({size} x {size}, pivot breakdown at step {step})"
                )
            }
            SrsfError::RankFailed { rank, step } => {
                write!(f, "rank {rank} failed during {step}")
            }
            SrsfError::ServiceShutDown => write!(f, "the resident rank world was shut down"),
            SrsfError::Checkpoint { path, reason } => {
                write!(f, "checkpoint {path}: {reason}")
            }
        }
    }
}

impl std::error::Error for SrsfError {}

impl From<FactorError> for SrsfError {
    fn from(e: FactorError) -> Self {
        match e {
            FactorError::SingularDiagonal { box_id } => SrsfError::SingularDiagonal { box_id },
            FactorError::SingularTop { size, step } => SrsfError::SingularTop { size, step },
            FactorError::RankFailed { rank, step } => SrsfError::RankFailed { rank, step },
        }
    }
}

/// A transport-level receive failure: the peer waited on is the failed
/// rank, and the tag names the protocol step it was lost or late in.
impl From<RecvError> for FactorError {
    fn from(e: RecvError) -> Self {
        match e {
            RecvError::Timeout {
                src, tag, waited, ..
            } => FactorError::RankFailed {
                rank: src,
                step: format!("{}: timed out after {waited:.1?}", tags::describe(tag)),
            },
            RecvError::Disconnected { src, tag, .. } => FactorError::RankFailed {
                rank: src,
                step: format!("{}: link lost", tags::describe(tag)),
            },
            RecvError::PeerPanicked { src, message, .. } => FactorError::RankFailed {
                rank: src,
                step: format!("peer panic: {message}"),
            },
        }
    }
}

impl From<RecvError> for SrsfError {
    fn from(e: RecvError) -> Self {
        FactorError::from(e).into()
    }
}
