//! The repo benchmark: four workloads, end-to-end metrics measured with
//! tracing off, and a separate per-layer pass that records a span around
//! every call into a layer — all from outside the `srsf_*` crates. See
//! `README.md` beside this package and `BENCHMARK.json` at the repo root.

#![forbid(unsafe_code)]

pub mod adapter;
pub mod cli;
pub mod compare;
pub mod json;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workload;
