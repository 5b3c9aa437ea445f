//! The repository's benchmark: host cost of the simulator on three live
//! workloads, with every modelled result checked in every pass. See
//! `README.md` beside this package for the workloads and metrics.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload rt-locks --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! with the end-to-end metrics under `--trace 0` and the per-layer split
//! under `--trace 1`. Progress and failures go to standard error.

pub mod bench;
pub mod cells;
pub mod host;
pub mod layers;
