//! # comimo-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation (Section 6). Each artefact has a binary
//! (`cargo run --release -p comimo-bench --bin <name>`) that prints the
//! same rows/series the paper reports: `fig6`, `fig7`, `table1`,
//! `table2`, `table3`, `table4`, `fig8`.
//!
//! The runner functions in this library return structured data so the
//! binaries and the integration tests share one code path. The perf bins
//! (`mcperf`, `netperf`) share their timing and trajectory plumbing
//! through [`perf`].

pub mod perf;
pub mod runners;
pub mod tables;

pub use runners::*;
pub use tables::render_table;
