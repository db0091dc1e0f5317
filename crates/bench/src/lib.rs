//! # gqos-bench — the experiment harness
//!
//! One binary per table/figure of the ICDCS 2009 paper (see DESIGN.md §4
//! for the index), plus the `perf_report` kernel timings. Each binary
//! prints the paper's rows/series next to the measured values and writes
//! CSV into `results/`.
//!
//! Shared here: command-line configuration, table/CSV output helpers, and
//! the paper's published reference numbers.

#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod output;
pub mod paper;

pub use config::{exit_usage, ConfigError, ExpConfig, USAGE};
pub use output::{CsvWriter, Table};
