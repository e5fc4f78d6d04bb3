//! Shared support for the experiment harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper, named after it (`fig13_*`, `table1_*`, …). This library holds the
//! common pieces: CLI parsing, wall-clock timing, and aligned table
//! printing so the binaries emit the same rows/series the paper reports.

#![forbid(unsafe_code)]

pub mod cli;
pub mod report;
pub mod timing;
