//! Shared support for the experiment harness binaries.
//!
//! The `paper` binary reproduces the paper's figures and tables from the
//! corpus in `workloads::paper`; `bench_trend` gates the `BENCH_*.json`
//! records the ignored probe tests emit. This library holds what
//! they share: aligned table printing and benchmark-record emission.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod report;
