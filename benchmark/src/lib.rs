//! # ildp-benchmark — the repository benchmark
//!
//! Measures the DBT end to end (guest throughput, run time, CPU per
//! guest instruction, set-up time, peak memory) on four workloads that
//! stress different layers, checks every run against an independent
//! reference interpreter, and in a traced run breaks the cost down per
//! layer. See `README.md` beside this crate for workloads, metrics and
//! how to read the trace.

#![forbid(unsafe_code)]

pub mod bench;
pub mod gen;
pub mod host;
pub mod oracle;
pub mod trace;
pub mod workload;
