//! The repository benchmark: five workloads, end-to-end metrics measured
//! with tracing off, and per-layer metrics from a separate traced run that
//! times the calls into each layer's public functions from outside.
//!
//! `README.md` beside this package has the command per workload, the
//! metric tables and what each layer metric is expected to move.

#![deny(missing_docs)]

pub mod calib;
pub mod inputs;
pub mod metrics;
pub mod passes;
pub mod procfs;
pub mod repeat;
pub mod run;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;
