//! A loopback-TCP serving benchmark for the autobatching stack, with a
//! traced replay that splits a request's cost by layer.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! starts an `IngressServer` in-process with the `IngressConfig`
//! defaults, drives it from two client connections over 127.0.0.1,
//! checks every reply against an independent oracle, and prints every
//! metric by name with its unit. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The process exits non-zero on any wrong, rejected or
//! missing reply, and on an open-loop run that fell behind its
//! schedule.
//!
//! `layers.json` next to this crate's manifest maps each layer to the
//! end-to-end metrics it should move.

pub mod alloc;
pub mod bench;
pub mod loadgen;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod workload;
