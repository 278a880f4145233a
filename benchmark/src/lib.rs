//! End-to-end and per-layer benchmark of momsynth.
//!
//! Four workloads drive the public APIs of `momsynth-core`,
//! `momsynth-serve` and `momsynth-gen`; every result is re-proved with
//! `momsynth-check` and held against a pinned trajectory. An untraced run
//! prints the end-to-end metrics; a traced run wraps each call the
//! benchmark makes into a layer in a span and prints the per-layer ones.
//! See `README.md` beside this crate.

pub mod calib;
pub mod manifest;
pub mod pins;
pub mod provenance;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
