//! # ntgd-loadgen
//!
//! Seed-deterministic workload generation for `ntgd-serve`: the request
//! streams the `servebench` benchmark sends and the server's property tests
//! replay.
//!
//! * [`spec`]: a [`WorkloadSpec`] describing program shape (chain / star /
//!   existential / disjunctive rule templates, predicate arity,
//!   constant-pool size), session count, fact-arrival distribution
//!   (uniform or zipf), `ASSERT` batch sizes, retract rate and the
//!   query/`MODELS` mix.
//! * [`generator`]: expands a spec into per-session protocol streams.
//!   Generation is **seed-deterministic**: the same spec + seed produces a
//!   byte-identical operation stream on every run, machine and thread
//!   count (`tests/determinism.rs` pins this, fingerprints included).
//!
//! [`Histogram`] is the constant-memory log-bucketed latency histogram of
//! [`ntgd_core::obs`], re-exported so a client-side quantile and a scraped
//! `METRICS` quantile come from one implementation.  The crate is std-only,
//! like the rest of the workspace (the PRNG is the vendored `rand`).

pub mod generator;
pub mod spec;

pub use generator::{generate, Operation, Verb, Workload};
pub use ntgd_core::obs::Histogram;
pub use spec::{Distribution, Family, WorkloadSpec};
