//! # ntgd-loadgen
//!
//! Spec-driven workload generation and a latency-SLO load harness for
//! `ntgd-serve` — the measurement side of the ROADMAP's "production scale"
//! goal.  Three layers, each usable on its own:
//!
//! * [`spec`]: a declarative [`WorkloadSpec`] parsed
//!   from a `key = value` file (format reference:
//!   `docs/WORKLOAD_SPEC.md`) describing program shape (chain / star /
//!   existential / disjunctive rule templates, predicate arity,
//!   constant-pool size), session count, fact-arrival distribution
//!   (uniform or zipf), `ASSERT` batch sizes, retract rate and the
//!   query/`MODELS` mix.  Malformed specs are rejected with line and field
//!   diagnostics.
//! * [`generator`]: expands a spec into per-session protocol streams.
//!   Generation is **seed-deterministic**: the same spec + seed produces a
//!   byte-identical operation stream on every run, machine and thread
//!   count, so any report is replayable from its spec alone
//!   (`tests/determinism.rs` pins this, fingerprint included).
//! * [`driver`] + [`report`]: N client threads over real TCP against an
//!   in-process or external `ntgd-serve`, per-request latencies in
//!   constant-memory log-bucketed [`histogram::Histogram`]s, and a
//!   per-verb throughput/p50/p90/p99/max report rendered to
//!   `BENCH_server.json` — the same `"name"`/`"speedup"` row format
//!   `bench_gate` (in `ntgd-bench`) already guards, plus `--slo` rules
//!   (`p99=5ms`, `assert:max=50ms`) with a non-zero exit for CI.
//!
//! The `ntgd-load` binary ties the layers together; `ntgd-load --help`
//! and `docs/OPERATIONS.md` document the flags.  The crate is std-only,
//! like the rest of the workspace (the PRNG is the vendored `rand`).

pub mod driver;
pub mod generator;
pub mod histogram;
pub mod report;
pub mod spec;

pub use driver::{
    fetch_server_metrics, fetch_server_requests, run, spawn_server, LoadServer, ServerMode,
    ServerVerbSample,
};
pub use generator::{generate, Operation, Verb, Workload};
pub use histogram::Histogram;
pub use report::{
    render_json, speedups, RunReport, ServerSpeedups, ServerVerbReport, SloRule, VerbReport,
};
pub use spec::{Distribution, Family, SpecError, WorkloadSpec};
