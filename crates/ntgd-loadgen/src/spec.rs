//! The declarative workload specification.
//!
//! Every field has a default ([`WorkloadSpec::default`]); callers build a
//! spec as a struct literal over `..WorkloadSpec::default()`.

/// The rule-template family a workload instantiates (see
/// [`crate::generator`] for the exact templates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Transitive-style chain joins: `p_i(X, Y), e(Y, Z, …) -> p_{i+1}(X, Z)`.
    Chain,
    /// A star join: `depth` arm predicates meeting in one `hub(X)` head.
    Star,
    /// A terminating (weakly acyclic) chain of existential hops.
    Existential,
    /// Disjunctive heads (`node(…) -> red(X) | green(X)`); exercised through
    /// `MODELS`, since disjunctive sessions have no chase to `QUERY`.
    Disjunctive,
}

/// How fact arguments are drawn from the constant pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Distribution {
    /// Every constant equally likely.
    Uniform,
    /// Zipf-distributed ranks (exponent [`WorkloadSpec::zipf_s`]): a few hot
    /// constants dominate, the shape real fact streams have.
    Zipf,
}

/// A workload specification.  Together with its
/// [`seed`](WorkloadSpec::seed) it fully determines the generated operation
/// stream, byte for byte ([`crate::generator::generate`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Label (default `workload`).
    pub name: String,
    /// Rule-template family.
    pub family: Family,
    /// Template depth: chain length, star arms, existential hops, extra
    /// disjunctive layers (default 3, ≥ 1).
    pub depth: usize,
    /// Arity of the base fact predicate (default 2, ≥ 2).
    pub arity: usize,
    /// Constant-pool size (default 64, ≥ 1): fact arguments are
    /// `c0 … c{constants-1}`.
    pub constants: usize,
    /// Facts embedded in the shared `LOAD` payload (default 24).  All
    /// sessions `LOAD` the same program text, so with the shared-base
    /// registry on they fork one chased base.
    pub initial_facts: usize,
    /// Fact-argument distribution.
    pub distribution: Distribution,
    /// Zipf exponent (default 1.1, > 0; only read with
    /// [`Distribution::Zipf`]).
    pub zipf_s: f64,
    /// Client sessions (default 2, ≥ 1).
    pub sessions: usize,
    /// Operations per session after the `LOAD` (default 32).
    pub ops: usize,
    /// Facts per `ASSERT` batch (default 4, ≥ 1).
    pub batch: usize,
    /// Probability an operation is a `RETRACT-TO` (default 0.1, in [0, 1]).
    pub retract_rate: f64,
    /// Probability an operation is a `QUERY` (default 0.25; folded into the
    /// `MODELS` share for disjunctive programs, which have no chase to
    /// query).
    pub query_rate: f64,
    /// Probability an operation is a `MODELS` request (default 0).  The
    /// remaining mass is `ASSERT`.
    pub models_rate: f64,
    /// The `max=` cap sent with every `MODELS` request (default 8, ≥ 1).
    pub models_max: usize,
    /// PRNG seed (default 42).  The same spec with the same seed reproduces
    /// the operation stream exactly.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "workload".to_owned(),
            family: Family::Chain,
            depth: 3,
            arity: 2,
            constants: 64,
            initial_facts: 24,
            distribution: Distribution::Uniform,
            zipf_s: 1.1,
            sessions: 2,
            ops: 32,
            batch: 4,
            retract_rate: 0.1,
            query_rate: 0.25,
            models_rate: 0.0,
            models_max: 8,
            seed: 42,
        }
    }
}
