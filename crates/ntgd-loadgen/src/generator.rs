//! Seed-deterministic operation-stream generation.
//!
//! [`generate`] turns a [`WorkloadSpec`] into one shared `LOAD` payload plus
//! a per-session list of protocol lines.  The expansion is a pure function
//! of the spec and its seed: the program text is derived from a PRNG seeded
//! with `mix(seed, PROGRAM)`, and session `i`'s stream from `mix(seed, i)`,
//! so streams never depend on thread count, scheduling, or each other —
//! replaying a spec + seed reproduces every byte ([`Workload::render`] is
//! what the determinism tests compare).
//!
//! Every session `LOAD`s the **same** program text.  That is deliberate:
//! with the shared-base registry on, session 2..n fork the chased base of
//! session 1, which is exactly the server behaviour a load test should
//! exercise.

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::spec::{Distribution, Family, WorkloadSpec};

/// The protocol verb of one generated operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    /// `LOAD …`
    Load,
    /// `ASSERT …`
    Assert,
    /// `QUERY …`
    Query,
    /// `MODELS …`
    Models,
    /// `RETRACT-TO …`
    Retract,
}

/// One generated protocol line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Operation {
    /// The verb (report bucket).
    pub verb: Verb,
    /// The full request line, ready to send.
    pub line: String,
}

/// A fully expanded workload: the shared `LOAD` line plus each session's
/// operation stream (the `LOAD` is `ops[0]` of every session).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Workload {
    /// Per-session operation streams, index = session id.
    pub sessions: Vec<Vec<Operation>>,
}

impl Workload {
    /// Renders the whole workload as one byte-stable text block (one line
    /// per operation, prefixed with the session id).  Two generations of the
    /// same spec + seed must render identically — this is the determinism
    /// witness asserted by `tests/determinism.rs`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (session, ops) in self.sessions.iter().enumerate() {
            for op in ops {
                out.push_str(&format!("{session} {}\n", op.line));
            }
        }
        out
    }

    /// 64-bit FNV-1a hash of [`Workload::render`] — a compact fingerprint
    /// for pinning a committed spec + seed to its exact stream.
    pub fn fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.render().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

/// Splitmix-style seed derivation, so per-session generators are
/// independent of each other and of the program generator.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The PRNG stream id of the program/`LOAD` generator (sessions use their
/// own index, which is always < 2^32).
const PROGRAM_STREAM: u64 = 0xffff_ffff_0000_0001;

/// Draws a constant index from the spec's arrival distribution.
struct ConstantPool {
    size: usize,
    /// Zipf cumulative weights (empty for uniform): `cdf[k]` = Σ_{r≤k} r^-s.
    cdf: Vec<f64>,
}

impl ConstantPool {
    fn new(spec: &WorkloadSpec) -> ConstantPool {
        let cdf = match spec.distribution {
            Distribution::Uniform => Vec::new(),
            Distribution::Zipf => {
                let mut total = 0.0;
                (1..=spec.constants)
                    .map(|rank| {
                        total += (rank as f64).powf(-spec.zipf_s);
                        total
                    })
                    .collect()
            }
        };
        ConstantPool {
            size: spec.constants,
            cdf,
        }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        if self.cdf.is_empty() {
            return rng.gen_range(0..self.size);
        }
        // A uniform draw in [0, total) inverted through the CDF; the 53-bit
        // mantissa is plenty for pool sizes the spec allows.
        let total = *self.cdf.last().expect("non-empty pool");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let target = unit * total;
        self.cdf
            .partition_point(|&cum| cum <= target)
            .min(self.size - 1)
    }
}

/// The base ("fact") predicate of each family, of the spec's arity.
fn base_predicate(family: Family, arm: usize) -> String {
    match family {
        Family::Chain => "e".to_owned(),
        Family::Star => format!("r{arm}"),
        Family::Existential | Family::Disjunctive => "node".to_owned(),
    }
}

/// One ground base fact with every argument drawn from the pool.
fn fact(spec: &WorkloadSpec, pool: &ConstantPool, rng: &mut StdRng, arm: usize) -> String {
    let args: Vec<String> = (0..spec.arity)
        .map(|_| format!("c{}", pool.draw(rng)))
        .collect();
    format!("{}({}).", base_predicate(spec.family, arm), args.join(", "))
}

/// The rule templates of a family (see the crate docs of this module); the
/// variable lists are spelled out so the text is valid `ntgd_parser` input
/// at any arity.
fn rules(spec: &WorkloadSpec) -> String {
    let vars = |prefix: &str, n: usize| -> Vec<String> {
        (0..n).map(|i| format!("{prefix}{i}")).collect()
    };
    let mut rules = Vec::new();
    match spec.family {
        Family::Chain => {
            // e(X, Y, …) -> p1(X, Y).   p_i(X, Y), e(Y, Z, …) -> p_{i+1}(X, Z).
            let tail = vars("W", spec.arity - 2);
            let e_head = |a: &str, b: &str| {
                let mut args = vec![a.to_owned(), b.to_owned()];
                args.extend(tail.iter().cloned());
                format!("e({})", args.join(", "))
            };
            rules.push(format!("{} -> p1(X, Y).", e_head("X", "Y")));
            for i in 1..spec.depth {
                rules.push(format!(
                    "p{i}(X, Y), {} -> p{}(X, Z).",
                    e_head("Y", "Z"),
                    i + 1
                ));
            }
        }
        Family::Star => {
            // r1(X, …), r2(X, …), … -> hub(X).
            let arms: Vec<String> = (1..=spec.depth)
                .map(|arm| {
                    let mut args = vec!["X".to_owned()];
                    args.extend(vars(&format!("Y{arm}x"), spec.arity - 1));
                    format!("r{arm}({})", args.join(", "))
                })
                .collect();
            rules.push(format!("{} -> hub(X).", arms.join(", ")));
        }
        Family::Existential => {
            // node(X0…) -> owns(X0, V), t1(V).   t_i(V) -> link_i(V, W), t_{i+1}(W).
            // Each level is a fresh predicate, so the program is weakly
            // acyclic and the chase terminates at every budget.
            let node = format!("node({})", vars("X", spec.arity).join(", "));
            rules.push(format!("{node} -> owns(X0, V), t1(V)."));
            for i in 1..spec.depth {
                rules.push(format!("t{i}(V) -> link{i}(V, W), t{}(W).", i + 1));
            }
        }
        Family::Disjunctive => {
            // node(X0…) -> red(X0) | green(X0), plus depth-1 refinement
            // layers; `seen` keeps a monotone predicate for sanity checks.
            let node = format!("node({})", vars("X", spec.arity).join(", "));
            rules.push(format!("{node} -> red(X0) | green(X0)."));
            rules.push(format!("{node} -> seen(X0)."));
            for i in 1..spec.depth {
                rules.push(format!("red(X) -> shade{i}a(X) | shade{i}b(X)."));
            }
        }
    }
    rules.join(" ")
}

/// Generates the shared `LOAD` payload: the family's rule templates plus
/// `initial_facts` base facts drawn from the program PRNG stream.
fn load_line(spec: &WorkloadSpec, pool: &ConstantPool) -> String {
    let mut rng = StdRng::seed_from_u64(mix(spec.seed, PROGRAM_STREAM));
    let mut text = rules(spec);
    for ordinal in 0..spec.initial_facts {
        text.push(' ');
        text.push_str(&fact(spec, pool, &mut rng, ordinal % spec.depth.max(1) + 1));
    }
    format!("LOAD {text}")
}

/// A family-appropriate `QUERY` line (chase-backed families only).
fn query_line(spec: &WorkloadSpec, pool: &ConstantPool, rng: &mut StdRng) -> String {
    match spec.family {
        Family::Chain => {
            let level = rng.gen_range(1..spec.depth + 1);
            if rng.gen_bool(0.5) {
                format!("QUERY ?(Y) :- p{level}(c{}, Y).", pool.draw(rng))
            } else {
                format!(
                    "QUERY ?- p{level}(c{}, c{}).",
                    pool.draw(rng),
                    pool.draw(rng)
                )
            }
        }
        Family::Star => {
            if rng.gen_bool(0.5) {
                "QUERY ?(X) :- hub(X).".to_owned()
            } else {
                format!("QUERY ?- hub(c{}).", pool.draw(rng))
            }
        }
        Family::Existential => {
            if rng.gen_bool(0.5) {
                // Certain answers drop null bindings, so this stays small.
                format!("QUERY ?(V) :- owns(c{}, V).", pool.draw(rng))
            } else {
                format!("QUERY ?- t{}(V).", rng.gen_range(1..spec.depth + 1))
            }
        }
        // Disjunctive programs have no chase; the caller routes the query
        // share to MODELS instead.
        Family::Disjunctive => unreachable!("disjunctive workloads never emit QUERY"),
    }
}

/// Expands a spec into its full operation streams.  Pure and single-threaded
/// by construction: the only state is the per-stream PRNGs seeded from the
/// spec seed.
pub fn generate(spec: &WorkloadSpec) -> Workload {
    let pool = ConstantPool::new(spec);
    let load = load_line(spec, &pool);
    let models = format!("MODELS sms max={}", spec.models_max);
    let sessions = (0..spec.sessions)
        .map(|session| {
            let mut rng = StdRng::seed_from_u64(mix(spec.seed, session as u64));
            let mut ops = vec![Operation {
                verb: Verb::Load,
                line: load.clone(),
            }];
            // Marks mirror the session's view: LOAD establishes mark 0, each
            // ASSERT pushes one, RETRACT-TO k truncates to k+1.
            let mut marks = 1usize;
            for ordinal in 0..spec.ops {
                let draw = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let retract = spec.retract_rate;
                let (query, models_rate) = match spec.family {
                    Family::Disjunctive => (0.0, spec.models_rate + spec.query_rate),
                    _ => (spec.query_rate, spec.models_rate),
                };
                // A retract draw with no mark to roll back to becomes an
                // ASSERT (not a query — the mix rates must stay honest).
                if draw < retract && marks > 1 {
                    let target = rng.gen_range(0..marks - 1);
                    marks = target + 1;
                    ops.push(Operation {
                        verb: Verb::Retract,
                        line: format!("RETRACT-TO {target}"),
                    });
                } else if (retract..retract + query).contains(&draw) {
                    ops.push(Operation {
                        verb: Verb::Query,
                        line: query_line(spec, &pool, &mut rng),
                    });
                } else if (retract + query..retract + query + models_rate).contains(&draw) {
                    ops.push(Operation {
                        verb: Verb::Models,
                        line: models.clone(),
                    });
                } else {
                    let facts: Vec<String> = (0..spec.batch)
                        .map(|_| fact(spec, &pool, &mut rng, ordinal % spec.depth.max(1) + 1))
                        .collect();
                    marks += 1;
                    ops.push(Operation {
                        verb: Verb::Assert,
                        line: format!("ASSERT {}", facts.join(" ")),
                    });
                }
            }
            ops
        })
        .collect();
    Workload { sessions }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAMILIES: [Family; 4] = [
        Family::Chain,
        Family::Star,
        Family::Existential,
        Family::Disjunctive,
    ];

    fn spec(family: Family) -> WorkloadSpec {
        WorkloadSpec {
            family,
            sessions: 3,
            ops: 40,
            models_rate: 0.1,
            retract_rate: 0.15,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn streams_are_deterministic_and_sessions_independent() {
        for family in FAMILIES {
            let one = generate(&spec(family));
            let two = generate(&spec(family));
            assert_eq!(
                one.render(),
                two.render(),
                "{family:?} stream not reproducible"
            );
            assert_eq!(one.fingerprint(), two.fingerprint());
            // Different sessions draw from different streams.
            assert_ne!(
                one.sessions[0], one.sessions[1],
                "{family:?} sessions identical"
            );
            // But share one LOAD payload (the shared-base key).
            assert_eq!(one.sessions[0][0], one.sessions[1][0]);
        }
    }

    #[test]
    fn seeds_change_the_stream() {
        let mut base = spec(Family::Chain);
        let one = generate(&base);
        base.seed = 43;
        let two = generate(&base);
        assert_ne!(one.render(), two.render());
    }

    #[test]
    fn retract_targets_stay_within_live_marks() {
        // Re-simulate the mark discipline over the generated stream; an
        // out-of-range RETRACT-TO would ERR on the server.
        let workload = generate(&spec(Family::Chain));
        for ops in &workload.sessions {
            let mut marks = 1usize;
            for op in &ops[1..] {
                match op.verb {
                    Verb::Assert => marks += 1,
                    Verb::Retract => {
                        let target: usize =
                            op.line.trim_start_matches("RETRACT-TO ").parse().unwrap();
                        assert!(target < marks, "retract past the newest mark");
                        marks = target + 1;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn disjunctive_workloads_route_queries_to_models() {
        // No MODELS share of its own: every MODELS comes from the query
        // share, since a disjunctive session has no chase to QUERY.
        let workload = generate(&WorkloadSpec {
            models_rate: 0.0,
            ..spec(Family::Disjunctive)
        });
        let ops = || workload.sessions.iter().flatten();
        assert!(ops().all(|op| op.verb != Verb::Query));
        assert!(ops().any(|op| op.verb == Verb::Models));
    }

    #[test]
    fn zipf_draws_skew_towards_low_ranks() {
        let spec = WorkloadSpec {
            distribution: Distribution::Zipf,
            zipf_s: 1.4,
            constants: 50,
            ops: 200,
            sessions: 1,
            query_rate: 0.0,
            retract_rate: 0.0,
            ..WorkloadSpec::default()
        };
        let workload = generate(&spec);
        let text = workload.render();
        let count = |c: &str| text.matches(c).count();
        // c0/c1 must dominate the tail under a zipf(1.4) arrival pattern.
        assert!(count("c0,") + count("c0)") > count("c40,") + count("c40)"));
    }

    #[test]
    fn arity_widens_the_base_predicate() {
        let spec = WorkloadSpec {
            arity: 4,
            ..WorkloadSpec::default()
        };
        let workload = generate(&spec);
        let load = &workload.sessions[0][0].line;
        assert!(
            load.contains("e(X, Y, W0, W1) -> p1(X, Y)."),
            "load was: {load}"
        );
    }
}
