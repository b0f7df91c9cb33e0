//! Seeded incremental-chase sessions shared by this crate's single-test
//! binaries (`chase_pin`, `alloc_budget`).
//!
//! Each of those binaries holds exactly one `#[test]`: canonical null names
//! hash a rule's frontier terms in `frontier_variables()` order, which is the
//! interning order of the variable `Symbol`s and therefore the process's
//! interning history.  A binary that runs one test interns the same symbols
//! in the same order on every run.

// Each binary uses only part of this module.
#![allow(dead_code)]

use ntgd_chase::{ChaseConfig, IncrementalChase};
use ntgd_core::{Atom, Program, Term};
use ntgd_parser::{parse_database, parse_program};

/// Deterministic xorshift64* generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next() % n as u64) as usize
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// One request of a session after its base is loaded.
pub enum Op {
    /// Assert a batch of facts.
    Assert(Vec<Atom>),
    /// Roll back to the `k`-th mark of the session's mark stack (mark 0 is
    /// the fork point; every successful assert pushes one).
    RetractTo(usize),
}

/// A seeded session: a program, the facts frozen into its shared base, and
/// the requests a fork of that base then serves.
pub struct Session {
    pub program: Program,
    pub initial: Vec<Atom>,
    pub ops: Vec<Op>,
    /// The per-assert step budget of the fork's requests.
    pub config: ChaseConfig,
}

fn facts(text: &str) -> Vec<Atom> {
    parse_database(text).unwrap().facts().cloned().collect()
}

/// A chain program of depth 3 over a binary edge predicate,
/// `e(X, Y) -> p1(X, Y)` and `p_i(X, Y), e(Y, Z) -> p_{i+1}(X, Z)`, with a
/// 400-fact base over 64 constants drawn with a skew towards low ranks, then
/// `ops` requests: asserts of two edges and, one time in eight, a rollback
/// to an earlier mark.  This is the shape of servebench's chase-rw workload.
pub fn chain_session(seed: u64, ops: usize) -> Session {
    let mut rng = Rng::new(seed);
    let program = parse_program(
        "e(X, Y) -> p1(X, Y). p1(X, Y), e(Y, Z) -> p2(X, Z). p2(X, Y), e(Y, Z) -> p3(X, Z).",
    )
    .unwrap();
    let constant = |rng: &mut Rng| {
        // The smaller of two uniform ranks: a few hot constants dominate.
        rng.below(64).min(rng.below(64))
    };
    let edge = |rng: &mut Rng| format!("e(c{}, c{}). ", constant(rng), constant(rng));
    let initial: String = (0..400).map(|_| edge(&mut rng)).collect();
    let mut marks = 1usize;
    let mut requests = Vec::with_capacity(ops);
    for _ in 0..ops {
        if marks > 1 && rng.chance(12) {
            let target = rng.below(marks - 1);
            marks = target + 1;
            requests.push(Op::RetractTo(target));
        } else {
            let batch: String = (0..2).map(|_| edge(&mut rng)).collect();
            marks += 1;
            requests.push(Op::Assert(facts(&batch)));
        }
    }
    Session {
        program,
        initial: facts(&initial),
        ops: requests,
        config: ChaseConfig::default(),
    }
}

/// A small random program over binary predicates `p`, `q`, `r`, `s` (the
/// rule shapes of the workspace's property tests: an existential hop, a join
/// and a swap; the first rule is always an existential hop with two frontier
/// variables), a few base facts and `ops` requests of one or two facts each.  Predicates are
/// levelled: no rule derives a predicate below one of its body predicates,
/// and an existential hop always climbs, so every program is weakly acyclic
/// and its chase terminates; the step budget still refuses (and rolls back)
/// an occasional large assert, which the session then records.
pub fn existential_session(seed: u64, ops: usize) -> Session {
    let mut rng = Rng::new(seed);
    let predicates = ["p", "q", "r", "s"];
    let top = predicates.len();
    let mut rules = String::new();
    for index in 0..rng.below(3) + 2 {
        let body = rng.below(top - 1);
        if index == 0 {
            // Two frontier variables: null names hash them in frontier order.
            let head = body + 1 + rng.below(top - 1 - body);
            rules.push_str(&format!(
                "{}(X, Y) -> {}(X, Z), {}(Y, Z). ",
                predicates[body], predicates[head], predicates[head]
            ));
        } else if rng.chance(40) {
            let head = body + 1 + rng.below(top - 1 - body);
            rules.push_str(&format!(
                "{}(X, Y) -> {}(Y, Z). ",
                predicates[body], predicates[head]
            ));
        } else if rng.chance(50) {
            let extra = rng.below(top);
            let low = body.max(extra);
            let head = low + rng.below(top - low);
            rules.push_str(&format!(
                "{}(X, Y), {}(Y, W) -> {}(X, W). ",
                predicates[body], predicates[extra], predicates[head]
            ));
        } else {
            let head = body + rng.below(top - body);
            rules.push_str(&format!(
                "{}(X, Y) -> {}(Y, X). ",
                predicates[body], predicates[head]
            ));
        }
    }
    let pick = |rng: &mut Rng| predicates[rng.below(2)];
    let fact = |rng: &mut Rng| {
        let predicate = pick(rng);
        format!("{predicate}(c{}, c{}). ", rng.below(5), rng.below(5))
    };
    let initial: String = (0..3).map(|_| fact(&mut rng)).collect();
    let mut marks = 1usize;
    let mut requests = Vec::with_capacity(ops);
    for _ in 0..ops {
        if marks > 1 && rng.chance(15) {
            let target = rng.below(marks - 1);
            marks = target + 1;
            requests.push(Op::RetractTo(target));
        } else {
            let batch: String = (0..rng.below(2) + 1).map(|_| fact(&mut rng)).collect();
            marks += 1;
            requests.push(Op::Assert(facts(&batch)));
        }
    }
    Session {
        program: parse_program(&rules).unwrap(),
        initial: facts(&initial),
        ops: requests,
        config: ChaseConfig::with_max_steps(6),
    }
}

/// What one request did, as [`drive`] reports it.
pub enum Outcome {
    /// An assert reached its fixpoint.
    Asserted,
    /// An assert exceeded the step budget and was rolled back.
    Refused,
    /// A rollback to an earlier mark.
    Retracted,
}

/// Builds the session's base (a fresh chase of its initial facts under the
/// default step budget, frozen), forks it, and serves every request on the
/// fork under the session's own budget.  `around_assert` wraps
/// each `assert_facts` call (the allocation gate counts inside it);
/// `observe` sees the fork after every request.
pub fn drive(
    session: &Session,
    around_assert: &mut dyn FnMut(&mut dyn FnMut()),
    observe: &mut dyn FnMut(&IncrementalChase, Outcome),
) {
    let mut builder = IncrementalChase::new(&session.program, ChaseConfig::default()).unwrap();
    builder
        .assert_facts(session.initial.iter().cloned())
        .expect("the base chase terminates");
    let base = builder.freeze();
    let mut chase = IncrementalChase::fork(&base, session.config.clone());
    observe(&chase, Outcome::Asserted);
    let mut marks = vec![chase.mark()];
    for op in &session.ops {
        match op {
            Op::Assert(batch) => {
                let mut result = None;
                around_assert(&mut || result = Some(chase.assert_facts(batch.iter().cloned())));
                if result.expect("around_assert runs the assert").is_ok() {
                    marks.push(chase.mark());
                    observe(&chase, Outcome::Asserted);
                } else {
                    // The request still took a mark slot in the client's
                    // view; keep the stack aligned with the generator.
                    marks.push(chase.mark());
                    observe(&chase, Outcome::Refused);
                }
            }
            Op::RetractTo(target) => {
                marks.truncate(target + 1);
                chase.retract_to(&marks[*target]);
                observe(&chase, Outcome::Retracted);
            }
        }
    }
}

/// 64-bit FNV-1a, fed term by term.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn number(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// An atom by predicate name and arguments: constants by name, nulls by
    /// their canonical id (the null's name).
    pub fn atom(&mut self, atom: &Atom) {
        self.bytes(atom.predicate().as_str().as_bytes());
        for term in atom.args() {
            match term {
                Term::Const(symbol) => {
                    self.bytes(&[1]);
                    self.bytes(symbol.as_str().as_bytes());
                }
                Term::Null(id) => {
                    self.bytes(&[2]);
                    self.number(*id);
                }
                Term::Var(_) => unreachable!("chased atoms are ground"),
            }
        }
        self.bytes(&[0]);
    }
}
