//! Search-trace pin for the CDCL solver.
//!
//! The SMS engine's answers to capped `MODELS` requests are *samples* of the
//! stable-model set, chosen by the order in which the solver finds classical
//! models.  That order is a function of the solver's exact search: its
//! branching order (highest activity, lowest variable index on ties), its
//! clause normalisation, its conflict analysis and its restarts.  This test
//! runs a seeded corpus of random CNFs through incremental model enumeration
//! (blocking clauses between solves) and solves under assumptions, and folds
//! every model and every decision/conflict/propagation count into one hash.
//! A change to the solver's internals that keeps this hash searches exactly
//! as before.

use ntgd_sat::{Lit, SolveResult, Solver, Var};

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// 64-bit FNV-1a, fed one word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn model(&mut self, model: &[bool]) {
        self.word(model.len() as u64);
        for chunk in model.chunks(64) {
            let bits = chunk
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
            self.word(bits);
        }
    }

    fn stats(&mut self, solver: &Solver) {
        self.word(solver.num_decisions());
        self.word(solver.num_conflicts());
        self.word(solver.num_propagations());
    }
}

/// A random CNF: `clauses` clauses of `widths.0..=widths.1` literals over
/// `vars` variables.  Duplicate and complementary literals are left in on
/// purpose, so clause normalisation is exercised too.
fn random_cnf(
    rng: &mut Rng,
    vars: &[Var],
    clauses: usize,
    widths: (usize, usize),
) -> Vec<Vec<Lit>> {
    (0..clauses)
        .map(|_| {
            let len = widths.0 + rng.below(widths.1 - widths.0 + 1);
            (0..len)
                .map(|_| Lit::new(vars[rng.below(vars.len())], rng.below(2) == 0))
                .collect()
        })
        .collect()
}

/// Enumerates up to `limit` models, blocking each one over all variables.
fn enumerate(solver: &mut Solver, hash: &mut Fnv, limit: usize) {
    for _ in 0..limit {
        let SolveResult::Sat(model) = solver.solve(&[]) else {
            hash.word(u64::MAX);
            break;
        };
        hash.model(&model);
        hash.stats(solver);
        let blocking: Vec<Lit> = model
            .iter()
            .enumerate()
            .map(|(i, &value)| Lit::new(Var::from_index(i), !value))
            .collect();
        solver.add_clause(&blocking);
    }
    hash.stats(solver);
}

/// Solves under a few random assumption sets.
fn assume(solver: &mut Solver, rng: &mut Rng, vars: &[Var], hash: &mut Fnv) {
    for _ in 0..6 {
        let assumptions: Vec<Lit> = (0..1 + rng.below(4))
            .map(|_| Lit::new(vars[rng.below(vars.len())], rng.below(2) == 0))
            .collect();
        match solver.solve(&assumptions) {
            SolveResult::Sat(model) => hash.model(&model),
            SolveResult::Unsat => hash.word(u64::MAX - 1),
        }
        hash.stats(solver);
    }
}

fn corpus_hash() -> u64 {
    let mut hash = Fnv::new();
    let mut rng = Rng::new(0x5a7_7ace);
    // Small and medium instances around the 3-SAT threshold.
    for _ in 0..40 {
        let num_vars = 8 + rng.below(40);
        let ratio = 3.0 + rng.below(16) as f64 / 10.0;
        let mut solver = Solver::new();
        let vars: Vec<Var> = (0..num_vars).map(|_| solver.new_var()).collect();
        for clause in random_cnf(&mut rng, &vars, (num_vars as f64 * ratio) as usize, (1, 3)) {
            solver.add_clause(&clause);
        }
        enumerate(&mut solver, &mut hash, 12);
        assume(&mut solver, &mut rng, &vars, &mut hash);
    }
    // One long-lived solver accumulating enough conflicts to rescale the
    // variable activities, so the rescale path runs too.
    let mut solver = Solver::new();
    let vars: Vec<Var> = (0..180).map(|_| solver.new_var()).collect();
    for clause in random_cnf(&mut rng, &vars, 767, (3, 3)) {
        solver.add_clause(&clause);
    }
    enumerate(&mut solver, &mut hash, 50);
    // 1.05^4720 > 1e100: past this many conflicts the activities were
    // rescaled at least once.
    assert!(
        solver.num_conflicts() > 4_800,
        "the corpus no longer rescales"
    );
    assume(&mut solver, &mut rng, &vars, &mut hash);
    hash.0
}

#[test]
fn search_trace_is_pinned() {
    assert_eq!(
        corpus_hash(),
        0x9291_6a89_fc9e_ca36,
        "the solver's search trace changed"
    );
}
