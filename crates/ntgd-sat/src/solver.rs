//! A compact CDCL solver: watched literals, 1-UIP learning, VSIDS-style
//! activities, geometric restarts, incremental solving under assumptions.
//!
//! # Branching order
//!
//! Every decision picks the unassigned variable with the **highest
//! activity, lowest index on ties**, with the variable's saved phase.  The
//! pick is served by a binary heap keyed by exactly that total order, so it
//! is deterministic and independent of how the heap happens to be laid out.
//! Together with the fixed clause normalisation (literals sorted by
//! [`Lit`] order) this makes the whole search — decisions, conflicts,
//! learnt clauses, models — a pure function of the variables and clauses
//! added, in the order they were added.  Callers that sample models (the
//! capped stable-model enumeration of `ntgd-sms`) rely on this contract.

use crate::types::{Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Clone, PartialEq, Debug)]
pub enum SolveResult {
    /// Satisfiable; the model assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable (under the given assumptions).
    Unsat,
}

impl SolveResult {
    /// Returns `true` if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// Returns the model, if satisfiable.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat => None,
        }
    }
}

const UNASSIGNED: u8 = 2;

/// A clause: the literals `arena[start..end]` of the solver's literal arena.
#[derive(Clone, Copy)]
struct Clause {
    start: usize,
    end: usize,
    learnt: bool,
}

type ClauseRef = usize;

/// Marks a variable that is not in the [`VarOrder`] heap.
const ABSENT: usize = usize::MAX;

/// The branching order: a binary max-heap of variables under "higher
/// activity first, lower index on ties".  Assigned variables may linger in
/// the heap (they are skipped when popped); every unassigned variable is in
/// it.
#[derive(Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or [`ABSENT`].
    position: Vec<usize>,
}

impl VarOrder {
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn contains(&self, v: usize) -> bool {
        self.position[v] != ABSENT
    }

    fn insert(&mut self, v: usize, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.position[v] = self.heap.len();
        self.heap.push(v as u32);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap after `v`'s activity grew.
    fn increased(&mut self, v: usize, activity: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.position[v], activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.position[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top as usize)
    }

    /// Re-heapifies from scratch (after every activity was rescaled, which
    /// may turn strict activity orders into ties).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(activity, v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.position[self.heap[i] as usize] = i;
            i = parent;
        }
        self.heap[i] = v;
        self.position[v as usize] = i;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !Self::before(activity, self.heap[child], v) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.position[self.heap[i] as usize] = i;
            i = child;
        }
        self.heap[i] = v;
        self.position[v as usize] = i;
    }
}

/// A CDCL SAT solver.
pub struct Solver {
    clauses: Vec<Clause>,
    /// the literals of every clause, back to back.
    arena: Vec<Lit>,
    /// watches[lit.index()] = clause refs currently watching `lit`.
    watches: Vec<Vec<ClauseRef>>,
    /// assignment per variable: 0 = false, 1 = true, 2 = unassigned.
    assign: Vec<u8>,
    /// decision level at which each variable was assigned.
    level: Vec<u32>,
    /// reason clause for each implied variable.
    reason: Vec<Option<ClauseRef>>,
    /// assignment trail.
    trail: Vec<Lit>,
    /// index into `trail` where each decision level starts.
    trail_lim: Vec<usize>,
    /// next trail position to propagate.
    qhead: usize,
    /// VSIDS-ish activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// branching order over the variables (see the module docs).
    order: VarOrder,
    /// saved phase per variable.
    phase: Vec<bool>,
    /// set once the clause database is unsatisfiable at level 0.
    unsat: bool,
    /// scratch buffer for clause normalisation in `add_clause`.
    add_buffer: Vec<Lit>,
    /// scratch marks of conflict analysis; all `false` between calls.
    seen: Vec<bool>,
    /// statistics: number of conflicts seen.
    conflicts: u64,
    /// statistics: number of decisions taken.
    decisions: u64,
    /// statistics: number of propagations performed.
    propagations: u64,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            clauses: Vec::new(),
            arena: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarOrder::default(),
            phase: Vec::new(),
            unsat: false,
            add_buffer: Vec::new(),
            seen: Vec::new(),
            conflicts: 0,
            decisions: 0,
            propagations: 0,
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.position.push(ABSENT);
        self.order.insert(v.index(), &self.activity);
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem (non-learnt) clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.learnt).count()
    }

    /// Number of conflicts encountered so far.
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of decisions taken so far.
    pub fn num_decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of unit propagations performed so far.
    pub fn num_propagations(&self) -> u64 {
        self.propagations
    }

    fn value(&self, lit: Lit) -> u8 {
        let v = self.assign[lit.var().index()];
        if v == UNASSIGNED {
            UNASSIGNED
        } else {
            // The lowest literal bit is set for negative literals.
            v ^ (lit.0 & 1) as u8
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause.  Returns `false` if the clause database became trivially
    /// unsatisfiable (empty clause, or conflicting units at level 0).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if self.unsat {
            return false;
        }
        // Clauses may be added between solve() calls; discard any leftover
        // search state first.
        self.backtrack_to(0);
        // Normalize: sort, dedupe, drop tautologies and false literals.  A
        // literal and its negation differ only in the lowest bit, so after
        // sorting a tautology shows up as two adjacent literals of one
        // variable.
        let mut lits_buf = std::mem::take(&mut self.add_buffer);
        lits_buf.clear();
        lits_buf.extend_from_slice(lits);
        lits_buf.sort_unstable();
        lits_buf.dedup();
        let satisfied = lits_buf.windows(2).any(|w| w[0].var() == w[1].var())
            || lits_buf.iter().any(|&l| self.value(l) == 1);
        let result = if satisfied {
            true
        } else {
            lits_buf.retain(|&l| self.value(l) == UNASSIGNED);
            match lits_buf.len() {
                0 => {
                    self.unsat = true;
                    false
                }
                1 => {
                    self.enqueue(lits_buf[0], None);
                    if self.propagate().is_some() {
                        self.unsat = true;
                        false
                    } else {
                        true
                    }
                }
                _ => {
                    self.attach_clause(&lits_buf, false);
                    true
                }
            }
        };
        self.add_buffer = lits_buf;
        result
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let cref = self.clauses.len();
        self.watches[lits[0].index()].push(cref);
        self.watches[lits[1].index()].push(cref);
        let start = self.arena.len();
        self.arena.extend_from_slice(lits);
        self.clauses.push(Clause {
            start,
            end: self.arena.len(),
            learnt,
        });
        cref
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(lit), UNASSIGNED);
        let v = lit.var().index();
        self.assign[v] = if lit.is_positive() { 1 } else { 0 };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = lit.is_positive();
        self.trail.push(lit);
    }

    /// Unit propagation.  Returns a conflicting clause reference, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = !lit;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < watch_list.len() {
                let cref = watch_list[i];
                let Clause { start, end, .. } = self.clauses[cref];
                // Make sure the false literal is at position 1.
                if self.arena[start] == false_lit {
                    self.arena.swap(start, start + 1);
                }
                let w0 = self.arena[start];
                debug_assert_eq!(self.arena[start + 1], false_lit);
                // If the other watch is true, the clause is satisfied.
                if self.value(w0) == 1 {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) = (start + 2..end).find(|&k| self.value(self.arena[k]) != 0) {
                    self.arena.swap(start + 1, k);
                    self.watches[self.arena[start + 1].index()].push(cref);
                    watch_list.swap_remove(i);
                    continue;
                }
                // No new watch: clause is unit or conflicting.
                if self.value(w0) == 0 {
                    // Conflict: restore the remaining watches and return.
                    debug_assert!(self.watches[false_lit.index()].is_empty());
                    self.watches[false_lit.index()] = watch_list;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(w0, Some(cref));
                i += 1;
            }
            // Nothing else watches the false literal meanwhile: hand the
            // list (and its capacity) back.
            debug_assert!(self.watches[false_lit.index()].is_empty());
            self.watches[false_lit.index()] = watch_list;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v.index(), &self.activity);
        }
    }

    /// 1-UIP conflict analysis.  Returns the learnt clause (asserting literal
    /// first) and the backtrack level.
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        // learnt[0] is reserved for the asserting literal.
        let mut learnt: Vec<Lit> = vec![Lit(0)];
        let mut counter = 0usize;
        let mut lit: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut clause = conflict;
        let current_level = self.decision_level();

        loop {
            let Clause { start, end, .. } = self.clauses[clause];
            for k in start..end {
                let q = self.arena[k];
                if Some(q) == lit {
                    continue;
                }
                let v = q.var();
                if self.seen[v.index()] || self.level[v.index()] == 0 {
                    continue;
                }
                self.seen[v.index()] = true;
                self.bump_var(v);
                if self.level[v.index()] == current_level {
                    counter += 1;
                } else {
                    learnt.push(q);
                }
            }
            // Find the next literal of the current level on the trail.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    lit = Some(l);
                    break;
                }
            }
            let l = lit.expect("found a literal of the current level");
            self.seen[l.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !l;
                break;
            }
            clause = self.reason[l.var().index()].expect("non-decision literal has a reason");
        }
        // Every current-level mark was cleared on the trail walk; the rest
        // are exactly the learnt clause's other literals.
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }

        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            // Second highest level in the learnt clause; move that literal to
            // position 1 so the watches are correct after backjumping.
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        (learnt, backtrack_level)
    }

    fn backtrack_to(&mut self, level: u32) {
        while self.decision_level() > level {
            let start = self.trail_lim.pop().expect("non-zero decision level");
            while self.trail.len() > start {
                let l = self.trail.pop().expect("trail not empty");
                let v = l.var().index();
                self.assign[v] = UNASSIGNED;
                self.reason[v] = None;
                self.order.insert(v, &self.activity);
            }
        }
        self.qhead = self.trail.len();
    }

    /// The unassigned variable with the highest activity, lowest index on
    /// ties (see the module docs).
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assign[v] == UNASSIGNED {
                return Some(Var(v as u32));
            }
        }
        None
    }

    /// Solves the current clause database under the given assumptions.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }

        let mut conflicts_until_restart = 100u64;
        let mut conflict_count_at_restart = self.conflicts;

        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SolveResult::Unsat;
                }
                // Backjumping below an assumption level is fine: the
                // assumptions are re-established as the first decisions
                // further down.
                let (learnt, backtrack_level) = self.analyze(conflict);
                self.backtrack_to(backtrack_level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    if self.value(asserting) == 0 {
                        self.unsat = true;
                        return SolveResult::Unsat;
                    }
                    if self.value(asserting) == UNASSIGNED {
                        self.enqueue(asserting, None);
                    }
                } else {
                    let cref = self.attach_clause(&learnt, true);
                    self.enqueue(asserting, Some(cref));
                }
                self.var_inc *= 1.05;
                // Restart policy: geometric.
                if self.conflicts - conflict_count_at_restart >= conflicts_until_restart {
                    conflicts_until_restart = (conflicts_until_restart as f64 * 1.5) as u64;
                    conflict_count_at_restart = self.conflicts;
                    self.backtrack_to(0);
                }
                continue;
            }

            // Re-establish assumptions as the first decisions.
            if (self.decision_level() as usize) < assumptions.len() {
                let next = assumptions[self.decision_level() as usize];
                match self.value(next) {
                    1 => {
                        // Already true: open an (empty) decision level so the
                        // indexing over assumptions stays aligned.
                        self.trail_lim.push(self.trail.len());
                    }
                    0 => return SolveResult::Unsat,
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(next, None);
                    }
                }
                continue;
            }

            match self.pick_branch_var() {
                None => {
                    let model: Vec<bool> = self.assign.iter().map(|&a| a == 1).collect();
                    return SolveResult::Sat(model);
                }
                Some(v) => {
                    self.decisions += 1;
                    self.trail_lim.push(self.trail.len());
                    let lit = Lit::new(v, self.phase[v.index()]);
                    self.enqueue(lit, None);
                }
            }
        }
    }

    /// Convenience: solve without assumptions.
    pub fn solve_unconstrained(&mut self) -> SolveResult {
        self.solve(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[v[0].positive()]));
        assert!(s.solve(&[]).is_sat());
        assert!(!s.add_clause(&[v[0].negative()]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = vars(&mut s, 1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![v[0].positive(), v[1].positive()],
            vec![v[0].negative(), v[2].positive()],
            vec![v[1].negative(), v[3].positive()],
            vec![v[2].negative(), v[3].negative()],
        ];
        for c in &clauses {
            assert!(s.add_clause(c));
        }
        let result = s.solve(&[]);
        let model = result.model().expect("satisfiable").to_vec();
        for c in &clauses {
            assert!(c.iter().any(|l| model[l.var().index()] == l.is_positive()));
        }
    }

    #[test]
    fn chains_of_implications_propagate() {
        // x0 -> x1 -> ... -> x9, x0 forced true, x9 forced false => UNSAT.
        let mut s = Solver::new();
        let v = vars(&mut s, 10);
        for i in 0..9 {
            assert!(s.add_clause(&[v[i].negative(), v[i + 1].positive()]));
        }
        assert!(s.add_clause(&[v[0].positive()]));
        assert!(s.solve(&[]).is_sat());
        assert!(!s.add_clause(&[v[9].negative()]) || s.solve(&[]) == SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let mut p = vec![vec![]; 3];
        for row in p.iter_mut() {
            *row = vars(&mut s, 2);
        }
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for (first, row1) in p.iter().enumerate() {
            for row2 in &p[first + 1..] {
                for (a, b) in row1.iter().zip(row2) {
                    s.add_clause(&[a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_and_are_reusable() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        s.add_clause(&[v[1].negative(), v[2].positive()]);
        // Assume x0: then x1 and x2 are implied.
        match s.solve(&[v[0].positive()]) {
            SolveResult::Sat(m) => {
                assert!(m[0] && m[1] && m[2]);
            }
            SolveResult::Unsat => panic!("should be satisfiable"),
        }
        // Incompatible assumptions.
        s.add_clause(&[v[2].negative(), v[0].negative()]);
        assert_eq!(
            s.solve(&[v[0].positive(), v[2].positive()]),
            SolveResult::Unsat
        );
        // The solver is reusable afterwards without assumptions.
        assert!(s.solve(&[]).is_sat());
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_handled() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[0].positive()]));
        assert!(s.add_clause(&[v[1].positive(), v[1].negative()]));
        assert!(s.solve(&[]).is_sat());
    }

    #[test]
    fn statistics_are_tracked() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        let _ = s.solve(&[]);
        assert!(s.num_vars() == 3);
        assert!(s.num_clauses() == 1);
        // At least one decision must have happened.
        assert!(s.num_decisions() >= 1);
    }

    /// Brute-force satisfiability check used as an oracle in the next test.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
        for mask in 0..(1u32 << num_vars) {
            let assignment: Vec<bool> = (0..num_vars).map(|i| mask & (1 << i) != 0).collect();
            if clauses
                .iter()
                .all(|c| c.iter().any(|&(v, pos)| assignment[v] == pos))
            {
                return true;
            }
        }
        false
    }

    #[test]
    fn agrees_with_brute_force_on_random_instances() {
        // Deterministic pseudo-random instance generation (xorshift) so the
        // test is reproducible without extra dependencies.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let num_vars = 3 + (next() % 6) as usize; // 3..8
            let num_clauses = 2 + (next() % 18) as usize; // 2..19
            let mut clauses = Vec::new();
            for _ in 0..num_clauses {
                let len = 1 + (next() % 3) as usize;
                let mut c = Vec::new();
                for _ in 0..len {
                    let v = (next() % num_vars as u64) as usize;
                    let pos = next() % 2 == 0;
                    c.push((v, pos));
                }
                clauses.push(c);
            }
            let expected = brute_force_sat(num_vars, &clauses);
            let mut s = Solver::new();
            let v = vars(&mut s, num_vars);
            let mut trivially_unsat = false;
            for c in &clauses {
                let lits: Vec<Lit> = c.iter().map(|&(i, pos)| Lit::new(v[i], pos)).collect();
                if !s.add_clause(&lits) {
                    trivially_unsat = true;
                }
            }
            let got = if trivially_unsat {
                false
            } else {
                s.solve(&[]).is_sat()
            };
            assert_eq!(got, expected, "solver disagrees with brute force");
            // When SAT, verify the returned model.
            if got {
                if let SolveResult::Sat(m) = s.solve(&[]) {
                    for c in &clauses {
                        assert!(c.iter().any(|&(i, pos)| m[v[i].index()] == pos));
                    }
                }
            }
        }
    }
}
