//! Per-rule plan caches: every conjunction a rule can be matched on,
//! compiled exactly once and keyed by rule index.
//!
//! A [`CompiledRuleSet`] (for [`Program`]s) or [`CompiledDisjunctiveRuleSet`]
//! (for [`DisjunctiveProgram`]s) is built **once per run** — chase, grounding
//! or closure — and reused every round, so rule compilation and join planning
//! are a once-per-program cost instead of a once-per-call cost (see the
//! lifecycle notes in [`crate::matcher`]).  For each rule the set caches:
//!
//! * the full **body** (positive and negative literals) — classical-model
//!   checks;
//! * the **positive body** — trigger discovery, possibly-true closures,
//!   relevance grounding;
//! * the **head** as one conjunction — restricted-chase trigger activity
//!   (`∃` extension of the trigger homomorphism into the instance);
//! * each **head atom** (or each **disjunct** for disjunctive rules)
//!   individually — immediate-consequence head extension and disjunct
//!   satisfaction.
//!
//! Head plans are compiled without a baked substitution, so a single cached
//! plan serves every trigger: the (ground-valued) trigger homomorphism is
//! applied at execution time as slot presets.  Tests can assert the
//! compile-once property through [`crate::matcher::plan_compile_count`].
//!
//! Each [`CompiledRule`] also carries its [`RuleShape`]: the frontier and
//! existential variables and a head template, all resolved against the
//! positive-body plan's slots.  A chase that keeps a trigger as its slot
//! values ([`crate::SlotBinding::slot_values`]) builds the rule's head atoms
//! and Skolem witness key from them directly, with no substitution and no
//! per-trigger variable-set computation.

use crate::atom::Atom;
use crate::interpretation::Interpretation;
use crate::matcher::CompiledConjunction;
use crate::parallel;
use crate::program::{DisjunctiveProgram, Program};
use crate::rule::{Ndtgd, Ntgd};
use crate::symbol::Symbol;
use crate::term::Term;

/// Programs with at least this many rules compile their per-rule plans on
/// the [`parallel`] pool (the per-rule planner runs are independent and the
/// results are merged in rule order, so the set is identical at every thread
/// count); smaller programs compile inline.
const MIN_PARALLEL_RULES: usize = 8;

// `Send + Sync` audit: rule sets are immutable bundles of compiled plans and
// are shared by reference with every pool worker of a chase or grounding
// round.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledRuleSet>();
    assert_send_sync::<CompiledDisjunctiveRuleSet>();
};

/// One argument of a [`HeadTemplate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HeadArg {
    /// A ground term written in the rule.
    Fixed(Term),
    /// A frontier variable: the value of this positive-body slot.
    Slot(usize),
    /// The witness of the rule's existential variable with this index (in
    /// [`Ntgd::existential_variables`] order).
    Existential(usize),
}

/// A head atom whose every argument is resolved to a constant, a
/// positive-body slot, or the index of an existential variable.
#[derive(Clone, Debug)]
pub struct HeadTemplate {
    predicate: Symbol,
    args: Vec<HeadArg>,
}

impl HeadTemplate {
    /// The atom's predicate.
    pub fn predicate(&self) -> Symbol {
        self.predicate
    }

    /// Writes the atom's arguments into `out` (cleared first), given the
    /// positive-body slot values and the existential witnesses.
    pub fn ground_into(&self, slots: &[Term], witnesses: &[Term], out: &mut Vec<Term>) {
        out.clear();
        out.extend(self.args.iter().map(|arg| match *arg {
            HeadArg::Fixed(term) => term,
            HeadArg::Slot(slot) => slots[slot],
            HeadArg::Existential(index) => witnesses[index],
        }));
    }
}

/// The variable structure of one [`Ntgd`], resolved once against its
/// positive-body plan: which body slots form the frontier, how many
/// existential variables the head has, and a template per head atom.
#[derive(Clone, Debug)]
pub struct RuleShape {
    frontier: Vec<usize>,
    existentials: Vec<Symbol>,
    head: Vec<HeadTemplate>,
}

impl RuleShape {
    fn new(rule: &Ntgd, body_positive: &CompiledConjunction) -> RuleShape {
        // Safety of the rule (every body variable occurs in a positive
        // literal) makes every non-existential head variable a body slot.
        let slot_of = |variable: Symbol| {
            body_positive
                .slot_of(&Term::Var(variable))
                .expect("a safe rule binds every body variable in its positive body")
        };
        let existentials: Vec<Symbol> = rule.existential_variables().into_iter().collect();
        let head = rule
            .head()
            .iter()
            .map(|atom| HeadTemplate {
                predicate: atom.predicate(),
                args: atom
                    .args()
                    .iter()
                    .map(|term| match *term {
                        Term::Var(variable) => {
                            match existentials.iter().position(|e| *e == variable) {
                                Some(index) => HeadArg::Existential(index),
                                None => HeadArg::Slot(slot_of(variable)),
                            }
                        }
                        ground => HeadArg::Fixed(ground),
                    })
                    .collect(),
            })
            .collect();
        RuleShape {
            frontier: rule.frontier_variables().into_iter().map(slot_of).collect(),
            existentials,
            head,
        }
    }

    /// The positive-body slots of the frontier variables, in
    /// [`Ntgd::frontier_variables`] order.
    pub fn frontier(&self) -> &[usize] {
        &self.frontier
    }

    /// The existential variables, in [`Ntgd::existential_variables`] order.
    pub fn existentials(&self) -> &[Symbol] {
        &self.existentials
    }

    /// One template per head atom, in head order.
    pub fn head(&self) -> &[HeadTemplate] {
        &self.head
    }
}

/// The cached plans of one [`Ntgd`].
#[derive(Clone, Debug)]
pub struct CompiledRule {
    body: CompiledConjunction,
    body_positive: CompiledConjunction,
    head: CompiledConjunction,
    head_atoms: Vec<CompiledConjunction>,
    shape: RuleShape,
}

impl CompiledRule {
    fn new(rule: &Ntgd, stats: &Interpretation) -> CompiledRule {
        let positive: Vec<Atom> = rule.body_positive().into_iter().cloned().collect();
        let body_positive = CompiledConjunction::compile_atoms(&positive, stats);
        CompiledRule {
            body: CompiledConjunction::compile(rule.body(), stats),
            shape: RuleShape::new(rule, &body_positive),
            body_positive,
            head: CompiledConjunction::compile_atoms(rule.head(), stats),
            head_atoms: rule
                .head()
                .iter()
                .map(|a| CompiledConjunction::compile_atoms(std::slice::from_ref(a), stats))
                .collect(),
        }
    }

    /// The rule's variable structure over the positive-body slots.
    pub fn shape(&self) -> &RuleShape {
        &self.shape
    }

    /// The full body (positive and negative literals).
    pub fn body(&self) -> &CompiledConjunction {
        &self.body
    }

    /// The positive body literals only.
    pub fn body_positive(&self) -> &CompiledConjunction {
        &self.body_positive
    }

    /// The head as a single positive conjunction.
    pub fn head(&self) -> &CompiledConjunction {
        &self.head
    }

    /// One single-atom conjunction per head atom, in head order.
    pub fn head_atoms(&self) -> &[CompiledConjunction] {
        &self.head_atoms
    }
}

/// The cached plans of every rule of a [`Program`], keyed by rule index.
#[derive(Clone, Debug)]
pub struct CompiledRuleSet {
    rules: Vec<CompiledRule>,
}

impl CompiledRuleSet {
    /// Compiles every rule of `program` exactly once.  `stats` provides the
    /// planner's cardinalities (typically the instance the plans first run
    /// against; plans stay correct on grown instances).
    pub fn from_program(program: &Program, stats: &Interpretation) -> CompiledRuleSet {
        let threads = if program.rules().len() >= MIN_PARALLEL_RULES {
            parallel::num_threads()
        } else {
            1
        };
        CompiledRuleSet {
            rules: parallel::par_map_with(program.rules(), threads, |_, r| {
                CompiledRule::new(r, stats)
            }),
        }
    }

    /// The cached plans of the rule at `index` (panics when out of range).
    pub fn rule(&self, index: usize) -> &CompiledRule {
        &self.rules[index]
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over `(rule index, cached plans)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CompiledRule)> + '_ {
        self.rules.iter().enumerate()
    }
}

/// The cached plans of one [`Ndtgd`].
#[derive(Clone, Debug)]
pub struct CompiledDisjunctiveRule {
    body: CompiledConjunction,
    body_positive: CompiledConjunction,
    disjuncts: Vec<CompiledConjunction>,
}

impl CompiledDisjunctiveRule {
    fn new(rule: &Ndtgd, stats: &Interpretation) -> CompiledDisjunctiveRule {
        let positive: Vec<Atom> = rule.body_positive().into_iter().cloned().collect();
        CompiledDisjunctiveRule {
            body: CompiledConjunction::compile(rule.body(), stats),
            body_positive: CompiledConjunction::compile_atoms(&positive, stats),
            disjuncts: rule
                .disjuncts()
                .iter()
                .map(|d| CompiledConjunction::compile_atoms(d, stats))
                .collect(),
        }
    }

    /// The full body (positive and negative literals).
    pub fn body(&self) -> &CompiledConjunction {
        &self.body
    }

    /// The positive body literals only.
    pub fn body_positive(&self) -> &CompiledConjunction {
        &self.body_positive
    }

    /// One conjunction per head disjunct, in disjunct order.
    pub fn disjuncts(&self) -> &[CompiledConjunction] {
        &self.disjuncts
    }
}

/// The cached plans of every rule of a [`DisjunctiveProgram`], keyed by rule
/// index.
#[derive(Clone, Debug)]
pub struct CompiledDisjunctiveRuleSet {
    rules: Vec<CompiledDisjunctiveRule>,
}

impl CompiledDisjunctiveRuleSet {
    /// Compiles every rule of `program` exactly once.
    pub fn from_disjunctive(
        program: &DisjunctiveProgram,
        stats: &Interpretation,
    ) -> CompiledDisjunctiveRuleSet {
        let threads = if program.rules().len() >= MIN_PARALLEL_RULES {
            parallel::num_threads()
        } else {
            1
        };
        CompiledDisjunctiveRuleSet {
            rules: parallel::par_map_with(program.rules(), threads, |_, r| {
                CompiledDisjunctiveRule::new(r, stats)
            }),
        }
    }

    /// The cached plans of the rule at `index` (panics when out of range).
    pub fn rule(&self, index: usize) -> &CompiledDisjunctiveRule {
        &self.rules[index]
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates over `(rule index, cached plans)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &CompiledDisjunctiveRule)> + '_ {
        self.rules.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::plan_compile_count;
    use crate::substitution::Substitution;
    use crate::{atom, cst, neg, pos, var};

    fn example_program() -> Program {
        Program::from_rules(vec![
            Ntgd::new(
                vec![pos("person", vec![var("X")])],
                vec![atom("hasFather", vec![var("X"), var("Y")])],
            )
            .unwrap(),
            Ntgd::new(
                vec![
                    pos("hasFather", vec![var("X"), var("Y")]),
                    pos("hasFather", vec![var("X"), var("Z")]),
                    neg("sameAs", vec![var("Y"), var("Z")]),
                ],
                vec![atom("abnormal", vec![var("X")])],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn rule_sets_compile_once_and_execute_many_times() {
        let program = example_program();
        let instance = Interpretation::from_atoms(vec![
            atom("person", vec![cst("alice")]),
            atom("hasFather", vec![cst("alice"), cst("bob")]),
        ]);
        let before = plan_compile_count();
        let plans = CompiledRuleSet::from_program(&program, &instance);
        assert!(plan_compile_count() > before);
        // Executions (full, delta, with and without presets) never
        // recompile.  The counter is process-wide (so pool-worker compiles
        // are counted too); retry the measured window until no concurrently
        // running test compiles inside it — a real recompile in these
        // executions fails every attempt.
        let mut clean_window = false;
        for _ in 0..50 {
            let before_runs = plan_compile_count();
            for _ in 0..10 {
                for (_, rule) in plans.iter() {
                    let homs = rule.body_positive().all(&instance, &Substitution::new());
                    for h in &homs {
                        let _ = rule.head().exists(&instance, h);
                    }
                    let _ = rule
                        .body_positive()
                        .all_delta(&instance, &Substitution::new(), 1);
                }
            }
            if plan_compile_count() == before_runs {
                clean_window = true;
                break;
            }
        }
        assert!(clean_window, "cached plan executions must not compile");
    }

    #[test]
    fn cached_body_plans_agree_with_one_shot_matching() {
        let program = example_program();
        let instance = Interpretation::from_atoms(vec![
            atom("person", vec![cst("alice")]),
            atom("hasFather", vec![cst("alice"), cst("bob")]),
            atom("hasFather", vec![cst("alice"), cst("carl")]),
        ]);
        let plans = CompiledRuleSet::from_program(&program, &Interpretation::new());
        for (index, rule) in program.rules().iter().enumerate() {
            let cached: Vec<String> = plans
                .rule(index)
                .body()
                .all(&instance, &Substitution::new())
                .iter()
                .map(|s| s.to_string())
                .collect();
            let one_shot: Vec<String> =
                crate::matcher::all_homomorphisms(rule.body(), &instance, &Substitution::new())
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            let mut cached = cached;
            let mut one_shot = one_shot;
            cached.sort();
            one_shot.sort();
            assert_eq!(cached, one_shot, "rule {index}");
        }
    }

    #[test]
    fn rule_shapes_ground_heads_from_body_slots() {
        // r(Z, W), s(W, c) <- p(X, Y), q(Y, Z): frontier {Z}, existential W.
        let rule = Ntgd::new(
            vec![
                pos("p", vec![var("X"), var("Y")]),
                pos("q", vec![var("Y"), var("Z")]),
            ],
            vec![
                atom("r", vec![var("Z"), var("W")]),
                atom("s", vec![var("W"), cst("c")]),
            ],
        )
        .unwrap();
        let program = Program::from_rules(vec![rule.clone()]).unwrap();
        let plans = CompiledRuleSet::from_program(&program, &Interpretation::new());
        let body = plans.rule(0).body_positive();
        let shape = plans.rule(0).shape();
        assert_eq!(shape.frontier(), &[body.slot_of(&var("Z")).unwrap()]);
        assert_eq!(shape.existentials(), &[Symbol::intern("W")]);
        let instance = Interpretation::from_atoms(vec![
            atom("p", vec![cst("a"), cst("b")]),
            atom("q", vec![cst("b"), cst("d")]),
            atom("q", vec![cst("b"), cst("e")]),
        ]);
        let witness = [Term::Null(9)];
        let mut args = Vec::new();
        let mut visited = 0;
        body.for_each(&instance, &Substitution::new(), &mut |binding| {
            visited += 1;
            let slots: Vec<Term> = binding.slot_values().collect();
            assert_eq!(slots.len(), body.slot_count());
            let mut extended = binding.to_substitution();
            extended.bind(var("W"), witness[0]);
            for (template, head_atom) in shape.head().iter().zip(rule.head()) {
                template.ground_into(&slots, &witness, &mut args);
                assert_eq!(
                    Atom::new(template.predicate(), args.clone()),
                    extended.apply_atom(head_atom)
                );
            }
            std::ops::ControlFlow::Continue(())
        });
        assert_eq!(visited, 2);
    }

    #[test]
    fn disjunctive_rule_sets_cover_every_disjunct() {
        let rule = Ndtgd::new(
            vec![pos("node", vec![var("X")])],
            vec![
                vec![atom("red", vec![var("X")])],
                vec![atom("green", vec![var("X")])],
            ],
        )
        .unwrap();
        let program = DisjunctiveProgram::from_rules(vec![rule]).unwrap();
        let instance = Interpretation::from_atoms(vec![
            atom("node", vec![cst("v")]),
            atom("green", vec![cst("v")]),
        ]);
        let plans = CompiledDisjunctiveRuleSet::from_disjunctive(&program, &instance);
        assert_eq!(plans.len(), 1);
        assert!(!plans.is_empty());
        let rule_plans = plans.rule(0);
        assert_eq!(rule_plans.disjuncts().len(), 2);
        let homs = rule_plans
            .body_positive()
            .all(&instance, &Substitution::new());
        assert_eq!(homs.len(), 1);
        assert!(!rule_plans.disjuncts()[0].exists(&instance, &homs[0]));
        assert!(rule_plans.disjuncts()[1].exists(&instance, &homs[0]));
    }
}
