//! The process-wide shared-base registry: one chased, frozen base per
//! distinct `LOAD` payload, forked copy-on-write into every session that
//! loads the same program.
//!
//! The first `LOAD` of a program parses it, classifies it, compiles the rule
//! plans and chases the initial facts to a fixpoint — then **freezes** all
//! of that behind `Arc`s as a [`BaseEntry`] and registers it under the
//! program's [`BaseKey`].  Every later `LOAD` of the same payload (the
//! registering session included — forking is symmetric, so first and later
//! sessions produce bit-identical transcripts) *forks* the entry in O(1):
//! the session shares the parsed program, the classification, the chased
//! arena and the compiled plans, and chases only its private fact delta on
//! a mutable overlay (see `ntgd_core::Interpretation` and
//! `ntgd_chase::ChaseBase`).  The registry shares nothing of `MODELS sms`:
//! each session grounds its own fact log in its own
//! `ntgd_sms::IncrementalSmsState`.
//!
//! Entries are keyed by the **canonical program text** (the trimmed `LOAD`
//! payload, rules and initial facts alike) plus the step policy they were
//! built under — the chase step budget and the classification switch
//! (classified sessions may chase terminating programs unbounded, so they
//! never share a base with blind-budget sessions).  Textually different
//! spellings of the same program miss the cache — a conservative identity
//! that can never alias two distinct programs.  Registration is first-wins: when two sessions race
//! to build the same base, the second registration is discarded and the
//! loser forks the winner's entry, so every session of a process shares one
//! arena per program.
//!
//! Per-entry counters (`hits`, `misses`, `rebuilds`, `forks`) are a pure
//! function of the `LOAD` history for that key — never of thread count
//! or machine — so scripted transcripts can assert the `STATS base` lines
//! verbatim.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ntgd_chase::ChaseBase;
use ntgd_classes::{ClassReport, ClassVerdict};
use ntgd_core::{Atom, DisjunctiveProgram, Program};

/// The decidability classification of a registered program: the full
/// landscape report plus the coarse verdict derived from it.  Computed once
/// when the base is built; every fork inherits it without reclassifying
/// (`STATS classes` reports the provenance as `class_source=inherited`).
#[derive(Clone, Copy, Debug)]
pub struct ProgramClass {
    /// Membership in every implemented class.
    pub report: ClassReport,
    /// The verdict the memberships support (terminating / decidable /
    /// out-of-fragment).
    pub verdict: ClassVerdict,
}

impl ProgramClass {
    /// Classifies a normal program (for disjunctive payloads the session
    /// classifies the positive-conjunctive transform, in line with how the
    /// chase and the `Auto` domain probe treat them).
    pub fn of(program: &Program) -> ProgramClass {
        let report = ntgd_classes::classify(program);
        ProgramClass {
            report,
            verdict: report.verdict(),
        }
    }
}

/// The canonical identity of a shared base: the exact (trimmed) `LOAD`
/// payload plus the step policy it was chased under — the configured step
/// budget *and* the classification switch, since a classified session may
/// chase a provably terminating program unbounded while a blind session
/// with the same `max_steps` must stay budgeted.  Keeping the switch in
/// the key means the two can never share a base built under the other's
/// policy, so `LOAD` outcomes never depend on registry arrival order.  Two
/// sessions share a base iff their keys are equal — the full text is the
/// key, so distinct programs can never alias.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct BaseKey {
    text: String,
    max_steps: usize,
    classify: bool,
}

impl BaseKey {
    /// Canonicalises a `LOAD` payload into a registry key.
    pub fn new(text: &str, max_steps: usize, classify: bool) -> BaseKey {
        BaseKey {
            text: text.trim().to_owned(),
            max_steps,
            classify,
        }
    }
}

/// A point-in-time copy of one entry's counters (see [`BaseEntry::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BaseStats {
    /// `LOAD`s answered by forking this entry without building anything.
    pub hits: u64,
    /// `LOAD`s that found no entry for the key and had to build one.
    pub misses: u64,
    /// Bases actually chased and frozen for the key (equals `misses`
    /// except when concurrent sessions race and the losers' builds are
    /// discarded first-wins).
    pub rebuilds: u64,
    /// Sessions forked from this entry (the registering session forks too,
    /// so `forks = hits + 1` once the first `LOAD` completes).
    pub forks: u64,
}

/// One frozen base: everything a session needs to answer the protocol over
/// a program without re-parsing, re-classifying, re-compiling or re-chasing
/// it.  Immutable after registration; shared via `Arc`.
pub struct BaseEntry {
    /// The parsed rules (possibly disjunctive), shared with every fork.
    pub(crate) disjunctive: Arc<DisjunctiveProgram>,
    /// The rules as a normal program, when no rule uses `|`.
    pub(crate) normal: Option<Program>,
    /// The frozen chase: arena at fixpoint, plans, witness memo (normal
    /// programs only).
    pub(crate) chase: Option<Arc<ChaseBase>>,
    /// The deduplicated initial facts, in assertion order.
    pub(crate) facts: Vec<Atom>,
    /// The program's classification, computed once by the registering
    /// session (`None` when its [`crate::SessionConfig::classify`] was
    /// off); forks inherit the verdict instead of reclassifying.
    pub(crate) class: Option<ProgramClass>,
    hits: AtomicU64,
    misses: AtomicU64,
    rebuilds: AtomicU64,
    forks: AtomicU64,
}

impl BaseEntry {
    /// Wraps a frozen base (see `Session::load` for how one is built).
    pub(crate) fn new(
        disjunctive: Arc<DisjunctiveProgram>,
        normal: Option<Program>,
        chase: Option<Arc<ChaseBase>>,
        facts: Vec<Atom>,
        class: Option<ProgramClass>,
    ) -> BaseEntry {
        BaseEntry {
            disjunctive,
            normal,
            chase,
            facts,
            class,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            forks: AtomicU64::new(0),
        }
    }

    /// This entry's counters, copied at the call.
    pub fn stats(&self) -> BaseStats {
        BaseStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            forks: self.forks.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn record_fork(&self) {
        self.forks.fetch_add(1, Ordering::Relaxed);
    }
}

/// The registry itself: a mutex-guarded map from [`BaseKey`] to
/// [`BaseEntry`].  Create one per process (the `ntgd-serve` binary does)
/// and share it via [`crate::SessionConfig::base_registry`]; the `Arc` in
/// the config is what makes every per-connection clone point at the same
/// registry.
#[derive(Default)]
pub struct BaseRegistry {
    entries: Mutex<HashMap<BaseKey, Arc<BaseEntry>>>,
}

impl BaseRegistry {
    /// An empty registry.
    pub fn new() -> BaseRegistry {
        BaseRegistry::default()
    }

    /// Looks a key up, recording a hit when found.
    pub fn lookup(&self, key: &BaseKey) -> Option<Arc<BaseEntry>> {
        let entries = self.entries.lock().expect("base registry poisoned");
        entries.get(key).map(|entry| {
            entry.hits.fetch_add(1, Ordering::Relaxed);
            Arc::clone(entry)
        })
    }

    /// Registers a freshly built base, first-wins: when the key is already
    /// present (a concurrent session built the same base), the new entry is
    /// discarded and the existing one returned, so every session forks the
    /// same arena.  Either way the surviving entry records the miss and the
    /// build that led here.
    pub fn register(&self, key: BaseKey, entry: Arc<BaseEntry>) -> Arc<BaseEntry> {
        let mut entries = self.entries.lock().expect("base registry poisoned");
        let winner = Arc::clone(entries.entry(key).or_insert(entry));
        winner.misses.fetch_add(1, Ordering::Relaxed);
        winner.rebuilds.fetch_add(1, Ordering::Relaxed);
        winner
    }

    /// Number of registered bases.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("base registry poisoned").len()
    }

    /// Whether no base has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for BaseRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BaseRegistry")
            .field("entries", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_entry() -> Arc<BaseEntry> {
        Arc::new(BaseEntry::new(
            Arc::new(DisjunctiveProgram::default()),
            None,
            None,
            Vec::new(),
            None,
        ))
    }

    #[test]
    fn keys_canonicalise_whitespace_but_not_content() {
        assert_eq!(
            BaseKey::new("  p(X) -> q(X).  ", 10, true),
            BaseKey::new("p(X) -> q(X).", 10, true)
        );
        assert_ne!(
            BaseKey::new("p(X) -> q(X).", 10, true),
            BaseKey::new("p(X) -> q(X).", 11, true)
        );
        assert_ne!(
            BaseKey::new("p(X) -> q(X).", 10, true),
            BaseKey::new("p(X) -> r(X).", 10, true)
        );
        // Classified and blind sessions run different step policies, so
        // they must never share a base.
        assert_ne!(
            BaseKey::new("p(X) -> q(X).", 10, true),
            BaseKey::new("p(X) -> q(X).", 10, false)
        );
    }

    #[test]
    fn register_is_first_wins_and_counts() {
        let registry = BaseRegistry::new();
        let key = BaseKey::new("p(a).", 10, true);
        assert!(registry.lookup(&key).is_none());
        let first = registry.register(key.clone(), empty_entry());
        // A racing second build is discarded; its miss lands on the winner.
        let second = registry.register(key.clone(), empty_entry());
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(registry.len(), 1);
        let found = registry.lookup(&key).expect("registered");
        assert!(Arc::ptr_eq(&first, &found));
        found.record_fork();
        assert_eq!(
            first.stats(),
            BaseStats {
                hits: 1,
                misses: 2,
                rebuilds: 2,
                forks: 1
            }
        );
    }
}
