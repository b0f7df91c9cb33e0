//! Total interpretations, represented by their positive part.
//!
//! A (two-valued) interpretation `I` over a schema is, in the paper, a set of
//! literals over constants and nulls such that for every atom over `dom(I)`
//! either the atom or its negation belongs to `I`.  Such an interpretation is
//! fully determined by its positive part `I⁺` together with its domain, so we
//! store exactly that:  `¬p(t̄) ∈ I` iff every term of `t̄` belongs to
//! `dom(I)` and `p(t̄) ∉ I⁺`.
//!
//! The domain is by default the set of terms occurring in `I⁺`; additional
//! domain elements can be registered explicitly (used by engines that fix a
//! candidate domain before choosing which atoms are true).
//!
//! # Storage layout
//!
//! Atoms live in an append-only **arena** addressed by dense [`AtomId`]s, in
//! insertion order.  On top of the arena the interpretation maintains, fully
//! incrementally on [`Interpretation::insert`]:
//!
//! * a hash table from atom hashes to ids (duplicate detection with a single
//!   hash computation and no atom clone),
//! * a per-predicate index (`predicate → [AtomId]`), and
//! * a per-argument-position index (`(predicate, position, term) → [AtomId]`)
//!   that the [`crate::matcher`] join engine probes instead of scanning all
//!   atoms of a predicate.
//!
//! All id lists are in insertion order (ascending), so a suffix of the arena
//! — "every atom inserted since watermark `w`" — can be selected by binary
//! search.  The matcher's semi-naive *delta* entry points use this to match
//! only against newly derived atoms.
//!
//! # Base + overlay (copy-on-write forking)
//!
//! An interpretation is physically a pair of `Segment`s: an optional
//! **base** — an immutable, [`Arc`]-shared [`InterpretationBase`] produced by
//! [`Interpretation::freeze`] — and a private mutable **overlay**.  Forking a
//! frozen base ([`Interpretation::fork`]) is O(1): the fork holds an `Arc` to
//! the base and starts with an empty overlay; all subsequent inserts land in
//! the overlay.
//!
//! [`AtomId`]s stay dense across the boundary: base atoms occupy ids
//! `0..base_len`, overlay atoms `base_len..len`, and overlay index lists
//! store *absolute* ids.  A probe therefore returns an [`IdProbe`] — the
//! concatenation of the base index tail and the overlay index tail, which is
//! ascending as a whole — and everything built on ascending id lists
//! (watermark deltas, compiled plans, [`Interpretation::truncate`]) works
//! unchanged.  Truncation never crosses the boundary: rolling back below
//! `base_len` is a contract violation and panics rather than corrupting the
//! shared base.
//!
//! # Snapshot reads under parallelism
//!
//! The interpretation is the shared read-only snapshot of every parallel
//! round (see [`crate::parallel`]): workers probe the indexes and arena
//! through `&Interpretation` while all mutation ([`Interpretation::insert`])
//! happens between rounds on a single thread.  Because [`AtomId`]s are dense,
//! assigned in insertion order and never reused, a watermark taken before a
//! round selects the same delta suffix for every worker, which is what makes
//! the per-`(rule, pivot)` partition of a delta round exact.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::Peekable;
use std::sync::Arc;

use crate::atom::{Atom, Literal};
use crate::symbol::Symbol;
use crate::term::Term;

/// Dense identifier of an atom within one [`Interpretation`]'s arena.
///
/// Ids are assigned in insertion order starting from zero and are never
/// reused; they are meaningful only relative to the interpretation that
/// issued them.  In a forked interpretation, ids below
/// [`Interpretation::base_len`] address the shared base segment and the rest
/// address the private overlay — the numbering is continuous, so consumers
/// never observe the boundary.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The id as a usize arena offset.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hash of an atom given as `(predicate, args)` parts.  Used for both stored
/// atoms and probe lookups so that the two always agree.
fn parts_hash(predicate: Symbol, args: &[Term]) -> u64 {
    let mut hasher = DefaultHasher::new();
    predicate.hash(&mut hasher);
    args.hash(&mut hasher);
    hasher.finish()
}

fn atom_hash(atom: &Atom) -> u64 {
    parts_hash(atom.predicate(), atom.args())
}

/// Expected index tails per atom reserved up front by
/// [`Interpretation::with_capacity`]; matches the by-hash bucket (one id per
/// hash in the absence of collisions).
const BUCKET_CAPACITY: usize = 1;

/// One storage segment: an arena plus its indexes and domain bookkeeping.
///
/// The monolithic (unforked) interpretation is a single segment; a forked
/// interpretation layers a mutable overlay segment over a frozen base
/// segment.  Overlay id lists store ids offset by the base length, so the
/// arena of an overlay segment holds the atom with id `base_len + i` at
/// offset `i`.
#[derive(Clone, Default, Debug)]
struct Segment {
    /// Atom storage in insertion order.
    arena: Vec<Atom>,
    /// Atom-hash → ids with that hash (almost always a single id).
    by_hash: HashMap<u64, Vec<AtomId>>,
    /// Predicate → ids, ascending.
    by_predicate: HashMap<Symbol, Vec<AtomId>>,
    /// (predicate, argument position, ground term) → ids, ascending.
    by_position: HashMap<(Symbol, u32, Term), Vec<AtomId>>,
    domain: BTreeSet<Term>,
    /// Occurrences of each domain term in this segment's arena (`domain`
    /// holds exactly the terms with a positive count).  Maintained so that
    /// [`Interpretation::truncate`] can drop terms whose last occurrence is
    /// rolled back.
    domain_occurrences: HashMap<Term, usize>,
    extra_domain: BTreeSet<Term>,
}

/// A frozen, immutable interpretation segment, shared between forks through
/// an [`Arc`].  Produced by [`Interpretation::freeze`], consumed by
/// [`Interpretation::fork`].
#[derive(Clone, Debug)]
pub struct InterpretationBase {
    segment: Segment,
}

impl InterpretationBase {
    /// Number of atoms in the frozen base (the fork watermark: forked
    /// overlay atoms receive ids `>= len()`).
    pub fn len(&self) -> usize {
        self.segment.arena.len()
    }

    /// Returns `true` if the base holds no atoms.
    pub fn is_empty(&self) -> bool {
        self.segment.arena.is_empty()
    }

    /// Iterates over the base atoms in insertion order.
    pub fn atoms(&self) -> impl Iterator<Item = &Atom> + '_ {
        self.segment.arena.iter()
    }
}

/// The result of an index probe: the ascending concatenation of a base index
/// tail and an overlay index tail.
///
/// Base ids are all `< base_len` and overlay ids all `>= base_len`, so the
/// concatenation is ascending as a whole and supports the same
/// binary-search-at-a-watermark operations as a single slice.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdProbe<'a> {
    base: &'a [AtomId],
    overlay: &'a [AtomId],
}

impl<'a> IdProbe<'a> {
    /// An empty probe result.
    pub fn empty() -> IdProbe<'static> {
        IdProbe {
            base: &[],
            overlay: &[],
        }
    }

    /// Total number of ids.
    #[inline]
    pub fn len(&self) -> usize {
        self.base.len() + self.overlay.len()
    }

    /// Returns `true` if the probe matched nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.overlay.is_empty()
    }

    /// Iterates over the ids in ascending order.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = AtomId> + 'a {
        self.base.iter().chain(self.overlay.iter()).copied()
    }

    /// The two underlying ascending slices, `(base, overlay)`.  Hot loops
    /// iterate these back to back instead of through [`IdProbe::iter`]: two
    /// tight slice loops avoid the chain iterator's per-element branch.
    #[inline]
    pub fn slices(self) -> (&'a [AtomId], &'a [AtomId]) {
        (self.base, self.overlay)
    }

    /// The ids with `index < watermark` (ascending).  O(log n).
    pub fn below(self, watermark: usize) -> IdProbe<'a> {
        let base_cut = self.base.partition_point(|id| id.index() < watermark);
        let overlay_cut = self.overlay.partition_point(|id| id.index() < watermark);
        IdProbe {
            base: &self.base[..base_cut],
            overlay: &self.overlay[..overlay_cut],
        }
    }

    /// The ids with `index >= watermark` (ascending).  O(log n).
    pub fn since(self, watermark: usize) -> IdProbe<'a> {
        let base_cut = self.base.partition_point(|id| id.index() < watermark);
        let overlay_cut = self.overlay.partition_point(|id| id.index() < watermark);
        IdProbe {
            base: &self.base[base_cut..],
            overlay: &self.overlay[overlay_cut..],
        }
    }
}

/// Lazy ascending merge of two sorted deduplicated `Term` sequences,
/// emitting each term once.  Used to present the union of base and overlay
/// domain sets in exactly the order a monolithic [`BTreeSet`] would.
struct SortedTermMerge<'a> {
    left: Peekable<std::collections::btree_set::Iter<'a, Term>>,
    right: Peekable<std::collections::btree_set::Iter<'a, Term>>,
}

impl<'a> SortedTermMerge<'a> {
    fn new(left: &'a BTreeSet<Term>, right: &'a BTreeSet<Term>) -> SortedTermMerge<'a> {
        SortedTermMerge {
            left: left.iter().peekable(),
            right: right.iter().peekable(),
        }
    }
}

impl<'a> Iterator for SortedTermMerge<'a> {
    type Item = &'a Term;

    fn next(&mut self) -> Option<&'a Term> {
        match (self.left.peek(), self.right.peek()) {
            (Some(l), Some(r)) => match l.cmp(r) {
                std::cmp::Ordering::Less => self.left.next(),
                std::cmp::Ordering::Greater => self.right.next(),
                std::cmp::Ordering::Equal => {
                    self.right.next();
                    self.left.next()
                }
            },
            (Some(_), None) => self.left.next(),
            (None, _) => self.right.next(),
        }
    }
}

static EMPTY_TERM_SET: BTreeSet<Term> = BTreeSet::new();

/// A total interpretation represented by its positive part plus its domain.
#[derive(Clone, Default, Debug)]
pub struct Interpretation {
    /// The shared frozen base segment, if this interpretation was forked.
    base: Option<Arc<InterpretationBase>>,
    /// The private mutable segment (the whole storage when `base` is
    /// `None`).  Its id lists hold absolute ids (`>= base_len`).
    overlay: Segment,
}

// `Send + Sync` audit: all storage is owned (`Vec`, `HashMap`, `BTreeSet` of
// `Copy` terms) or shared read-only behind `Arc`, so a frozen interpretation
// can be shared by reference with every pool worker of a round.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Interpretation>();
    assert_send_sync::<InterpretationBase>();
};

impl Interpretation {
    /// Creates an empty interpretation (empty positive part, empty domain).
    pub fn new() -> Interpretation {
        Interpretation::default()
    }

    /// Creates an empty interpretation with storage reserved for `atoms`
    /// inserts (arena, hash table, and position index), the base-freeze hot
    /// path of bulk loads.
    pub fn with_capacity(atoms: usize) -> Interpretation {
        Interpretation {
            base: None,
            overlay: Segment {
                arena: Vec::with_capacity(atoms),
                by_hash: HashMap::with_capacity(atoms),
                by_predicate: HashMap::new(),
                // Heuristic: most workloads index ~2 ground positions per
                // atom; a slight under-reservation only costs one rehash.
                by_position: HashMap::with_capacity(atoms.saturating_mul(2)),
                domain: BTreeSet::new(),
                domain_occurrences: HashMap::new(),
                extra_domain: BTreeSet::new(),
            },
        }
    }

    /// Creates an interpretation from ground atoms, reserving capacity up
    /// front from the iterator's size hint.
    ///
    /// # Panics
    ///
    /// Panics if an atom contains a variable.
    pub fn from_atoms<I>(atoms: I) -> Interpretation
    where
        I: IntoIterator<Item = Atom>,
    {
        let iter = atoms.into_iter();
        let (lower, upper) = iter.size_hint();
        let mut out = Interpretation::with_capacity(upper.unwrap_or(lower));
        for a in iter {
            out.insert(a);
        }
        out
    }

    /// Forks a frozen base: O(1), sharing the base segment and starting an
    /// empty private overlay.  Ids, indexes, domain, and watermark semantics
    /// are identical to a monolithic interpretation holding the same atoms.
    pub fn fork(base: &Arc<InterpretationBase>) -> Interpretation {
        Interpretation {
            base: Some(Arc::clone(base)),
            overlay: Segment::default(),
        }
    }

    /// Freezes this interpretation into an immutable shareable base.
    ///
    /// Moves the storage: a monolithic interpretation is wrapped without
    /// copying, and a fork whose overlay is empty returns the existing base
    /// `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if this is a fork with a non-empty overlay: a base is built
    /// privately, never flattened out of a fork.
    pub fn freeze(self) -> Arc<InterpretationBase> {
        match self.base {
            None => Arc::new(InterpretationBase {
                segment: self.overlay,
            }),
            Some(base) => {
                assert!(
                    self.overlay.arena.is_empty() && self.overlay.extra_domain.is_empty(),
                    "Interpretation::freeze of a fork with a non-empty overlay: \
                     only a privately built interpretation can be frozen"
                );
                base
            }
        }
    }

    /// Number of atoms in the shared base segment (0 when not forked).
    /// The floor of [`Interpretation::truncate`].
    pub fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.len())
    }

    /// Number of atoms in the private overlay segment.
    pub fn overlay_len(&self) -> usize {
        self.overlay.arena.len()
    }

    /// Inserts a ground atom into the positive part.  Returns `true` if it was
    /// new.
    ///
    /// The insert performs one hash computation and, for new atoms, one
    /// `AtomId` push per index entry; the atom itself is moved into the arena
    /// without cloning.  On a forked interpretation the atom lands in the
    /// private overlay (duplicates of base atoms are detected through the
    /// base's hash table first).
    ///
    /// # Panics
    ///
    /// Panics if the atom contains a variable.
    pub fn insert(&mut self, atom: Atom) -> bool {
        assert!(
            atom.is_ground(),
            "interpretations contain only ground atoms, got {atom}"
        );
        let hash = atom_hash(&atom);
        let base_len = self.base_len();
        if let Some(base) = &self.base {
            if let Some(bucket) = base.segment.by_hash.get(&hash) {
                if bucket
                    .iter()
                    .any(|id| base.segment.arena[id.index()] == atom)
                {
                    return false;
                }
            }
        }
        let bucket = self
            .overlay
            .by_hash
            .entry(hash)
            .or_insert_with(|| Vec::with_capacity(BUCKET_CAPACITY));
        if bucket
            .iter()
            .any(|id| self.overlay.arena[id.index() - base_len] == atom)
        {
            return false;
        }
        let id =
            AtomId(u32::try_from(base_len + self.overlay.arena.len()).expect("arena overflow"));
        bucket.push(id);
        for (position, t) in atom.args().iter().enumerate() {
            self.overlay.domain.insert(*t);
            *self.overlay.domain_occurrences.entry(*t).or_insert(0) += 1;
            self.overlay
                .by_position
                .entry((atom.predicate(), position as u32, *t))
                .or_insert_with(|| Vec::with_capacity(BUCKET_CAPACITY))
                .push(id);
        }
        self.overlay
            .by_predicate
            .entry(atom.predicate())
            .or_default()
            .push(id);
        self.overlay.arena.push(atom);
        true
    }

    /// Rolls the arena back to its first `len` atoms: every atom inserted at
    /// or after the watermark `len` (an earlier value of
    /// [`Interpretation::len`]) is removed, together with its index entries
    /// and its contribution to `dom(I)`.
    ///
    /// This is the *epoch rollback* primitive of incremental reasoning
    /// sessions: because [`AtomId`]s are dense and assigned in insertion
    /// order, the atoms of an epoch occupy exactly an arena suffix, every id
    /// list of every index ends with the ids being removed (lists are
    /// ascending), and truncation is `O(atoms removed)` — surviving atoms,
    /// ids and index entries are untouched.  Explicitly registered domain
    /// elements ([`Interpretation::add_domain_element`]) are never removed.
    ///
    /// A no-op if `len >= self.len()`.  Truncating exactly to the fork
    /// watermark empties the overlay and leaves the shared base untouched.
    ///
    /// # Panics
    ///
    /// Panics if `len < self.base_len()`: the base segment is frozen and
    /// shared, so rolling back into it would corrupt every fork — callers
    /// must retract to a mark at or above the fork watermark.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        let base_len = self.base_len();
        assert!(
            len >= base_len,
            "cannot truncate a forked interpretation below its base watermark \
             (requested {len}, base holds {base_len} atoms)"
        );
        while base_len + self.overlay.arena.len() > len {
            let id = AtomId((base_len + self.overlay.arena.len() - 1) as u32);
            let atom = self.overlay.arena.pop().expect("arena is non-empty");
            let hash = atom_hash(&atom);
            let bucket = self
                .overlay
                .by_hash
                .get_mut(&hash)
                .expect("stored atoms have a hash bucket");
            bucket.retain(|candidate| *candidate != id);
            if bucket.is_empty() {
                self.overlay.by_hash.remove(&hash);
            }
            for (position, t) in atom.args().iter().enumerate() {
                let occurrences = self
                    .overlay
                    .domain_occurrences
                    .get_mut(t)
                    .expect("domain terms are counted");
                *occurrences -= 1;
                if *occurrences == 0 {
                    self.overlay.domain_occurrences.remove(t);
                    self.overlay.domain.remove(t);
                }
                let key = (atom.predicate(), position as u32, *t);
                let ids = self
                    .overlay
                    .by_position
                    .get_mut(&key)
                    .expect("stored atoms are position-indexed");
                debug_assert_eq!(ids.last(), Some(&id), "id lists are ascending");
                ids.pop();
                if ids.is_empty() {
                    self.overlay.by_position.remove(&key);
                }
            }
            let ids = self
                .overlay
                .by_predicate
                .get_mut(&atom.predicate())
                .expect("stored atoms are predicate-indexed");
            debug_assert_eq!(ids.last(), Some(&id), "id lists are ascending");
            ids.pop();
            if ids.is_empty() {
                self.overlay.by_predicate.remove(&atom.predicate());
            }
        }
    }

    /// Registers an additional domain element that need not occur in `I⁺`.
    pub fn add_domain_element(&mut self, term: Term) {
        assert!(term.is_ground(), "domain elements must be ground");
        if let Some(base) = &self.base {
            if base.segment.extra_domain.contains(&term) {
                return;
            }
        }
        self.overlay.extra_domain.insert(term);
    }

    /// Returns `true` if the positive part contains the atom.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.id_of(atom).is_some()
    }

    /// Returns the arena id of the atom, if present.
    pub fn id_of(&self, atom: &Atom) -> Option<AtomId> {
        self.id_of_parts(atom.predicate(), atom.args())
    }

    /// [`Interpretation::id_of`] for an atom given as `(predicate, args)`
    /// parts, without building an [`Atom`].
    pub fn id_of_parts(&self, predicate: Symbol, args: &[Term]) -> Option<AtomId> {
        let hash = parts_hash(predicate, args);
        if let Some(base) = &self.base {
            if let Some(found) = base.segment.by_hash.get(&hash).and_then(|bucket| {
                bucket.iter().copied().find(|id| {
                    let stored = &base.segment.arena[id.index()];
                    stored.predicate() == predicate && stored.args() == args
                })
            }) {
                return Some(found);
            }
        }
        let base_len = self.base_len();
        self.overlay.by_hash.get(&hash)?.iter().copied().find(|id| {
            let stored = &self.overlay.arena[id.index() - base_len];
            stored.predicate() == predicate && stored.args() == args
        })
    }

    /// [`Interpretation::contains`] for an atom given as parts.
    pub fn contains_parts(&self, predicate: Symbol, args: &[Term]) -> bool {
        self.id_of_parts(predicate, args).is_some()
    }

    /// [`Interpretation::satisfies_negation_of`] for an atom given as parts.
    pub fn satisfies_negation_of_parts(&self, predicate: Symbol, args: &[Term]) -> bool {
        args.iter().all(|t| self.in_domain(t)) && !self.contains_parts(predicate, args)
    }

    /// The atom stored under the given arena id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this interpretation.
    pub fn atom(&self, id: AtomId) -> &Atom {
        let base_len = self.base_len();
        if id.index() < base_len {
            let base = self.base.as_ref().expect("ids below base_len imply a base");
            &base.segment.arena[id.index()]
        } else {
            &self.overlay.arena[id.index() - base_len]
        }
    }

    /// Returns `true` if `t` belongs to `dom(I)`.
    pub fn in_domain(&self, t: &Term) -> bool {
        if self.overlay.domain.contains(t) || self.overlay.extra_domain.contains(t) {
            return true;
        }
        match &self.base {
            Some(base) => base.segment.domain.contains(t) || base.segment.extra_domain.contains(t),
            None => false,
        }
    }

    /// Returns `true` if the *negative* literal `¬atom` belongs to `I`, i.e.
    /// all terms of `atom` are in `dom(I)` and `atom ∉ I⁺`.
    pub fn satisfies_negation_of(&self, atom: &Atom) -> bool {
        atom.terms().all(|t| self.in_domain(t)) && !self.contains(atom)
    }

    /// Returns `true` if the ground literal belongs to `I`.
    pub fn satisfies_literal(&self, lit: &Literal) -> bool {
        if lit.is_positive() {
            self.contains(lit.atom())
        } else {
            self.satisfies_negation_of(lit.atom())
        }
    }

    /// Number of atoms in the positive part `|I⁺|`.
    ///
    /// Also the *watermark* for delta matching: atoms inserted after `len()`
    /// was observed receive ids `>= len()`.
    pub fn len(&self) -> usize {
        self.base_len() + self.overlay.arena.len()
    }

    /// Returns `true` if the positive part is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the positive part in insertion order.
    pub fn atoms(&self) -> impl Iterator<Item = &Atom> + '_ {
        let base = self
            .base
            .as_ref()
            .map(|b| b.segment.arena.as_slice())
            .unwrap_or(&[]);
        base.iter().chain(self.overlay.arena.iter())
    }

    /// Iterates over the atoms inserted at or after the watermark (the value
    /// of [`Interpretation::len`] at some earlier point).
    pub fn atoms_from(&self, watermark: usize) -> impl Iterator<Item = &Atom> + '_ {
        let base_len = self.base_len();
        let base = match &self.base {
            Some(b) if watermark < base_len => &b.segment.arena[watermark..],
            _ => &[],
        };
        let overlay_start = watermark
            .saturating_sub(base_len)
            .min(self.overlay.arena.len());
        base.iter()
            .chain(self.overlay.arena[overlay_start..].iter())
    }

    /// Returns the positive part as a sorted vector (deterministic order).
    pub fn sorted_atoms(&self) -> Vec<Atom> {
        let mut v: Vec<Atom> = self.atoms().cloned().collect();
        v.sort();
        v
    }

    /// The atoms of the positive part with the given predicate.
    pub fn atoms_with_predicate(&self, predicate: Symbol) -> impl Iterator<Item = &Atom> + '_ {
        self.ids_with_predicate(predicate)
            .iter()
            .map(move |id| self.atom(id))
    }

    /// The ids (ascending) of the atoms with the given predicate.
    pub fn ids_with_predicate(&self, predicate: Symbol) -> IdProbe<'_> {
        IdProbe {
            base: self
                .base
                .as_ref()
                .and_then(|b| b.segment.by_predicate.get(&predicate))
                .map(Vec::as_slice)
                .unwrap_or(&[]),
            overlay: self
                .overlay
                .by_predicate
                .get(&predicate)
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        }
    }

    /// Number of atoms with the given predicate.
    pub fn predicate_count(&self, predicate: Symbol) -> usize {
        self.ids_with_predicate(predicate).len()
    }

    /// Index probe: the ids (ascending) of the atoms whose predicate is
    /// `predicate` and whose argument at `position` is the ground term
    /// `term`.  This is the core lookup of the indexed join engine.
    pub fn probe(&self, predicate: Symbol, position: u32, term: Term) -> IdProbe<'_> {
        let key = (predicate, position, term);
        IdProbe {
            base: self
                .base
                .as_ref()
                .and_then(|b| b.segment.by_position.get(&key))
                .map(Vec::as_slice)
                .unwrap_or(&[]),
            overlay: self
                .overlay
                .by_position
                .get(&key)
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        }
    }

    /// Cardinality of an index probe without materialising it.
    pub fn probe_count(&self, predicate: Symbol, position: u32, term: Term) -> usize {
        self.probe(predicate, position, term).len()
    }

    fn base_domain_sets(&self) -> (&BTreeSet<Term>, &BTreeSet<Term>) {
        match &self.base {
            Some(b) => (&b.segment.domain, &b.segment.extra_domain),
            None => (&EMPTY_TERM_SET, &EMPTY_TERM_SET),
        }
    }

    /// The domain `dom(I)` (terms of `I⁺` plus explicitly registered ones).
    pub fn domain(&self) -> BTreeSet<Term> {
        let (base_domain, base_extra) = self.base_domain_sets();
        let mut d = base_domain.clone();
        d.extend(self.overlay.domain.iter().copied());
        d.extend(base_extra.iter().copied());
        d.extend(self.overlay.extra_domain.iter().copied());
        d
    }

    /// Iterates over `dom(I)` without materialising a set: first the terms
    /// of `I⁺` in `Term` order, then the extra domain elements not in `I⁺`,
    /// also in `Term` order — exactly the sequence a monolithic
    /// interpretation with the same contents produces, regardless of how
    /// the atoms are split between base and overlay.
    pub fn domain_iter(&self) -> impl Iterator<Item = &Term> + '_ {
        let (base_domain, base_extra) = self.base_domain_sets();
        let in_true_domain =
            move |t: &Term| base_domain.contains(t) || self.overlay.domain.contains(t);
        SortedTermMerge::new(base_domain, &self.overlay.domain).chain(
            SortedTermMerge::new(base_extra, &self.overlay.extra_domain)
                .filter(move |t| !in_true_domain(t)),
        )
    }

    /// Returns `true` if `self⁺ ⊆ other⁺`.
    pub fn is_subset_of(&self, other: &Interpretation) -> bool {
        self.atoms().all(|a| other.contains(a))
    }

    /// Returns `true` if the positive parts coincide.
    pub fn same_atoms_as(&self, other: &Interpretation) -> bool {
        self.len() == other.len() && self.is_subset_of(other)
    }

    /// Set-difference of positive parts: atoms of `self` not in `other`.
    pub fn difference(&self, other: &Interpretation) -> Vec<Atom> {
        let mut v: Vec<Atom> = self
            .atoms()
            .filter(|a| !other.contains(a))
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// The set of predicates with at least one true atom.
    pub fn predicates(&self) -> HashSet<Symbol> {
        let base = self
            .base
            .as_ref()
            .map(|b| &b.segment.by_predicate)
            .into_iter()
            .flatten();
        base.chain(self.overlay.by_predicate.iter())
            .filter(|(_, v)| !v.is_empty())
            .map(|(&p, _)| p)
            .collect()
    }

    /// Returns the nulls occurring in the positive part.
    pub fn nulls(&self) -> BTreeSet<Term> {
        let (base_domain, _) = self.base_domain_sets();
        SortedTermMerge::new(base_domain, &self.overlay.domain)
            .filter(|t| t.is_null())
            .copied()
            .collect()
    }
}

impl PartialEq for Interpretation {
    /// Two interpretations are equal when their positive parts and domains
    /// coincide (regardless of how atoms are split between base and
    /// overlay).
    fn eq(&self, other: &Self) -> bool {
        self.same_atoms_as(other) && self.domain() == other.domain()
    }
}

impl Eq for Interpretation {}

impl fmt::Display for Interpretation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.sorted_atoms().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Atom> for Interpretation {
    fn from_iter<I: IntoIterator<Item = Atom>>(iter: I) -> Self {
        Interpretation::from_atoms(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, cst};

    fn sample() -> Interpretation {
        Interpretation::from_atoms(vec![
            atom("p", vec![cst("a")]),
            atom("q", vec![cst("a"), Term::null(0)]),
        ])
    }

    #[test]
    fn insert_builds_domain() {
        let i = sample();
        assert_eq!(i.len(), 2);
        assert!(i.in_domain(&cst("a")));
        assert!(i.in_domain(&Term::null(0)));
        assert!(!i.in_domain(&cst("b")));
        assert_eq!(i.domain().len(), 2);
        assert_eq!(i.nulls().len(), 1);
    }

    #[test]
    fn negative_literals_require_domain_membership() {
        let i = sample();
        // q(a,a) is over the domain and not true, so ¬q(a,a) holds.
        assert!(i.satisfies_negation_of(&atom("q", vec![cst("a"), cst("a")])));
        // p(b) mentions b ∉ dom(I): neither p(b) nor ¬p(b) is in I.
        assert!(!i.satisfies_negation_of(&atom("p", vec![cst("b")])));
        assert!(!i.contains(&atom("p", vec![cst("b")])));
        // p(a) is true, so ¬p(a) does not hold.
        assert!(!i.satisfies_negation_of(&atom("p", vec![cst("a")])));
    }

    #[test]
    fn satisfies_literal_dispatches_on_polarity() {
        let i = sample();
        assert!(i.satisfies_literal(&Literal::positive(atom("p", vec![cst("a")]))));
        assert!(i.satisfies_literal(&Literal::negative(atom("p", vec![Term::null(0)]))));
        assert!(!i.satisfies_literal(&Literal::negative(atom("p", vec![cst("a")]))));
    }

    #[test]
    fn extra_domain_elements_extend_negative_knowledge() {
        let mut i = sample();
        assert!(!i.satisfies_negation_of(&atom("p", vec![cst("bob")])));
        i.add_domain_element(cst("bob"));
        assert!(i.satisfies_negation_of(&atom("p", vec![cst("bob")])));
        assert!(i.domain_iter().count() == 3);
        assert!(i.domain_iter().any(|t| *t == cst("bob")));
    }

    #[test]
    fn subset_and_equality() {
        let i = sample();
        let mut j = i.clone();
        assert!(i.is_subset_of(&j) && j.is_subset_of(&i));
        assert!(i.same_atoms_as(&j));
        assert_eq!(i, j);
        j.insert(atom("p", vec![cst("b")]));
        assert!(i.is_subset_of(&j));
        assert!(!j.is_subset_of(&i));
        assert_eq!(j.difference(&i), vec![atom("p", vec![cst("b")])]);
    }

    #[test]
    #[should_panic(expected = "ground atoms")]
    fn inserting_non_ground_atom_panics() {
        let mut i = Interpretation::new();
        i.insert(atom("p", vec![crate::var("X")]));
    }

    #[test]
    fn duplicate_insert_reports_false() {
        let mut i = sample();
        assert!(!i.insert(atom("p", vec![cst("a")])));
        assert!(i.insert(atom("p", vec![cst("z")])));
    }

    #[test]
    fn display_is_sorted_and_braced() {
        // Atoms sort in symbol-intern order, which is process-wide: intern
        // `a` before `b` here rather than rely on another test having done so.
        Symbol::intern("a");
        Symbol::intern("b");
        let i = Interpretation::from_atoms(vec![atom("b", vec![]), atom("a", vec![])]);
        assert_eq!(i.to_string(), "{a, b}");
    }

    #[test]
    fn arena_ids_are_dense_and_in_insertion_order() {
        let mut i = Interpretation::new();
        let a = atom("p", vec![cst("a")]);
        let b = atom("p", vec![cst("b")]);
        i.insert(a.clone());
        i.insert(b.clone());
        assert_eq!(i.id_of(&a), Some(AtomId(0)));
        assert_eq!(i.id_of(&b), Some(AtomId(1)));
        assert_eq!(i.atom(AtomId(1)), &b);
        assert_eq!(i.id_of(&atom("p", vec![cst("z")])), None);
        let collected: Vec<&Atom> = i.atoms().collect();
        assert_eq!(collected, vec![&a, &b]);
    }

    #[test]
    fn position_index_probes_by_bound_argument() {
        let i = Interpretation::from_atoms(vec![
            atom("edge", vec![cst("a"), cst("b")]),
            atom("edge", vec![cst("a"), cst("c")]),
            atom("edge", vec![cst("b"), cst("c")]),
        ]);
        let pred = Symbol::intern("edge");
        assert_eq!(i.probe(pred, 0, cst("a")).len(), 2);
        assert_eq!(i.probe(pred, 1, cst("c")).len(), 2);
        assert_eq!(i.probe(pred, 0, cst("z")).len(), 0);
        assert_eq!(i.probe_count(pred, 1, cst("b")), 1);
        assert_eq!(i.predicate_count(pred), 3);
        assert_eq!(i.predicate_count(Symbol::intern("missing")), 0);
        // Probes return ascending ids.
        let ids: Vec<AtomId> = i.probe(pred, 1, cst("c")).iter().collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn truncate_rolls_back_an_arena_suffix_exactly() {
        let mut i = Interpretation::from_atoms(vec![
            atom("p", vec![cst("a")]),
            atom("q", vec![cst("a"), cst("b")]),
        ]);
        let before = i.clone();
        let watermark = i.len();
        i.insert(atom("p", vec![cst("b")]));
        i.insert(atom("q", vec![cst("b"), cst("c")]));
        i.insert(atom("r", vec![Term::null(4)]));
        i.truncate(watermark);
        // Structural equality: arena, ids, indexes, domain all match the
        // pre-epoch state.
        assert_eq!(i, before);
        assert_eq!(i.len(), 2);
        assert_eq!(
            i.atoms().cloned().collect::<Vec<_>>(),
            before.atoms().cloned().collect::<Vec<_>>()
        );
        assert_eq!(i.id_of(&atom("p", vec![cst("a")])), Some(AtomId(0)));
        assert_eq!(i.id_of(&atom("p", vec![cst("b")])), None);
        assert_eq!(i.predicate_count(Symbol::intern("r")), 0);
        assert_eq!(i.probe(Symbol::intern("q"), 0, cst("b")).len(), 0);
        assert!(!i.in_domain(&cst("c")));
        assert!(!i.in_domain(&Term::null(4)));
        // The term `b` occurred both before and inside the epoch: it must
        // survive the rollback.
        assert!(i.in_domain(&cst("b")));
        // Re-inserting after a truncate reuses the freed dense ids.
        assert!(i.insert(atom("p", vec![cst("b")])));
        assert_eq!(i.id_of(&atom("p", vec![cst("b")])), Some(AtomId(2)));
    }

    #[test]
    fn truncate_beyond_the_arena_is_a_no_op_and_keeps_extra_domain() {
        let mut i = sample();
        i.add_domain_element(cst("bob"));
        let before = i.clone();
        i.truncate(100);
        assert_eq!(i, before);
        i.truncate(0);
        assert!(i.is_empty());
        assert_eq!(i.domain().len(), 1, "extra domain elements survive");
        assert!(i.in_domain(&cst("bob")));
    }

    #[test]
    fn truncate_to_zero_empties_every_index() {
        let mut i = Interpretation::from_atoms(vec![
            atom("p", vec![cst("a")]),
            atom("q", vec![cst("a"), cst("b")]),
            atom("p", vec![Term::null(1)]),
        ]);
        i.truncate(0);
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
        assert_eq!(i.atoms().count(), 0);
        assert_eq!(i.domain().len(), 0);
        assert_eq!(i.predicates().len(), 0);
        assert_eq!(i.predicate_count(Symbol::intern("p")), 0);
        assert_eq!(i.probe(Symbol::intern("q"), 0, cst("a")).len(), 0);
        assert_eq!(i.id_of(&atom("p", vec![cst("a")])), None);
        // The emptied interpretation behaves like a fresh one: inserts
        // restart at id 0 and rebuild the indexes.
        assert!(i.insert(atom("q", vec![cst("a"), cst("b")])));
        assert_eq!(
            i.id_of(&atom("q", vec![cst("a"), cst("b")])),
            Some(AtomId(0))
        );
        assert_eq!(i.probe(Symbol::intern("q"), 1, cst("b")).len(), 1);
    }

    #[test]
    fn truncate_after_a_no_op_insert_changes_nothing() {
        let mut i = sample();
        let watermark = i.len();
        // Duplicate insert: no arena growth, no index growth.
        assert!(!i.insert(atom("p", vec![cst("a")])));
        let before = i.clone();
        i.truncate(watermark);
        assert_eq!(i, before);
        assert_eq!(i.len(), watermark);
        assert_eq!(i.id_of(&atom("p", vec![cst("a")])), Some(AtomId(0)));
        assert!(i.in_domain(&cst("a")));
    }

    #[test]
    fn double_truncate_to_the_same_mark_is_idempotent() {
        let mut i = sample();
        let watermark = i.len();
        i.insert(atom("p", vec![cst("b")]));
        i.insert(atom("r", vec![cst("b"), Term::null(7)]));
        i.truncate(watermark);
        let after_first = i.clone();
        // The second truncate sees `len == watermark` and must be a no-op —
        // in particular it must not decrement domain occurrence counts or
        // pop index tails again.
        i.truncate(watermark);
        assert_eq!(i, after_first);
        assert_eq!(i.len(), watermark);
        assert!(i.in_domain(&cst("a")));
        assert!(!i.in_domain(&cst("b")));
        assert!(!i.in_domain(&Term::null(7)));
        // Still a working arena afterwards.
        assert!(i.insert(atom("p", vec![cst("b")])));
        assert_eq!(
            i.id_of(&atom("p", vec![cst("b")])),
            Some(AtomId(watermark as u32))
        );
    }

    #[test]
    fn watermark_suffixes_select_newly_inserted_atoms() {
        let mut i = Interpretation::from_atoms(vec![atom("p", vec![cst("a")])]);
        let watermark = i.len();
        i.insert(atom("p", vec![cst("b")]));
        i.insert(atom("q", vec![cst("c")]));
        let delta: Vec<String> = i.atoms_from(watermark).map(Atom::to_string).collect();
        assert_eq!(delta, vec!["p(b)", "q(c)"]);
        assert_eq!(i.atoms_from(100).count(), 0);
    }

    // ---- base + overlay (copy-on-write forking) ----

    /// A monolithic interpretation and a base+overlay fork holding the same
    /// atoms, split after the first two inserts.
    fn monolithic_and_forked() -> (Interpretation, Interpretation) {
        let first = vec![
            atom("edge", vec![cst("a"), cst("b")]),
            atom("edge", vec![cst("b"), cst("c")]),
        ];
        let second = vec![
            atom("edge", vec![cst("a"), cst("c")]),
            atom("node", vec![cst("d")]),
        ];
        let mut mono = Interpretation::from_atoms(first.clone());
        let base = Interpretation::from_atoms(first).freeze();
        let mut fork = Interpretation::fork(&base);
        for a in second {
            mono.insert(a.clone());
            fork.insert(a);
        }
        (mono, fork)
    }

    #[test]
    fn fork_is_observationally_identical_to_monolithic() {
        let (mono, fork) = monolithic_and_forked();
        assert_eq!(fork.base_len(), 2);
        assert_eq!(fork.overlay_len(), 2);
        assert_eq!(mono, fork);
        assert_eq!(mono.len(), fork.len());
        assert_eq!(
            mono.atoms().collect::<Vec<_>>(),
            fork.atoms().collect::<Vec<_>>()
        );
        assert_eq!(mono.sorted_atoms(), fork.sorted_atoms());
        assert_eq!(mono.domain(), fork.domain());
        assert_eq!(mono.predicates(), fork.predicates());
        assert_eq!(mono.to_string(), fork.to_string());
        // Ids are dense and agree across the boundary.
        for id in 0..mono.len() {
            assert_eq!(mono.atom(AtomId(id as u32)), fork.atom(AtomId(id as u32)));
        }
        let e = atom("edge", vec![cst("a"), cst("c")]);
        assert_eq!(mono.id_of(&e), fork.id_of(&e));
    }

    #[test]
    fn probes_chain_base_then_overlay_ascending() {
        let (mono, fork) = monolithic_and_forked();
        let pred = Symbol::intern("edge");
        let mono_ids: Vec<AtomId> = mono.ids_with_predicate(pred).iter().collect();
        let fork_ids: Vec<AtomId> = fork.ids_with_predicate(pred).iter().collect();
        assert_eq!(mono_ids, fork_ids);
        assert!(fork_ids.windows(2).all(|w| w[0] < w[1]));
        // A probe spanning the boundary: edge(a, _) has one base and one
        // overlay match.
        let probe = fork.probe(pred, 0, cst("a"));
        assert_eq!(probe.len(), 2);
        let spanning: Vec<AtomId> = probe.iter().collect();
        assert_eq!(spanning, vec![AtomId(0), AtomId(2)]);
        // Watermark splits cut the concatenation, not the segments.
        assert_eq!(probe.below(2).iter().collect::<Vec<_>>(), vec![AtomId(0)]);
        assert_eq!(probe.since(2).iter().collect::<Vec<_>>(), vec![AtomId(2)]);
        assert_eq!(fork.predicate_count(pred), mono.predicate_count(pred));
        assert_eq!(
            fork.probe_count(pred, 1, cst("c")),
            mono.probe_count(pred, 1, cst("c"))
        );
    }

    #[test]
    fn forked_duplicate_of_a_base_atom_is_rejected() {
        let (_, mut fork) = monolithic_and_forked();
        assert!(!fork.insert(atom("edge", vec![cst("a"), cst("b")])));
        assert!(!fork.insert(atom("edge", vec![cst("a"), cst("c")])));
        assert_eq!(fork.len(), 4);
    }

    #[test]
    fn domain_iter_order_matches_monolithic_across_the_boundary() {
        let (mut mono, mut fork) = monolithic_and_forked();
        mono.add_domain_element(cst("zed"));
        fork.add_domain_element(cst("zed"));
        // An extra element that is also an atom term stays deduplicated.
        mono.add_domain_element(cst("a"));
        fork.add_domain_element(cst("a"));
        let mono_seq: Vec<Term> = mono.domain_iter().copied().collect();
        let fork_seq: Vec<Term> = fork.domain_iter().copied().collect();
        assert_eq!(mono_seq, fork_seq);
        assert_eq!(mono.nulls(), fork.nulls());
    }

    #[test]
    fn truncate_to_the_base_watermark_empties_the_overlay_only() {
        let (_, mut fork) = monolithic_and_forked();
        let base_len = fork.base_len();
        fork.truncate(base_len);
        assert_eq!(fork.len(), base_len);
        assert_eq!(fork.overlay_len(), 0);
        assert!(fork.contains(&atom("edge", vec![cst("a"), cst("b")])));
        assert!(!fork.contains(&atom("node", vec![cst("d")])));
        assert!(!fork.in_domain(&cst("d")));
        // Truncating to the watermark again (overlay already empty) is a
        // no-op on the base segment.
        fork.truncate(base_len);
        assert_eq!(fork.len(), base_len);
        // The arena keeps working: overlay ids restart at the watermark.
        assert!(fork.insert(atom("node", vec![cst("e")])));
        assert_eq!(
            fork.id_of(&atom("node", vec![cst("e")])),
            Some(AtomId(base_len as u32))
        );
    }

    #[test]
    fn truncate_across_the_base_boundary_rolls_back_mixed_epochs() {
        let (_, mut fork) = monolithic_and_forked();
        let mark = fork.len();
        fork.insert(atom("node", vec![cst("e")]));
        fork.insert(atom("edge", vec![cst("c"), cst("a")]));
        fork.truncate(mark);
        assert_eq!(fork.len(), mark);
        assert_eq!(fork.overlay_len(), mark - fork.base_len());
        assert!(!fork.contains(&atom("node", vec![cst("e")])));
        assert_eq!(fork.probe(Symbol::intern("edge"), 0, cst("c")).len(), 0);
        assert!(fork.contains(&atom("edge", vec![cst("a"), cst("c")])));
    }

    #[test]
    #[should_panic(expected = "below its base watermark")]
    fn truncate_below_the_base_watermark_panics() {
        let (_, mut fork) = monolithic_and_forked();
        fork.truncate(fork.base_len() - 1);
    }

    #[test]
    fn freeze_of_an_unforked_interpretation_is_zero_copy_and_refreezable() {
        // Freezing a fork with an empty overlay returns the same base.
        let base = Interpretation::from_atoms(vec![atom("p", vec![cst("a")])]).freeze();
        let refrozen = Interpretation::fork(&base).freeze();
        assert!(Arc::ptr_eq(&base, &refrozen));
    }

    #[test]
    #[should_panic(expected = "fork with a non-empty overlay")]
    fn freezing_a_grown_fork_panics() {
        let (_, fork) = monolithic_and_forked();
        fork.freeze();
    }

    #[test]
    fn forks_are_independent_of_each_other() {
        let base = Interpretation::from_atoms(vec![atom("p", vec![cst("a")])]).freeze();
        let mut f1 = Interpretation::fork(&base);
        let mut f2 = Interpretation::fork(&base);
        f1.insert(atom("p", vec![cst("b")]));
        f2.insert(atom("p", vec![cst("c")]));
        assert!(f1.contains(&atom("p", vec![cst("b")])));
        assert!(!f1.contains(&atom("p", vec![cst("c")])));
        assert!(f2.contains(&atom("p", vec![cst("c")])));
        assert!(!f2.contains(&atom("p", vec![cst("b")])));
        // Both assign the same dense id to their first overlay atom.
        assert_eq!(f1.id_of(&atom("p", vec![cst("b")])), Some(AtomId(1)));
        assert_eq!(f2.id_of(&atom("p", vec![cst("c")])), Some(AtomId(1)));
    }
}
