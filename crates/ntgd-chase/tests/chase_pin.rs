//! Output pin for the incremental chase.
//!
//! Runs seeded sessions through `IncrementalChase`: a chain program shaped
//! like servebench's chase-rw workload (a 400-fact frozen base, then asserts
//! of two edges with rollbacks in between) and three random programs with
//! existential rules (some of whose asserts exceed the step budget and roll
//! back).  After every request it folds into one FNV-1a hash the atoms the
//! request added, in arena order and with their null names, then the arena
//! length, `steps()` and `nulls_created()`; at the end of a session it folds
//! the whole arena in order.  The hash is pinned at thread counts 1 and 4.
//!
//! A change to the chase's internals that keeps this hash applies the same
//! triggers in the same order and invents the same nulls under the same
//! names.  The binary holds a single test because null names depend on the
//! interning order of variable symbols (see `common/mod.rs`).

mod common;

use common::{chain_session, drive, existential_session, Fnv, Outcome, Session};
use ntgd_core::parallel;

/// The pinned hash over every session below, recorded when the pin was
/// added.  It must not move unless the chase's output changes on purpose.
const PINNED: u64 = 0x01e0_a3fc_c7c1_446d;

fn fold_session(session: &Session, hash: &mut Fnv) {
    let mut seen = 0usize;
    let mut left = session.ops.len() + 1;
    drive(session, &mut |assert| assert(), &mut |chase, outcome| {
        hash.number(match outcome {
            Outcome::Asserted => 1,
            Outcome::Refused => 2,
            Outcome::Retracted => 3,
        });
        let len = chase.instance().len();
        for atom in chase.instance().atoms().skip(seen.min(len)) {
            hash.atom(atom);
        }
        seen = len;
        hash.number(len as u64);
        hash.number(chase.steps() as u64);
        hash.number(chase.nulls_created());
        left -= 1;
        if left == 0 {
            for atom in chase.instance().atoms() {
                hash.atom(atom);
            }
        }
    });
    assert_eq!(left, 0, "every request is observed");
}

fn pin_hash() -> u64 {
    let mut hash = Fnv::new();
    fold_session(&chain_session(1, 160), &mut hash);
    for seed in [11, 12, 13] {
        fold_session(&existential_session(seed, 60), &mut hash);
    }
    hash.0
}

#[test]
fn incremental_chase_output_is_pinned() {
    let mut hashes = Vec::new();
    for threads in [1, 4] {
        parallel::set_thread_override(Some(threads));
        hashes.push(pin_hash());
    }
    parallel::set_thread_override(None);
    assert_eq!(
        hashes[0], hashes[1],
        "the chase differs between 1 and 4 threads"
    );
    assert_eq!(
        hashes[0], PINNED,
        "the incremental chase's output moved: got {:#018x}",
        hashes[0]
    );
}
