//! # ntgd-server
//!
//! A **persistent reasoning service** over the `stable-tgd` engine: instead
//! of the batch pipeline (build a database, chase to fixpoint, answer, throw
//! everything away), a *session* keeps a loaded program — with its compiled
//! rule plans — and a chased arena instance alive, and lets clients grow,
//! query and roll back that state incrementally over a line protocol.  All
//! sessions of a process share the persistent worker pool of
//! `ntgd_core::parallel`, so even the small per-assert delta rounds of a
//! busy server fan out to already-running workers.
//!
//! The `ntgd-serve` binary exposes sessions in two std-only transports:
//!
//! * **TCP** (`ntgd-serve --listen 127.0.0.1:7171`): one session per
//!   connection.  The connection layer is **event-driven** —
//!   sessions are `Send`-able state machines owned by non-blocking
//!   [`Conn`]s on sharded poller threads, with ready batches executing on
//!   the persistent `ntgd_core::parallel` pool (per-session serial,
//!   cross-session parallel), so one process holds thousands of live
//!   sessions without one OS thread each.  Every connection's buffers are
//!   bounded: a request line may be up to [`MAX_LINE`] bytes, and a client
//!   that stops reading stalls instead of growing server memory.  A TCP
//!   transcript is byte-identical to the same script run through
//!   [`handle_session`] in memory.  `--max-sessions` caps live sessions
//!   (over the cap: one `ERR server at capacity` line, no banner).
//!   [`serve`] returns a [`ServeHandle`] for graceful shutdown;
//!   [`serve_tcp`] blocks.
//! * **REPL** (`ntgd-serve` or `--repl`): a single session on
//!   stdin/stdout ([`serve_repl`]) — also what the CI smoke test scripts.
//!
//! # Protocol grammar
//!
//! (The complete user-facing reference — every verb's argument grammar,
//! response shape, and the meaning of every `STATS` counter — lives in
//! `docs/PROTOCOL.md` at the repository root; `tests/help_sync.rs` keeps it
//! and the served `HELP` output in lockstep via [`protocol::HELP_LINES`].)
//!
//! The protocol is line-based and textual; programs, facts and queries use
//! the [`ntgd_parser`] syntax.  Each request is one line; the response is
//! zero or more data lines followed by **exactly one** terminator line
//! starting with `OK` or `ERR` (clients read until they see one).  On
//! session start the server sends a single `READY …` banner line.
//!
//! ```text
//! request   = load | assert | query | models | retract | stats | metrics
//!           | ping | help | quit
//! load      = "LOAD" rules-and-facts        ; (re)initialises the session
//! assert    = "ASSERT" facts                ; incremental re-chase, returns a mark
//! query     = "QUERY" query-text            ; "?- lits." or "?(X) :- lits."
//! models    = "MODELS" ["sms" | "lp"] ["max=" n]
//! retract   = "RETRACT-TO" mark             ; roll back to an earlier mark
//! stats     = "STATS" ["sms" | "base" | "conn" | "metrics"]
//!                                           ; "sms": only the deterministic
//!                                           ;   incremental-MODELS counters;
//!                                           ; "base": only the shared-base
//!                                           ;   counters;
//!                                           ; "conn": only the connection-
//!                                           ;   layer counters;
//!                                           ; "metrics": only the session's
//!                                           ;   per-verb request counters
//! metrics   = "METRICS"                     ; process-wide Prometheus-style
//!                                           ;   exposition (timings included;
//!                                           ;   nondeterministic by nature)
//! ping      = "PING"
//! help      = "HELP"
//! quit      = "QUIT"                        ; closes the session
//! ```
//!
//! Blank lines and lines starting with `%` or `#` are ignored (no response),
//! so REPL scripts can be commented.  Response shapes:
//!
//! ```text
//! LOAD …        →  OK rules=<r> facts=<f> atoms=<n> mark=0
//! ASSERT …      →  OK mark=<k> added=<a> derived=<d> atoms=<n>
//! QUERY …       →  ANSWER <t1>, <t2>, …   (one line per certain answer)
//!                  OK answers=<n>      ; null-bound tuples are dropped
//! MODELS …      →  MODEL {<atoms>}  (one line per model, lines sorted;
//!                  atoms sorted in symbol-intern order)
//!                  OK models=<m> mode=<sms|lp>
//! RETRACT-TO k  →  OK mark=<k> atoms=<n>
//! STATS         →  STAT <key>=<value> …  then  OK
//! METRICS       →  Prometheus-style text lines, then OK metrics lines=<n>
//! anything else →  ERR <one-line message>
//! ```
//!
//! # Observability
//!
//! The server instruments itself through [`ntgd_core::obs`]: per-verb
//! request counters and wall-time histograms, event-loop and pool phase
//! timers, and chase/grounding counters from the engine crates.  `METRICS`
//! serves the whole registry as Prometheus-style text; `STATS metrics`
//! prints only the session-local per-verb request tallies, which are a
//! pure function of the request history and therefore byte-stable across
//! thread counts (asserted like the other scopes).
//! `NTGD_OBS=0` disables the registry; `NTGD_LOG`/`NTGD_LOG_LEVEL` enable
//! the structured JSON-lines event log; `NTGD_SLOW_MS` logs slow requests
//! and `NTGD_SESSION_BUDGET` caps per-session cumulative execution time
//! ([`SessionBudget`]), both read by `ntgd-serve` into its
//! [`SessionConfig`] at startup.  Hard contract: apart from an explicitly
//! configured budget, timing data never influences execution decisions —
//! transcripts are bit-identical with observability on or off
//! (`tests/differential_oracle.rs`).
//!
//! # Session lifecycle
//!
//! A session is created empty.  `LOAD` parses a program (rules, optionally
//! initial facts), compiles its rule plans once, runs the initial chase and
//! establishes **mark 0**; re-`LOAD`ing discards the previous state.  Every
//! successful `ASSERT` performs an *incremental re-chase* — the new facts
//! seed the existing semi-naive delta worklists
//! ([`ntgd_chase::IncrementalChase`]), so a session never re-chases from
//! scratch — and returns a fresh epoch mark `k`.  `RETRACT-TO k` rolls the
//! arena back to mark `k` by truncation (O(atoms retracted)), invalidating
//! the later marks.  `QUERY` answers over the chased instance (a universal
//! model of the positive program): per the paper's certain-answer semantics
//! only constant tuples are answers — a tuple binding an answer variable to
//! a labelled null is never reported.
//! `MODELS` enumerates stable models of the *accumulated fact set* under the
//! paper's SMS semantics (`sms`, default, any program) or the LP
//! approach (`lp`, normal programs); results are cached per session state.
//! The chase uses Skolem semantics with canonically named witnesses, so the
//! session state — null names included — depends only on the set of facts
//! asserted and live, never on how assertions were batched (see
//! [`ntgd_chase::incremental`]).
//!
//! A session whose program is disjunctive, or contains negative literals,
//! still supports `ASSERT`/`MODELS`/`RETRACT-TO`: the chase (and hence
//! `QUERY`) is available for normal programs and chases the positive part,
//! exactly like the batch pipeline.
//!
//! # MODELS caching contract
//!
//! `MODELS sms` does **not** re-ground from scratch: each session holds an
//! [`ntgd_sms::IncrementalSmsState`] whose possibly-true closure and
//! grounding survive across `ASSERT`/`RETRACT-TO` and are advanced
//! semi-naively from the fact delta.  The cached state is *exact*: whenever
//! the `max` cap does not truncate the enumeration, the rendered answer is
//! bit-identical to a from-scratch [`ntgd_sms::SmsEngine`] on the same live
//! fact set (`tests/differential_oracle.rs` at the workspace root asserts
//! this over randomised command streams and thread counts).
//! When the cap *does* truncate, both paths return `max` true stable models
//! but may pick different ones — enumeration order follows the SAT search
//! over the grounding, and the cached grounding orders its atoms by arrival
//! (delta atoms appended) rather than by the fresh build's sorted intern —
//! so capped listings are samples, not a canonical prefix, on either path.
//! A capped sample can also differ between processes: symbols order by
//! their process-wide intern id, so another session that interned the same
//! constants first can change the sample.  Full listings are canonical.
//! What invalidates what:
//!
//! * **the session's first `MODELS sms`** — a full grounding of the live
//!   facts (a *rebuild*), whether or not the session was forked from a
//!   shared base;
//! * **`ASSERT` of facts over already-known constants** — the closure
//!   advances from the delta and the grounding appends only rule instances
//!   whose bodies touch closure-new atoms (a *reuse*);
//! * **`ASSERT` that changes the candidate domain** — a new constant, or a
//!   moved `Auto` null budget (any program with existential rules) — forces
//!   a full rebuild: a grown domain retroactively adds existential
//!   instantiations to old rule instances (a *rebuild*);
//! * **`RETRACT-TO`** — the cached state truncates to its newest snapshot
//!   at or below the target mark in `O(retracted)` (a *rollback*);
//!   retracting below the oldest snapshot drops the state (an
//!   *invalidation*);
//! * **repeated `MODELS` on an unchanged session** — served from the cache
//!   (a *hit*; the rendered-line cache may answer even earlier).
//!
//! `STATS` reports these counters as `sms_rebuilds`, `sms_reuses`,
//! `sms_hits`, `sms_rollbacks` and `sms_invalidations`, plus the current
//! `sms_closure_atoms`/`sms_ground_rules` sizes; `STATS sms` prints *only*
//! those lines, which are a pure function of the request history — never of
//! thread count or machine — so scripted transcripts (CI's `server-smoke`)
//! can assert them verbatim.
//!
//! # Shared-base caching contract
//!
//! With a [`BaseRegistry`] attached ([`SessionConfig::base_registry`]; the
//! `ntgd-serve` binary installs one per process), sessions that `LOAD` the
//! same program share one base instead of each rebuilding it.  A base is
//! the parsed program, its classification and the frozen chase of its
//! initial facts — nothing of `MODELS sms`, which every session grounds
//! itself (see the MODELS caching contract above):
//!
//! * **Identity.**  A base is keyed by the *canonical program text* — the
//!   trimmed `LOAD` payload, initial facts included — plus the session's
//!   step policy: the `max_steps` budget *and* the classification switch.
//!   Textually different spellings of one program miss the cache
//!   (conservative: two distinct programs can never alias); a changed step
//!   budget is a different key, since it could freeze a different fixpoint
//!   attempt — and so is a flipped [`SessionConfig::classify`], since a
//!   classified session may chase a terminating program unbounded where a
//!   blind one must stop at the budget, and sharing across that line would
//!   make `LOAD` outcomes depend on registry arrival order.
//! * **First `LOAD` (miss).**  The session parses, compiles and chases the
//!   initial facts to a fixpoint, then freezes everything — arena,
//!   compiled plans, witness memo — behind `Arc`s and registers the entry.
//!   Registration is first-wins under races; losing builds are discarded.
//! * **Every `LOAD` of a registered key (hit — and the registering `LOAD`
//!   itself).**  The session *forks* the entry in O(1): its arena is a
//!   mutable overlay over the shared immutable base
//!   (`ntgd_core::Interpretation`), `ASSERT` chases only the private fact
//!   delta, `RETRACT-TO` can roll back to mark 0 (the fork watermark) but
//!   never into the base, and `MODELS sms` grounds the session's own fact
//!   log on its first request, exactly as a private session does.
//!   Forking is symmetric — the first session forks its own frozen base —
//!   so a forked session's transcript is bit-identical to a private
//!   from-scratch session at every thread count
//!   (`tests/differential_oracle.rs` asserts this over randomised streams).
//! * **Invalidation.**  Entries are immutable and never invalidated:
//!   sessions only ever layer private overlays on top, and `LOAD` always
//!   replaces the whole session state, so a stale base cannot exist.  The
//!   registry lives as long as the process; its memory is bounded by the
//!   number of distinct programs loaded.
//!
//! `STATS base` reports the deterministic counters: `base_shared`, the
//! `base_atoms`/`base_overlay_atoms` split of the session arena at the fork
//! watermark, and the per-key registry counters `base_registry_hits`,
//! `base_registry_misses`, `base_rebuilds` and `base_forks`.

mod accounting;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session;

pub use accounting::{server_requests, SessionBudget};
pub use protocol::{parse_command, Command, ModelsMode, Response, StatsScope, HELP_LINES};
pub use registry::{BaseEntry, BaseKey, BaseRegistry, BaseStats};
pub use server::{
    handle_session, serve, serve_repl, serve_tcp, Conn, ConnSnapshot, ConnStats, LineBuffer,
    ServeHandle, MAX_LINE,
};
pub use session::{Session, SessionConfig};
