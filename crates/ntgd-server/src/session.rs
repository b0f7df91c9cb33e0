//! One reasoning session: a loaded program, its incrementally chased arena
//! instance, the epoch-mark history, and session-scoped model enumeration.
//! What the server records about each request lives in the `accounting`
//! module; how a process is configured lives in the `ntgd-serve` binary.

use std::collections::HashSet;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Duration;

use ntgd_chase::{ChaseConfig, EpochMark, IncrementalChase};
use ntgd_classes::ClassVerdict;
use ntgd_core::{obs, parallel, Atom, Database, DisjunctiveProgram, Program, Query, Term};
use ntgd_lp::{LpEngine, LpLimits};
use ntgd_parser::{parse_database, parse_query, parse_unit};
use ntgd_sms::{
    AtomSet, GroundSmsProgram, GroundingLimits, IncrementalSmsState, NullBudget, SmsEngine,
};

use crate::accounting::{server_requests, Accounting, SessionBudget};
use crate::protocol::{parse_command, Command, ModelsMode, Response, StatsScope};
use crate::registry::{BaseEntry, BaseKey, BaseRegistry, ProgramClass};
use crate::server::ConnStats;

/// Per-session limits, plus the state a serving process shares between its
/// sessions.  The default is a fixed set of constants and reads no
/// environment, so an embedded session behaves the same wherever it runs;
/// `ntgd-serve` fills one in from its flags and operator settings.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Step budget of one incremental re-chase (one `ASSERT`); exceeding it
    /// rolls the assertion back.
    pub max_steps: usize,
    /// Default cap on the number of models returned by `MODELS`.
    pub max_models: usize,
    /// The process-wide shared-base registry, if base sharing is on: the
    /// first `LOAD` of a program chases and freezes its base there, and
    /// every later `LOAD` of the same payload forks it copy-on-write
    /// instead of re-chasing (see the crate documentation's *shared-base
    /// caching contract*).  `None` (the default) builds every session
    /// privately; `ntgd-serve` installs one registry per process.
    pub base_registry: Option<Arc<BaseRegistry>>,
    /// Admission cap on concurrently live TCP sessions; a connection over
    /// the cap is answered with a single `ERR server at capacity` line and
    /// closed (no banner).  `None` (the default) accepts without limit;
    /// `ntgd-serve --max-sessions` sets it.
    pub max_sessions: Option<usize>,
    /// The serving transport's connection counters, installed by
    /// `serve`/`serve_repl` so `STATS conn` can report them.  `None` for
    /// embedded sessions (the scope then prints `conn_transport=embedded`
    /// and zeros).
    pub conn_stats: Option<Arc<ConnStats>>,
    /// Optional per-session cumulative execution-time cap (see
    /// [`SessionBudget`]); `ntgd-serve` reads it from
    /// `NTGD_SESSION_BUDGET`.  `None` (the default) never consults timing
    /// for any decision.
    pub session_budget: Option<SessionBudget>,
    /// Slow-request log threshold in milliseconds: a request whose wall
    /// time reaches it emits a `slow_request` event to the structured log
    /// (`NTGD_LOG`); `ntgd-serve` reads it from `NTGD_SLOW_MS`.  `None`
    /// (the default) disables.
    pub slow_ms: Option<u64>,
    /// Whether `LOAD` classifies the program against the decidability
    /// landscape (`ntgd_classes::classify`) and exploits the verdict:
    /// chase-terminating programs run with no chase step budget and an
    /// exact `Auto` null budget; out-of-fragment programs keep the budget
    /// and get a one-line `WARN` on `LOAD`.  Classification is purely
    /// syntactic (timing-independent), so transcripts stay deterministic.
    /// On by default; off is the blind-budget oracle the differential tests
    /// compare against.
    pub classify: bool,
    /// Idle-session timeout for TCP sessions: a connection whose peer has
    /// neither sent nor accepted bytes for this long is closed and its
    /// admission slot released (counted as `conn_idle_closed` in `STATS
    /// conn`).  `None` (the default) never reaps; `ntgd-serve
    /// --idle-timeout` sets it.
    pub idle_timeout: Option<Duration>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_steps: 100_000,
            max_models: 64,
            base_registry: None,
            max_sessions: None,
            conn_stats: None,
            session_budget: None,
            slow_ms: None,
            classify: true,
            idle_timeout: None,
        }
    }
}

/// The state reachable from one epoch mark: how to roll the chase and the
/// fact log back to it.
#[derive(Clone, Copy, Debug)]
struct SessionMark {
    chase: Option<EpochMark>,
    facts: usize,
}

/// The program-dependent part of a session, replaced wholesale by `LOAD`.
struct Loaded {
    /// The rules, as parsed (possibly disjunctive), shared with the SMS
    /// engines minted per `MODELS` request.
    disjunctive: Arc<DisjunctiveProgram>,
    /// The rules as a normal program, when no rule uses `|`.
    normal: Option<Program>,
    /// The resumable chase (normal programs; chases the positive part).
    chase: Option<IncrementalChase>,
    /// The reusable `MODELS sms` grounding state (closure + grounding kept
    /// across asserts/retracts).
    sms: IncrementalSmsState,
    /// Asserted facts in assertion order, deduplicated.
    facts: Vec<Atom>,
    /// Dedup mirror of `facts` (rebuilt on retract).
    fact_set: HashSet<Atom>,
    /// `marks[k]` = state after assert `k` (`marks[0]` = post-`LOAD`).
    marks: Vec<SessionMark>,
    /// Bumped on every mutation; keys the model cache.
    generation: u64,
    /// Session-scoped `MODELS` cache for the current generation.
    models_cache: Option<(u64, ModelsMode, usize, Vec<String>)>,
    /// The registry entry this state was forked from, when it shares a base.
    shared: Option<Arc<BaseEntry>>,
    /// Facts covered by the shared base (0 when built privately); the
    /// `STATS base` overlay count for chase-less (disjunctive) sessions.
    base_facts: usize,
    /// The program's decidability classification (`None` when
    /// [`SessionConfig::classify`] is off); inherited, not computed, when
    /// the state was forked (`STATS classes` provenance).
    class: Option<ProgramClass>,
}

/// The chase step budget the classification verdict supports: unbounded for
/// provably chase-terminating programs, the configured cap otherwise.  A
/// pure function of (verdict, config), shared by the private-build and fork
/// paths so both install identical budgets.
fn chase_config_for(class: Option<&ProgramClass>, config: &SessionConfig) -> ChaseConfig {
    match class {
        Some(class) if class.verdict == ClassVerdict::Terminating => ChaseConfig::unbounded(),
        _ => ChaseConfig::with_max_steps(config.max_steps),
    }
}

/// The `MODELS` null budget the verdict supports: the exact (unbounded
/// probe) `Auto` budget for chase-terminating programs, the clamped default
/// otherwise.
fn null_budget_for(class: Option<&ProgramClass>) -> NullBudget {
    match class {
        Some(class) if class.verdict == ClassVerdict::Terminating => NullBudget::AutoExact,
        _ => NullBudget::Auto,
    }
}

/// A reasoning session.  [`Session::execute`] drives it with protocol lines;
/// the typed methods ([`Session::load`], [`Session::assert_facts`], …) serve
/// in-process embedders (benchmarks, the example, tests).
pub struct Session {
    config: SessionConfig,
    loaded: Option<Loaded>,
    accounting: Accounting,
}

impl Session {
    /// Creates an empty session.
    pub fn new(config: SessionConfig) -> Session {
        let accounting = Accounting::new(config.session_budget, config.slow_ms);
        Session {
            config,
            loaded: None,
            accounting,
        }
    }

    /// Parses and executes one protocol line: the only entry point that
    /// accounts a request.  Accounting opens the request (counting it, and
    /// answering for it when a [`SessionBudget`] rejects it), the verb is
    /// dispatched, and accounting closes the request with its response.
    pub fn execute(&mut self, line: &str) -> Response {
        let parsed = parse_command(line);
        if matches!(parsed, Ok(Command::Nop)) {
            return Response::none();
        }
        let (request, rejection) = self.accounting.open(&parsed);
        let response = match (rejection, parsed) {
            (Some(rejection), _) => rejection,
            (None, Err(message)) => Response::err(message),
            (None, Ok(command)) => self.dispatch(command),
        };
        self.accounting.close(request, line, &response);
        response
    }

    fn dispatch(&mut self, command: Command) -> Response {
        match command {
            Command::Nop => Response::none(),
            Command::Ping => Response::ok("pong"),
            Command::Help => Response::ok_with(
                crate::protocol::HELP_LINES
                    .iter()
                    .map(|s| format!("INFO {s}"))
                    .collect(),
                "help",
            ),
            Command::Quit => Response {
                lines: vec!["OK bye".to_owned()],
                close: true,
            },
            Command::Load(text) => self.load(&text),
            Command::Assert(text) => self.assert_text(&text),
            Command::Query(text) => self.query_text(&text),
            Command::Models { mode, max } => self.models(mode, max),
            Command::RetractTo(mark) => self.retract_to(mark),
            Command::Stats { scope } => self.stats(scope),
            Command::Metrics => Self::metrics(),
        }
    }

    /// The `METRICS` verb: the process-wide registry as Prometheus-style
    /// text lines (see [`obs::prometheus_lines`]).  Timing-laden and
    /// process-global, so transcript-parity tests exclude it.
    fn metrics() -> Response {
        let lines = obs::prometheus_lines();
        let count = lines.len();
        Response::ok_with(lines, format!("metrics lines={count}"))
    }

    /// `LOAD`: parse rules (and optional initial facts), compile the rule
    /// plans, run the initial chase and establish mark 0.  Replaces any
    /// previously loaded state; on error the previous state is kept.
    ///
    /// With a [`SessionConfig::base_registry`] attached, the chased base of
    /// the first `LOAD` of a payload is frozen and registered, and every
    /// `LOAD` of the same payload — this first one included, so transcripts
    /// never depend on arrival order — *forks* that base copy-on-write
    /// instead of re-parsing, re-classifying, re-compiling and re-chasing it.
    pub fn load(&mut self, text: &str) -> Response {
        if let Some(registry) = self.config.base_registry.clone() {
            let key = BaseKey::new(text, self.config.max_steps, self.config.classify);
            let entry = match registry.lookup(&key) {
                Some(entry) => entry,
                None => {
                    let built = match self.build_loaded(text) {
                        Ok(built) => built,
                        Err(response) => return response,
                    };
                    registry.register(key.clone(), Arc::new(Self::freeze_loaded(built)))
                }
            };
            let forked = Self::fork_loaded(&entry, &self.config);
            return self.install(forked);
        }
        match self.build_loaded(text) {
            Ok(loaded) => self.install(loaded),
            Err(response) => response,
        }
    }

    /// Parses, compiles and chases one `LOAD` payload into a fresh private
    /// [`Loaded`] (mark 0 established).  On error the session is untouched.
    fn build_loaded(&self, text: &str) -> Result<Loaded, Response> {
        let unit = match parse_unit(text) {
            Ok(unit) => unit,
            Err(error) => return Err(Response::err(error)),
        };
        if !unit.queries.is_empty() {
            return Err(Response::err(
                "LOAD text may not contain queries; use QUERY",
            ));
        }
        let disjunctive = match unit.disjunctive_program() {
            Ok(program) => program,
            Err(error) => return Err(Response::err(error)),
        };
        let normal = unit.program();
        // Classify before building anything: the verdict decides the chase
        // and null budgets.  Disjunctive payloads are classified through
        // their positive-conjunctive transform — the program the chase and
        // the `Auto` domain probe actually run on.
        let class = self.config.classify.then(|| match &normal {
            Some(program) => ProgramClass::of(program),
            None => ProgramClass::of(&disjunctive.positive_conjunctive_part()),
        });
        let initial_facts: Vec<Atom> = unit.database.facts().cloned().collect();
        let chase = match &normal {
            Some(program) => {
                let config = chase_config_for(class.as_ref(), &self.config);
                let mut chase = IncrementalChase::new(program, config).map_err(Response::err)?;
                chase
                    .assert_facts(initial_facts.iter().cloned())
                    .map_err(Response::err)?;
                Some(chase)
            }
            None => None,
        };
        let disjunctive = Arc::new(disjunctive);
        let sms = IncrementalSmsState::new(
            Arc::clone(&disjunctive),
            null_budget_for(class.as_ref()),
            GroundingLimits::default(),
        );
        Ok(Loaded::new(
            disjunctive,
            normal,
            chase,
            sms,
            initial_facts,
            class,
            None,
        ))
    }

    /// Installs a loaded state and emits the `LOAD` response.  Out-of-
    /// fragment programs get a structured `WARN` data line before the `OK`
    /// (plus a log event): the budget stays on and the client deserves to
    /// know why its chase may be cut off.
    fn install(&mut self, loaded: Loaded) -> Response {
        let rules = loaded.disjunctive.len();
        let facts = loaded.facts.len();
        let atoms = loaded.atoms();
        let class = loaded.class;
        self.loaded = Some(loaded);
        let summary = format!("rules={rules} facts={facts} atoms={atoms} mark=0");
        if let Some(class) = class {
            self.accounting
                .classified(class.verdict, self.config.max_steps);
            if class.verdict == ClassVerdict::OutOfFragment {
                return Response::ok_with(
                    vec![format!(
                        "WARN class=out-of-fragment budget={}",
                        self.config.max_steps
                    )],
                    summary,
                );
            }
        }
        Response::ok(summary)
    }

    /// Freezes a freshly built private state into a registrable
    /// [`BaseEntry`]: the chase moves behind an `Arc` (no arena copy).  The
    /// `MODELS sms` state, which has grounded nothing yet, is dropped: every
    /// fork grounds its own fact log.
    fn freeze_loaded(loaded: Loaded) -> BaseEntry {
        let Loaded {
            disjunctive,
            normal,
            chase,
            facts,
            class,
            ..
        } = loaded;
        let chase = chase.map(IncrementalChase::freeze);
        BaseEntry::new(disjunctive, normal, chase, facts, class)
    }

    /// Forks a registered base into a fresh session state in O(1): the
    /// chase shares the frozen arena and chases only this session's fact
    /// delta on an overlay; `MODELS sms` starts from an empty state, exactly
    /// as in a private session.
    fn fork_loaded(entry: &Arc<BaseEntry>, config: &SessionConfig) -> Loaded {
        entry.record_fork();
        // The verdict is inherited from the registered base — never
        // recomputed — so a thousand forks of one program classify once.
        let class = if config.classify { entry.class } else { None };
        let chase = entry
            .chase
            .as_ref()
            .map(|base| IncrementalChase::fork(base, chase_config_for(class.as_ref(), config)));
        let sms = IncrementalSmsState::new(
            Arc::clone(&entry.disjunctive),
            null_budget_for(class.as_ref()),
            GroundingLimits::default(),
        );
        Loaded::new(
            Arc::clone(&entry.disjunctive),
            entry.normal.clone(),
            chase,
            sms,
            entry.facts.clone(),
            class,
            Some(Arc::clone(entry)),
        )
    }

    /// `ASSERT`, with the facts already parsed.  Transactional: a step-limit
    /// overrun rolls the whole batch back.
    pub fn assert_facts(&mut self, facts: Vec<Atom>) -> Response {
        let Some(loaded) = self.loaded.as_mut() else {
            return Response::err("no program loaded");
        };
        // The protocol path can only produce constant facts (the parser
        // rejects anything else), but this typed entry point is public:
        // validate up front so a variable or labelled null is a protocol
        // error, never a downstream panic in the chase or the MODELS cache.
        if let Some(fact) = facts.iter().find(|fact| !fact.is_constant_only()) {
            return Response::err(format!("facts must be ground and null-free, got {fact}"));
        }
        let before_atoms = loaded.atoms();
        let mut derived = 0usize;
        if let Some(chase) = loaded.chase.as_mut() {
            match chase.assert_facts(facts.iter().cloned()) {
                Ok(summary) => derived = summary.derived,
                Err(limit) => return Response::err(limit),
            }
        }
        let mut added = 0usize;
        for fact in facts {
            if loaded.fact_set.insert(fact.clone()) {
                loaded.facts.push(fact);
                added += 1;
            }
        }
        loaded.push_mark();
        loaded.generation += 1;
        let mark = loaded.marks.len() - 1;
        let atoms = loaded.atoms();
        debug_assert!(atoms >= before_atoms);
        Response::ok(format!(
            "mark={mark} added={added} derived={derived} atoms={atoms}"
        ))
    }

    fn assert_text(&mut self, text: &str) -> Response {
        match parse_database(text) {
            Ok(database) => self.assert_facts(database.facts().cloned().collect()),
            Err(error) => Response::err(error),
        }
    }

    /// `QUERY`: certain answers over the chased instance.  `Query::answers`
    /// implements the paper's certain-answer semantics (`q(I) ⊆ Cⁿ`), so
    /// tuples that would bind an answer variable to a labelled null are
    /// never reported.
    pub fn query(&mut self, query: &Query) -> Response {
        let Some(loaded) = self.loaded.as_ref() else {
            return Response::err("no program loaded");
        };
        let Some(chase) = loaded.chase.as_ref() else {
            return Response::err("QUERY needs a normal (non-disjunctive) program");
        };
        let instance = chase.instance();
        if query.is_boolean() {
            let verdict = query.holds(instance);
            return Response::ok_with(vec![format!("ANSWER {verdict}")], "answers=1");
        }
        let answers = query.answers(instance);
        let mut lines: Vec<String> = answers
            .iter()
            .map(|tuple| {
                let rendered: Vec<String> = tuple.iter().map(Term::to_string).collect();
                format!("ANSWER {}", rendered.join(", "))
            })
            .collect();
        // Term order follows symbol interning (session history); sort the
        // rendered lines so transcripts are stable across histories.
        lines.sort();
        let kept = lines.len();
        Response::ok_with(lines, format!("answers={kept}"))
    }

    fn query_text(&mut self, text: &str) -> Response {
        match parse_query(text) {
            Ok(query) => self.query(&query),
            Err(error) => Response::err(error),
        }
    }

    /// `MODELS`: stable models of the accumulated fact set, rendered sorted;
    /// cached per (generation, mode, cap) so repeated calls on an unchanged
    /// session are free.
    ///
    /// In `sms` mode the session consults its [`IncrementalSmsState`]: the
    /// possibly-true closure and grounding are advanced from the fact delta
    /// instead of being rebuilt, and only the CEGAR model search runs per
    /// request.  The cached state is exact — whenever `max` does not
    /// truncate the enumeration, answers are bit-identical to a from-scratch
    /// [`SmsEngine`]; capped listings are samples of the stable-model set
    /// (see the crate documentation's *MODELS caching contract*).
    pub fn models(&mut self, mode: ModelsMode, max: Option<usize>) -> Response {
        let max_models = max.unwrap_or(self.config.max_models);
        let Some(loaded) = self.loaded.as_mut() else {
            return Response::err("no program loaded");
        };
        if let Some((generation, cached_mode, cached_max, lines)) = &loaded.models_cache {
            if *generation == loaded.generation && *cached_mode == mode && *cached_max == max_models
            {
                let count = lines.len();
                return Response::ok_with(
                    lines.clone(),
                    format!("models={count} mode={mode} cached=true"),
                );
            }
        }
        let rendered = match mode {
            ModelsMode::Sms => {
                let Loaded {
                    disjunctive,
                    facts,
                    sms,
                    ..
                } = loaded;
                let engine = SmsEngine::new_shared(Arc::clone(disjunctive));
                let ground = match sms.ensure_current(facts) {
                    Ok(ground) => ground,
                    Err(error) => return Response::err(error),
                };
                match engine.stable_model_ids_over(ground, max_models) {
                    Ok(models) => render_models(models.iter().map(|m| model_line(ground, m))),
                    Err(error) => return Response::err(error),
                }
            }
            ModelsMode::Lp => {
                let Some(normal) = loaded.normal.as_ref() else {
                    return Response::err("MODELS lp needs a normal program; use MODELS sms");
                };
                let database = match Database::from_facts(loaded.facts.iter().cloned()) {
                    Ok(database) => database,
                    Err(error) => return Response::err(error),
                };
                match LpEngine::new(&database, normal, &LpLimits::default()) {
                    Ok(engine) => render_models(
                        engine
                            .models()
                            .iter()
                            .take(max_models)
                            .map(|m| format!("MODEL {m}")),
                    ),
                    Err(error) => return Response::err(error),
                }
            }
        };
        let count = rendered.len();
        loaded.models_cache = Some((loaded.generation, mode, max_models, rendered.clone()));
        Response::ok_with(rendered, format!("models={count} mode={mode}"))
    }

    /// `RETRACT-TO`: roll back to mark `mark`, truncating the arena and the
    /// fact log; marks taken later are discarded.
    pub fn retract_to(&mut self, mark: usize) -> Response {
        let Some(loaded) = self.loaded.as_mut() else {
            return Response::err("no program loaded");
        };
        // Every load establishes mark 0, but the guard must not assume it:
        // `marks.len() - 1` underflows on an empty history, so an
        // out-of-range mark always answers a clean `ERR`, never a panic.
        if mark >= loaded.marks.len() {
            return Response::err(match loaded.marks.len() {
                0 => format!("unknown mark {mark} (no marks)"),
                have => format!("unknown mark {mark} (have 0..={})", have - 1),
            });
        }
        let target = loaded.marks[mark];
        if let (Some(chase), Some(epoch)) = (loaded.chase.as_mut(), target.chase.as_ref()) {
            chase.retract_to(epoch);
        }
        // The cached MODELS grounding truncates to its newest snapshot at or
        // below the target — O(retracted), like the arena; a later MODELS
        // then advances from that snapshot instead of re-grounding.
        loaded.sms.retract_to_facts(target.facts);
        // `facts` is deduplicated, so dropping exactly the truncated slice
        // from the mirror keeps rollback O(retracted), matching the arena.
        for fact in &loaded.facts[target.facts..] {
            loaded.fact_set.remove(fact);
        }
        loaded.facts.truncate(target.facts);
        loaded.marks.truncate(mark + 1);
        loaded.generation += 1;
        let atoms = loaded.atoms();
        Response::ok(format!("mark={mark} atoms={atoms}"))
    }

    /// `STATS`: session and engine counters.  The `sms`, `base`, `conn`
    /// and `metrics` scopes print only counters that are a pure function
    /// of the request/connection history, so transcripts can assert them
    /// verbatim at any thread count.
    pub fn stats(&self, scope: StatsScope) -> Response {
        match scope {
            StatsScope::Base => return self.base_stats(),
            StatsScope::Classes => return self.class_stats(),
            StatsScope::Conn => return Response::ok_with(conn_stat_lines(&self.config), "stats"),
            StatsScope::Metrics => return Response::ok_with(self.accounting.stat_lines(), "stats"),
            StatsScope::All | StatsScope::Sms => {}
        }
        let sms_only = scope == StatsScope::Sms;
        let mut lines = Vec::new();
        match self.loaded.as_ref() {
            None => lines.push("STAT loaded=false".to_owned()),
            Some(loaded) => {
                if !sms_only {
                    lines.push("STAT loaded=true".to_owned());
                    lines.push(format!("STAT rules={}", loaded.disjunctive.len()));
                    lines.push(format!("STAT facts={}", loaded.facts.len()));
                    lines.push(format!("STAT atoms={}", loaded.atoms()));
                    lines.push(format!("STAT marks={}", loaded.marks.len()));
                    if let Some(chase) = loaded.chase.as_ref() {
                        lines.push(format!("STAT chase_steps={}", chase.steps()));
                        lines.push(format!("STAT nulls={}", chase.nulls_created()));
                    }
                }
                lines.extend(sms_stat_lines(loaded));
            }
        }
        if !sms_only {
            let pool = parallel::pool_stats();
            lines.push(format!("STAT server_requests={}", server_requests()));
            lines.push(format!("STAT threads={}", parallel::num_threads()));
            lines.push(format!("STAT pool_workers={}", pool.workers));
            lines.push(format!("STAT pool_jobs={}", pool.jobs));
            lines.push(format!("STAT pool_items={}", pool.items));
            lines.extend(conn_stat_lines(&self.config));
        }
        Response::ok_with(lines, "stats")
    }

    /// `STATS base`: the shared-base counters.  `base_shared` says whether
    /// the loaded state was forked from the registry; `base_atoms` /
    /// `base_overlay_atoms` split the session's arena at the fork watermark
    /// (fact counts for chase-less disjunctive sessions); the registry
    /// counters are per program key, so they count only `LOAD`s of *this*
    /// program.  Every line is a pure function of the `LOAD`/`ASSERT`
    /// history — never of thread count or machine.
    fn base_stats(&self) -> Response {
        let mut lines = Vec::new();
        match self.loaded.as_ref() {
            None => lines.push("STAT base_shared=false".to_owned()),
            Some(loaded) => {
                lines.push(format!("STAT base_shared={}", loaded.shared.is_some()));
                let (base_atoms, overlay_atoms) = match loaded.chase.as_ref() {
                    Some(chase) => {
                        let instance = chase.instance();
                        (instance.base_len(), instance.overlay_len())
                    }
                    None => (loaded.base_facts, loaded.facts.len() - loaded.base_facts),
                };
                lines.push(format!("STAT base_atoms={base_atoms}"));
                lines.push(format!("STAT base_overlay_atoms={overlay_atoms}"));
                if let Some(entry) = loaded.shared.as_ref() {
                    let stats = entry.stats();
                    lines.push(format!("STAT base_registry_hits={}", stats.hits));
                    lines.push(format!("STAT base_registry_misses={}", stats.misses));
                    lines.push(format!("STAT base_rebuilds={}", stats.rebuilds));
                    lines.push(format!("STAT base_forks={}", stats.forks));
                }
            }
        }
        Response::ok_with(lines, "stats")
    }

    /// `STATS classes`: the decidability classification of the loaded
    /// program and what the front door did with it — member classes,
    /// verdict, the budgets the verdict bought, and whether the verdict was
    /// computed here or inherited from the shared-base registry.  Every
    /// line is a pure function of the `LOAD` payload (classification is
    /// syntactic), so transcripts assert the scope verbatim at any thread
    /// count.
    fn class_stats(&self) -> Response {
        let Some(loaded) = self.loaded.as_ref() else {
            return Response::ok_with(vec!["STAT classes_loaded=false".to_owned()], "stats");
        };
        let Some(class) = loaded.class.as_ref() else {
            return Response::ok_with(vec!["STAT classes_enabled=false".to_owned()], "stats");
        };
        let members: Vec<&'static str> = class
            .report
            .entries()
            .iter()
            .filter(|(_, member)| *member)
            .map(|(name, _)| *name)
            .collect();
        let members = if members.is_empty() {
            "none".to_owned()
        } else {
            members.join(",")
        };
        let chase_budget = match chase_config_for(Some(class), &self.config).max_steps {
            None => "unbounded".to_owned(),
            Some(max_steps) => max_steps.to_string(),
        };
        let null_budget = match null_budget_for(Some(class)) {
            NullBudget::AutoExact => "auto-exact",
            _ => "auto",
        };
        let source = if loaded.shared.is_some() {
            "inherited"
        } else {
            "classified"
        };
        let lines = vec![
            format!("STAT class_members={members}"),
            format!("STAT class_verdict={}", class.verdict),
            format!("STAT class_chase_budget={chase_budget}"),
            format!("STAT class_null_budget={null_budget}"),
            format!("STAT class_source={source}"),
        ];
        Response::ok_with(lines, "stats")
    }

    /// The chased instance of a loaded normal program (for embedders and
    /// tests; protocol clients use `QUERY`).
    pub fn instance(&self) -> Option<&ntgd_core::Interpretation> {
        self.loaded
            .as_ref()
            .and_then(|loaded| loaded.chase.as_ref())
            .map(IncrementalChase::instance)
    }

    /// The accumulated (live) fact log, in assertion order.
    pub fn facts(&self) -> &[Atom] {
        self.loaded
            .as_ref()
            .map(|loaded| loaded.facts.as_slice())
            .unwrap_or(&[])
    }

    /// The current number of epoch marks (`RETRACT-TO` accepts `0..marks`).
    pub fn marks(&self) -> usize {
        self.loaded
            .as_ref()
            .map(|loaded| loaded.marks.len())
            .unwrap_or(0)
    }
}

impl Loaded {
    /// A state fresh from `LOAD`, over `facts` deduplicated in order, with
    /// mark 0 taken.  `shared` is the registry entry of a forked base: its
    /// facts are then the base's, and its verdict was inherited.
    fn new(
        disjunctive: Arc<DisjunctiveProgram>,
        normal: Option<Program>,
        chase: Option<IncrementalChase>,
        sms: IncrementalSmsState,
        facts: Vec<Atom>,
        class: Option<ProgramClass>,
        shared: Option<Arc<BaseEntry>>,
    ) -> Loaded {
        let mut fact_set = HashSet::with_capacity(facts.len());
        let facts: Vec<Atom> = facts
            .into_iter()
            .filter(|fact| fact_set.insert(fact.clone()))
            .collect();
        let mut loaded = Loaded {
            disjunctive,
            normal,
            chase,
            sms,
            base_facts: if shared.is_some() { facts.len() } else { 0 },
            facts,
            fact_set,
            marks: Vec::new(),
            generation: 0,
            models_cache: None,
            shared,
            class,
        };
        loaded.push_mark();
        loaded
    }

    /// Takes the next epoch mark over the current state.
    fn push_mark(&mut self) {
        self.marks.push(SessionMark {
            chase: self.chase.as_ref().map(IncrementalChase::mark),
            facts: self.facts.len(),
        });
    }

    /// Arena size of the chased instance, or the fact count when the
    /// program is disjunctive (no chase).
    fn atoms(&self) -> usize {
        self.chase
            .as_ref()
            .map(|chase| chase.instance().len())
            .unwrap_or(self.facts.len())
    }
}

/// The connection-layer counter lines of `STATS` / `STATS conn`: which
/// transport serves this session and its accepted/active/peak/rejected
/// tallies.  Deterministic for any scripted sequence of connections — the
/// REPL always reports `conn_transport=repl` with zeros, an embedded
/// session `conn_transport=embedded` with zeros — so smoke transcripts can
/// assert the scope verbatim.
fn conn_stat_lines(config: &SessionConfig) -> Vec<String> {
    let snapshot = match config.conn_stats.as_ref() {
        Some(stats) => stats.snapshot(),
        None => ConnStats::new("embedded").snapshot(),
    };
    vec![
        format!("STAT conn_transport={}", snapshot.transport),
        format!("STAT conn_accepted={}", snapshot.accepted),
        format!("STAT conn_active={}", snapshot.active),
        format!("STAT conn_peak={}", snapshot.peak),
        format!("STAT conn_rejected={}", snapshot.rejected),
        format!("STAT conn_idle_closed={}", snapshot.idle_closed),
    ]
}

/// The incremental-`MODELS` counter lines of `STATS` (deterministic across
/// thread counts; see the crate docs).  `sms_incremental` is always `true`:
/// every session keeps its grounding state.
fn sms_stat_lines(loaded: &Loaded) -> Vec<String> {
    let stats = loaded.sms.stats();
    vec![
        "STAT sms_incremental=true".to_owned(),
        format!("STAT sms_rebuilds={}", stats.rebuilds),
        format!("STAT sms_reuses={}", stats.reuses),
        format!("STAT sms_hits={}", stats.hits),
        format!("STAT sms_rollbacks={}", stats.rollbacks),
        format!("STAT sms_invalidations={}", stats.invalidations),
        format!("STAT sms_closure_atoms={}", loaded.sms.closure_atoms()),
        format!("STAT sms_ground_rules={}", loaded.sms.ground_rules()),
    ]
}

/// Sorts rendered `MODEL` lines, one per model.  Within a line the atoms are
/// sorted in symbol-intern order (`Atom`'s `Ord`), as an interpretation
/// displays them, so the listing is stable across engines and thread counts.
fn render_models<I: Iterator<Item = String>>(lines: I) -> Vec<String> {
    let mut rendered: Vec<String> = lines.collect();
    rendered.sort();
    rendered
}

/// The `MODEL` line of a stable model given as atom ids of `ground`: the
/// same bytes as `format!("MODEL {interpretation}")` for the model's
/// interpretation, written without building one.
fn model_line(ground: &GroundSmsProgram, model: &AtomSet) -> String {
    let mut atoms: Vec<&Atom> = model
        .ids()
        .iter()
        .map(|&id| ground.atoms.atom(id))
        .collect();
    atoms.sort_unstable();
    let mut line = String::from("MODEL {");
    for (i, atom) in atoms.into_iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        write!(line, "{atom}").expect("writing to a String cannot fail");
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_line(response: &Response) -> &str {
        assert!(response.is_ok(), "expected OK, got {:?}", response.lines);
        response.terminator().unwrap()
    }

    #[test]
    fn load_assert_query_retract_round_trip() {
        let mut session = Session::new(SessionConfig::default());
        let loaded = session.execute("LOAD person(X) -> hasFather(X, Y). person(eve).");
        assert_eq!(ok_line(&loaded), "OK rules=1 facts=1 atoms=2 mark=0");
        let asserted = session.execute("ASSERT person(alice). person(bo).");
        assert!(ok_line(&asserted).starts_with("OK mark=1 added=2 derived=2"));
        let answers = session.execute("QUERY ?(X) :- person(X).");
        assert_eq!(
            answers.lines,
            vec![
                "ANSWER alice".to_owned(),
                "ANSWER bo".to_owned(),
                "ANSWER eve".to_owned(),
                "OK answers=3".to_owned()
            ]
        );
        // Nulls are not certain answers: the invented father is not
        // reported (certain-answer semantics of `Query::answers`).
        let fathers = session.execute("QUERY ?(Y) :- hasFather(alice, Y).");
        assert_eq!(fathers.terminator(), Some("OK answers=0"));
        assert!(session.execute("QUERY ?- hasFather(alice, Y).").lines[0] == "ANSWER true");
        let retracted = session.execute("RETRACT-TO 0");
        assert_eq!(ok_line(&retracted), "OK mark=0 atoms=2");
        let again = session.execute("QUERY ?(X) :- person(X).");
        assert_eq!(
            again.lines,
            vec!["ANSWER eve".to_owned(), "OK answers=1".to_owned()]
        );
    }

    #[test]
    fn boolean_queries_answer_true_or_false() {
        let mut session = Session::new(SessionConfig::default());
        session.execute("LOAD p(X) -> q(X).");
        session.execute("ASSERT p(a).");
        assert_eq!(
            session.execute("QUERY ?- q(a).").lines,
            vec!["ANSWER true".to_owned(), "OK answers=1".to_owned()]
        );
        assert_eq!(
            session.execute("QUERY ?- q(b).").lines[0],
            "ANSWER false".to_owned()
        );
    }

    #[test]
    fn models_are_enumerated_sorted_and_cached() {
        let mut session = Session::new(SessionConfig::default());
        session.execute("LOAD node(X) -> red(X) | green(X). node(v).");
        let first = session.execute("MODELS");
        assert_eq!(first.terminator(), Some("OK models=2 mode=sms"));
        assert!(first.lines[0] < first.lines[1], "sorted output");
        let second = session.execute("MODELS");
        assert_eq!(
            second.terminator(),
            Some("OK models=2 mode=sms cached=true")
        );
        assert_eq!(first.lines[..2], second.lines[..2]);
        // Mutation invalidates the cache.
        session.execute("ASSERT node(w).");
        let third = session.execute("MODELS");
        assert_eq!(third.terminator(), Some("OK models=4 mode=sms"));
    }

    #[test]
    fn model_lines_match_the_interpretation_display() {
        // Example 1 with two people: fathers range over the constants and the
        // labelled nulls of the candidate domain.  The constants are interned
        // here in non-alphabetical order (`zora_render` first), so atom order
        // is intern order, not text order.
        let text = "person(zora_render). person(abel_render). \
                    person(X) -> hasFather(X, Y). \
                    hasFather(X, Y) -> sameAs(Y, Y). \
                    hasFather(X, Y), hasFather(X, Z), not sameAs(Y, Z) -> abnormal(X).";
        let unit = parse_unit(text).unwrap();
        let engine = SmsEngine::new_disjunctive(unit.disjunctive_program().unwrap());
        let mut expected: Vec<String> = engine
            .stable_models(&unit.database)
            .unwrap()
            .iter()
            .map(|m| format!("MODEL {m}"))
            .collect();
        expected.sort();
        assert!(
            expected.iter().any(|line| line.contains("_n")),
            "{expected:?}"
        );
        let mut session = Session::new(SessionConfig::default());
        session.execute(&format!("LOAD {text}"));
        let response = session.execute("MODELS sms");
        assert_eq!(&response.lines[..response.lines.len() - 1], expected);
    }

    #[test]
    fn models_max_zero_lists_no_model_in_either_mode() {
        let mut session = Session::new(SessionConfig::default());
        session.execute("LOAD p(X), not q(X) -> r(X). p(a).");
        for (request, terminator) in [
            ("MODELS sms max=0", "OK models=0 mode=sms"),
            ("MODELS lp max=0", "OK models=0 mode=lp"),
        ] {
            let response = session.execute(request);
            assert_eq!(response.lines, vec![terminator.to_owned()], "{request}");
        }
        // The cap is per request: an uncapped listing still finds the model.
        assert_eq!(
            session.execute("MODELS sms").terminator(),
            Some("OK models=1 mode=sms")
        );
    }

    #[test]
    fn lp_models_agree_with_sms_on_normal_programs() {
        let mut session = Session::new(SessionConfig::default());
        session.execute("LOAD p(X), not q(X) -> r(X). p(a).");
        let sms = session.execute("MODELS sms");
        let lp = session.execute("MODELS lp");
        assert_eq!(
            sms.lines[..sms.lines.len() - 1],
            lp.lines[..lp.lines.len() - 1]
        );
        assert_eq!(lp.terminator(), Some("OK models=1 mode=lp"));
    }

    #[test]
    fn disjunctive_sessions_reject_query_but_enumerate_models() {
        let mut session = Session::new(SessionConfig::default());
        session.execute("LOAD node(X) -> red(X) | green(X).");
        session.execute("ASSERT node(v).");
        assert!(!session.execute("QUERY ?- red(v).").is_ok());
        assert!(!session.execute("MODELS lp").is_ok());
        assert!(session.execute("MODELS").is_ok());
    }

    #[test]
    fn errors_keep_the_session_usable() {
        let mut session = Session::new(SessionConfig::default());
        assert!(!session.execute("ASSERT p(a).").is_ok());
        assert!(!session.execute("QUERY ?- p(a).").is_ok());
        assert!(!session.execute("RETRACT-TO 0").is_ok());
        assert!(!session.execute("LOAD p(X) ->").is_ok());
        assert!(!session.execute("BOGUS").is_ok());
        assert!(session.execute("LOAD p(X) -> q(X).").is_ok());
        assert!(!session.execute("RETRACT-TO 7").is_ok());
        assert!(session.execute("ASSERT p(a).").is_ok());
        assert!(session.execute("QUERY ?- q(a).").is_ok());
    }

    #[test]
    fn diverging_asserts_roll_back_and_report() {
        let mut session = Session::new(SessionConfig {
            max_steps: 20,
            max_models: 8,
            ..SessionConfig::default()
        });
        session.execute("LOAD person(X) -> parent(X, Y), person(Y).");
        let overrun = session.execute("ASSERT person(adam).");
        assert!(!overrun.is_ok());
        assert!(overrun.lines[0].contains("rolled back"));
        assert_eq!(session.facts().len(), 0);
        assert_eq!(session.instance().unwrap().len(), 0);
    }

    #[test]
    fn non_constant_facts_are_rejected_not_panicked() {
        use ntgd_core::{atom, cst, var, Term};
        // The typed API must behave like the protocol: reject non-ground or
        // null-carrying facts with ERR and keep the session usable — in
        // particular the incremental MODELS state must never see them.
        let mut session = Session::new(SessionConfig::default());
        session.execute("LOAD node(X) -> red(X) | green(X).");
        let with_var = session.assert_facts(vec![atom("node", vec![var("X")])]);
        assert!(!with_var.is_ok());
        let with_null = session.assert_facts(vec![atom("node", vec![Term::Null(0)])]);
        assert!(!with_null.is_ok());
        assert_eq!(session.facts().len(), 0);
        let good = session.assert_facts(vec![atom("node", vec![cst("v")])]);
        assert!(good.is_ok());
        assert_eq!(
            session.execute("MODELS").terminator(),
            Some("OK models=2 mode=sms")
        );
    }

    /// Runs one scripted command stream through a session, returning every
    /// response line in order.
    fn transcript(session: &mut Session, script: &[&str]) -> Vec<String> {
        script
            .iter()
            .flat_map(|line| session.execute(line).lines)
            .collect()
    }

    #[test]
    fn forked_sessions_transcribe_identically_to_private_ones() {
        let registry = Arc::new(BaseRegistry::new());
        let shared = SessionConfig {
            base_registry: Some(Arc::clone(&registry)),
            ..SessionConfig::default()
        };
        let script = [
            "LOAD e(X, Y) -> n(X). n(X) -> labelled(X, L). e(a, b).",
            "MODELS sms",
            "ASSERT e(b, c).",
            "MODELS sms",
            "QUERY ?(X) :- n(X).",
            "QUERY ?- labelled(b, L).",
            "MODELS lp max=4",
            "RETRACT-TO 0",
            "MODELS sms",
            "QUERY ?(X) :- n(X).",
            "STATS sms",
        ];
        let mut private = Session::new(SessionConfig::default());
        let oracle = transcript(&mut private, &script);
        // First shared LOAD registers and forks; second forks the hit.  Each
        // fork grounds its own MODELS sms state, so every line — the STATS
        // sms counters and sizes included — must equal the private oracle.
        let mut first = Session::new(shared.clone());
        let mut second = Session::new(shared.clone());
        let first_lines = transcript(&mut first, &script);
        let second_lines = transcript(&mut second, &script);
        assert_eq!(first_lines, second_lines, "fork order leaked");
        assert_eq!(first_lines, oracle);
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn forked_sessions_share_one_base_and_count_it() {
        let registry = Arc::new(BaseRegistry::new());
        let config = SessionConfig {
            base_registry: Some(Arc::clone(&registry)),
            ..SessionConfig::default()
        };
        let program = "LOAD e(X, Y) -> n(X). e(a, b).";
        let mut first = Session::new(config.clone());
        let mut second = Session::new(config.clone());
        assert!(first.execute(program).is_ok());
        assert!(second.execute(program).is_ok());
        assert!(second.execute("ASSERT e(c, d).").is_ok());
        // Both sessions share the chased base; only the second grew an
        // overlay (its private delta).
        let base_atoms = first.instance().unwrap().base_len();
        assert_eq!(base_atoms, 2);
        assert_eq!(first.instance().unwrap().overlay_len(), 0);
        assert_eq!(second.instance().unwrap().base_len(), base_atoms);
        assert_eq!(second.instance().unwrap().overlay_len(), 2);
        let stats = second.execute("STATS base");
        assert_eq!(
            stats.lines,
            vec![
                "STAT base_shared=true",
                "STAT base_atoms=2",
                "STAT base_overlay_atoms=2",
                "STAT base_registry_hits=1",
                "STAT base_registry_misses=1",
                "STAT base_rebuilds=1",
                "STAT base_forks=2",
                "OK stats",
            ]
        );
        // A different program is a different key.
        assert!(first.execute("LOAD p(X) -> q(X). p(a).").is_ok());
        assert_eq!(registry.len(), 2);
        let fresh = first.execute("STATS base");
        assert!(fresh
            .lines
            .contains(&"STAT base_registry_hits=0".to_owned()));
    }

    #[test]
    fn private_sessions_report_an_unshared_base() {
        let mut session = Session::new(SessionConfig::default());
        let empty = session.execute("STATS base");
        assert_eq!(empty.lines, vec!["STAT base_shared=false", "OK stats"]);
        session.execute("LOAD p(X) -> q(X). p(a).");
        let loaded = session.execute("STATS base");
        assert_eq!(
            loaded.lines,
            vec![
                "STAT base_shared=false",
                "STAT base_atoms=0",
                "STAT base_overlay_atoms=2",
                "OK stats",
            ]
        );
    }

    #[test]
    fn forked_retract_to_mark_zero_is_the_fork_watermark() {
        let registry = Arc::new(BaseRegistry::new());
        let config = SessionConfig {
            base_registry: Some(registry),
            ..SessionConfig::default()
        };
        let mut session = Session::new(config);
        session.execute("LOAD e(X, Y) -> n(X). e(a, b).");
        session.execute("ASSERT e(b, c). e(c, d).");
        let rolled = session.execute("RETRACT-TO 0");
        assert_eq!(rolled.terminator(), Some("OK mark=0 atoms=2"));
        assert_eq!(session.instance().unwrap().overlay_len(), 0);
        assert!(session.execute("ASSERT e(x, y).").is_ok());
        assert_eq!(
            session.execute("QUERY ?(X) :- n(X).").terminator(),
            Some("OK answers=2")
        );
    }

    /// A normal, weakly-acyclic chain whose initial chase takes more steps
    /// than the tiny budget the tests configure — so whether `LOAD`
    /// succeeds reveals whether the classification verdict lifted the
    /// budget.
    const CHAIN: &str = "a(X) -> b(X). b(X) -> c(X). c(X) -> d(X). a(s1). a(s2).";

    /// Transitive closure plus an existential-head rule over the same
    /// predicate: the GRD has a cycle through an existential edge, no
    /// guardedness notion applies — out of every implemented fragment.
    const WILD: &str = "e(X, Y), e(Y, Z) -> e(X, Z). e(X, Y) -> e(Y, W).";

    #[test]
    fn terminating_verdicts_lift_the_chase_budget() {
        // Classified (default): weakly acyclic => terminating => the chase
        // runs unbounded and the six-step initial chase beats max_steps=3.
        let mut classified = Session::new(SessionConfig {
            max_steps: 3,
            ..SessionConfig::default()
        });
        let loaded = classified.execute(&format!("LOAD {CHAIN}"));
        assert_eq!(ok_line(&loaded), "OK rules=3 facts=2 atoms=8 mark=0");
        let stats = classified.execute("STATS classes");
        assert!(stats
            .lines
            .iter()
            .any(|l| l.starts_with("STAT class_members=") && l.contains("weakly-acyclic")));
        assert!(stats
            .lines
            .contains(&"STAT class_verdict=terminating".into()));
        assert!(stats
            .lines
            .contains(&"STAT class_chase_budget=unbounded".into()));
        assert!(stats
            .lines
            .contains(&"STAT class_null_budget=auto-exact".into()));
        assert!(stats.lines.contains(&"STAT class_source=classified".into()));
        // Unclassified: the same program trips the 3-step budget.
        let mut blind = Session::new(SessionConfig {
            max_steps: 3,
            classify: false,
            ..SessionConfig::default()
        });
        assert!(!blind.execute(&format!("LOAD {CHAIN}")).is_ok());
        assert_eq!(
            blind.execute("STATS classes").lines,
            vec!["STAT classes_loaded=false", "OK stats"]
        );
        assert!(blind.execute("LOAD a(X) -> b(X). a(s1).").is_ok());
        assert_eq!(
            blind.execute("STATS classes").lines,
            vec!["STAT classes_enabled=false", "OK stats"]
        );
    }

    #[test]
    fn out_of_fragment_loads_warn_and_keep_the_budget() {
        let mut session = Session::new(SessionConfig::default());
        assert_eq!(
            session.execute("STATS classes").lines,
            vec!["STAT classes_loaded=false", "OK stats"]
        );
        let loaded = session.execute(&format!("LOAD {WILD}"));
        assert_eq!(
            loaded.lines,
            vec![
                "WARN class=out-of-fragment budget=100000",
                "OK rules=2 facts=0 atoms=0 mark=0"
            ]
        );
        let stats = session.execute("STATS classes");
        assert_eq!(
            stats.lines,
            vec![
                // Stratification (vacuous: no negation) is orthogonal to
                // decidability — membership alone buys no verdict.
                "STAT class_members=stratified",
                "STAT class_verdict=out-of-fragment",
                "STAT class_chase_budget=100000",
                "STAT class_null_budget=auto",
                "STAT class_source=classified",
                "OK stats",
            ]
        );
    }

    #[test]
    fn decidable_verdicts_keep_the_budget() {
        // Guarded but not terminating: the existential feeds its own body
        // predicate, so the chase diverges and the budget must stay on.
        let mut session = Session::new(SessionConfig {
            max_steps: 20,
            ..SessionConfig::default()
        });
        assert!(session
            .execute("LOAD person(X) -> parent(X, Y), person(Y).")
            .is_ok());
        let stats = session.execute("STATS classes");
        assert!(stats.lines.contains(&"STAT class_verdict=decidable".into()));
        assert!(stats.lines.contains(&"STAT class_chase_budget=20".into()));
        assert!(stats.lines.contains(&"STAT class_null_budget=auto".into()));
        assert!(!session.execute("ASSERT person(adam).").is_ok());
    }

    #[test]
    fn forked_sessions_inherit_the_registered_verdict() {
        let registry = Arc::new(BaseRegistry::new());
        let config = SessionConfig {
            max_steps: 3,
            base_registry: Some(Arc::clone(&registry)),
            ..SessionConfig::default()
        };
        let mut first = Session::new(config.clone());
        let mut second = Session::new(config.clone());
        // The budget-free fast path survives the registry: the 3-step cap
        // would kill this LOAD without the inherited terminating verdict.
        assert!(first.execute(&format!("LOAD {CHAIN}")).is_ok());
        assert!(second.execute(&format!("LOAD {CHAIN}")).is_ok());
        let first_stats = first.execute("STATS classes");
        let second_stats = second.execute("STATS classes");
        // Registering and forking sessions report identical provenance —
        // transcripts cannot depend on arrival order.
        assert_eq!(first_stats.lines, second_stats.lines);
        assert!(first_stats
            .lines
            .contains(&"STAT class_source=inherited".into()));
        assert!(first_stats
            .lines
            .contains(&"STAT class_verdict=terminating".into()));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn retract_to_rejects_out_of_range_marks_cleanly() {
        let mut session = Session::new(SessionConfig::default());
        session.execute("LOAD p(X) -> q(X). p(a).");
        assert_eq!(
            session.execute("RETRACT-TO 99").lines,
            vec!["ERR unknown mark 99 (have 0..=0)"]
        );
        session.execute("ASSERT p(b).");
        assert_eq!(
            session.execute(&format!("RETRACT-TO {}", usize::MAX)).lines,
            vec![format!("ERR unknown mark {} (have 0..=1)", usize::MAX)]
        );
        // The session is still live and the marks intact.
        assert_eq!(session.marks(), 2);
        assert!(session.execute("RETRACT-TO 0").is_ok());
    }

    #[test]
    fn stats_report_session_and_pool_state() {
        let mut session = Session::new(SessionConfig::default());
        session.execute("LOAD p(X) -> q(X). p(a).");
        let stats = session.execute("STATS");
        assert!(stats.is_ok());
        assert!(stats.lines.iter().any(|l| l == "STAT loaded=true"));
        assert!(stats.lines.iter().any(|l| l.starts_with("STAT atoms=2")));
        assert!(stats.lines.iter().any(|l| l.starts_with("STAT threads=")));
        assert!(stats
            .lines
            .iter()
            .any(|l| l.starts_with("STAT pool_workers=")));
    }
}
