//! The in-process replay.
//!
//! Every logged TCP session runs again on a `Session` in this process, and
//! each reply must hash the same as the one the server sent: that is the
//! correctness gate.  A traced replay runs the same sessions once more and
//! times every `Session::execute`.  The program's own spans (`chase.round`,
//! `sms.advance`, `sms.grounding`, `sms.cegar_iteration`) and counters, read
//! before and after each call, split that time into layers.  Parsing,
//! classification, query answering and the chase fork have no span: they
//! are timed as standalone calls on the request text and the session's
//! instance.  A verb's self time is its `Session::execute` time minus its
//! layer time.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ntgd_chase::{ChaseBase, ChaseConfig, IncrementalChase};
use ntgd_core::{obs, Term};
use ntgd_parser::{parse_database, parse_query, parse_unit};
use ntgd_server::registry::ProgramClass;
use ntgd_server::{parse_command, BaseRegistry, Command, Response, Session, SessionConfig};

use crate::drive::SessionLog;
use crate::metrics::{median, quantile, ratio, scaled, Metric};
use crate::wire::hash_lines;
use crate::workload::fnv1a;

/// Count metrics cover only the first rounds of every stream, so they are
/// the same in every run of a seed, however many rounds the window held.
pub const COUNT_ROUNDS: u32 = 2;

/// Rounds replayed in-process; every later round must repeat the last of
/// them reply for reply, since rounds repeat the same requests from the
/// same state.
pub const REPLAY_ROUNDS: u32 = 3;

/// Sessions at most this long are remembered, so a later session with the
/// same requests is checked against the remembered replies.
const REMEMBERED_REQUESTS: usize = 64;

/// The step budget of the standalone chase that builds a base to time
/// forks on (`SessionConfig::default().max_steps`).
const MAX_STEPS: usize = 100_000;

/// Verbs with per-verb session metrics, in metric order.
const VERBS: [&str; 5] = ["load", "assert", "query", "models", "retract"];

/// The program's spans a traced replay reads around each call.
const SPANS: [&str; 4] = [
    "chase.round",
    "sms.advance",
    "sms.grounding",
    "sms.cegar_iteration",
];

fn ns_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The summed nanoseconds of each of [`SPANS`] so far.
fn span_sums() -> [u64; 4] {
    let mut sums = [0; 4];
    for (name, histogram) in obs::histograms_snapshot() {
        if let Some(at) = SPANS.iter().position(|&span| span == name) {
            sums[at] = u64::try_from(histogram.sum()).unwrap_or(u64::MAX);
        }
    }
    sums
}

fn delta(before: &[(&str, u64)], after: &[(&str, u64)], name: &str) -> u64 {
    let value = |snapshot: &[(&str, u64)]| {
        snapshot
            .iter()
            .find(|(counter, _)| *counter == name)
            .map_or(0, |&(_, value)| value)
    };
    value(after).saturating_sub(value(before))
}

/// Replays sessions, in order, on fresh sessions that share one base
/// registry — as the server's sessions do.
pub struct Replay {
    config: SessionConfig,
    /// Replies of short sessions already replayed, by request fingerprint.
    seen: HashMap<u64, Vec<u64>>,
    trace: Option<Trace>,
    /// Wall time spent replaying, in seconds.
    pub seconds: f64,
}

impl Replay {
    /// A replay; `traced` adds the per-layer timing.
    pub fn new(traced: bool) -> Replay {
        Replay {
            config: SessionConfig {
                base_registry: Some(Arc::new(BaseRegistry::new())),
                ..SessionConfig::default()
            },
            seen: HashMap::new(),
            trace: traced.then(Trace::default),
            seconds: 0.0,
        }
    }

    /// Checks one logged session.  Its first [`REPLAY_ROUNDS`] rounds (and
    /// a final `QUIT`) run in-process and every reply must hash the same;
    /// later rounds must repeat the last replayed round.  A short session
    /// after those rounds that repeats an earlier session's requests must
    /// repeat its replies.  A `warmup` session only registers bases: it
    /// adds to no session metric.
    pub fn session(&mut self, log: &SessionLog, warmup: bool) -> Result<(), String> {
        let fingerprint = fnv1a(log.requests.join("\n").as_bytes());
        let late = log
            .rounds
            .first()
            .is_some_and(|&round| round >= REPLAY_ROUNDS);
        if let (true, Some(replies)) = (late, self.seen.get(&fingerprint)) {
            return match *replies == log.replies {
                true => Ok(()),
                false => Err("replies differ from an identical earlier session".to_owned()),
            };
        }
        let quit = log.requests.last().is_some_and(|request| request == "QUIT");
        let body = log.requests.len() - usize::from(quit);
        // A session that starts late has no replayed round to repeat.
        let replayed = match late {
            true => body,
            false => log.rounds[..body]
                .iter()
                .position(|&round| round >= REPLAY_ROUNDS)
                .unwrap_or(body),
        };
        check_repeats(log, replayed, body)?;

        let started = Instant::now();
        let mut session = Session::new(self.config.clone());
        for index in (0..replayed).chain(quit.then_some(body)) {
            let request = &log.requests[index];
            let response = match self.trace.as_mut() {
                Some(trace) => {
                    let counted = !warmup && log.rounds[index] < COUNT_ROUNDS;
                    trace.execute(&mut session, request, counted, warmup)?
                }
                None => session.execute(request),
            };
            if hash_lines(response.lines.iter().map(String::as_str)) != log.replies[index] {
                return Err(format!(
                    "transcript mismatch at request {index} `{request:.80}`: in-process reply ends {:?}",
                    response.lines.last()
                ));
            }
        }
        self.seconds += started.elapsed().as_secs_f64();
        if log.requests.len() <= REMEMBERED_REQUESTS {
            self.seen.insert(fingerprint, log.replies.clone());
        }
        Ok(())
    }

    /// The per-layer metrics of a traced replay (empty when untraced).
    pub fn metrics(&self) -> Vec<Metric> {
        self.trace.as_ref().map_or_else(Vec::new, Trace::metrics)
    }
}

/// Checks that the requests in `from..to` (rounds from [`REPLAY_ROUNDS`]
/// on) repeat the last replayed round, request for request and reply for
/// reply.
fn check_repeats(log: &SessionLog, from: usize, to: usize) -> Result<(), String> {
    if from == to {
        return Ok(());
    }
    let reference_start = log.rounds[..from]
        .iter()
        .rposition(|&round| round != REPLAY_ROUNDS - 1)
        .map_or(0, |index| index + 1);
    let reference = reference_start..from;
    let mut round_start = from;
    for index in from..to {
        if log.rounds[index] != log.rounds[round_start] {
            round_start = index;
        }
        let twin = reference.start + (index - round_start);
        let repeated = reference.contains(&twin)
            && log.requests[twin] == log.requests[index]
            && log.replies[twin] == log.replies[index];
        if !repeated {
            return Err(format!(
                "request {index} `{:.80}` of round {} does not repeat round {}",
                log.requests[index],
                log.rounds[index],
                REPLAY_ROUNDS - 1
            ));
        }
    }
    Ok(())
}

/// Counts over the first [`COUNT_ROUNDS`] rounds of every stream.
#[derive(Default)]
struct Counts {
    requests: u64,
    loads: u64,
    misses: u64,
    entries: u64,
    base_atoms: u64,
    asserts: u64,
    chase_rounds: u64,
    chase_triggers: u64,
    memo_hits: u64,
    memo_misses: u64,
    models: u64,
    ensures: u64,
    rebuilds: u64,
    advances: u64,
    iterations: u64,
    sms_asserts: u64,
    growth_asserts: u64,
    pool_batches: u64,
    pool_items: u64,
}

/// The traced replay's samples (nanoseconds).
#[derive(Default)]
struct Trace {
    /// `LOAD` payloads the replay's registry holds.
    registered: HashSet<String>,
    /// Frozen chases built beside the sessions to time forks on, by
    /// payload (`None` for disjunctive programs, which have no chase).
    fork_bases: HashMap<String, Option<Arc<ChaseBase>>>,
    exec: [Vec<u64>; 5],
    layer_ns: [f64; 5],
    hit_load: Vec<u64>,
    parse_load_ns: f64,
    parse_load_bytes: f64,
    parse_assert: Vec<u64>,
    parse_query: Vec<u64>,
    classify: Vec<u64>,
    chase_assert: Vec<u64>,
    chase_retract: Vec<u64>,
    chase_fork: Vec<u64>,
    chase_build: Vec<u64>,
    query_answers: Vec<u64>,
    sms_ensure: Vec<u64>,
    cegar_search: Vec<u64>,
    counts: Counts,
}

impl Trace {
    /// Executes one request on `session`, timing it and its layers.
    fn execute(
        &mut self,
        session: &mut Session,
        request: &str,
        counted: bool,
        warmup: bool,
    ) -> Result<Response, String> {
        let command = parse_command(request)?;
        let verb = match &command {
            Command::Load(_) => Some(0),
            Command::Assert(_) => Some(1),
            Command::Query(_) => Some(2),
            Command::Models { .. } => Some(3),
            Command::RetractTo(_) => Some(4),
            _ => None,
        };
        let chased = session.instance().is_some();
        let mut layer_ns = 0;
        let miss =
            matches!(&command, Command::Load(text) if !self.registered.contains(text.trim()));
        if let Command::Assert(text) = &command {
            let started = Instant::now();
            let database = parse_database(text).map_err(|e| e.to_string())?;
            let parse_ns = ns_since(started);
            self.parse_assert.push(parse_ns);
            layer_ns += parse_ns;
            if counted && !chased {
                let domain: HashSet<&Term> =
                    session.facts().iter().flat_map(|f| f.args()).collect();
                let grows = database
                    .facts()
                    .flat_map(|f| f.args())
                    .any(|term| !domain.contains(term));
                self.counts.sms_asserts += 1;
                self.counts.growth_asserts += u64::from(grows);
            }
        }

        let counters_before = obs::counters_snapshot();
        let spans_before = span_sums();
        let started = Instant::now();
        let response = session.execute(request);
        let exec_ns = ns_since(started);
        let spans_after = span_sums();
        let counters_after = obs::counters_snapshot();
        let span = |at: usize| spans_after[at].saturating_sub(spans_before[at]);
        let count = |name: &str| delta(&counters_before, &counters_after, name);
        let (chase_ns, sms_ns, cegar_ns) = (span(0), span(1) + span(2), span(3));

        match command {
            Command::Load(text) => {
                if miss {
                    layer_ns += self.build(&text)? + chase_ns + sms_ns;
                    self.chase_build.extend((chase_ns > 0).then_some(chase_ns));
                    if counted || warmup {
                        self.counts.entries += 1;
                        self.counts.base_atoms += summary_field(&response.lines, "atoms=");
                    }
                    self.registered.insert(text.trim().to_owned());
                } else if let Some(fork_ns) = self.fork(&text) {
                    self.chase_fork.push(fork_ns);
                    layer_ns += fork_ns;
                }
                if counted {
                    self.counts.loads += 1;
                    self.counts.misses += u64::from(miss);
                }
                if !miss && !warmup {
                    self.hit_load.push(exec_ns);
                }
            }
            Command::Assert(_) if chased => {
                self.chase_assert.push(chase_ns);
                layer_ns += chase_ns;
                if counted {
                    self.counts.asserts += 1;
                    self.counts.chase_rounds += count("chase.rounds");
                    self.counts.chase_triggers += count("chase.triggers");
                    self.counts.memo_hits += count("chase.witness_memo_hits");
                    self.counts.memo_misses += count("chase.witness_memo_misses");
                }
            }
            Command::Query(text) => {
                let started = Instant::now();
                let query = parse_query(&text).map_err(|e| e.to_string())?;
                let parse_ns = ns_since(started);
                self.parse_query.push(parse_ns);
                let instance = session.instance().ok_or("QUERY needs a chase session")?;
                let started = Instant::now();
                if query.is_boolean() {
                    black_box(query.holds(instance));
                } else {
                    black_box(query.answers(instance));
                }
                let answer_ns = ns_since(started);
                self.query_answers.push(answer_ns);
                layer_ns += parse_ns + answer_ns;
            }
            Command::Models { .. } => {
                let cached = response
                    .lines
                    .last()
                    .is_some_and(|line| line.contains("cached=true"));
                if !cached {
                    self.sms_ensure.push(sms_ns);
                    self.cegar_search.push(cegar_ns);
                }
                layer_ns += sms_ns + cegar_ns;
                if counted {
                    self.counts.models += 1;
                    self.counts.ensures += u64::from(!cached);
                    self.counts.rebuilds += count("sms.groundings");
                    self.counts.advances += count("sms.closure_advances");
                    self.counts.iterations += count("sms.cegar_iterations");
                }
            }
            // No span covers the rollback: on a chase session the request
            // is the arena's truncation plus the fact log's.
            Command::RetractTo(_) if chased => self.chase_retract.push(exec_ns),
            _ => {}
        }
        if counted {
            self.counts.requests += 1;
            self.counts.pool_batches += count("pool.batches");
            self.counts.pool_items += count("pool.batch_items");
        }
        if let (Some(verb), false) = (verb, warmup) {
            self.exec[verb].push(exec_ns);
            self.layer_ns[verb] += layer_ns as f64;
        }
        Ok(response)
    }

    /// Times the parse and the classification a registry miss runs (its
    /// chase and grounding are the session's own spans).
    fn build(&mut self, text: &str) -> Result<u64, String> {
        let started = Instant::now();
        let unit = parse_unit(text).map_err(|e| e.to_string())?;
        let parse_ns = ns_since(started);
        self.parse_load_ns += parse_ns as f64;
        self.parse_load_bytes += text.len() as f64;
        let disjunctive = unit.disjunctive_program().map_err(|e| e.to_string())?;
        let started = Instant::now();
        black_box(match unit.program() {
            Some(program) => ProgramClass::of(&program),
            None => ProgramClass::of(&disjunctive.positive_conjunctive_part()),
        });
        let classify_ns = ns_since(started);
        self.classify.push(classify_ns);
        Ok(parse_ns + classify_ns)
    }

    /// Times forking a frozen chase of the payload's program, as a registry
    /// hit does; `None` for a disjunctive program.
    fn fork(&mut self, text: &str) -> Option<u64> {
        let config = || ChaseConfig::with_max_steps(MAX_STEPS);
        let base = self
            .fork_bases
            .entry(text.trim().to_owned())
            .or_insert_with(|| {
                let unit = parse_unit(text).ok()?;
                let mut chase = IncrementalChase::new(&unit.program()?, config()).ok()?;
                chase.assert_facts(unit.database.facts().cloned()).ok()?;
                Some(chase.freeze())
            })
            .as_ref()?;
        let started = Instant::now();
        black_box(IncrementalChase::fork(base, config()));
        Some(ns_since(started))
    }

    fn metrics(&self) -> Vec<Metric> {
        let us = |ns: &[u64], q: f64| quantile(&scaled(ns, 1e3), q);
        let counts = &self.counts;
        let mut metrics = Vec::new();
        let mut push = |name: &'static str, value: f64| metrics.push(Metric { name, value });
        const EXEC: [&str; 5] = [
            "session.exec_us_p50.load",
            "session.exec_us_p50.assert",
            "session.exec_us_p50.query",
            "session.exec_us_p50.models",
            "session.exec_us_p50.retract",
        ];
        const SELF: [&str; 5] = [
            "session.self_us_mean.load",
            "session.self_us_mean.assert",
            "session.self_us_mean.query",
            "session.self_us_mean.models",
            "session.self_us_mean.retract",
        ];
        for verb in 0..VERBS.len() {
            let exec = &self.exec[verb];
            push(EXEC[verb], us(exec, 0.5));
            let exec_sum: f64 = exec.iter().map(|&ns| ns as f64).sum();
            push(
                SELF[verb],
                ratio(exec_sum - self.layer_ns[verb], exec.len() as f64) / 1e3,
            );
        }
        push(
            "registry.miss_share",
            ratio(counts.misses as f64, counts.loads as f64),
        );
        push("registry.hit_load_us_p50", us(&self.hit_load, 0.5));
        push("registry.entries", counts.entries as f64);
        push("registry.base_atoms_total", counts.base_atoms as f64);
        push(
            "parser.load_us_per_kb",
            ratio(self.parse_load_ns / 1e3, self.parse_load_bytes / 1024.0),
        );
        push("parser.assert_us_p50", us(&self.parse_assert, 0.5));
        push("parser.query_us_p50", us(&self.parse_query, 0.5));
        push("classes.classify_us_p50", us(&self.classify, 0.5));
        push("chase.assert_us_p50", us(&self.chase_assert, 0.5));
        push("chase.assert_us_p99", us(&self.chase_assert, 0.99));
        push("chase.retract_us_p50", us(&self.chase_retract, 0.5));
        push("chase.fork_us_p50", us(&self.chase_fork, 0.5));
        push(
            "chase.build_ms_p50",
            median(&scaled(&self.chase_build, 1e6)),
        );
        let asserts = counts.asserts as f64;
        push(
            "chase.rounds_per_assert",
            ratio(counts.chase_rounds as f64, asserts),
        );
        push(
            "chase.triggers_per_assert",
            ratio(counts.chase_triggers as f64, asserts),
        );
        push(
            "chase.memo_hit_ratio",
            ratio(
                counts.memo_hits as f64,
                (counts.memo_hits + counts.memo_misses) as f64,
            ),
        );
        push("query.answers_us_p50", us(&self.query_answers, 0.5));
        push("sms.ensure_us_p50", us(&self.sms_ensure, 0.5));
        push("sms.ensure_us_p99", us(&self.sms_ensure, 0.99));
        push(
            "sms.rebuild_share",
            ratio(counts.rebuilds as f64, counts.ensures as f64),
        );
        push(
            "sms.domain_growth_share",
            ratio(counts.growth_asserts as f64, counts.sms_asserts as f64),
        );
        let models = counts.models as f64;
        push(
            "sms.closure_advances_per_models",
            ratio(counts.advances as f64, models),
        );
        push("cegar.search_us_p50", us(&self.cegar_search, 0.5));
        push("cegar.search_us_p99", us(&self.cegar_search, 0.99));
        push(
            "cegar.iterations_per_models",
            ratio(counts.iterations as f64, models),
        );
        push(
            "pool.batches_per_op",
            ratio(counts.pool_batches as f64, counts.requests as f64),
        );
        push(
            "pool.items_per_batch",
            ratio(counts.pool_items as f64, counts.pool_batches as f64),
        );
        metrics
    }
}

/// The number after `key` in a response's terminator (`OK … atoms=N …`).
fn summary_field(lines: &[String], key: &str) -> u64 {
    lines
        .last()
        .and_then(|line| line.split_whitespace().find_map(|f| f.strip_prefix(key)))
        .and_then(|value| value.parse().ok())
        .unwrap_or(0)
}
