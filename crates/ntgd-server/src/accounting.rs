//! Request accounting: the counters, histograms, slow-request log and
//! budgets around every request.  [`Session::execute`](crate::Session::execute)
//! opens each request here before dispatching it and closes it afterwards;
//! TCP admission asks [`fleet_sheds`].  Both halves of the
//! [`SessionBudget`] read the spend recorded here.  Timing is observed,
//! never consulted — except under an explicit [`SessionBudget`], which is
//! off by default.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ntgd_classes::ClassVerdict;
use ntgd_core::obs::{
    self,
    log::{FieldValue, Level, RateLimit},
};

use crate::protocol::{Command, Response};

/// Process-wide count of protocol requests executed across every session
/// (blank/comment lines excluded; malformed requests included — they
/// produced an `ERR` response).  `STATS` reports it as `server_requests`,
/// so a client can confirm the server saw every request it sent.
static SERVER_REQUESTS: AtomicU64 = AtomicU64::new(0);

/// The current process-wide request count (see `SERVER_REQUESTS` above).
pub fn server_requests() -> u64 {
    SERVER_REQUESTS.load(Ordering::Relaxed)
}

/// Process-wide cumulative request execution wall time (nanoseconds) across
/// every session, dead or alive: the spend the fleet budget checks.
static SERVER_EXEC_NS: AtomicU64 = AtomicU64::new(0);

/// Monotonic session ids (the structured log correlates events by them).
static SESSION_IDS: AtomicU64 = AtomicU64::new(1);

/// Process-wide count of requests answered `ERR`, served by `METRICS`.
static REQ_ERRORS: obs::Counter = obs::Counter::new("server.requests.errors");
static BUDGET_REJECTIONS: obs::Counter = obs::Counter::new("server.budget_rejections");

/// Per-`LOAD` classification-verdict counters: every installed program
/// bumps the counter of its verdict, so `METRICS` shows how much of the
/// fleet's traffic runs on the budget-free fast path.
static CLASS_TERMINATING: obs::Counter = obs::Counter::new("server.class.terminating");
static CLASS_DECIDABLE: obs::Counter = obs::Counter::new("server.class.decidable");
static CLASS_OUT_OF_FRAGMENT: obs::Counter = obs::Counter::new("server.class.out_of_fragment");

/// One protocol verb's metric names: its label (the `STATS metrics` key
/// suffix and the slow-log `verb`), its process-wide `METRICS` request
/// counter, and its wall-time histogram.
struct VerbMetrics {
    label: &'static str,
    counter: obs::Counter,
    histogram: &'static str,
}

macro_rules! verb_metrics {
    ($label:literal) => {
        VerbMetrics {
            label: $label,
            counter: obs::Counter::new(concat!("server.requests.", $label)),
            histogram: concat!("server.request.", $label),
        }
    };
}

/// Every protocol verb, in `STATS metrics` order; [`verb_index`] maps a
/// command to its row.  The process-wide counters here aggregate every
/// session in the process, unlike the session-local [`Accounting`].
static VERBS: [VerbMetrics; 10] = [
    verb_metrics!("load"),
    verb_metrics!("assert"),
    verb_metrics!("query"),
    verb_metrics!("models"),
    verb_metrics!("retract"),
    verb_metrics!("stats"),
    verb_metrics!("metrics"),
    verb_metrics!("ping"),
    verb_metrics!("help"),
    verb_metrics!("quit"),
];

/// The [`VERBS`] row of a parsed command (`None` for blank/comment lines,
/// which are not requests).
fn verb_index(command: &Command) -> Option<usize> {
    match command {
        Command::Load(_) => Some(0),
        Command::Assert(_) => Some(1),
        Command::Query(_) => Some(2),
        Command::Models { .. } => Some(3),
        Command::RetractTo(_) => Some(4),
        Command::Stats { .. } => Some(5),
        Command::Metrics => Some(6),
        Command::Ping => Some(7),
        Command::Help => Some(8),
        Command::Quit => Some(9),
        Command::Nop => None,
    }
}

/// The `NTGD_SESSION_BUDGET` admission cap: a per-session ceiling on
/// cumulative execution wall time.  `"<ms>"` rejects compute requests once
/// the session has spent that many milliseconds; `"warn:<ms>"` only emits
/// one `budget_exceeded` log event per session.  The budget also feeds the
/// fleet-wide admission check (`fleet_sheds`).  Off by default — enabling
/// it makes responses depend on wall time, trading away the determinism
/// contract for the protected verbs (inspection verbs are always allowed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionBudget {
    /// Reject compute requests past the cap (milliseconds).
    Reject(u64),
    /// Log once past the cap (milliseconds), keep serving.
    Warn(u64),
}

impl SessionBudget {
    /// Parses a `NTGD_SESSION_BUDGET` value; `None` for anything malformed.
    pub fn parse(text: &str) -> Option<SessionBudget> {
        let text = text.trim();
        if let Some(ms) = text.strip_prefix("warn:") {
            return ms.trim().parse::<u64>().ok().map(SessionBudget::Warn);
        }
        text.parse::<u64>().ok().map(SessionBudget::Reject)
    }

    fn cap_ms(self) -> u64 {
        match self {
            SessionBudget::Reject(ms) | SessionBudget::Warn(ms) => ms,
        }
    }
}

/// Whether cumulative fleet spend exceeds the aggregate allowance earned by
/// every session ever admitted, the would-be one included.  Scaling by
/// admissions-ever (not live sessions) is what lets allowance keep pace
/// with spend through session churn: dead sessions' spend stays in the
/// cumulative total, so their allowance must stay in the aggregate too, or
/// a long-lived server would eventually reject every connection while idle.
fn fleet_over_allowance(cap_ms: u64, spent_ms: u64, accepted: u64) -> bool {
    spent_ms >= cap_ms.saturating_mul(accepted.saturating_add(1))
}

/// The fleet-budget breach is worth a structured trace even in warn mode,
/// where it never sheds — rate-limited so a busy accept loop cannot flood
/// the sink.
static FLEET_BUDGET_EVENTS: RateLimit = RateLimit::new(Duration::from_secs(1));

/// The fleet half of the [`SessionBudget`]: whether TCP admission should
/// shed a new connection, given the sessions ever `accepted` and those
/// `active` now.  A **reject** budget sheds while cumulative execution time
/// is over the fleet allowance ([`fleet_over_allowance`]); live sessions
/// are never touched, so the budget degrades admission, not service.  A
/// `warn:` budget never sheds: a breach only emits a rate-limited
/// `fleet_budget_exceeded` event.
pub(crate) fn fleet_sheds(budget: Option<SessionBudget>, accepted: u64, active: u64) -> bool {
    let Some(budget) = budget else {
        return false;
    };
    let cap_ms = budget.cap_ms();
    let spent_ms = SERVER_EXEC_NS.load(Ordering::Relaxed) / 1_000_000;
    if !fleet_over_allowance(cap_ms, spent_ms, accepted) {
        return false;
    }
    if let SessionBudget::Warn(_) = budget {
        if FLEET_BUDGET_EVENTS.allow() && obs::log::log_enabled(Level::Warn) {
            obs::log::log_event(
                Level::Warn,
                "fleet_budget_exceeded",
                &[
                    ("spent_ms", FieldValue::from(spent_ms)),
                    ("budget_ms", FieldValue::from(cap_ms)),
                    ("accepted", FieldValue::from(accepted)),
                    ("active", FieldValue::from(active)),
                ],
            );
        }
        return false;
    }
    true
}

/// One open request: its [`VERBS`] row and when it started.
pub(crate) struct Request {
    verb: Option<usize>,
    started: Instant,
}

/// One session's accounting.  The request tallies behind `STATS metrics`
/// are a pure function of the session's request history — never of wall
/// time or thread count — so transcripts assert the scope verbatim like
/// `STATS sms`/`base`/`conn`.
pub(crate) struct Accounting {
    /// Process-unique id, correlating this session's log events.
    id: u64,
    /// Cumulative wall time spent executing this session's requests.
    exec_ns: u64,
    /// Whether a `Warn` budget has already logged for this session.
    budget_warned: bool,
    requests: u64,
    /// Requests per [`VERBS`] row.
    verb_requests: [u64; VERBS.len()],
    /// Requests answered with `ERR` (parse failures included).
    errors: u64,
    budget: Option<SessionBudget>,
    /// `slow_request` threshold in milliseconds (`None`: off).
    slow_ms: Option<u64>,
}

impl Accounting {
    /// Fresh accounting for a new session, under a new session id.
    pub(crate) fn new(budget: Option<SessionBudget>, slow_ms: Option<u64>) -> Accounting {
        Accounting {
            id: SESSION_IDS.fetch_add(1, Ordering::Relaxed),
            exec_ns: 0,
            budget_warned: false,
            requests: 0,
            verb_requests: [0; VERBS.len()],
            errors: 0,
            budget,
            slow_ms,
        }
    }

    /// Opens a request (never a blank/comment line): counts it, so a
    /// `STATS metrics` request counts itself, and starts its clock.  The
    /// second half is `Some(ERR …)` when the session budget rejects the
    /// request; it must then be answered with that, not run.
    pub(crate) fn open(&mut self, parsed: &Result<Command, String>) -> (Request, Option<Response>) {
        SERVER_REQUESTS.fetch_add(1, Ordering::Relaxed);
        self.requests += 1;
        let verb = parsed.as_ref().ok().and_then(verb_index);
        if let Some(verb) = verb {
            self.verb_requests[verb] += 1;
        }
        let started = Instant::now();
        (Request { verb, started }, self.over_budget(parsed))
    }

    /// Closes a request with its response: records its wall time, counts
    /// an error, and logs it if slow.
    pub(crate) fn close(&mut self, request: Request, line: &str, response: &Response) {
        let elapsed_ns = u64::try_from(request.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.exec_ns = self.exec_ns.saturating_add(elapsed_ns);
        SERVER_EXEC_NS.fetch_add(elapsed_ns, Ordering::Relaxed);
        if !response.is_ok() {
            self.errors += 1;
            REQ_ERRORS.incr();
        }
        let verb = request.verb.map(|verb| &VERBS[verb]);
        if let Some(verb) = verb {
            verb.counter.incr();
            obs::record_duration(verb.histogram, elapsed_ns);
        }
        self.log_slow(verb.map(|verb| verb.label), line, response, elapsed_ns);
    }

    /// Counts a `LOAD`'s classification verdict; an out-of-fragment program
    /// also logs a `class_out_of_fragment` event with the chase budget it
    /// keeps.
    pub(crate) fn classified(&self, verdict: ClassVerdict, budget: usize) {
        let counter = match verdict {
            ClassVerdict::Terminating => &CLASS_TERMINATING,
            ClassVerdict::Decidable => &CLASS_DECIDABLE,
            ClassVerdict::OutOfFragment => &CLASS_OUT_OF_FRAGMENT,
        };
        counter.incr();
        if verdict == ClassVerdict::OutOfFragment {
            obs::log::log_event(
                Level::Warn,
                "class_out_of_fragment",
                &[
                    ("session", FieldValue::from(self.id)),
                    ("budget", FieldValue::from(budget)),
                ],
            );
        }
    }

    /// The `STATS metrics` lines.
    pub(crate) fn stat_lines(&self) -> Vec<String> {
        let mut lines = Vec::with_capacity(VERBS.len() + 2);
        lines.push(format!("STAT requests_total={}", self.requests));
        for (verb, count) in VERBS.iter().zip(self.verb_requests) {
            lines.push(format!("STAT requests_{}={count}", verb.label));
        }
        lines.push(format!("STAT requests_errors={}", self.errors));
        lines
    }

    /// The per-session half of the [`SessionBudget`]: `Some(ERR …)` when a
    /// `Reject` budget is exhausted.  Inspection verbs (`STATS`, `METRICS`,
    /// `PING`, `HELP`, `QUIT`) always run, so an over-budget session stays
    /// diagnosable.
    fn over_budget(&mut self, parsed: &Result<Command, String>) -> Option<Response> {
        let budget = self.budget?;
        let compute = matches!(
            parsed,
            Ok(Command::Load(_)
                | Command::Assert(_)
                | Command::Query(_)
                | Command::Models { .. }
                | Command::RetractTo(_))
        );
        if !compute {
            return None;
        }
        let spent_ms = self.exec_ns / 1_000_000;
        let cap_ms = budget.cap_ms();
        if spent_ms < cap_ms {
            return None;
        }
        let fields = [
            ("session", FieldValue::from(self.id)),
            ("spent_ms", FieldValue::from(spent_ms)),
            ("budget_ms", FieldValue::from(cap_ms)),
        ];
        match budget {
            SessionBudget::Reject(_) => {
                BUDGET_REJECTIONS.incr();
                obs::log::log_event(Level::Warn, "budget_rejected", &fields);
                Some(Response::err(format!(
                    "session budget exceeded (spent {spent_ms}ms >= budget {cap_ms}ms)"
                )))
            }
            SessionBudget::Warn(_) => {
                if !self.budget_warned {
                    self.budget_warned = true;
                    obs::log::log_event(Level::Warn, "budget_exceeded", &fields);
                }
                None
            }
        }
    }

    /// Emits a `slow_request` event when the request's wall time reaches
    /// the configured threshold.
    fn log_slow(&self, verb: Option<&'static str>, line: &str, response: &Response, ns: u64) {
        let Some(threshold_ms) = self.slow_ms else {
            return;
        };
        let elapsed_ms = ns / 1_000_000;
        if elapsed_ms < threshold_ms || !obs::log::log_enabled(Level::Warn) {
            return;
        }
        let response_bytes: usize = response.lines.iter().map(String::len).sum();
        obs::log::log_event(
            Level::Warn,
            "slow_request",
            &[
                ("verb", FieldValue::from(verb.unwrap_or("invalid"))),
                ("session", FieldValue::from(self.id)),
                ("duration_ms", FieldValue::from(elapsed_ms)),
                ("request_bytes", FieldValue::from(line.len())),
                ("response_lines", FieldValue::from(response.lines.len())),
                ("response_bytes", FieldValue::from(response_bytes)),
                ("ok", FieldValue::from(response.is_ok())),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_allowance_scales_with_admissions_ever_not_live_sessions() {
        // Churn scenario: 1000ms of lifetime spend left by dead sessions,
        // 100ms per-session cap, server idle.  Twelve admissions earned
        // 1300ms of aggregate allowance — the next connection is admitted.
        assert!(!fleet_over_allowance(100, 1000, 12));
        // Only five admissions earned 600ms — the spend exceeds it, shed.
        assert!(fleet_over_allowance(100, 1000, 5));
        // A zero budget is breached by definition (the deterministic case
        // the e2e shedding test leans on).
        assert!(fleet_over_allowance(0, 0, 0));
        // The aggregate saturates instead of overflowing.
        assert!(!fleet_over_allowance(u64::MAX, u64::MAX - 1, 3));
        assert!(fleet_over_allowance(u64::MAX, u64::MAX, u64::MAX));
    }
}
