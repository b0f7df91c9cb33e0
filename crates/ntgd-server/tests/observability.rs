//! Observability surface tests: the `METRICS` exposition's wire framing,
//! byte-stability of the deterministic `STATS metrics` scope across the
//! full parallelism matrix, the `STATS classes` verdict of every generated
//! program family, the process-wide `server_requests` counter, the
//! `NTGD_SESSION_BUDGET` admission cap, the start-up refusal of malformed
//! operator settings, and
//! the `NTGD_SLOW_MS` slow-request log driven end to end over real TCP
//! against the actual `ntgd-serve` binary (environment-configured logging
//! is latched at process start, so it needs a subprocess to test).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ntgd_core::parallel;
use ntgd_loadgen::{generate, Family, Verb, WorkloadSpec};
use ntgd_server::{serve_tcp, Session, SessionBudget, SessionConfig};

/// The parallelism knobs are process-global; tests that flip them
/// serialise here.
fn settings_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Boots an in-process server on an OS-assigned port.
fn boot() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().expect("bound address");
    std::thread::spawn(move || {
        let _ = serve_tcp(listener, SessionConfig::default());
    });
    addr
}

/// A tiny protocol client: one request line in, all lines to the
/// `OK`/`ERR` terminator out.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone the stream"));
        let mut client = Client {
            reader,
            writer: stream,
        };
        assert_eq!(client.read_line(), "READY ntgd-serve protocol=1");
        client
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read from server");
        line.trim_end().to_owned()
    }

    fn request(&mut self, line: &str) -> Vec<String> {
        writeln!(self.writer, "{line}").expect("write to server");
        let mut lines = Vec::new();
        loop {
            let line = self.read_line();
            let done = line.starts_with("OK") || line.starts_with("ERR");
            lines.push(line);
            if done {
                return lines;
            }
        }
    }
}

#[test]
fn metrics_verb_frames_a_prometheus_exposition() {
    let addr = boot();
    let mut client = Client::connect(addr);
    // Verb counters and histograms record after dispatch, so this PING is
    // guaranteed to be visible to the scrape below.
    assert_eq!(client.request("PING"), vec!["OK pong"]);
    let lines = client.request("METRICS");
    let (data, terminator) = lines.split_at(lines.len() - 1);
    // The terminator's count matches the data lines exactly — the framing
    // clients rely on.
    let count: usize = terminator[0]
        .strip_prefix("OK metrics lines=")
        .expect("METRICS terminator shape")
        .parse()
        .expect("line count is a number");
    assert_eq!(count, data.len());
    // Every data line is frame-safe: a comment or a sample, never a line
    // that could be mistaken for a terminator.
    assert!(data
        .iter()
        .all(|line| line.starts_with("# TYPE ") || line.starts_with("ntgd_")));
    // The scrape carries this connection's own instruments.
    assert!(data
        .iter()
        .any(|line| line == "# TYPE ntgd_server_requests_ping counter"));
    assert!(data
        .iter()
        .any(|line| line.starts_with("ntgd_server_request_ping_ns_count ")));
    assert!(data
        .iter()
        .any(|line| line.starts_with("ntgd_server_request_ping_ns{quantile=\"0.99\"} ")));
}

/// A fixed session script touching every verb class: compute verbs, an
/// inspection verb, a parse error and a semantic error.
const SCRIPT: [&str; 9] = [
    "PING",
    "LOAD e(X, Y) -> n(X). e(X, Y) -> n(Y).",
    "ASSERT e(a, b).",
    "QUERY ?(X) :- n(X).",
    "NONSENSE",
    "RETRACT-TO 99",
    "MODELS max=2",
    "HELP",
    "STATS metrics",
];

fn transcript() -> Vec<String> {
    let mut session = Session::new(SessionConfig::default());
    SCRIPT
        .iter()
        .flat_map(|line| session.execute(line).lines)
        .collect()
}

#[test]
fn stats_metrics_is_byte_stable_across_threads() {
    let _guard = settings_lock();
    let reference = transcript();
    // The scope's tallies are a pure function of the request history: the
    // parse error counts into total+errors only, the bad RETRACT-TO counts
    // under its verb *and* errors, and the closing `STATS metrics` counts
    // itself.
    let stats_start = reference
        .iter()
        .position(|line| line == "STAT requests_total=9")
        .expect("metrics scope begins at the total");
    assert_eq!(
        &reference[stats_start..],
        &[
            "STAT requests_total=9",
            "STAT requests_load=1",
            "STAT requests_assert=1",
            "STAT requests_query=1",
            "STAT requests_models=1",
            "STAT requests_retract=1",
            "STAT requests_stats=1",
            "STAT requests_metrics=0",
            "STAT requests_ping=1",
            "STAT requests_help=1",
            "STAT requests_quit=0",
            "STAT requests_errors=2",
            "OK stats",
        ]
    );
    for threads in [1usize, 2, 8] {
        parallel::set_thread_override(Some(threads));
        let replay = transcript();
        parallel::set_thread_override(None);
        assert_eq!(reference, replay, "transcript differs at threads={threads}");
    }
}

#[test]
fn every_family_classifies_to_a_terminating_verdict() {
    // All four generator families are chase-terminating by construction
    // (chain/star are full TGDs, the existential family is a forward
    // weakly-acyclic chain, and the disjunctive family's positive transform
    // is full), so `STATS classes` after their `LOAD` must report the
    // terminating verdict, which lifts the chase budget for every generated
    // workload.
    for family in [
        Family::Chain,
        Family::Star,
        Family::Existential,
        Family::Disjunctive,
    ] {
        let workload = generate(&WorkloadSpec {
            family,
            sessions: 1,
            ops: 1,
            ..WorkloadSpec::default()
        });
        let load = &workload.sessions[0][0];
        assert_eq!(load.verb, Verb::Load, "{family:?}: ops[0] is the LOAD");
        let mut session = Session::new(SessionConfig::default());
        let loaded = session.execute(&load.line).lines;
        assert!(
            loaded.last().unwrap().starts_with("OK"),
            "{family:?}: LOAD failed: {loaded:?}"
        );
        let classes = session.execute("STATS classes").lines;
        assert!(
            classes.contains(&"STAT class_verdict=terminating".to_owned()),
            "{family:?}: expected a terminating verdict, got {classes:?}"
        );
    }
}

#[test]
fn server_requests_counter_is_monotone_over_stats_probes() {
    let mut session = Session::new(SessionConfig::default());
    let mut server_requests = || {
        session
            .execute("STATS")
            .lines
            .iter()
            .find_map(|line| line.strip_prefix("STAT server_requests="))
            .expect("STATS reports server_requests")
            .parse::<u64>()
            .expect("a count")
    };
    let first = server_requests();
    let second = server_requests();
    // Each probe is a request itself, so the counter strictly grows.
    assert!(second > first, "{second} after {first}");
}

#[test]
fn reject_budget_blocks_compute_verbs_but_keeps_the_session_diagnosable() {
    let mut session = Session::new(SessionConfig {
        session_budget: Some(SessionBudget::Reject(0)),
        ..SessionConfig::default()
    });
    // Inspection verbs always run, budget or not.
    assert_eq!(session.execute("PING").lines, vec!["OK pong"]);
    let rejected = session.execute("LOAD p(X) -> q(X).");
    assert_eq!(
        rejected.lines,
        vec!["ERR session budget exceeded (spent 0ms >= budget 0ms)"]
    );
    // The rejection still counts as a request (and an error) in the
    // session's deterministic tallies.
    let stats = session.execute("STATS metrics");
    assert!(stats.lines.contains(&"STAT requests_load=1".to_owned()));
    assert!(stats.lines.contains(&"STAT requests_errors=1".to_owned()));
    assert!(stats.is_ok());
}

#[test]
fn warn_budget_keeps_serving() {
    let mut session = Session::new(SessionConfig {
        session_budget: Some(SessionBudget::Warn(0)),
        ..SessionConfig::default()
    });
    assert!(session.execute("LOAD p(X) -> q(X).").is_ok());
    assert!(session.execute("ASSERT p(a).").is_ok());
    assert_eq!(
        session.execute("QUERY ?- q(a).").lines,
        vec!["ANSWER true", "OK answers=1"]
    );
}

#[test]
fn budget_values_parse_like_the_environment_variable() {
    assert_eq!(
        SessionBudget::parse("250"),
        Some(SessionBudget::Reject(250))
    );
    assert_eq!(
        SessionBudget::parse("warn: 90"),
        Some(SessionBudget::Warn(90))
    );
    assert_eq!(SessionBudget::parse("fast"), None);
    assert_eq!(SessionBudget::parse(""), None);
}

#[test]
fn malformed_operator_settings_stop_the_server_at_start_up() {
    // The REPL on empty stdin ends at once, so the exit status is the
    // settings check alone: a value that does not parse exits 1 and names
    // its variable; an empty value is off, like an unset one.
    let run = |name: &str, value: &str| {
        Command::new(env!("CARGO_BIN_EXE_ntgd-serve"))
            .arg("--repl")
            .env_remove("NTGD_SLOW_MS")
            .env_remove("NTGD_SESSION_BUDGET")
            .env(name, value)
            .stdin(Stdio::null())
            .output()
            .expect("run ntgd-serve")
    };
    for (name, value) in [
        ("NTGD_SLOW_MS", "abc"),
        ("NTGD_SLOW_MS", "-5"),
        ("NTGD_SESSION_BUDGET", "warn:x"),
        ("NTGD_SESSION_BUDGET", "-5"),
    ] {
        let output = run(name, value);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{name}={value}: {stderr}");
        assert!(stderr.contains(name), "{name}={value}: {stderr}");
    }
    for name in ["NTGD_SLOW_MS", "NTGD_SESSION_BUDGET"] {
        assert!(run(name, "").status.success(), "{name} empty");
    }
}

#[test]
fn slow_requests_are_logged_as_json_events_over_real_tcp() {
    // NTGD_LOG and NTGD_SLOW_MS are latched when the process first logs, so
    // the end-to-end path needs the real binary with a controlled
    // environment, driven over a real socket.
    let log_path = std::env::temp_dir().join(format!("ntgd-slowlog-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ntgd-serve"))
        .args(["--listen", "127.0.0.1:0"])
        .env("NTGD_SLOW_MS", "0")
        .env("NTGD_LOG", &log_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ntgd-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read LISTENING line");
    let addr = banner
        .trim()
        .strip_prefix("LISTENING ")
        .expect("ntgd-serve announces its address")
        .parse()
        .expect("announced address parses");

    let mut client = Client::connect(addr);
    assert!(client.request("LOAD p(X) -> q(X).")[0].starts_with("OK"));
    assert!(client.request("ASSERT p(a).")[0].starts_with("OK"));
    assert_eq!(client.request("QUIT"), vec!["OK bye"]);
    drop(client);

    // The log file is appended as requests complete; poll briefly for the
    // events (the threshold of 0 ms makes every request slow).
    let deadline = Instant::now() + Duration::from_secs(10);
    let events = loop {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        let events: Vec<String> = text.lines().map(str::to_owned).collect();
        if events.iter().filter(|e| e.contains("slow_request")).count() >= 3
            || Instant::now() > deadline
        {
            break events;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    child.kill().expect("stop ntgd-serve");
    let _ = child.wait();
    let _ = std::fs::remove_file(&log_path);

    let slow: Vec<&String> = events
        .iter()
        .filter(|e| e.contains("\"event\":\"slow_request\""))
        .collect();
    assert!(
        slow.len() >= 3,
        "expected slow_request events for LOAD/ASSERT/QUIT, got: {events:?}"
    );
    // One JSON object per line with the documented fields.
    for event in &slow {
        assert!(event.starts_with("{\"ts_ms\":"), "not a JSON line: {event}");
        assert!(event.ends_with('}'));
        for field in [
            "\"level\":\"warn\"",
            "\"verb\":",
            "\"session\":",
            "\"duration_ms\":",
            "\"request_bytes\":",
            "\"response_lines\":",
            "\"response_bytes\":",
            "\"ok\":",
        ] {
            assert!(event.contains(field), "missing {field} in {event}");
        }
    }
    assert!(slow.iter().any(|e| e.contains("\"verb\":\"load\"")));
    assert!(slow.iter().any(|e| e.contains("\"verb\":\"assert\"")));
}
