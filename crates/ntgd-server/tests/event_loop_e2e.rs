//! End-to-end tests for the evented connection layer: transcript parity
//! with in-memory sessions at high concurrency, admission control, graceful
//! shutdown, the socket-level framing corners (pipelining, partial writes,
//! unterminated final lines) that only show up over a real TCP connection,
//! and the buffer bounds (long lines, clients that never read).
//!
//! The headline test drives **256 concurrent sessions** at `NTGD_THREADS`
//! 1 and 8 and requires every session's transcript to be byte-identical to
//! the same script pumped through `handle_session` over in-memory buffers
//! (the REPL path): the transport must be invisible to clients.  It also
//! bounds the p99 request latency of that fleet at 5 s, a liveness check:
//! no session may starve.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ntgd_core::parallel;
use ntgd_server::{
    handle_session, serve, Conn, ServeHandle, Session, SessionBudget, SessionConfig, MAX_LINE,
};

/// Boots a server on an OS-assigned port.
fn boot(max_sessions: Option<usize>) -> ServeHandle {
    let config = SessionConfig {
        max_sessions,
        ..SessionConfig::default()
    };
    boot_with(config)
}

/// Boots a server on an OS-assigned port with a fully explicit config.
fn boot_with(config: SessionConfig) -> ServeHandle {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    serve(listener, config).expect("serve")
}

/// `Session` and `Conn` are the units the scheduler moves between threads:
/// both must stay `Send`.  This is the compile-time audit — if a future
/// change smuggles an `Rc` or a raw pointer into session state, this test
/// stops compiling rather than failing at runtime.
#[test]
fn session_and_conn_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
    assert_send::<Conn>();
}

/// The deterministic request script for session `i`: eight program shapes so
/// neighbouring sessions exercise different rules, including a disjunctive
/// variant that runs the SMS engine (nested parallelism inside a pooled
/// batch).  Every response is deterministic, so transcripts are comparable
/// byte-for-byte with an in-memory run.
fn script(i: usize) -> Vec<String> {
    let v = i % 8;
    if v >= 6 {
        return vec![
            format!("LOAD node{v}(X) -> red{v}(X) | green{v}(X)."),
            format!("ASSERT node{v}(u). node{v}(w)."),
            "MODELS max=8".to_owned(),
            "PING".to_owned(),
        ];
    }
    let mut lines = vec![format!(
        "LOAD e{v}(X, Y) -> n{v}(X). e{v}(X, Y) -> n{v}(Y)."
    )];
    for j in 0..=v {
        lines.push(format!("ASSERT e{v}(a{j}, b{j})."));
    }
    lines.push(format!("QUERY ?(X) :- n{v}(X)."));
    lines.push("RETRACT-TO 1".to_owned());
    lines.push(format!("QUERY ?(X) :- n{v}(X)."));
    lines
}

/// How long a fleet client waits to connect or for a reply: far above any
/// latency the parity test accepts, so only a stalled server trips it, and
/// then the test fails instead of hanging.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Connects `sessions` concurrent clients, releases them together, runs each
/// one's script in request/response lockstep, QUITs, and returns every
/// session's full transcript (banner included, read to server-side EOF)
/// with the wall time of each of its requests.
fn run_fleet(addr: std::net::SocketAddr, sessions: usize) -> Vec<(String, Vec<Duration>)> {
    let barrier = Arc::new(Barrier::new(sessions));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let connected = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT);
                    // Every client reaches the barrier, so one failed connect
                    // fails the test instead of stranding the others.
                    barrier.wait();
                    let stream = connected.expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    stream
                        .set_read_timeout(Some(CLIENT_TIMEOUT))
                        .expect("read timeout");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    fn read_until_terminator(
                        reader: &mut BufReader<TcpStream>,
                        transcript: &mut String,
                    ) {
                        loop {
                            let mut line = String::new();
                            reader.read_line(&mut line).expect("read");
                            assert!(!line.is_empty(), "server closed mid-request");
                            let done = line.starts_with("OK") || line.starts_with("ERR");
                            transcript.push_str(&line);
                            if done {
                                break;
                            }
                        }
                    }
                    let mut transcript = String::new();
                    {
                        // Banner.
                        let mut line = String::new();
                        reader.read_line(&mut line).expect("banner");
                        transcript.push_str(&line);
                    }
                    let mut latencies = Vec::new();
                    for request in script(i).into_iter().chain(["QUIT".to_owned()]) {
                        let started = Instant::now();
                        writeln!(writer, "{request}").expect("write");
                        read_until_terminator(&mut reader, &mut transcript);
                        latencies.push(started.elapsed());
                    }
                    // The server closes after QUIT.
                    let mut rest = String::new();
                    reader.read_to_string(&mut rest).expect("read to EOF");
                    transcript.push_str(&rest);
                    (transcript, latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    })
}

/// The nearest-rank 99th percentile of `samples`.
fn p99(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[(samples.len() * 99).div_ceil(100) - 1]
}

/// Session `i`'s script (plus `QUIT`) pumped through `handle_session`
/// over in-memory buffers: the reference transcript.
fn in_memory_transcript(i: usize) -> String {
    let mut input = script(i).join("\n");
    input.push_str("\nQUIT\n");
    let mut out = Vec::new();
    handle_session(
        Session::new(SessionConfig::default()),
        input.as_bytes(),
        &mut out,
    )
    .expect("in-memory session");
    String::from_utf8(out).expect("UTF-8 transcript")
}

/// The parity gate: 256 concurrent TCP sessions at 1 and 8 worker threads.
/// Each session's transcript must match its in-memory run byte-for-byte,
/// and the p99 wall time over all requests must stay within 5 s.
#[test]
fn evented_matches_in_memory_sessions_at_256_sessions_across_threads() {
    const SESSIONS: usize = 256;
    // Generous for noisy CI runners: the bound checks liveness, not speed.
    const P99_BOUND: Duration = Duration::from_secs(5);
    for threads in [1usize, 8] {
        parallel::set_thread_override(Some(threads));
        let server = boot(None);
        let (tcp, latencies): (Vec<String>, Vec<Vec<Duration>>) =
            run_fleet(server.addr(), SESSIONS).into_iter().unzip();
        let stats = server.conn_stats();
        server.shutdown().expect("shutdown");
        let reference: Vec<String> = (0..SESSIONS).map(in_memory_transcript).collect();
        parallel::set_thread_override(None);
        let p99 = p99(latencies.into_iter().flatten().collect());
        assert!(
            p99 <= P99_BOUND,
            "request p99 {p99:?} over {P99_BOUND:?} at threads={threads}"
        );
        for (i, (got, want)) in tcp.iter().zip(&reference).enumerate() {
            assert_eq!(
                got, want,
                "transcript diverged: session {i}, threads={threads}"
            );
        }
        assert_eq!(stats.accepted, SESSIONS as u64);
        assert_eq!(stats.rejected, 0);
        assert!(stats.peak <= SESSIONS as u64);
    }
}

/// `--max-sessions`: connections over the cap get `ERR server at
/// capacity` and a closed socket; once a slot frees, new sessions are
/// admitted again.
#[test]
fn admission_cap_rejects_then_recovers() {
    let server = boot(Some(2));
    let addr = server.addr();
    let connect_admitted = || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("banner");
        assert!(
            line.starts_with("READY"),
            "admitted sessions get the banner"
        );
        (stream, reader)
    };
    let first = connect_admitted();
    let second = connect_admitted();

    let over = TcpStream::connect(addr).expect("connect over cap");
    let mut reader = BufReader::new(over);
    let mut line = String::new();
    reader.read_line(&mut line).expect("rejection line");
    assert_eq!(line, "ERR server at capacity\n");
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("rejected socket EOF");
    assert!(rest.is_empty(), "nothing follows the rejection");

    // Free a slot and retry: the server must admit again.  The slot is
    // released when the server retires the connection, so poll briefly.
    let (mut stream, mut first_reader) = first;
    writeln!(stream, "QUIT").expect("QUIT");
    let mut bye = String::new();
    first_reader.read_line(&mut bye).expect("bye");
    assert_eq!(bye, "OK bye\n");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stream = TcpStream::connect(addr).expect("connect after free");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        if line.starts_with("READY") {
            break;
        }
        assert_eq!(line, "ERR server at capacity\n");
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after QUIT"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let stats = server.conn_stats();
    assert!(stats.rejected >= 1, "rejection counted");
    assert_eq!(stats.peak, 2, "peak pinned at the cap");
    drop(second);
    server.shutdown().expect("shutdown");
}

/// Pipelined requests in one TCP segment are answered in order; the QUIT in
/// the middle of the pipeline terminates the session and everything after
/// it is discarded (same contract as the `BufRead` loop of
/// `handle_session`, which never reads past QUIT).
#[test]
fn pipelined_requests_are_answered_in_order_and_quit_cuts_the_stream() {
    let server = boot(None);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(b"PING\nPING\nQUIT\nPING\n")
        .expect("one pipelined write");
    let mut everything = String::new();
    stream.read_to_string(&mut everything).expect("read to EOF");
    assert_eq!(
        everything, "READY ntgd-serve protocol=1\nOK pong\nOK pong\nOK bye\n",
        "responses in order, nothing served after QUIT"
    );
    server.shutdown().expect("shutdown");
}

/// A request split across arbitrary TCP segments (here: byte by byte) is
/// accumulated until its newline arrives — the event loop never acts on a
/// partial line.
#[test]
fn partial_writes_accumulate_until_the_line_completes() {
    let server = boot(None);
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    for byte in b"PING\n" {
        stream.write_all(&[*byte]).expect("write one byte");
        std::thread::sleep(Duration::from_millis(2));
    }
    line.clear();
    reader.read_line(&mut line).expect("response");
    assert_eq!(line, "OK pong\n");
    // An unterminated final line before EOF still executes (the `BufRead::
    // lines` contract `handle_session` inherits from the std library).
    stream.write_all(b"PING").expect("write without newline");
    stream.shutdown(Shutdown::Write).expect("half-close");
    line.clear();
    reader.read_line(&mut line).expect("response to partial");
    assert_eq!(line, "OK pong\n");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("EOF");
    assert!(rest.is_empty());
    server.shutdown().expect("shutdown");
}

/// `ServeHandle::shutdown` joins every server thread and closes the
/// listener: post-shutdown connects must not reach a live session.
#[test]
fn shutdown_closes_the_listener() {
    let server = boot(None);
    let addr = server.addr();
    // One live session mid-conversation when shutdown lands.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    server.shutdown().expect("graceful shutdown");
    // The live connection is closed out from under the client...
    let mut rest = String::new();
    let _ = reader.read_to_string(&mut rest);
    // ...and fresh connects find nobody serving.
    match TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
        Err(_) => {}
        Ok(stream) => {
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .expect("timeout");
            let mut buf = [0u8; 8];
            let got = (&stream).read(&mut buf);
            assert!(
                matches!(got, Ok(0) | Err(_)),
                "post-shutdown connection produced data: {got:?}"
            );
        }
    }
}

/// `--idle-timeout`: a client that goes silent is reaped by the evented
/// loop — its socket is closed server-side, `conn_idle_closed` counts it,
/// and crucially its admission slot is *released*, so a stalled client can
/// no longer pin the server at capacity forever.  The same holds for a
/// client that pipelines requests but never reads: once its output is
/// parked at the cap, no bytes move and it is idle too.
#[test]
fn idle_sessions_are_reaped_and_release_capacity() {
    let server = boot_with(SessionConfig {
        max_sessions: Some(1),
        idle_timeout: Some(Duration::from_millis(100)),
        ..SessionConfig::default()
    });
    let addr = server.addr();

    // The stalled client: admitted (banner read), then silent forever.
    let stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reader = BufReader::new(stalled.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    assert!(line.starts_with("READY"), "stalled client was admitted");

    // It holds the only slot, so a second connection is shed...
    {
        let over = TcpStream::connect(addr).expect("connect over cap");
        let mut reader = BufReader::new(over);
        let mut line = String::new();
        reader.read_line(&mut line).expect("rejection line");
        assert_eq!(line, "ERR server at capacity\n");
    }

    // ...until the reaper closes the silent connection (EOF, not a read
    // timeout — the 5 s socket timeout above converts a hang into a failure).
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("reaped to EOF");
    assert!(rest.is_empty(), "nothing served after the banner");

    // The slot is free again: the next client is admitted.
    let mut non_reader = connect_once_admitted(addr);
    assert!(server.conn_stats().idle_closed >= 1, "silent client reaped");

    // The non-reader takes the slot and floods it without reading; once it
    // stalls, the reaper releases the slot again.
    non_reader.set_nonblocking(true).expect("non-blocking");
    let stalled = pipeline_help_until_stalled(&mut non_reader, Duration::from_millis(300));
    assert!(stalled.is_ok(), "no stall: {stalled:?} bytes sent");
    drop(connect_once_admitted(addr));

    let stats = server.conn_stats();
    assert!(stats.idle_closed >= 2, "both reaps counted: {stats:?}");
    drop(non_reader);
    server.shutdown().expect("shutdown");
}

/// Connects until the server admits a session (the banner arrives) instead
/// of shedding it; slot release and socket close are not atomic, so this
/// polls briefly.
fn connect_once_admitted(addr: std::net::SocketAddr) -> TcpStream {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("response line");
        if line.starts_with("READY") {
            return stream;
        }
        assert_eq!(line, "ERR server at capacity\n");
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Writes pipelined `HELP` requests on a non-blocking socket, never reading,
/// until no byte has gone out for `quiet` (or the peer closes), and returns
/// `Ok(bytes sent)`.  Gives up with `Err(bytes sent)` at 20 MiB or after
/// 5 s, so a server without output backpressure fails instead of hanging.
fn pipeline_help_until_stalled(stream: &mut TcpStream, quiet: Duration) -> Result<usize, usize> {
    const LIMIT: usize = 20 << 20;
    let flood = b"HELP\n".repeat(16 * 1024);
    let started = Instant::now();
    let mut last_progress = started;
    let mut sent = 0;
    let mut offset = 0;
    while sent < LIMIT && started.elapsed() < Duration::from_secs(5) {
        match stream.write(&flood[offset..]) {
            Ok(n) => {
                sent += n;
                offset = (offset + n) % flood.len();
                last_progress = Instant::now();
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                if last_progress.elapsed() >= quiet {
                    return Ok(sent);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            // The server closed the connection (the idle reaper).
            Err(_) => return Ok(sent),
        }
    }
    Err(sent)
}

/// `NTGD_SESSION_BUDGET` admission control: once the fleet's cumulative
/// execution time exceeds the aggregate allowance, *new* connections are
/// shed with `ERR server at capacity` under a **reject** budget (live
/// sessions are untouched), while a **warn** budget only logs and keeps
/// admitting.  A zero budget makes the breach deterministic: every
/// connection is over it.
#[test]
fn fleet_budget_sheds_new_connections() {
    let server = boot_with(SessionConfig {
        session_budget: Some(SessionBudget::Reject(0)),
        ..SessionConfig::default()
    });
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("rejection line");
    assert_eq!(line, "ERR server at capacity\n");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("shed socket EOF");
    assert!(rest.is_empty(), "no banner, nothing after the rejection");
    let stats = server.conn_stats();
    assert!(stats.rejected >= 1, "shed counted: {stats:?}");
    assert_eq!(stats.accepted, 0, "never admitted: {stats:?}");
    server.shutdown().expect("shutdown");
}

/// A `warn:` fleet budget is observability-only: even with the breach
/// deterministic (zero budget), new connections are still admitted — the
/// warn form must never convert into connection shedding.
#[test]
fn warn_fleet_budget_admits_new_connections() {
    let server = boot_with(SessionConfig {
        session_budget: Some(SessionBudget::Warn(0)),
        ..SessionConfig::default()
    });
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    assert!(line.starts_with("READY"), "warn budget admits");
    writeln!(writer, "PING").expect("request");
    line.clear();
    reader.read_line(&mut line).expect("pong");
    assert_eq!(line, "OK pong\n");
    let stats = server.conn_stats();
    assert_eq!(stats.rejected, 0, "warn never sheds: {stats:?}");
    assert_eq!(stats.accepted, 1, "admitted: {stats:?}");
    server.shutdown().expect("shutdown");
}

/// The fleet-budget allowance scales with sessions ever **admitted**, not
/// currently active: spend left behind by dead sessions must not wedge an
/// idle server shut.  With a 1-hour per-session allowance, each admission
/// grants far more than the fleet could have spent, so connections keep
/// being admitted through session churn — under the old active-only
/// allowance this still held, but the accepted-based allowance is what
/// keeps it holding as cumulative spend outlives its sessions.
#[test]
fn fleet_budget_allowance_survives_session_churn() {
    let server = boot_with(SessionConfig {
        session_budget: Some(SessionBudget::Reject(3_600_000)),
        ..SessionConfig::default()
    });
    for round in 0..3 {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut line = String::new();
        reader.read_line(&mut line).expect("banner");
        assert!(line.starts_with("READY"), "round {round} admitted");
        writeln!(writer, "QUIT").expect("request");
        line.clear();
        reader.read_line(&mut line).expect("bye");
        assert_eq!(line, "OK bye\n", "round {round}");
        // The session is gone (active back to 0) but its spend remains.
    }
    let stats = server.conn_stats();
    assert_eq!(stats.rejected, 0, "churn never shed: {stats:?}");
    assert_eq!(stats.accepted, 3, "all rounds admitted: {stats:?}");
    server.shutdown().expect("shutdown");
}

/// `STATS conn` over the wire reports the live transport label and counters.
#[test]
fn stats_conn_reports_the_transport() {
    let server = boot(None);
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    writeln!(writer, "STATS conn").expect("request");
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let done = line.starts_with("OK") || line.starts_with("ERR");
        lines.push(line.trim_end().to_owned());
        if done {
            break;
        }
    }
    for want in [
        "STAT conn_transport=evented",
        "STAT conn_accepted=1",
        "STAT conn_active=1",
    ] {
        assert!(lines.contains(&want.to_owned()), "{want}: {lines:?}");
    }
    assert_eq!(lines.last().unwrap(), "OK stats");
    server.shutdown().expect("shutdown");
}

/// Connects with read and write timeouts, so a server that stops reading or
/// never answers fails the test instead of hanging it.
fn connect_with_timeouts(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .expect("write timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("banner");
    assert!(banner.starts_with("READY"), "admitted: {banner:?}");
    (stream, reader)
}

/// A `LOAD` line of over 1 MiB — a program with a large database — is read
/// to its newline and answered, however far past the 64 KiB buffer mark it
/// runs.
#[test]
fn a_one_mebibyte_load_is_answered() {
    let server = boot(None);
    let (mut stream, mut reader) = connect_with_timeouts(server.addr());
    let mut request = String::from("LOAD e(X, Y) -> n(X).");
    let mut facts = 0;
    while request.len() <= 1 << 20 {
        request.push_str(&format!(" e(c{facts:07}, c{:07}).", facts + 1));
        facts += 1;
    }
    request.push('\n');
    stream.write_all(request.as_bytes()).expect("send LOAD");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("LOAD answered");
    assert!(
        reply.starts_with(&format!("OK rules=1 facts={facts} ")),
        "{reply:?}"
    );
    writeln!(stream, "QUERY ?- n(c0000000).").expect("QUERY");
    let mut answer = String::new();
    for _ in 0..2 {
        reader.read_line(&mut answer).expect("QUERY answered");
    }
    assert_eq!(answer, "ANSWER true\nOK answers=1\n");
    server.shutdown().expect("shutdown");
}

/// A line still unterminated after `MAX_LINE` bytes is answered `ERR line
/// too long` and the connection closed; the server keeps serving others.
#[test]
fn lines_over_max_line_are_refused_and_the_connection_closed() {
    let server = boot(None);
    let (mut stream, mut reader) = connect_with_timeouts(server.addr());
    let line = vec![b'x'; MAX_LINE + 1];
    stream.write_all(&line).expect("send the oversized line");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("read to EOF");
    assert_eq!(rest, "ERR line too long\n");

    let (mut stream, mut reader) = connect_with_timeouts(server.addr());
    writeln!(stream, "PING").expect("PING");
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong");
    assert_eq!(pong, "OK pong\n");
    server.shutdown().expect("shutdown");
}

/// A client that pipelines `HELP` without ever reading is stopped by the
/// server: once its responses fill the socket buffers, the server stops
/// executing and reading, so the client's own sends block long before
/// 20 MiB.  Other sessions are unaffected.
#[test]
fn a_client_that_never_reads_is_stopped_by_backpressure() {
    let server = boot(None);
    let (mut flood, _reader) = connect_with_timeouts(server.addr());
    flood.set_nonblocking(true).expect("non-blocking");
    let stalled = pipeline_help_until_stalled(&mut flood, Duration::from_millis(500));
    assert!(stalled.is_ok(), "no stall: {stalled:?} bytes sent");

    let (mut stream, mut reader) = connect_with_timeouts(server.addr());
    writeln!(stream, "PING").expect("PING");
    let mut pong = String::new();
    reader.read_line(&mut pong).expect("pong");
    assert_eq!(pong, "OK pong\n");
    drop(flood);
    server.shutdown().expect("shutdown");
}
