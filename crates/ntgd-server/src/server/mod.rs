//! Transports: serving sessions over TCP and on a stdin REPL.
//!
//! Both are line pumps around [`Session::execute`]; the protocol logic
//! lives entirely in [`crate::session`] so tests and embedders can drive a
//! session without any I/O.
//!
//! * **TCP** (`event_loop`): a std-only readiness loop — non-blocking
//!   sockets, sharded poller threads, sessions as [`Conn`] state machines
//!   whose ready batches execute on the persistent `ntgd_core::parallel`
//!   pool.  One process holds thousands of live sessions without one OS
//!   thread each, and every connection's buffers are bounded (see
//!   [`Conn`]).
//! * **REPL** ([`serve_repl`]): [`handle_session`] over stdin/stdout.
//!
//! [`handle_session`] is also the transcript reference: a TCP session's
//! transcript is byte-identical to the same script pumped through
//! [`handle_session`] in memory — `tests/event_loop_e2e.rs` is the
//! referee.  TCP admission control ([`SessionConfig::max_sessions`]: over
//! the cap a connection gets one `ERR server at capacity` line and no
//! banner), the accept-error backoff policy (`AcceptBackoff`: transient
//! errors retry immediately, resource exhaustion like EMFILE backs off
//! exponentially instead of spinning, sustained failure is fatal), and the
//! [`ConnStats`] counters served by `STATS conn` live here.
//!
//! [`serve`] starts a server and returns a [`ServeHandle`] for graceful
//! shutdown; [`serve_tcp`] is the blocking wrapper the `ntgd-serve` binary
//! uses.

mod conn;
mod event_loop;
mod poller;

pub use conn::{Conn, LineBuffer, MAX_LINE};

use std::io::{self, BufRead, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ntgd_core::obs::{
    self,
    log::{FieldValue, Level, RateLimit},
};

use crate::accounting;
use crate::session::{Session, SessionConfig};

/// The banner sent when a session opens (protocol version 1).
pub const BANNER: &str = "READY ntgd-serve protocol=1";

/// Connection-layer counters, one set per running server, reported by
/// `STATS conn`.  Every counter is a pure function of the connection
/// history (never of thread count or machine), so scripted
/// connection sequences can assert the scope verbatim.
#[derive(Debug)]
pub struct ConnStats {
    transport: &'static str,
    accepted: AtomicU64,
    active: AtomicU64,
    peak: AtomicU64,
    rejected: AtomicU64,
    idle_closed: AtomicU64,
}

/// A point-in-time copy of [`ConnStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnSnapshot {
    /// The transport label (`evented`, `repl`, `embedded`).
    pub transport: &'static str,
    /// Connections admitted as sessions, ever.
    pub accepted: u64,
    /// Sessions currently live.
    pub active: u64,
    /// High-water mark of `active`.
    pub peak: u64,
    /// Connections turned away at admission — by the `max_sessions` cap or
    /// by the fleet-wide [`SessionBudget`](crate::SessionBudget) reject
    /// allowance (warn-mode budgets only log, never shed).
    pub rejected: u64,
    /// Connections reaped by the idle-session timeout
    /// ([`SessionConfig::idle_timeout`], TCP only).
    pub idle_closed: u64,
}

impl ConnStats {
    /// Fresh counters for one server instance.
    pub fn new(transport: &'static str) -> ConnStats {
        ConnStats {
            transport,
            accepted: AtomicU64::new(0),
            active: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            idle_closed: AtomicU64::new(0),
        }
    }

    /// The current counter values.
    pub fn snapshot(&self) -> ConnSnapshot {
        ConnSnapshot {
            transport: self.transport,
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            peak: self.peak.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
        }
    }

    fn connected(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let now = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn disconnected(&self) {
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    fn rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    fn idle_closed(&self) {
        self.idle_closed.fetch_add(1, Ordering::Relaxed);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What the accept loop should do after an `accept` error — the policy that
/// replaced the old `Err(_) => continue` hot loop, which span at 100% CPU
/// when the error was persistent (EMFILE being the classic case).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AcceptAction {
    /// A transient per-connection error (peer reset while queued, EINTR):
    /// retry immediately, it says nothing about the listener.
    Retry,
    /// A resource error (EMFILE, ENOMEM, …): sleep before retrying so a
    /// saturated server sheds load instead of spinning.
    Sleep(Duration),
    /// The error has persisted long enough that the listener is presumed
    /// dead: stop accepting (the server shuts down).
    Fatal,
}

/// Exponential accept-error backoff: 10ms doubling to a 1s cap, reset by
/// any successful accept, fatal after [`AcceptBackoff::FATAL_AFTER`]
/// consecutive non-transient failures (≈1 minute at the cap).
pub(crate) struct AcceptBackoff {
    consecutive: u32,
}

impl AcceptBackoff {
    const START_MS: u64 = 10;
    const CAP_MS: u64 = 1_000;
    const FATAL_AFTER: u32 = 64;

    pub(crate) fn new() -> AcceptBackoff {
        AcceptBackoff { consecutive: 0 }
    }

    /// Called after a successful accept: the listener is healthy again.
    pub(crate) fn reset(&mut self) {
        self.consecutive = 0;
    }

    /// Classifies one accept error and advances the backoff state.
    pub(crate) fn on_error(&mut self, kind: io::ErrorKind) -> AcceptAction {
        use io::ErrorKind::*;
        match kind {
            ConnectionReset | ConnectionAborted | Interrupted | WouldBlock | TimedOut => {
                AcceptAction::Retry
            }
            _ => {
                self.consecutive += 1;
                if self.consecutive >= Self::FATAL_AFTER {
                    return AcceptAction::Fatal;
                }
                let exponent = (self.consecutive - 1).min(63);
                let delay = Self::START_MS
                    .checked_shl(exponent)
                    .unwrap_or(Self::CAP_MS)
                    .min(Self::CAP_MS);
                AcceptAction::Sleep(Duration::from_millis(delay))
            }
        }
    }
}

/// Accept errors are worth counting even when they back off silently.
static ACCEPT_ERRORS: obs::Counter = obs::Counter::new("server.accept_errors");

/// The backoff path used to retry with no trace at all; now every sleep is
/// counted and (rate-limited to one event per second, so a persistent
/// EMFILE loop cannot flood the sink) logged with errno and delay.
static ACCEPT_ERROR_EVENTS: RateLimit = RateLimit::new(Duration::from_secs(1));

/// Blocking-accepts the next connection, applying the shared backoff
/// policy.  Returns `Ok(None)` on shutdown, `Err` on a fatal accept error.
fn next_conn(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    backoff: &mut AcceptBackoff,
) -> io::Result<Option<TcpStream>> {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match listener.accept() {
            Ok((stream, _)) => {
                backoff.reset();
                if shutdown.load(Ordering::SeqCst) {
                    // The wake-up self-connect (or a client racing shutdown).
                    return Ok(None);
                }
                return Ok(Some(stream));
            }
            Err(err) => {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(None);
                }
                match backoff.on_error(err.kind()) {
                    AcceptAction::Retry => continue,
                    AcceptAction::Sleep(delay) => {
                        ACCEPT_ERRORS.incr();
                        if ACCEPT_ERROR_EVENTS.allow() && obs::log::log_enabled(Level::Warn) {
                            obs::log::log_event(
                                Level::Warn,
                                "accept_backoff",
                                &[
                                    ("kind", FieldValue::from(format!("{:?}", err.kind()))),
                                    (
                                        "errno",
                                        FieldValue::from(i64::from(
                                            err.raw_os_error().unwrap_or(0),
                                        )),
                                    ),
                                    ("backoff_ms", FieldValue::from(delay.as_millis() as u64)),
                                ],
                            );
                        }
                        std::thread::sleep(delay)
                    }
                    AcceptAction::Fatal => return Err(err),
                }
            }
        }
    }
}

/// TCP admission control: a connection over the `max_sessions` cap, or one
/// the fleet budget sheds ([`accounting::fleet_sheds`]), gets a single `ERR
/// server at capacity` line (no banner — clients can tell rejection from a
/// session) and is closed.  Returns whether the connection was admitted;
/// an admitted connection is already counted in `stats`.
fn admit(stream: &TcpStream, stats: &ConnStats, config: &SessionConfig) -> bool {
    let active = stats.active.load(Ordering::Relaxed);
    let accepted = stats.accepted.load(Ordering::Relaxed);
    let over_cap = config.max_sessions.is_some_and(|cap| active >= cap as u64);
    let over_fleet_budget = accounting::fleet_sheds(config.session_budget, accepted, active);
    if over_cap || over_fleet_budget {
        stats.rejected();
        let _ = stream.set_nodelay(true);
        let _ = (&*stream).write_all(b"ERR server at capacity\n");
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return false;
    }
    stats.connected();
    true
}

/// Unblocks a listener parked in `accept` by self-connecting (an unspecified
/// bind address is reached via loopback).
fn wake_accept(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        match &mut target {
            SocketAddr::V4(v4) => v4.set_ip(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(v6) => v6.set_ip(Ipv6Addr::LOCALHOST),
        }
    }
    let _ = TcpStream::connect_timeout(&target, Duration::from_millis(200));
}

/// A running TCP server: its bound address, live connection counters, and
/// the graceful-shutdown switch.
///
/// Dropping the handle without calling [`ServeHandle::shutdown`] leaves the
/// server running detached for the life of the process (the historical
/// `serve_tcp` behaviour).
pub struct ServeHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ConnStats>,
    acceptor: Option<JoinHandle<io::Result<()>>>,
    workers: Vec<JoinHandle<()>>,
    wakers: Arc<Vec<event_loop::Waker>>,
}

impl ServeHandle {
    /// The address the server is listening on (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's connection counters (what `STATS conn` serves).
    pub fn conn_stats(&self) -> ConnSnapshot {
        self.stats.snapshot()
    }

    /// Stops accepting, closes every live connection, and joins all server
    /// threads.  Returns the accept loop's fatal error, if it died of one.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        for waker in self.wakers.iter() {
            waker.wake();
        }
        self.join_threads()
    }

    /// Blocks until the server stops on its own — which a healthy server
    /// never does, so this is effectively "serve forever, but surface a
    /// fatal accept error" (the `serve_tcp` contract).
    pub fn join(mut self) -> io::Result<()> {
        self.join_threads()
    }

    fn join_threads(&mut self) -> io::Result<()> {
        let result = match self.acceptor.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("accept thread panicked"))),
            None => Ok(()),
        };
        // On a fatal accept error the acceptor has already flipped the
        // shutdown flag; wake the pollers again in case the flip raced a
        // wait, then reap them.
        for waker in self.wakers.iter() {
            waker.wake();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        result
    }
}

/// Starts serving sessions over TCP and returns a [`ServeHandle`] (accepting runs on background threads).  All sessions
/// share the process-wide persistent worker pool of `ntgd_core::parallel` —
/// and, when `config.base_registry` is set, one shared-base registry: the
/// per-connection config clone clones only the `Arc`, so every session
/// forks the same frozen bases (see the crate documentation's *shared-base
/// caching contract*).
pub fn serve(listener: TcpListener, config: SessionConfig) -> io::Result<ServeHandle> {
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ConnStats::new("evented"));
    let mut config = config;
    config.conn_stats = Some(stats.clone());
    let (acceptor, workers, wakers) =
        event_loop::spawn(listener, config, shutdown.clone(), stats.clone())?;
    Ok(ServeHandle {
        addr,
        shutdown,
        stats,
        acceptor: Some(acceptor),
        workers,
        wakers,
    })
}

/// Serves sessions over TCP until the process dies (or the accept loop hits
/// a fatal error): [`serve`] + [`ServeHandle::join`].  What the
/// `ntgd-serve` binary runs; embedders wanting graceful shutdown use
/// [`serve`] directly.
pub fn serve_tcp(listener: TcpListener, config: SessionConfig) -> io::Result<()> {
    serve(listener, config)?.join()
}

/// Pumps protocol lines from `reader` through one session, writing framed
/// responses (and the opening [`BANNER`]) to `writer`, until end-of-input or
/// `QUIT`.
pub fn handle_session<R, W>(mut session: Session, reader: R, writer: &mut W) -> io::Result<()>
where
    R: BufRead,
    W: Write,
{
    writeln!(writer, "{BANNER}")?;
    writer.flush()?;
    for line in reader.lines() {
        let response = session.execute(&line?);
        for out in &response.lines {
            writeln!(writer, "{out}")?;
        }
        if !response.lines.is_empty() {
            writer.flush()?;
        }
        if response.close {
            break;
        }
    }
    Ok(())
}

/// Serves a single session on stdin/stdout (the `--repl` mode of
/// `ntgd-serve`, and what the CI smoke test scripts).  `STATS conn` reports
/// `conn_transport=repl` with all counters zero — deterministically, so the
/// smoke transcript can assert the scope.
pub fn serve_repl(config: SessionConfig) -> io::Result<()> {
    let mut config = config;
    config
        .conn_stats
        .get_or_insert_with(|| Arc::new(ConnStats::new("repl")));
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut writer = stdout.lock();
    handle_session(Session::new(config), stdin.lock(), &mut writer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_session_frames_banner_responses_and_quit() {
        let script = "PING\n% a comment produces nothing\nQUERY ?- p(a).\nQUIT\nPING\n";
        let mut out: Vec<u8> = Vec::new();
        handle_session(
            Session::new(SessionConfig::default()),
            script.as_bytes(),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                BANNER,
                "OK pong",
                "ERR no program loaded",
                "OK bye" // the trailing PING is never read: QUIT closed the session
            ]
        );
    }

    #[test]
    fn conn_stats_track_peak_and_rejections() {
        let stats = ConnStats::new("evented");
        stats.connected();
        stats.connected();
        stats.disconnected();
        stats.connected();
        stats.rejected();
        let snap = stats.snapshot();
        assert_eq!(snap.transport, "evented");
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.active, 2);
        assert_eq!(snap.peak, 2);
        assert_eq!(snap.rejected, 1);
    }

    #[test]
    fn transient_accept_errors_retry_without_backoff() {
        let mut backoff = AcceptBackoff::new();
        for kind in [
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            assert_eq!(backoff.on_error(kind), AcceptAction::Retry);
        }
    }

    #[test]
    fn resource_accept_errors_back_off_exponentially_then_go_fatal() {
        let mut backoff = AcceptBackoff::new();
        // EMFILE surfaces as ErrorKind::Other / Uncategorized.
        let kind = io::ErrorKind::Other;
        assert_eq!(
            backoff.on_error(kind),
            AcceptAction::Sleep(Duration::from_millis(10))
        );
        assert_eq!(
            backoff.on_error(kind),
            AcceptAction::Sleep(Duration::from_millis(20))
        );
        let mut last = Duration::ZERO;
        let mut fatal = false;
        for _ in 0..AcceptBackoff::FATAL_AFTER {
            match backoff.on_error(kind) {
                AcceptAction::Sleep(delay) => {
                    assert!(delay >= last, "backoff never shrinks");
                    assert!(delay <= Duration::from_millis(AcceptBackoff::CAP_MS));
                    last = delay;
                }
                AcceptAction::Fatal => {
                    fatal = true;
                    break;
                }
                AcceptAction::Retry => unreachable!("resource errors never Retry"),
            }
        }
        assert!(fatal, "sustained failure becomes fatal");
        // A successful accept resets the ladder.
        backoff.reset();
        assert_eq!(
            backoff.on_error(kind),
            AcceptAction::Sleep(Duration::from_millis(10))
        );
    }
}
