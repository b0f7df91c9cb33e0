//! The event-driven transport: non-blocking accept feeding sharded poller
//! threads, sessions executing as bounded batches on the persistent
//! `ntgd_core::parallel` pool.
//!
//! # Shape
//!
//! One **acceptor** thread blocks in `accept` (with the backoff and
//! admission policy of `server::mod`), wraps each admitted socket in a
//! [`Conn`] — non-blocking, banner queued — and hands it round-robin to one
//! of a few **shard** threads through a mutex-protected inbox, waking the
//! shard via a loopback [`Waker`] socket registered in its poller.
//!
//! Each shard runs a readiness loop over its own `epoll` [`Poller`], made
//! (waker registered) before any thread starts, so a host that cannot poll
//! fails `serve` rather than run a shard that never answers.  Readable
//! sockets are drained into their connection's
//! line buffer, then every *runnable* connection (a complete request
//! buffered, or EOF to finalise) is executed as one **bounded batch** via
//! [`parallel::par_map_mut`] — each connection pinned to exactly one
//! executor for the whole batch, so a session is strictly serial while
//! distinct sessions run in parallel on the pool.  A batch of one runs
//! inline on the shard thread, where a nested `par_map_with` from the chase
//! or grounding fans out to the full pool — lone expensive requests keep
//! their inner parallelism, concurrent batches trade it for cross-session
//! parallelism.  Batches are capped at [`EXEC_BATCH`] connections per round
//! so a flood of ready sessions cannot starve socket I/O; the remainder
//! stays runnable and the next round polls with a zero timeout.
//!
//! Write-side: responses accumulate in the connection's write buffer,
//! flushed opportunistically after execution.  Interest follows the
//! connection's buffers ([`Conn::interest`]): write interest is armed only
//! while bytes are pending, and read interest is disarmed while the
//! connection cannot read (its output or a complete-line backlog is at the
//! cap, or the session has ended), so the level-triggered poller never
//! reports a socket the loop would not serve.  A connection closes when its
//! session ends (`QUIT`/EOF, or a line over the length limit) and the
//! buffer has drained, or on I/O error — with the framing and responses of
//! [`handle_session`](crate::server::handle_session), byte for byte.

use std::io::{self, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ntgd_core::{obs, parallel};

use crate::server::poller::{drain, Event, Poller};
use crate::server::{admit, next_conn, AcceptBackoff, Conn, ConnStats};
use crate::session::{Session, SessionConfig};

/// The poller token reserved for the shard's waker socket.
const WAKER_TOKEN: usize = usize::MAX;

/// Most connections one batch submits to the pool per loop round.
const EXEC_BATCH: usize = 64;

/// Wakes a shard parked in its poller by writing one byte to the loopback
/// pair whose read side the shard has registered.
pub(super) struct Waker {
    tx: TcpStream,
}

impl Waker {
    /// Non-blocking, fallible by design: a full pipe means a wake-up is
    /// already pending.
    pub(super) fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// A connected loopback pair: the write side wakes, the read side gets
/// registered in the shard's poller.
fn waker_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx }, rx))
}

/// Spawns the acceptor and the shard threads; returns their handles plus
/// the wakers the [`ServeHandle`](crate::server::ServeHandle) uses for
/// shutdown.  Every shard's poller is created, its waker registered,
/// before the first thread starts, so a poller error fails the call.
#[allow(clippy::type_complexity)]
pub(super) fn spawn(
    listener: TcpListener,
    config: SessionConfig,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ConnStats>,
) -> io::Result<(
    JoinHandle<io::Result<()>>,
    Vec<JoinHandle<()>>,
    Arc<Vec<Waker>>,
)> {
    // Poller shards: enough to spread socket I/O without competing with the
    // reasoning pool for cores (execution parallelism comes from the pool,
    // not from shard count).
    let shards = parallel::num_threads().clamp(1, 4);
    let mut pollers = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (waker, rx) = waker_pair()?;
        let mut poller = Poller::new()?;
        poller.register(&rx, WAKER_TOKEN, (true, false))?;
        pollers.push((waker, rx, poller));
    }
    let mut inboxes: Vec<Arc<Mutex<Vec<Conn>>>> = Vec::with_capacity(shards);
    let mut wakers: Vec<Waker> = Vec::with_capacity(shards);
    let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(shards);
    let idle_timeout = config.idle_timeout;
    for (index, (waker, rx, poller)) in pollers.into_iter().enumerate() {
        let inbox = Arc::new(Mutex::new(Vec::new()));
        let worker = std::thread::Builder::new()
            .name(format!("ntgd-poll-{index}"))
            .spawn({
                let inbox = inbox.clone();
                let shutdown = shutdown.clone();
                let stats = stats.clone();
                move || shard_loop(poller, rx, &inbox, &shutdown, &stats, idle_timeout)
            })?;
        inboxes.push(inbox);
        wakers.push(waker);
        workers.push(worker);
    }
    let wakers = Arc::new(wakers);
    let acceptor = std::thread::Builder::new()
        .name("ntgd-accept".to_owned())
        .spawn({
            let wakers = wakers.clone();
            move || {
                let result = accept_loop(listener, config, &shutdown, &stats, &inboxes, &wakers);
                if result.is_err() {
                    // A fatal accept error takes the whole server down; release
                    // the shards so ServeHandle::join can reap them.
                    shutdown.store(true, Ordering::SeqCst);
                    for waker in wakers.iter() {
                        waker.wake();
                    }
                }
                result
            }
        })?;
    Ok((acceptor, workers, wakers))
}

fn accept_loop(
    listener: TcpListener,
    config: SessionConfig,
    shutdown: &AtomicBool,
    stats: &Arc<ConnStats>,
    inboxes: &[Arc<Mutex<Vec<Conn>>>],
    wakers: &[Waker],
) -> io::Result<()> {
    let mut backoff = AcceptBackoff::new();
    let mut next_shard = 0usize;
    loop {
        match next_conn(&listener, shutdown, &mut backoff)? {
            None => return Ok(()),
            Some(stream) => {
                if !admit(&stream, stats, &config) {
                    continue;
                }
                let session = Session::new(config.clone());
                let mut conn = match Conn::new(stream, session) {
                    Ok(conn) => conn,
                    Err(_) => {
                        stats.disconnected();
                        continue;
                    }
                };
                // Get the banner out before the shard even wakes.
                conn.flush();
                if conn.finished() {
                    stats.disconnected();
                    continue;
                }
                inboxes[next_shard].lock().unwrap().push(conn);
                wakers[next_shard].wake();
                next_shard = (next_shard + 1) % inboxes.len();
            }
        }
    }
}

/// Event-loop cycle counters and phase timers: every poller wait, every
/// bounded batch handed to the pool, and every round that left runnable
/// connections behind (the backlog rounds an operator watches for).
static POLL_CYCLES: obs::Counter = obs::Counter::new("server.poll_cycles");
static EXEC_BATCHES: obs::Counter = obs::Counter::new("server.exec_batches");
static BACKLOG_ROUNDS: obs::Counter = obs::Counter::new("server.backlog_rounds");
static IDLE_CLOSED: obs::Counter = obs::Counter::new("server.idle_closed");

/// One poller shard: owns a slab of connections, polls them, and submits
/// ready batches to the pool.  With an idle timeout configured, each round
/// also reaps connections whose peer has neither sent nor accepted bytes
/// for longer than the timeout — an abandoned client releases its admission
/// slot instead of holding it forever.  A slow reader mid-drain keeps
/// accepting bytes, so it is making progress, not abandoned; a client that
/// stopped reading with output parked at the cap is reaped.
fn shard_loop(
    mut poller: Poller,
    waker_rx: TcpStream,
    inbox: &Mutex<Vec<Conn>>,
    shutdown: &AtomicBool,
    stats: &ConnStats,
    idle_timeout: Option<Duration>,
) {
    // Token-addressed slab: a connection's poller token is its slot index.
    let mut slots: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    // Whether the last round left runnable connections unexecuted (batch
    // cap, or output drained below the cap): poll without sleeping so they
    // run next.
    let mut backlog = false;
    loop {
        let timeout = if backlog {
            Duration::ZERO
        } else {
            // Cap the wait by the idle timeout so reaping is not quantised
            // to the 200ms poll cadence when the operator asked for less.
            idle_timeout.map_or(Duration::from_millis(200), |idle| {
                idle.min(Duration::from_millis(200))
            })
        };
        let wait_failed = {
            let _poll = obs::span("server.poll");
            poller.wait(timeout, &mut events).is_err()
        };
        if wait_failed {
            // A broken poller cannot make progress; drop the shard's
            // connections and exit rather than spin.
            break;
        }
        POLL_CYCLES.incr();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // I/O phase: drain readable sockets, push blocked writes along.
        for event in &events {
            if event.token == WAKER_TOKEN {
                drain(&waker_rx);
                continue;
            }
            let Some(conn) = slots.get_mut(event.token).and_then(Option::as_mut) else {
                continue;
            };
            if event.readable {
                conn.fill();
            }
            if event.writable {
                conn.flush();
            }
        }
        // Adopt connections the acceptor handed over.
        let adopted: Vec<Conn> = {
            let mut inbox = inbox.lock().unwrap();
            inbox.drain(..).collect()
        };
        for mut conn in adopted {
            let token = free.pop().unwrap_or_else(|| {
                slots.push(None);
                slots.len() - 1
            });
            let interest = conn.interest();
            if poller.register(conn.stream(), token, interest).is_err() {
                let _ = conn.stream().shutdown(Shutdown::Both);
                stats.disconnected();
                free.push(token);
                continue;
            }
            conn.set_armed(interest);
            slots[token] = Some(conn);
        }
        // Scheduling phase: one bounded batch of runnable sessions on the
        // pool — per-session serial, cross-session parallel.
        let mut runnable: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.as_ref().is_some_and(Conn::runnable))
            .map(|(token, _)| token)
            .collect();
        if runnable.len() > EXEC_BATCH {
            BACKLOG_ROUNDS.incr();
        }
        runnable.truncate(EXEC_BATCH);
        if !runnable.is_empty() {
            let mut batch: Vec<&mut Conn> = Vec::with_capacity(runnable.len());
            let mut wanted = runnable.iter().copied().peekable();
            for (token, slot) in slots.iter_mut().enumerate() {
                if wanted.peek() == Some(&token) {
                    wanted.next();
                    batch.push(slot.as_mut().expect("runnable slot is occupied"));
                }
            }
            EXEC_BATCHES.incr();
            let _exec = obs::span("server.exec_batch");
            let threads = parallel::threads_for(batch.len());
            parallel::par_map_mut(&mut batch, threads, |_, conn| conn.run_ready());
        }
        // Write-back phase: flush, rearm interest on transitions, retire
        // finished connections, reap idle ones.
        let now = std::time::Instant::now();
        backlog = false;
        for (token, slot) in slots.iter_mut().enumerate() {
            let Some(conn) = slot.as_mut() else {
                continue;
            };
            if conn.wants_write() {
                conn.flush();
            }
            let idle = idle_timeout
                .is_some_and(|timeout| !conn.runnable() && conn.idle_for(now) >= timeout);
            if conn.finished() || idle {
                let finished = conn.finished();
                let conn = slot.take().expect("slot occupied");
                let _ = poller.deregister(conn.stream());
                let _ = conn.stream().shutdown(Shutdown::Both);
                if finished {
                    stats.disconnected();
                } else {
                    IDLE_CLOSED.incr();
                    stats.idle_closed();
                }
                free.push(token);
            } else {
                backlog |= conn.runnable();
                let want = conn.interest();
                if want != conn.armed() && poller.set_interest(conn.stream(), token, want).is_ok() {
                    conn.set_armed(want);
                }
            }
        }
    }
    // Shutdown: close every connection this shard still holds.
    for slot in slots.into_iter().flatten() {
        let _ = slot.stream().shutdown(Shutdown::Both);
        stats.disconnected();
    }
}
