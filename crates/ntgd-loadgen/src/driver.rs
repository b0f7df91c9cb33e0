//! The load driver: real TCP clients against a real `ntgd-serve`.
//!
//! [`run`] spawns one client thread per session, synchronises them on a
//! barrier (connections and the `READY` banner are established *before* the
//! clock starts), pumps each session's operation stream request-by-request,
//! and records one latency sample per request into per-thread log-bucketed
//! histograms ([`crate::histogram::Histogram`]) that are merged into the
//! per-verb report afterwards — the measurement loop allocates nothing per
//! request beyond the request line itself.
//!
//! The target is either an external server (`ntgd-load --addr host:port`) or
//! an in-process one ([`spawn_server`]): the same serving loop the
//! `ntgd-serve` binary runs, on an OS-assigned loopback port.  In-process
//! targets are what `--bench` uses, since it must control the server's
//! caching configuration ([`ServerMode`]).  The returned [`LoadServer`] owns the server's [`ServeHandle`], so each
//! `--rounds` round shuts its server down cleanly instead of leaking an
//! acceptor thread and listener per round.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ntgd_server::{serve, BaseRegistry, ServeHandle, SessionConfig};

use crate::generator::{Verb, Workload};
use crate::histogram::Histogram;
use crate::report::{RunReport, ServerVerbReport, VerbReport};

/// Caching posture of an in-process target server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerMode {
    /// Production configuration: shared-base registry on, incremental
    /// `MODELS` on — what `ntgd-serve` runs by default.
    Cached,
    /// Every session rebuilds everything from scratch (`NTGD_SHARED_BASE=0`
    /// + `NTGD_SMS_INCREMENTAL=0` equivalent): the `--bench` baseline.
    FromScratch,
}

/// An in-process target server: its address plus the owned
/// [`ServeHandle`].  [`LoadServer::shutdown`] stops accepting, closes the
/// live connections and joins every server thread; dropping without it
/// leaves the server running detached for the life of the process (what
/// one-shot runs rely on).
pub struct LoadServer {
    addr: String,
    handle: Option<ServeHandle>,
}

impl LoadServer {
    /// The loopback address clients connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server's connection counters (what `STATS conn` serves).
    pub fn conn_stats(&self) -> Option<ntgd_server::ConnSnapshot> {
        self.handle.as_ref().map(ServeHandle::conn_stats)
    }

    /// Gracefully stops the server and joins its threads.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        match self.handle.take() {
            Some(handle) => handle.shutdown(),
            None => Ok(()),
        }
    }
}

/// Starts an in-process server on an OS-assigned loopback port.
pub fn spawn_server(mode: ServerMode) -> std::io::Result<LoadServer> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let config = SessionConfig {
        incremental_models: mode == ServerMode::Cached,
        base_registry: (mode == ServerMode::Cached).then(|| Arc::new(BaseRegistry::new())),
        ..SessionConfig::default()
    };
    let handle = serve(listener, config)?;
    Ok(LoadServer {
        addr: handle.addr().to_string(),
        handle: Some(handle),
    })
}

/// One connected protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        // Requests are single small lines; without nodelay the kernel's
        // batching would dominate every latency sample.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?,
        );
        let mut client = Client {
            reader,
            writer: stream,
            line: String::new(),
        };
        let banner = client.read_line()?;
        if !banner.starts_with("READY") {
            return Err(format!("expected READY banner, got {banner:?}"));
        }
        Ok(client)
    }

    fn read_line(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Sends one request and reads to its `OK`/`ERR` terminator; returns the
    /// terminator line.
    fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .map_err(|e| format!("write failed: {e}"))?;
        loop {
            let line = self.read_line()?;
            if line.starts_with("OK") || line.starts_with("ERR") {
                return Ok(line.to_owned());
            }
        }
    }
}

/// Per-thread measurement state: one histogram per verb.
struct ThreadStats {
    hists: Vec<Histogram>,
    requests: u64,
    errors: Vec<String>,
}

fn verb_index(verb: Verb) -> usize {
    Verb::ALL
        .iter()
        .position(|&v| v == verb)
        .expect("known verb")
}

/// Drives a workload against a serving address and merges the per-session
/// measurements into one report.  Any `ERR` response fails the run — the
/// generator only emits valid streams, so an error means the server (or the
/// spec's budgets) broke under this workload.
pub fn run(workload: &Workload, addr: &str) -> Result<RunReport, String> {
    let sessions = workload.sessions.len();
    // Scrape the server's cumulative per-verb metrics before the window so
    // the after-scrape can be reduced to window-scoped deltas (the obs
    // registry is process-wide — in-process rounds and bench baselines all
    // share it).
    let metrics_before = fetch_server_metrics(addr);
    // Connect (and consume the banner) before the clock starts, so the
    // measured window contains requests only.
    let mut clients = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        clients.push(Client::connect(addr)?);
    }
    let barrier = Arc::new(Barrier::new(sessions + 1));
    let mut wall_ns = 0u64;
    let stats: Vec<ThreadStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(&workload.sessions)
            .map(|(mut client, ops)| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut stats = ThreadStats {
                        hists: (0..Verb::ALL.len()).map(|_| Histogram::new()).collect(),
                        requests: 0,
                        errors: Vec::new(),
                    };
                    barrier.wait();
                    for op in ops {
                        let started = Instant::now();
                        match client.request(&op.line) {
                            Ok(terminator) if terminator.starts_with("OK") => {
                                let elapsed =
                                    started.elapsed().as_nanos().min(u128::from(u64::MAX));
                                stats.hists[verb_index(op.verb)].record(elapsed as u64);
                                stats.requests += 1;
                            }
                            Ok(terminator) => {
                                stats.errors.push(format!("{} -> {terminator}", op.line));
                                break;
                            }
                            Err(error) => {
                                stats.errors.push(format!("{} -> {error}", op.line));
                                break;
                            }
                        }
                    }
                    let _ = client.request("QUIT");
                    stats
                })
            })
            .collect();
        // All sessions are connected and parked on the barrier: releasing it
        // starts the measured window, the last join ends it.
        let started = Instant::now();
        barrier.wait();
        let stats: Vec<ThreadStats> = handles
            .into_iter()
            .map(|handle| handle.join().expect("session thread panicked"))
            .collect();
        wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        stats
    });
    let errors: Vec<String> = stats
        .iter()
        .flat_map(|s| s.errors.iter().cloned())
        .collect();
    if !errors.is_empty() {
        return Err(format!(
            "{} session(s) failed; first: {}",
            errors.len(),
            errors[0]
        ));
    }
    let mut verbs = Vec::new();
    for verb in Verb::ALL {
        let mut hist = Histogram::new();
        for thread in &stats {
            hist.merge(&thread.hists[verb_index(verb)]);
        }
        if hist.count() > 0 {
            verbs.push(VerbReport { verb, hist });
        }
    }
    let metrics_after = fetch_server_metrics(addr);
    Ok(RunReport {
        name: workload.name.clone(),
        sessions,
        wall_ns,
        requests: stats.iter().map(|s| s.requests).sum(),
        server_requests: fetch_server_requests(addr),
        verbs,
        server_verbs: server_verb_deltas(metrics_before, metrics_after),
    })
}

/// A per-verb sample parsed from one `METRICS` scrape: the cumulative
/// request count and the p99 wall time of the server's
/// `server.request.<verb>` histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerVerbSample {
    /// Cumulative `..._ns_count` value.
    pub count: u64,
    /// The `{quantile="0.99"}` summary value, nanoseconds.
    pub p99_ns: u64,
}

/// The server's metric label for a workload verb (`RETRACT-TO` is counted
/// as `retract` server-side).
fn server_metric_verb(verb: Verb) -> &'static str {
    match verb {
        Verb::Retract => "retract",
        other => other.label(),
    }
}

/// Folds one exposition line into the per-verb samples (indexed in
/// [`Verb::ALL`] order).  Lines about other instruments are ignored.
fn parse_metric_line(line: &str, samples: &mut [ServerVerbSample]) {
    for (index, &verb) in Verb::ALL.iter().enumerate() {
        let stem = format!("ntgd_server_request_{}_ns", server_metric_verb(verb));
        let Some(rest) = line.strip_prefix(&stem) else {
            continue;
        };
        if let Some(value) = rest.strip_prefix("_count ") {
            if let Ok(count) = value.trim().parse() {
                samples[index].count = count;
            }
        } else if let Some(value) = rest.strip_prefix("{quantile=\"0.99\"} ") {
            if let Ok(p99) = value.trim().parse() {
                samples[index].p99_ns = p99;
            }
        }
    }
}

/// Scrapes a server's `METRICS` exposition (fresh session) and reduces it
/// to the workload verbs' samples, in [`Verb::ALL`] order.  `None` when the
/// server predates the verb or refused it; all-zero samples when
/// observability is disabled (`NTGD_OBS=0`).
pub fn fetch_server_metrics(addr: &str) -> Option<Vec<ServerVerbSample>> {
    let mut client = Client::connect(addr).ok()?;
    client.writer.write_all(b"METRICS\n").ok()?;
    let mut samples = vec![ServerVerbSample::default(); Verb::ALL.len()];
    loop {
        let line = client.read_line().ok()?;
        if line.starts_with("OK") {
            return Some(samples);
        }
        if line.starts_with("ERR") {
            return None;
        }
        let line = line.to_owned();
        parse_metric_line(&line, &mut samples);
    }
}

/// Reduces before/after scrapes to window-scoped per-verb reports: the
/// count delta plus the after-scrape's p99.  Verbs the window never touched
/// are omitted; a failed scrape yields no reports at all.
fn server_verb_deltas(
    before: Option<Vec<ServerVerbSample>>,
    after: Option<Vec<ServerVerbSample>>,
) -> Vec<ServerVerbReport> {
    let (Some(before), Some(after)) = (before, after) else {
        return Vec::new();
    };
    Verb::ALL
        .iter()
        .zip(after.iter().zip(&before))
        .filter(|(_, (after, before))| after.count > before.count)
        .map(|(&verb, (after, before))| ServerVerbReport {
            verb,
            requests: after.count - before.count,
            p99_ns: after.p99_ns,
        })
        .collect()
}

/// Fetches the process-wide `STAT server_requests` counter from a server
/// (opens a fresh session; the counter includes this very `STATS` request).
pub fn fetch_server_requests(addr: &str) -> Option<u64> {
    let mut client = Client::connect(addr).ok()?;
    client.writer.write_all(b"STATS\n").ok()?;
    loop {
        let line = client.read_line().ok()?.to_owned();
        if let Some(value) = line.strip_prefix("STAT server_requests=") {
            return value.parse().ok();
        }
        if line.starts_with("OK") || line.starts_with("ERR") {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_parse_counts_and_p99_per_verb() {
        let mut samples = vec![ServerVerbSample::default(); Verb::ALL.len()];
        for line in [
            "# TYPE ntgd_server_request_assert_ns histogram",
            "ntgd_server_request_assert_ns_bucket{le=\"1024\"} 3",
            "ntgd_server_request_assert_ns_sum 2500",
            "ntgd_server_request_assert_ns_count 3",
            "ntgd_server_request_assert_ns{quantile=\"0.5\"} 700",
            "ntgd_server_request_assert_ns{quantile=\"0.99\"} 992",
            "ntgd_server_request_retract_ns_count 2",
            "ntgd_server_request_retract_ns{quantile=\"0.99\"} 50",
            // Non-workload instruments are ignored.
            "ntgd_server_request_ping_ns_count 9",
            "ntgd_chase_rounds_total 12",
        ] {
            parse_metric_line(line, &mut samples);
        }
        assert_eq!(
            samples[verb_index(Verb::Assert)],
            ServerVerbSample {
                count: 3,
                p99_ns: 992
            }
        );
        // RETRACT-TO maps onto the server's "retract" label.
        assert_eq!(
            samples[verb_index(Verb::Retract)],
            ServerVerbSample {
                count: 2,
                p99_ns: 50
            }
        );
        assert_eq!(
            samples[verb_index(Verb::Query)],
            ServerVerbSample::default()
        );
    }

    #[test]
    fn server_deltas_are_window_scoped_and_skip_untouched_verbs() {
        let mut before = vec![ServerVerbSample::default(); Verb::ALL.len()];
        before[verb_index(Verb::Assert)] = ServerVerbSample {
            count: 10,
            p99_ns: 400,
        };
        let mut after = before.clone();
        after[verb_index(Verb::Assert)] = ServerVerbSample {
            count: 14,
            p99_ns: 900,
        };
        let deltas = server_verb_deltas(Some(before.clone()), Some(after));
        assert_eq!(
            deltas,
            vec![ServerVerbReport {
                verb: Verb::Assert,
                requests: 4,
                p99_ns: 900
            }]
        );
        assert!(server_verb_deltas(None, Some(before)).is_empty());
    }
}
