//! The real server process and the TCP client that drives it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use crate::workload::fnv1a;

/// How long any one response may take before the request counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// A spawned `ntgd-serve --listen 127.0.0.1:0`.  Dropping it kills the
/// process and waits for it.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Starts the server with a worker pool of `threads` and waits for its
    /// `LISTENING <addr>` line.  The server inherits the calling thread's
    /// CPU affinity.
    pub fn spawn(binary: &Path, threads: usize) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .args(["--listen", "127.0.0.1:0"])
            .env("NTGD_THREADS", threads.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let server = Server {
            child,
            _stdout: stdout,
            addr: line
                .trim()
                .strip_prefix("LISTENING ")
                .unwrap_or("")
                .to_owned(),
        };
        match read {
            Ok(_) if !server.addr.is_empty() => Ok(server),
            _ => Err(format!("server did not announce LISTENING, got {line:?}")),
        }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A CPU affinity mask, as `sched_getaffinity` fills it (room for 1024
/// CPUs).
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Runs the calling thread, and every process it spawns, on one CPU until
/// dropped, when the thread's former affinity comes back.
///
/// The client and the server then take turns on that CPU: each request
/// wakes a thread on a CPU that is busy, never one that sleeps.  On a
/// shared virtual machine, waking a sleeping virtual CPU costs 10–25 µs in
/// some minutes and almost nothing in others, which moved the median of a
/// 30 µs request by 40% between two sets of runs.
pub struct Pinned {
    former: Option<CpuSet>,
}

impl Pinned {
    /// Pins to the lowest CPU the thread may run on; if the affinity cannot
    /// be read or set, nothing changes.
    pub fn to_one_cpu() -> Pinned {
        let mut former: CpuSet = [0; 16];
        // SAFETY: the mask pointer and size describe `former`, which lives
        // through the call; pid 0 is the calling thread.
        let read = unsafe {
            sched_getaffinity(0, std::mem::size_of::<CpuSet>(), former.as_mut_ptr())
        };
        let Some(word) = former.iter().position(|&bits| bits != 0).filter(|_| read == 0) else {
            return Pinned { former: None };
        };
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << former[word].trailing_zeros();
        Pinned {
            former: set_affinity(&one).then_some(former),
        }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(former) = &self.former {
            set_affinity(former);
        }
    }
}

/// Sets the calling thread's affinity; `false` if the kernel refused.
fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: the mask pointer and size describe `mask`, which lives
    // through the call; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    out: Vec<u8>,
}

/// The outcome of one request: whether it ended in `OK`, and a hash of
/// every response line (terminator included) for the transcript check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    /// `true` for an `OK` terminator.
    pub ok: bool,
    /// FNV-1a over the response lines, each followed by `\n`.
    pub hash: u64,
}

/// Hashes response lines the way [`Client::request`] does.
pub fn hash_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut bytes = Vec::new();
    for line in lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    fnv1a(&bytes)
}

impl Client {
    /// Connects and reads the `READY` banner.
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REQUEST_TIMEOUT)))
            .map_err(|e| format!("cannot configure socket: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cannot clone stream: {e}"))?,
        );
        let mut client = Client {
            reader,
            writer: stream,
            line: String::new(),
            out: Vec::new(),
        };
        client.read_line()?;
        if !client.line.starts_with("READY") {
            return Err(format!("expected READY banner, got {:?}", client.line));
        }
        Ok(client)
    }

    fn read_line(&mut self) -> Result<(), String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => {
                let trimmed = self.line.trim_end_matches(['\r', '\n']).len();
                self.line.truncate(trimmed);
                Ok(())
            }
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Sends one request and reads its response through the terminator.
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        self.send(line)?;
        self.receive()
    }

    /// Sends one request line without waiting for its response.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("write failed: {e}"))
    }

    /// Reads the response to the oldest unanswered request.
    pub fn receive(&mut self) -> Result<Reply, String> {
        let mut bytes = Vec::new();
        loop {
            self.read_line()?;
            bytes.extend_from_slice(self.line.as_bytes());
            bytes.push(b'\n');
            let ok = self.line.starts_with("OK");
            if ok || self.line.starts_with("ERR") {
                return Ok(Reply {
                    ok,
                    hash: fnv1a(&bytes),
                });
            }
        }
    }

    /// The last line read (after a request: its terminator).
    pub fn last_line(&self) -> &str {
        &self.line
    }

    /// Sends one request and returns its data lines (the terminator must
    /// be `OK`).
    pub fn request_lines(&mut self, line: &str) -> Result<Vec<String>, String> {
        self.send(line)?;
        let mut lines = Vec::new();
        loop {
            self.read_line()?;
            if self.line.starts_with("OK") {
                return Ok(lines);
            }
            if self.line.starts_with("ERR") {
                return Err(format!("{line} -> {}", self.line));
            }
            lines.push(self.line.clone());
        }
    }
}

/// The server's CPU time so far, in seconds: the run time of its threads
/// from `/proc/<pid>/task/*/schedstat` (nanoseconds), or utime + stime from
/// `/proc/<pid>/stat` (clock ticks, 10 ms apart) where the kernel keeps no
/// schedstat.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    match thread_run_ns(pid) {
        Some(ns) => Ok(ns as f64 / 1e9),
        None => stat_cpu_seconds(pid),
    }
}

/// The summed run time of the process's live threads, in nanoseconds.
fn thread_run_ns(pid: u32) -> Option<u64> {
    let mut total = None;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))
        .ok()?
        .flatten()
    {
        // A thread may exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
        total = Some(total.unwrap_or(0) + ns);
    }
    total
}

/// utime + stime of the process (all threads, exited ones included), in
/// seconds.
fn stat_cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("cannot read /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| -> Result<f64, String> {
        fields
            .get(index)
            .and_then(|field| field.parse::<u64>().ok())
            .map(|ticks| ticks as f64)
            .ok_or_else(|| format!("malformed /proc/{pid}/stat"))
    };
    Ok((ticks(11)? + ticks(12)?) / clock_ticks_per_second())
}

/// `sysconf(_SC_CLK_TCK)`: the unit of the `/proc` CPU times.
fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and returns an integer; it has no
    // pointer arguments and no preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// The server's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| {
            value
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Scrapes `METRICS` on a fresh connection: every sample line as
/// `name → value` (summary quantile lines keep their label in the name).
pub fn scrape_metrics(addr: &str) -> Result<HashMap<String, f64>, String> {
    let mut client = Client::connect(addr)?;
    let lines = client.request_lines("METRICS")?;
    let _ = client.request("QUIT");
    Ok(lines
        .iter()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect())
}
