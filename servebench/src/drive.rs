//! The measured window: a workload's sessions over real TCP, closed loop.
//!
//! The window runs whole rounds until its time is up and at least the
//! workload's minimum number of rounds ran.  Every round does the same
//! work, so rounds differ only in how fast the machine ran them.  A round
//! is timed in *laps* (a one-session round in a few equal parts, a
//! load-churn round whole): each lap records its requests, wall time and
//! server CPU time, and every latency sample records its lap.

use std::time::{Duration, Instant};

use ntgd_loadgen::{Histogram, Verb};

use crate::metrics::{median, quantile};
use crate::wire::{cpu_seconds, peak_rss_mb, Client, Reply};
use crate::workload::{Kind, Plan};

/// What one TCP session sent and got back, for the in-process replay.
#[derive(Default)]
pub struct SessionLog {
    /// Requests in the order sent.
    pub requests: Vec<String>,
    /// The round each request belongs to.
    pub rounds: Vec<u32>,
    /// The reply hash of each request.
    pub replies: Vec<u64>,
}

/// One timed part of a round.
#[derive(Clone, Copy, Debug)]
pub struct Lap {
    /// Requests completed in the lap (load-churn: both connections).
    pub requests: u64,
    /// Wall time of the lap.
    pub seconds: f64,
    /// Server CPU time during the lap.
    pub cpu_seconds: f64,
    /// Which part of the round the lap ran: laps of one segment do the
    /// same work.
    pub segment: usize,
}

/// A latency sample: the index of the lap it completed in and its
/// nanoseconds.
pub type Sample = (u32, u64);

/// Everything the window measured.
pub struct Window {
    /// Wall time of the window.
    pub seconds: f64,
    /// Full rounds run.
    pub rounds: u32,
    /// The window's laps, in order.
    pub laps: Vec<Lap>,
    /// Latencies of the workload's write verb.
    pub write: Vec<Sample>,
    /// Latencies of the workload's read verb.
    pub read: Vec<Sample>,
    /// Latency of every request completed in the window.
    pub rtt: Histogram,
    /// TCP connect plus `READY` banner, nanoseconds.
    pub connect_ns: Vec<u64>,
    /// Requests sent (a refused connection counts its unsent requests).
    pub attempted: u64,
    /// Requests that got `ERR`, timed out or were never sent.
    pub failed: u64,
    /// A description of each failure.
    pub errors: Vec<String>,
    /// Every session, the long-lived one first.
    pub sessions: Vec<SessionLog>,
    /// The server's peak resident set after the workload's minimum number
    /// of rounds, MiB (`None` when a failure ended the window first).
    pub peak_rss_mb: Option<f64>,
}

impl Window {
    /// Requests completed inside the window's laps.
    pub fn requests(&self) -> u64 {
        self.laps.iter().map(|lap| lap.requests).sum()
    }

    /// A typical round's total of `value`: for each segment the median over
    /// its laps, summed over the segments.  Laps of a segment do the same
    /// work, so the median passes over the laps that other tenants of the
    /// machine slowed, while a change that slows most laps moves it.
    pub fn per_round(&self, value: impl Fn(&Lap) -> f64) -> f64 {
        let segments = self.laps.iter().map(|lap| lap.segment + 1).max();
        (0..segments.unwrap_or(0))
            .map(|segment| {
                let values: Vec<f64> = self
                    .laps
                    .iter()
                    .filter(|lap| lap.segment == segment)
                    .map(&value)
                    .collect();
                median(&values)
            })
            .sum()
    }

    /// The `q`-quantile of each lap's samples, in milliseconds, and the
    /// median of that over the laps: like [`Window::per_round`], it passes
    /// over the laps the machine slowed, where one quantile over the whole
    /// window would take them in.
    pub fn lap_quantile_ms(&self, samples: &[Sample], q: f64) -> f64 {
        let mut by_lap = vec![Vec::new(); self.laps.len()];
        for &(lap, ns) in samples {
            if let Some(lap) = by_lap.get_mut(lap as usize) {
                lap.push(ns as f64 / 1e6);
            }
        }
        let per_lap: Vec<f64> = by_lap
            .iter()
            .filter(|lap| !lap.is_empty())
            .map(|lap| quantile(lap, q))
            .collect();
        median(&per_lap)
    }
}

/// Measurement state of one client role (load-churn has a writer and a
/// reader).
struct Recorder {
    write_verb: Option<Verb>,
    read_verb: Option<Verb>,
    /// The index of the lap now running, which samples are recorded under.
    lap: u32,
    write: Vec<Sample>,
    read: Vec<Sample>,
    rtt: Histogram,
    completed: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Recorder {
    fn new(write_verb: Option<Verb>, read_verb: Option<Verb>) -> Recorder {
        Recorder {
            write_verb,
            read_verb,
            lap: 0,
            write: Vec::new(),
            read: Vec::new(),
            rtt: Histogram::new(),
            completed: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Sends one request, records its latency and logs its reply under the
    /// session's `round`; `false` when it failed.
    fn send(
        &mut self,
        client: &mut Client,
        log: &mut SessionLog,
        line: &str,
        verb: Option<Verb>,
        round: u32,
    ) -> bool {
        let started = Instant::now();
        let reply = client.request(line);
        self.record(client, log, line, verb, round, started, reply)
    }

    /// Records the reply to a request sent at `started`; `false` when it
    /// failed.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        client: &Client,
        log: &mut SessionLog,
        line: &str,
        verb: Option<Verb>,
        round: u32,
        started: Instant,
        reply: Result<Reply, String>,
    ) -> bool {
        self.attempted += 1;
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match reply {
            Ok(reply) if reply.ok => {
                self.completed += 1;
                self.rtt.record(ns);
                if verb.is_some() && verb == self.write_verb {
                    self.write.push((self.lap, ns));
                } else if verb.is_some() && verb == self.read_verb {
                    self.read.push((self.lap, ns));
                }
                log.requests.push(line.to_owned());
                log.rounds.push(round);
                log.replies.push(reply.hash);
                true
            }
            Ok(_) => self.fail(format!("{line:.80} -> {}", client.last_line())),
            Err(error) => self.fail(format!("{line:.80} -> {error}")),
        }
    }

    fn fail(&mut self, error: String) -> bool {
        self.failed += 1;
        self.errors.push(error);
        false
    }

    fn connect(&mut self, addr: &str, connect_ns: &mut Vec<u64>) -> Option<Client> {
        let started = Instant::now();
        match Client::connect(addr) {
            Ok(client) => {
                connect_ns.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                Some(client)
            }
            Err(error) => {
                self.attempted += 1;
                self.fail(error);
                None
            }
        }
    }

    fn absorb(&mut self, other: Recorder) {
        self.write.extend(other.write);
        self.read.extend(other.read);
        self.rtt.merge(&other.rtt);
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    fn into_window(self, clock: LapClock, connect_ns: Vec<u64>) -> Window {
        Window {
            seconds: clock.started.elapsed().as_secs_f64(),
            rounds: clock.rounds,
            laps: clock.laps,
            write: self.write,
            read: self.read,
            rtt: self.rtt,
            connect_ns,
            attempted: self.attempted,
            failed: self.failed,
            errors: self.errors,
            sessions: Vec::new(),
            peak_rss_mb: clock.peak_rss_mb,
        }
    }
}

/// Times the window's laps and counts its rounds.
struct LapClock {
    pid: u32,
    limit: Duration,
    min_rounds: u32,
    started: Instant,
    lap_started: Instant,
    cpu: f64,
    laps: Vec<Lap>,
    rounds: u32,
    peak_rss_mb: Option<f64>,
}

impl LapClock {
    fn start(pid: u32, limit: Duration, min_rounds: u32) -> LapClock {
        let now = Instant::now();
        LapClock {
            pid,
            limit,
            min_rounds,
            started: now,
            lap_started: now,
            cpu: cpu_seconds(pid).unwrap_or(0.0),
            laps: Vec::new(),
            rounds: 0,
            peak_rss_mb: None,
        }
    }

    /// Closes a lap of `requests` that ran `segment`.
    fn lap(&mut self, requests: u64, segment: usize) {
        let cpu = cpu_seconds(self.pid).unwrap_or(self.cpu);
        self.laps.push(Lap {
            requests,
            seconds: self.lap_started.elapsed().as_secs_f64(),
            cpu_seconds: cpu - self.cpu,
            segment,
        });
        self.cpu = cpu;
        self.lap_started = Instant::now();
    }

    /// Closes a round; `true` while the window goes on: until its time is
    /// up and at least `min_rounds` rounds ran.  The server's peak resident
    /// set is read after round `min_rounds`, a fixed amount of work, so the
    /// reading does not depend on how fast the machine ran the window.
    fn round(&mut self) -> bool {
        self.rounds += 1;
        if self.rounds == self.min_rounds {
            self.peak_rss_mb = peak_rss_mb(self.pid).ok();
            self.lap_started = Instant::now();
        }
        self.rounds < self.min_rounds || self.started.elapsed() < self.limit
    }
}

/// Runs the workload's window against the server at `addr` (process
/// `pid`) for `limit`: whole rounds, until the limit has passed and the
/// workload's minimum number of rounds ran.
pub fn run(plan: &Plan, addr: &str, pid: u32, limit: Duration) -> Window {
    let clock = || LapClock::start(pid, limit, plan.kind.min_rounds());
    match plan.kind {
        Kind::ChaseRw | Kind::ModelsGrow => run_single(plan, addr, clock),
        Kind::LoadChurn => run_churn(plan, addr, clock),
    }
}

/// One long-lived session: `LOAD` (outside the window), rounds, `QUIT`.
fn run_single(plan: &Plan, addr: &str, clock: impl Fn() -> LapClock) -> Window {
    let kind = plan.kind;
    let mut recorder = Recorder::new(Some(kind.write_verb()), Some(kind.read_verb()));
    let mut connect_ns = Vec::new();
    let mut log = SessionLog::default();
    let Some(mut client) = recorder.connect(addr, &mut connect_ns) else {
        return recorder.into_window(clock(), connect_ns);
    };
    if !recorder.send(&mut client, &mut log, &plan.main.load, None, 0) {
        return recorder.into_window(clock(), connect_ns);
    }
    let mut clock = clock();
    let part = plan.main.round.len().div_ceil(plan.main.segments);
    'rounds: loop {
        let round = clock.rounds;
        // The round is timed in segments, which gives the medians more
        // laps, while the session still cycles through every request.
        for (segment, ops) in plan.main.round.chunks(part).enumerate() {
            let before = recorder.completed;
            for op in ops {
                if !recorder.send(&mut client, &mut log, &op.line, Some(op.verb), round) {
                    break 'rounds;
                }
            }
            clock.lap(recorder.completed - before, segment);
            recorder.lap = clock.laps.len() as u32;
        }
        if !clock.round() {
            break;
        }
    }
    let last = clock.rounds.saturating_sub(1);
    recorder.send(&mut client, &mut log, "QUIT", None, last);
    let mut window = recorder.into_window(clock, connect_ns);
    window.sessions.push(log);
    window
}

/// load-churn: a writer opens a connection per cycle (`LOAD`, a few
/// requests, `QUIT`) beside a reader that queries one session.  One thread
/// drives both: it sends each writer request and the reader's next query
/// back to back, then reads the query's reply and the writer's.  Both
/// requests are at the server together, so the query still waits behind a
/// heavy `LOAD` wherever the server serialises them, while every round does
/// the same work whatever the scheduler does with client threads.
fn run_churn(plan: &Plan, addr: &str, clock: impl Fn() -> LapClock) -> Window {
    let churn = plan.churn.as_ref().expect("load-churn has a writer");
    let mut writer = Recorder::new(Some(Verb::Load), None);
    let mut reader = Recorder::new(None, Some(Verb::Query));
    let mut connect_ns = Vec::new();
    let mut reader_log = SessionLog::default();
    let mut writer_logs = Vec::new();
    let Some(mut reader_client) = reader.connect(addr, &mut connect_ns) else {
        return reader.into_window(clock(), connect_ns);
    };
    if !reader.send(
        &mut reader_client,
        &mut reader_log,
        &plan.main.load,
        None,
        0,
    ) {
        return reader.into_window(clock(), connect_ns);
    }
    let mut clock = clock();
    'rounds: loop {
        let round = clock.rounds;
        let before = writer.completed + reader.completed;
        let mut reads = plan.main.round.iter();
        for cycle in &churn.round(u64::from(round)) {
            let Some(mut client) = writer.connect(addr, &mut connect_ns) else {
                // The refused connection's requests were never sent.
                writer.attempted += cycle.len() as u64;
                writer.failed += cycle.len() as u64;
                break 'rounds;
            };
            let mut log = SessionLog::default();
            let requests = cycle.iter().map(|op| (op.line.as_str(), Some(op.verb)));
            for (line, verb) in requests.chain([("QUIT", None)]) {
                let write_started = Instant::now();
                let write_sent = client.send(line);
                let sent = match reads.next() {
                    Some(query) => {
                        let read_started = Instant::now();
                        let reply = reader_client
                            .send(&query.line)
                            .and_then(|()| reader_client.receive());
                        reader.record(
                            &reader_client,
                            &mut reader_log,
                            &query.line,
                            Some(query.verb),
                            round,
                            read_started,
                            reply,
                        )
                    }
                    None => true,
                };
                let reply = write_sent.and_then(|()| client.receive());
                let written =
                    writer.record(&client, &mut log, line, verb, round, write_started, reply);
                if !(sent && written) {
                    writer_logs.push(log);
                    break 'rounds;
                }
            }
            writer_logs.push(log);
        }
        clock.lap(writer.completed + reader.completed - before, 0);
        let lap = clock.laps.len() as u32;
        (writer.lap, reader.lap) = (lap, lap);
        if !clock.round() {
            break;
        }
    }
    let last = clock.rounds.saturating_sub(1);
    reader.send(&mut reader_client, &mut reader_log, "QUIT", None, last);
    writer.absorb(reader);
    let mut window = writer.into_window(clock, connect_ns);
    window.sessions.push(reader_log);
    window.sessions.extend(writer_logs);
    window
}
