//! `servebench`: the `ntgd-serve` benchmark.
//!
//! ```text
//! servebench --server <ntgd-serve binary> --workload chase-rw|models-grow|load-churn
//!            [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run spawns the real server, sets it up several times (spawn to
//! `LISTENING`, then the `LOAD`s that register the workload's shared bases),
//! drives the workload over TCP for `--seconds`, checks every reply against
//! an in-process replay, and prints one JSON line: the end-to-end metrics,
//! or with `--trace 1` the per-layer metrics.  `README.md` next to this
//! crate describes the workloads and metrics; `run.sh` builds and runs it.

mod drive;
mod metrics;
mod replay;
mod wire;
mod workload;

use std::collections::HashMap;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{SessionLog, Window};
use metrics::{median, ratio, ref_kernel_ms, render_result, scaled, Metric};
use replay::Replay;
use wire::{peak_rss_mb, scrape_metrics, Client, Pinned, Server};
use workload::{Kind, Plan, DEFAULT_SEED, HELD_OUT_SEED};

const USAGE: &str = "usage: servebench --server <ntgd-serve> --workload \
                     chase-rw|models-grow|load-churn [--seed N] [--seconds S] [--trace 0|1]";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

struct Args {
    server: PathBuf,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a number"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!(
                "servebench: {error}\n{USAGE}\nrecorded seeds: default {DEFAULT_SEED}, \
                 held out {HELD_OUT_SEED}"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("servebench: {error}");
            ExitCode::FAILURE
        }
    }
}

/// Registers the workload's shared bases on a fresh server.
fn warm_up(server: &Server, plan: &Plan) -> Result<SessionLog, String> {
    let mut client = Client::connect(server.addr())?;
    let mut log = SessionLog::default();
    for line in plan.warmup.iter().map(String::as_str).chain(["QUIT"]) {
        let reply = client.request(line)?;
        if !reply.ok {
            return Err(format!("set-up `{line:.60}` -> {}", client.last_line()));
        }
        log.requests.push(line.to_owned());
        log.rounds.push(0);
        log.replies.push(reply.hash);
    }
    Ok(log)
}

/// End-to-end throughput, latency and server CPU over the window.
fn end_to_end(window: &Window) -> Vec<Metric> {
    let requests = window.per_round(|lap| lap.requests as f64);
    let seconds = window.per_round(|lap| lap.seconds);
    let cpu_seconds = window.per_round(|lap| lap.cpu_seconds);
    let ms = |samples, q| window.lap_quantile_ms(samples, q);
    vec![
        Metric {
            name: "ops_per_s",
            value: ratio(requests, seconds),
        },
        Metric {
            name: "write_p50_ms",
            value: ms(&window.write, 0.5),
        },
        Metric {
            name: "write_p99_ms",
            value: ms(&window.write, 0.99),
        },
        Metric {
            name: "read_p50_ms",
            value: ms(&window.read, 0.5),
        },
        Metric {
            name: "read_p90_ms",
            value: ms(&window.read, 0.9),
        },
        Metric {
            name: "server_cpu_ms_per_op",
            value: ratio(cpu_seconds * 1e3, requests),
        },
    ]
}

/// Replays the set-up session, then every session of the window.
fn replay_all(replay: &mut Replay, warmup: &SessionLog, window: &Window) -> Result<(), String> {
    replay.session(warmup, true)?;
    window
        .sessions
        .iter()
        .try_for_each(|log| replay.session(log, false))
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let plan = Plan::new(args.kind, args.seed);
    eprintln!(
        "servebench: workload {} seed {} stream {:#018x}",
        args.kind.name(),
        args.seed,
        plan.fingerprint()
    );
    let kernel_before = ref_kernel_ms();
    // The server's pool keeps the size it has on this machine unpinned.
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let pinned = Pinned::to_one_cpu();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Stop the previous server before timing the next set-up.
        drop(kept.take());
        let started = Instant::now();
        let server = Server::spawn(&args.server, threads)?;
        let log = warm_up(&server, &plan)?;
        setups.push(started.elapsed().as_secs_f64());
        kept = Some((server, log));
    }
    let (server, warmup_log) = kept.expect("at least one set-up");
    let scrape_before = args
        .trace
        .then(|| scrape_metrics(server.addr()))
        .transpose()?;
    let window = drive::run(
        &plan,
        server.addr(),
        server.pid(),
        Duration::from_secs(args.seconds),
    );
    let end_rss = peak_rss_mb(server.pid())?;
    let scrape_after = args
        .trace
        .then(|| scrape_metrics(server.addr()))
        .transpose()?;
    drop(server);
    // The replay below runs with the machine's parallelism.
    drop(pinned);
    for error in window.errors.iter().take(5) {
        eprintln!("servebench: failed request: {error}");
    }

    let mut check = Replay::new(false);
    let checked = replay_all(&mut check, &warmup_log, &window);
    // A traced run replays the same requests once more, timing the layers;
    // its time over the untraced replay's is the tracing overhead.
    let traced = args.trace.then(|| {
        let mut traced = Replay::new(true);
        let result = replay_all(&mut traced, &warmup_log, &window);
        (traced, result)
    });
    let mismatch = checked.as_ref().err().or_else(|| {
        traced
            .as_ref()
            .and_then(|(_, result)| result.as_ref().err())
    });
    if let Some(error) = mismatch {
        eprintln!("servebench: {error}");
    }
    let correct = window.failed == 0 && mismatch.is_none();
    let kernel_after = ref_kernel_ms();
    eprintln!(
        "servebench: machine.ref_kernel_ms before={kernel_before:.3} after={kernel_after:.3}; \
         window {:.3}s, {} rounds, {} laps, {} requests; replay {:.3}s",
        window.seconds,
        window.rounds,
        window.laps.len(),
        window.requests(),
        check.seconds
    );
    let (metrics, names) = if let Some((traced, _)) = &traced {
        let mut metrics = transport_metrics(
            &window,
            &scrape_before.unwrap_or_default(),
            &scrape_after.unwrap_or_default(),
        );
        metrics.extend(traced.metrics());
        metrics.push(Metric {
            name: "trace.overhead_share",
            value: ratio(traced.seconds - check.seconds, traced.seconds),
        });
        metrics.push(Metric {
            name: "machine.ref_kernel_ms",
            value: (kernel_before + kernel_after) / 2.0,
        });
        (metrics, &metrics::PER_LAYER[..])
    } else {
        let mut metrics = end_to_end(&window);
        metrics.push(Metric {
            name: "server_peak_rss_mb",
            value: window.peak_rss_mb.unwrap_or(end_rss),
        });
        metrics.push(Metric {
            name: "setup_s",
            value: median(&setups),
        });
        (metrics, &metrics::END_TO_END[..])
    };
    let mut printed: Vec<&str> = metrics.iter().map(|metric| metric.name).collect();
    let mut expected: Vec<&str> = names.iter().map(|&(name, _)| name).collect();
    printed.sort_unstable();
    expected.sort_unstable();
    if printed != expected {
        return Err(format!("metric set {printed:?} differs from {expected:?}"));
    }
    let attempted = window.attempted + warmup_log.requests.len() as u64;
    Ok((
        correct,
        render_result(correct, attempted, window.failed, &metrics, names),
    ))
}

/// The transport layer, from the client's view and the server's `METRICS`
/// deltas over the window.
fn transport_metrics(
    window: &Window,
    before: &HashMap<String, f64>,
    after: &HashMap<String, f64>,
) -> Vec<Metric> {
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    // Server-side execution of the workload's requests (the scrapes'
    // own METRICS requests excluded).
    let verbs = ["load", "assert", "query", "models", "retract", "quit"];
    let exec_ns: f64 = verbs
        .iter()
        .map(|verb| delta(&format!("ntgd_server_request_{verb}_ns_sum")))
        .sum();
    let executed: f64 = verbs
        .iter()
        .map(|verb| delta(&format!("ntgd_server_request_{verb}_ns_count")))
        .sum();
    let requests = window.rtt.count() as f64;
    vec![
        Metric {
            name: "transport.overhead_us_mean",
            value: (window.rtt.mean() - ratio(exec_ns, executed)) / 1e3,
        },
        Metric {
            name: "transport.connect_us_p50",
            value: median(&scaled(&window.connect_ns, 1e3)),
        },
        Metric {
            name: "transport.poll_cycles_per_op",
            value: ratio(delta("ntgd_server_poll_cycles_total"), requests),
        },
        Metric {
            name: "transport.exec_batches_per_op",
            value: ratio(delta("ntgd_server_exec_batches_total"), requests),
        },
    ]
}
