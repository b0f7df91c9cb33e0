//! `ntgd-load`: the load-test harness for `ntgd-serve`.
//!
//! ```text
//! ntgd-load --spec <file> [options]
//!   --spec <file>         workload spec (docs/WORKLOAD_SPEC.md); required
//!   --seed <n>            override the spec's seed
//!   --sessions <n>        override the spec's session count
//!   --addr <host:port>    drive an external ntgd-serve (default: in-process)
//!   --bench               also run a caches-off server and record per-verb
//!                         speedups (in-process only)
//!   --rounds <n>          repeat runs and report the median (default 1,
//!                         or 5 with --bench; env NTGD_LOAD_ROUNDS)
//!   --out <path>          report file (default BENCH_server.json; "-" for
//!                         stdout only)
//!   --slo [verb:]q=<dur>  latency SLO, e.g. p99=5ms or assert:max=50ms;
//!                         repeatable; violations exit 3
//!   --report-only         print SLO violations but exit 0 (CI smoke mode)
//!   --print-ops           dump the generated operation stream and exit
//! ```
//!
//! A run prints a human summary to stdout and writes the JSON report (see
//! `docs/OPERATIONS.md` for examples; `docs/WORKLOAD_SPEC.md` explains how
//! a committed spec + seed reproduces a report's operation stream exactly).

use std::process::ExitCode;

use ntgd_loadgen::driver::{self, ServerMode};
use ntgd_loadgen::report::{self, RunReport, SloRule};
use ntgd_loadgen::{generate, WorkloadSpec};

struct Args {
    spec_path: String,
    seed: Option<u64>,
    sessions: Option<usize>,
    addr: Option<String>,
    bench: bool,
    rounds: Option<usize>,
    out: String,
    slos: Vec<SloRule>,
    report_only: bool,
    print_ops: bool,
}

fn usage() -> &'static str {
    "usage: ntgd-load --spec <file> [--seed N] [--sessions N] [--addr host:port] \
     [--bench] [--rounds N] [--out path] \
     [--slo [verb:]metric=duration]... [--report-only] [--print-ops]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        spec_path: String::new(),
        seed: None,
        sessions: None,
        addr: None,
        bench: false,
        rounds: None,
        out: "BENCH_server.json".to_owned(),
        slos: Vec::new(),
        report_only: false,
        print_ops: false,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        let mut value = |flag: &str| raw.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--spec" => args.spec_path = value("--spec")?,
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs a 64-bit integer".to_owned())?,
                )
            }
            "--sessions" => {
                let n: usize = value("--sessions")?
                    .parse()
                    .map_err(|_| "--sessions needs a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--sessions needs a positive integer".to_owned());
                }
                args.sessions = Some(n);
            }
            "--addr" => args.addr = Some(value("--addr")?),
            "--bench" => args.bench = true,
            "--rounds" => {
                let n: usize = value("--rounds")?
                    .parse()
                    .map_err(|_| "--rounds needs a positive integer".to_owned())?;
                if n == 0 {
                    return Err("--rounds needs a positive integer".to_owned());
                }
                args.rounds = Some(n);
            }
            "--out" => args.out = value("--out")?,
            "--slo" => args.slos.push(SloRule::parse(&value("--slo")?)?),
            "--report-only" => args.report_only = true,
            "--print-ops" => args.print_ops = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.spec_path.is_empty() {
        return Err("--spec is required".to_owned());
    }
    if args.bench && args.addr.is_some() {
        return Err("--bench needs an in-process server; drop --addr".to_owned());
    }
    if args.rounds.is_none() {
        if let Ok(rounds) = std::env::var("NTGD_LOAD_ROUNDS") {
            args.rounds = Some(
                rounds
                    .parse()
                    .map_err(|_| "NTGD_LOAD_ROUNDS needs a positive integer".to_owned())?,
            );
        }
    }
    Ok(args)
}

/// Runs `rounds` fresh rounds against `mode` (or the external address) and
/// returns every round's report.  In-process targets get a fresh server per
/// round so registry state never leaks across rounds — and each round's
/// server is gracefully shut down afterwards (acceptor, pollers and live
/// connections joined), so a many-round run holds one server at a time
/// instead of leaking a thread and listener per round.
fn run_rounds(
    workload: &ntgd_loadgen::Workload,
    addr: &Option<String>,
    mode: ServerMode,
    rounds: usize,
) -> Result<Vec<RunReport>, String> {
    (0..rounds)
        .map(|_| match addr {
            Some(addr) => driver::run(workload, addr),
            None => {
                let server =
                    driver::spawn_server(mode).map_err(|e| format!("cannot spawn server: {e}"))?;
                let report = driver::run(workload, server.addr());
                server
                    .shutdown()
                    .map_err(|e| format!("server shutdown failed: {e}"))?;
                report
            }
        })
        .collect()
}

/// The round whose wall time is the median (the report latencies come from
/// one coherent round, not a mix).
fn median_round(rounds: Vec<RunReport>) -> RunReport {
    let mut indexed: Vec<(u64, usize)> = rounds
        .iter()
        .enumerate()
        .map(|(i, r)| (r.wall_ns, i))
        .collect();
    indexed.sort_unstable();
    let middle = indexed[(indexed.len() - 1) / 2].1;
    rounds.into_iter().nth(middle).expect("non-empty rounds")
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let mut spec = WorkloadSpec::parse_file(&args.spec_path)?;
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    if let Some(sessions) = args.sessions {
        spec.sessions = sessions;
    }
    let workload = generate(&spec);
    if args.print_ops {
        print!("{}", workload.render());
        println!("# fingerprint={:#018x}", workload.fingerprint());
        return Ok(ExitCode::SUCCESS);
    }
    let rounds = args.rounds.unwrap_or(if args.bench { 5 } else { 1 });
    println!(
        "ntgd-load: workload {} (family {}, seed {}): {} sessions x {} ops, {} round(s){}",
        spec.name,
        spec.family,
        spec.seed,
        spec.sessions,
        workload.sessions[0].len(),
        rounds,
        if args.bench {
            " + caches-off baseline"
        } else {
            ""
        },
    );
    let cached = run_rounds(&workload, &args.addr, ServerMode::Cached, rounds)?;
    let speedups = if args.bench {
        let uncached = run_rounds(&workload, &args.addr, ServerMode::FromScratch, rounds)?;
        Some(report::speedups(&cached, &uncached))
    } else {
        None
    };
    let chosen = median_round(cached);
    for verb in &chosen.verbs {
        println!(
            "  {:<10} {:>6} reqs  p50 {:>8.1}us  p99 {:>8.1}us  max {:>8.1}us",
            verb.verb.label(),
            verb.hist.count(),
            verb.hist.quantile(0.5) as f64 / 1e3,
            verb.hist.quantile(0.99) as f64 / 1e3,
            verb.hist.max() as f64 / 1e3,
        );
    }
    println!(
        "  total      {:>6} reqs  {:.1} ops/s over {:.1} ms",
        chosen.requests,
        chosen.ops_per_sec(),
        chosen.wall_ns as f64 / 1e6
    );
    // Server-observed per-verb counts and p99 from the METRICS scrape; a
    // count that disagrees with the client's is flagged — it means requests
    // were lost, double-counted, or a foreign client shared the window.
    for server in &chosen.server_verbs {
        let client_count = chosen
            .verb(server.verb)
            .map(|v| v.hist.count())
            .unwrap_or(0);
        println!(
            "  server     {:<10} {:>6} reqs  p99 {:>8.1}us{}",
            server.verb.label(),
            server.requests,
            server.p99_ns as f64 / 1e3,
            if server.requests == client_count {
                String::new()
            } else {
                format!("  DRIFT (client observed {client_count})")
            },
        );
    }
    if let Some(speedups) = &speedups {
        let baseline = "vs caches-off";
        for (label, ratio) in &speedups.verbs {
            println!("  speedup    {label:<10} {ratio:.1}x {baseline}");
        }
        println!("  speedup    total      {:.1}x {baseline}", speedups.total);
    }
    let command = format!(
        "cargo run --release -p ntgd-loadgen --bin ntgd-load -- --spec {}{}{}{}",
        args.spec_path,
        match args.sessions {
            Some(n) => format!(" --sessions {n}"),
            None => String::new(),
        },
        if args.bench { " --bench" } else { "" },
        match args.rounds {
            Some(n) => format!(" --rounds {n}"),
            None => String::new(),
        }
    );
    let json = report::render_json(&chosen, &command, spec.seed, speedups.as_ref());
    if args.out == "-" {
        print!("{json}");
    } else {
        std::fs::write(&args.out, &json).map_err(|e| format!("cannot write {}: {e}", args.out))?;
        println!("wrote {}", args.out);
    }
    let violations: Vec<String> = args
        .slos
        .iter()
        .flat_map(|slo| slo.check(&chosen))
        .collect();
    for violation in &violations {
        eprintln!("ntgd-load: {violation}");
    }
    if !violations.is_empty() && !args.report_only {
        return Ok(ExitCode::from(3));
    }
    if !violations.is_empty() {
        println!(
            "ntgd-load: {} SLO violation(s) ignored (--report-only)",
            violations.len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ntgd-load: {message}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
