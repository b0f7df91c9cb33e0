//! End-to-end: generated workloads driven over real TCP against an
//! in-process `ntgd-server`, in both server modes the `--bench` comparison
//! uses.  Asserts the driver's accounting (every generated operation becomes
//! exactly one timed request, tallied under its verb), that no request ERRs
//! — the generator's mark simulation and family templates must only emit
//! valid protocol lines — that the server-side `server_requests` counter is
//! visible over `STATS`, and that [`LoadServer::shutdown`] really stops the
//! server (the per-round hygiene `ntgd-load --rounds` relies on).

use std::net::TcpStream;
use std::time::Duration;

use ntgd_loadgen::{
    fetch_server_requests, generate, run, spawn_server, ServerMode, Verb, WorkloadSpec,
};

fn spec(text: &str) -> WorkloadSpec {
    WorkloadSpec::parse(text).expect("inline spec parses")
}

fn small_chain() -> WorkloadSpec {
    spec(
        "name = e2e-chain\n\
         family = chain\n\
         depth = 3\n\
         constants = 12\n\
         initial_facts = 8\n\
         sessions = 2\n\
         ops = 12\n\
         batch = 3\n\
         retract_rate = 0.15\n\
         query_rate = 0.25\n\
         models_rate = 0.1\n\
         models_max = 2\n\
         seed = 7\n",
    )
}

#[test]
fn cached_server_runs_the_smoke_workload_cleanly() {
    let workload = generate(&small_chain());
    let server = spawn_server(ServerMode::Cached).expect("spawn server");
    let report = run(&workload, server.addr()).expect("load run succeeds");

    assert_eq!(report.requests, workload.total_ops() as u64);
    assert!(report.wall_ns > 0);
    // Every session LOADs once; the rest of the mix is seed-dependent but
    // the per-verb tallies must add up to the request total.
    let load = report.verb(Verb::Load).expect("LOAD tallied");
    assert_eq!(load.hist.count(), workload.sessions.len() as u64);
    let tallied: u64 = report.verbs.iter().map(|v| v.hist.count()).sum();
    assert_eq!(tallied, report.requests);
    assert!(report.verb(Verb::Assert).is_some(), "mix includes ASSERT");
    // The driver samples the process-wide request counter after the run; at
    // least this run's requests (plus one QUIT per session and the STATS
    // probe itself) must have been counted.
    let seen = report
        .server_requests
        .expect("STATS exposes server_requests");
    assert!(seen > report.requests, "counter includes untimed requests");
    // The METRICS scrape cross-checks the client's accounting: every verb
    // the clients timed shows up server-side with at least as many requests
    // (the obs registry is process-global, so concurrently running tests in
    // this binary may add to the window — equality only holds in isolation).
    assert!(!report.server_verbs.is_empty(), "METRICS scrape succeeded");
    for verb in &report.verbs {
        let server = report
            .server_verbs
            .iter()
            .find(|s| s.verb == verb.verb)
            .unwrap_or_else(|| panic!("server observed no {} requests", verb.verb.label()));
        assert!(
            server.requests >= verb.hist.count(),
            "server undercounted {}: {} < {}",
            verb.verb.label(),
            server.requests,
            verb.hist.count()
        );
        assert!(server.p99_ns > 0, "server recorded wall times");
    }
    // The connection counters saw every session (plus the STATS probe) and
    // nobody was rejected: the default server has no admission cap.
    let conn = server.conn_stats().expect("in-process server has counters");
    assert!(conn.accepted > workload.sessions.len() as u64);
    assert_eq!(conn.rejected, 0);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn from_scratch_server_agrees_on_the_operation_mix() {
    let workload = generate(&small_chain());
    let cached = spawn_server(ServerMode::Cached).expect("spawn cached");
    let scratch = spawn_server(ServerMode::FromScratch).expect("spawn scratch");
    let a = run(&workload, cached.addr()).expect("cached run");
    let b = run(&workload, scratch.addr()).expect("from-scratch run");
    // Both modes execute the identical stream: same totals, same per-verb
    // request counts — only the latencies may differ.  This is what makes
    // the --bench speedup ratios well-defined.
    assert_eq!(a.requests, b.requests);
    for verb in Verb::ALL {
        let na = a.verb(verb).map_or(0, |v| v.hist.count());
        let nb = b.verb(verb).map_or(0, |v| v.hist.count());
        assert_eq!(na, nb, "request count for {} diverged", verb.label());
    }
}

#[test]
fn disjunctive_workloads_enumerate_models_over_the_wire() {
    let workload = generate(&spec(
        "name = e2e-disj\n\
         family = disjunctive\n\
         depth = 2\n\
         constants = 6\n\
         initial_facts = 4\n\
         sessions = 1\n\
         ops = 8\n\
         batch = 2\n\
         retract_rate = 0.1\n\
         query_rate = 0.2\n\
         models_max = 2\n\
         seed = 11\n",
    ));
    let server = spawn_server(ServerMode::Cached).expect("spawn server");
    let report = run(&workload, server.addr()).expect("disjunctive run succeeds");
    assert!(
        report.verb(Verb::Models).is_some(),
        "disjunctive mix routes its query share to MODELS"
    );
    assert!(report.verb(Verb::Query).is_none(), "no chase, no QUERY");
}

#[test]
fn every_family_classifies_to_a_terminating_verdict() {
    // The decidability-aware front door must have a real opinion about
    // every generated program shape: all four family templates are
    // chase-terminating by construction (chain/star are full TGDs, the
    // existential family is a forward weakly-acyclic chain, and the
    // disjunctive family's positive transform is full), so `STATS classes`
    // after their `LOAD` must report the terminating verdict — which is
    // what lifts the chase budget for every loadgen run.
    use std::io::{BufRead, BufReader, Write};
    let server = spawn_server(ServerMode::Cached).expect("spawn server");
    for family in ["chain", "star", "existential", "disjunctive"] {
        let workload = generate(&spec(&format!(
            "name = e2e-class\nfamily = {family}\nsessions = 1\nops = 1\n"
        )));
        let load = &workload.sessions[0][0];
        assert_eq!(load.verb, Verb::Load, "{family}: ops[0] is the LOAD");
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut line = String::new();
        reader.read_line(&mut line).expect("banner");
        let mut request = |text: &str| -> Vec<String> {
            writeln!(writer, "{text}").expect("request");
            let mut lines = Vec::new();
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).expect("response line");
                let done = line.starts_with("OK") || line.starts_with("ERR");
                lines.push(line.trim_end().to_owned());
                if done {
                    return lines;
                }
            }
        };
        let loaded = request(&load.line);
        assert!(
            loaded.last().unwrap().starts_with("OK"),
            "{family}: LOAD failed: {loaded:?}"
        );
        let classes = request("STATS classes");
        assert!(
            classes.contains(&"STAT class_verdict=terminating".to_owned()),
            "{family}: expected a terminating verdict, got {classes:?}"
        );
        request("QUIT");
    }
    server.shutdown().expect("clean shutdown");
}

#[test]
fn server_requests_counter_is_monotone_over_stats_probes() {
    let server = spawn_server(ServerMode::FromScratch).expect("spawn server");
    let first = fetch_server_requests(server.addr()).expect("first probe");
    let second = fetch_server_requests(server.addr()).expect("second probe");
    // Each probe issues STATS (+ QUIT) itself, so the counter strictly grows.
    assert!(second > first);
}

#[test]
fn shutdown_stops_both_transports_without_leaking() {
    let workload = generate(&small_chain());
    let server = spawn_server(ServerMode::Cached).expect("spawn server");
    let addr = server.addr().to_string();
    run(&workload, &addr).expect("run before shutdown");
    server.shutdown().expect("graceful shutdown");
    // The listener is closed: a fresh connect must fail (or be accepted by
    // nobody — connect_timeout covers the race where the backlog still has
    // room but nothing ever serves the socket).
    let socket_addr = addr.parse().expect("loopback addr parses");
    match TcpStream::connect_timeout(&socket_addr, Duration::from_millis(200)) {
        Err(_) => {}
        Ok(stream) => {
            // If the kernel still completed the handshake, no banner may
            // ever arrive: the server threads are gone.
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .expect("set timeout");
            let mut buf = [0u8; 8];
            use std::io::Read;
            let got = (&stream).read(&mut buf);
            assert!(
                matches!(got, Ok(0) | Err(_)),
                "post-shutdown connection produced data: {got:?}"
            );
        }
    }
}
