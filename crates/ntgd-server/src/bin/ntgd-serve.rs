//! `ntgd-serve`: the persistent reasoning service.
//!
//! ```text
//! ntgd-serve [--repl]                          # one session on stdin/stdout
//! ntgd-serve --listen 127.0.0.1:7171           # one session per TCP connection
//!            [--max-steps N] [--max-models N]  # session limits
//!            [--max-sessions N]                # admission cap (default:
//!                                              #   NTGD_MAX_SESSIONS, then none)
//!            [--idle-timeout MS]               # reap silent connections
//!                                              #   (default: NTGD_IDLE_TIMEOUT,
//!                                              #   then never; TCP only)
//! ```
//!
//! In TCP mode the bound address is announced on stdout as
//! `LISTENING <addr>` (bind to port 0 to let the OS pick), then the process
//! serves forever.  See the `ntgd_server` crate documentation for the
//! protocol and `docs/OPERATIONS.md` for the connection layer.

use std::net::TcpListener;
use std::process::ExitCode;

use ntgd_server::{serve_repl, serve_tcp, BaseRegistry, SessionConfig};

fn usage() -> &'static str {
    "usage: ntgd-serve [--repl | --listen <addr>] [--max-steps N] [--max-models N] \
     [--max-sessions N] [--idle-timeout MS]"
}

fn main() -> ExitCode {
    let mut listen: Option<String> = None;
    let mut config = SessionConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--repl" => listen = None,
            "--listen" => match args.next() {
                Some(addr) => listen = Some(addr),
                None => {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--max-steps" | "--max-models" | "--max-sessions" | "--idle-timeout" => {
                let Some(value) = args.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("{arg} needs a number\n{}", usage());
                    return ExitCode::FAILURE;
                };
                match arg.as_str() {
                    "--max-steps" => config.max_steps = value,
                    "--max-models" => config.max_models = value,
                    "--max-sessions" => config.max_sessions = Some(value).filter(|&cap| cap > 0),
                    _ => {
                        config.idle_timeout =
                            (value > 0).then(|| std::time::Duration::from_millis(value as u64))
                    }
                }
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    // One shared-base registry per process: sessions that LOAD the same
    // program fork one frozen chased base instead of each re-chasing it
    // (disable with NTGD_SHARED_BASE=0; see the ntgd_server crate docs).
    config.base_registry = BaseRegistry::from_env();
    let outcome = match listen {
        None => serve_repl(config),
        Some(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(local) => println!("LISTENING {local}"),
                    Err(_) => println!("LISTENING {addr}"),
                }
                serve_tcp(listener, config)
            }
            Err(error) => {
                eprintln!("cannot listen on {addr}: {error}");
                return ExitCode::FAILURE;
            }
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("ntgd-serve: {error}");
            ExitCode::FAILURE
        }
    }
}
