//! `ntgd-serve`: the persistent reasoning service.
//!
//! ```text
//! ntgd-serve [--repl]                          # one session on stdin/stdout
//! ntgd-serve --listen 127.0.0.1:7171           # one session per TCP connection
//!            [--max-steps N] [--max-models N]  # session limits
//!            [--max-sessions N]                # admission cap (default: none)
//!            [--idle-timeout MS]               # reap silent connections
//!                                              #   (default: never; TCP only)
//! ```
//!
//! This is the one place a process's configuration is read: the flags
//! above, plus the two operator settings without a flag,
//! `NTGD_SESSION_BUDGET` and `NTGD_SLOW_MS` (see `docs/OPERATIONS.md`).
//! Unset or empty, a setting is off; a value that does not parse exits 1
//! with a message naming the variable.  Every process installs one
//! shared-base registry.
//!
//! In TCP mode the bound address is announced on stdout as
//! `LISTENING <addr>` (bind to port 0 to let the OS pick), then the process
//! serves forever.  See the `ntgd_server` crate documentation for the
//! protocol and `docs/OPERATIONS.md` for the connection layer.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use ntgd_server::{serve_repl, serve_tcp, BaseRegistry, SessionBudget, SessionConfig};

fn usage() -> &'static str {
    "usage: ntgd-serve [--repl | --listen <addr>] [--max-steps N] [--max-models N] \
     [--max-sessions N] [--idle-timeout MS]"
}

/// An operator setting: `None` when unset or empty, an error naming the
/// variable when its value does not parse.
fn setting<T>(name: &str, parse: impl Fn(&str) -> Option<T>) -> Result<Option<T>, String> {
    let value = std::env::var(name).unwrap_or_default();
    let value = value.trim();
    if value.is_empty() {
        return Ok(None);
    }
    parse(value)
        .map(Some)
        .ok_or_else(|| format!("malformed {name}={value:?}; see docs/OPERATIONS.md"))
}

fn main() -> ExitCode {
    let mut listen: Option<String> = None;
    let settings = setting("NTGD_SESSION_BUDGET", SessionBudget::parse)
        .and_then(|budget| Ok((budget, setting("NTGD_SLOW_MS", |ms| ms.parse().ok())?)));
    let (session_budget, slow_ms) = match settings {
        Ok(settings) => settings,
        Err(message) => {
            eprintln!("ntgd-serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    // One shared-base registry per process: sessions that LOAD the same
    // program fork one frozen chased base instead of each re-chasing it
    // (see the ntgd_server crate docs).
    let mut config = SessionConfig {
        base_registry: Some(Arc::new(BaseRegistry::new())),
        session_budget,
        slow_ms,
        ..SessionConfig::default()
    };
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
