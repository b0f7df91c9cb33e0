//! The line protocol: request parsing and response framing.
//!
//! See the crate documentation for the grammar.  Parsing here only splits a
//! request line into a [`Command`]; program, fact and query *payloads* stay
//! as text and are handed to [`ntgd_parser`] by the session.

use std::fmt;

/// How `MODELS` enumerates stable models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelsMode {
    /// The paper's stable model semantics (SMS engine; any program).
    Sms,
    /// The LP approach (Skolemise + ground + answer-set search; normal
    /// programs).
    Lp,
}

impl fmt::Display for ModelsMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelsMode::Sms => write!(f, "sms"),
            ModelsMode::Lp => write!(f, "lp"),
        }
    }
}

/// Which counters `STATS` prints.  The `sms`, `base` and `conn` scopes print
/// only lines that are a pure function of the request/connection history —
/// never of thread count or machine — so transcripts can assert
/// them verbatim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsScope {
    /// Everything, including the machine-dependent pool counters.
    All,
    /// Only the deterministic incremental-`MODELS` reuse counters.
    Sms,
    /// Only the deterministic shared-base counters (registry hits/misses,
    /// base vs overlay atom counts, fork count).
    Base,
    /// Only the connection-layer counters (transport, accepted/active/peak/
    /// rejected) — deterministic for any scripted sequence of connections.
    Conn,
    /// Only the session-local request counters (per-verb request and error
    /// tallies) — a pure function of the request history, unlike the
    /// process-wide timing data the `METRICS` verb exposes.
    Metrics,
    /// Only the decidability-classification lines of the loaded program
    /// (member classes, verdict, budget decisions) — a pure function of the
    /// `LOAD` payload, so transcripts assert the scope verbatim.
    Classes,
}

/// The `HELP` response body, one entry per line (the session prefixes each
/// with `INFO `).  This is the **single source of truth** for the command
/// summary: `docs/PROTOCOL.md` embeds the same lines between its
/// `HELP-BEGIN`/`HELP-END` markers, and `tests/help_sync.rs` diffs the two —
/// so the served grammar and the documented grammar cannot drift apart.
pub const HELP_LINES: [&str; 6] = [
    "LOAD <rules-and-facts>      (re)initialise the session",
    "ASSERT <facts>              insert facts, incremental re-chase",
    "QUERY <?- lits. | ?(X) :- lits.>  certain answers",
    "MODELS [sms|lp] [max=<n>]   enumerate stable models",
    "RETRACT-TO <mark>           roll back to an epoch mark",
    "STATS [sms|base|conn|metrics|classes] | METRICS | PING | HELP | QUIT",
];

/// One parsed request line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// `LOAD <rules-and-facts>`: (re)initialise the session.
    Load(String),
    /// `ASSERT <facts>`: insert facts and incrementally re-chase.
    Assert(String),
    /// `QUERY <query>`: answer a query over the chased instance.
    Query(String),
    /// `MODELS [sms|lp] [max=<n>]`: enumerate stable models.
    Models {
        /// Enumeration back-end.
        mode: ModelsMode,
        /// Optional cap overriding the session default.
        max: Option<usize>,
    },
    /// `RETRACT-TO <mark>`: roll back to an earlier epoch mark.
    RetractTo(usize),
    /// `STATS [sms|base|conn|metrics]`: session and engine statistics,
    /// optionally restricted to one deterministic counter scope (see
    /// [`StatsScope`]).
    Stats {
        /// Which counters to print.
        scope: StatsScope,
    },
    /// `METRICS`: the process-wide observability registry as
    /// Prometheus-style text exposition (timings included — excluded from
    /// transcript-parity tests, unlike every `STATS` scope).
    Metrics,
    /// `PING`: liveness check.
    Ping,
    /// `HELP`: list the commands.
    Help,
    /// `QUIT`: close the session.
    Quit,
    /// Blank or comment line: no response at all.
    Nop,
}

/// Parses one request line.  Returns `Err` with a human-readable message for
/// unknown commands or malformed arguments.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('%') || line.starts_with('#') {
        return Ok(Command::Nop);
    }
    let (keyword, rest) = match line.find(char::is_whitespace) {
        Some(split) => (&line[..split], line[split..].trim()),
        None => (line, ""),
    };
    match keyword.to_ascii_uppercase().as_str() {
        "LOAD" => {
            if rest.is_empty() {
                Err("LOAD needs a program".to_owned())
            } else {
                Ok(Command::Load(rest.to_owned()))
            }
        }
        "ASSERT" => {
            if rest.is_empty() {
                Err("ASSERT needs facts".to_owned())
            } else {
                Ok(Command::Assert(rest.to_owned()))
            }
        }
        "QUERY" => {
            if rest.is_empty() {
                Err("QUERY needs a query".to_owned())
            } else {
                Ok(Command::Query(rest.to_owned()))
            }
        }
        "MODELS" => {
            let mut mode = ModelsMode::Sms;
            let mut max = None;
            for word in rest.split_whitespace() {
                let lower = word.to_ascii_lowercase();
                if lower == "sms" {
                    mode = ModelsMode::Sms;
                } else if lower == "lp" {
                    mode = ModelsMode::Lp;
                } else if let Some(value) = lower.strip_prefix("max=") {
                    max = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| format!("bad MODELS cap: {word}"))?,
                    );
                } else {
                    return Err(format!("unknown MODELS argument: {word}"));
                }
            }
            Ok(Command::Models { mode, max })
        }
        "RETRACT-TO" => rest
            .parse::<usize>()
            .map(Command::RetractTo)
            .map_err(|_| format!("bad mark: {rest:?}")),
        "STATS" => match rest.to_ascii_lowercase().as_str() {
            "" => Ok(Command::Stats {
                scope: StatsScope::All,
            }),
            "sms" => Ok(Command::Stats {
                scope: StatsScope::Sms,
            }),
            "base" => Ok(Command::Stats {
                scope: StatsScope::Base,
            }),
            "conn" => Ok(Command::Stats {
                scope: StatsScope::Conn,
            }),
            "metrics" => Ok(Command::Stats {
                scope: StatsScope::Metrics,
            }),
            "classes" => Ok(Command::Stats {
                scope: StatsScope::Classes,
            }),
            other => Err(format!("unknown STATS scope: {other}")),
        },
        "METRICS" => Ok(Command::Metrics),
        "PING" => Ok(Command::Ping),
        "HELP" => Ok(Command::Help),
        "QUIT" | "EXIT" => Ok(Command::Quit),
        other => Err(format!("unknown command: {other}")),
    }
}

/// A framed response: data lines followed by one `OK …`/`ERR …` terminator
/// (already included in `lines`), plus the close-connection flag set by
/// `QUIT`.  [`Command::Nop`] produces an empty response.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Response {
    /// The lines to send, terminator included.
    pub lines: Vec<String>,
    /// Whether the session ends after this response.
    pub close: bool,
}

impl Response {
    /// An empty response (comment / blank request).
    pub fn none() -> Response {
        Response::default()
    }

    /// A single-line `OK …` response.
    pub fn ok(detail: impl fmt::Display) -> Response {
        Response {
            lines: vec![format!("OK {detail}")],
            close: false,
        }
    }

    /// Data lines followed by an `OK …` terminator.
    pub fn ok_with(data: Vec<String>, detail: impl fmt::Display) -> Response {
        let mut lines = data;
        lines.push(format!("OK {detail}"));
        Response {
            lines,
            close: false,
        }
    }

    /// An `ERR …` response; the message is flattened to one line.
    pub fn err(message: impl fmt::Display) -> Response {
        let flat = message.to_string().replace('\n', "; ").replace('\r', "");
        Response {
            lines: vec![format!("ERR {flat}")],
            close: false,
        }
    }

    /// The terminator line, if any data has been produced.
    pub fn terminator(&self) -> Option<&str> {
        self.lines.last().map(String::as_str)
    }

    /// Whether this response reports success (vacuously true for `Nop`).
    pub fn is_ok(&self) -> bool {
        self.terminator().is_none_or(|line| line.starts_with("OK"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_are_case_insensitive_and_split_once() {
        assert_eq!(
            parse_command("load p(X) -> q(X)."),
            Ok(Command::Load("p(X) -> q(X).".to_owned()))
        );
        assert_eq!(
            parse_command("ASSERT p(a). p(b)."),
            Ok(Command::Assert("p(a). p(b).".to_owned()))
        );
        assert_eq!(
            parse_command("Query ?- p(X)."),
            Ok(Command::Query("?- p(X).".to_owned()))
        );
        assert_eq!(parse_command("RETRACT-TO 3"), Ok(Command::RetractTo(3)));
        assert_eq!(
            parse_command("stats"),
            Ok(Command::Stats {
                scope: StatsScope::All
            })
        );
        assert_eq!(
            parse_command("STATS sms"),
            Ok(Command::Stats {
                scope: StatsScope::Sms
            })
        );
        assert_eq!(
            parse_command("STATS Base"),
            Ok(Command::Stats {
                scope: StatsScope::Base
            })
        );
        assert_eq!(
            parse_command("STATS conn"),
            Ok(Command::Stats {
                scope: StatsScope::Conn
            })
        );
        assert_eq!(
            parse_command("STATS Metrics"),
            Ok(Command::Stats {
                scope: StatsScope::Metrics
            })
        );
        assert_eq!(
            parse_command("STATS Classes"),
            Ok(Command::Stats {
                scope: StatsScope::Classes
            })
        );
        assert_eq!(parse_command("metrics"), Ok(Command::Metrics));
        assert!(parse_command("STATS quantum").is_err());
        assert_eq!(parse_command("QUIT"), Ok(Command::Quit));
        assert_eq!(parse_command("exit"), Ok(Command::Quit));
    }

    #[test]
    fn models_arguments_parse() {
        assert_eq!(
            parse_command("MODELS"),
            Ok(Command::Models {
                mode: ModelsMode::Sms,
                max: None
            })
        );
        assert_eq!(
            parse_command("MODELS lp max=5"),
            Ok(Command::Models {
                mode: ModelsMode::Lp,
                max: Some(5)
            })
        );
        assert!(parse_command("MODELS quantum").is_err());
        assert!(parse_command("MODELS max=no").is_err());
    }

    #[test]
    fn blanks_and_comments_are_nops() {
        assert_eq!(parse_command(""), Ok(Command::Nop));
        assert_eq!(parse_command("   "), Ok(Command::Nop));
        assert_eq!(parse_command("% commentary"), Ok(Command::Nop));
        assert_eq!(parse_command("# commentary"), Ok(Command::Nop));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse_command("LOAD").is_err());
        assert!(parse_command("ASSERT").is_err());
        assert!(parse_command("QUERY").is_err());
        assert!(parse_command("RETRACT-TO x").is_err());
        assert!(parse_command("FROBNICATE now").is_err());
    }

    #[test]
    fn responses_frame_with_one_terminator() {
        let ok = Response::ok("mark=1");
        assert_eq!(ok.lines, vec!["OK mark=1"]);
        assert!(ok.is_ok());
        let with = Response::ok_with(vec!["ANSWER a".into()], "answers=1");
        assert_eq!(with.terminator(), Some("OK answers=1"));
        let err = Response::err("bad\nthing");
        assert_eq!(err.lines, vec!["ERR bad; thing"]);
        assert!(!err.is_ok());
        assert!(Response::none().is_ok());
    }
}
