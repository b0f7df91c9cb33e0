//! An optional structured JSON-lines event log.
//!
//! Off unless `NTGD_LOG` names a sink — a file path (appended) or the
//! literal `stderr`.  `NTGD_LOG_LEVEL` (`debug` | `info` | `warn` |
//! `error`, default `info`) filters events below the threshold.  One event
//! is one line of JSON: `ts_ms` (Unix milliseconds), `level`, `event`,
//! then the caller's fields in order.  Logging is observability, not
//! control flow: no engine decision reads the log or its configuration.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Event severities, ordered so `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Per-phase chatter; off by default.
    Debug,
    /// Normal operational events (the default threshold).
    Info,
    /// Degraded-but-running conditions (accept backoff, budget warnings).
    Warn,
    /// Failures.
    Error,
}

impl Level {
    /// The lowercase JSON label.
    pub fn label(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a `NTGD_LOG_LEVEL` value (case-insensitive).
    pub fn parse(text: &str) -> Option<Level> {
        match text.trim().to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }
}

/// One field value; [`From`] conversions keep call sites terse.
#[derive(Clone, Debug)]
pub enum FieldValue {
    /// Rendered as a JSON string (escaped).
    Str(String),
    /// Rendered as a bare unsigned integer.
    U64(u64),
    /// Rendered as a bare signed integer.
    I64(i64),
    /// Rendered as a bare float.
    F64(f64),
    /// Rendered as `true`/`false`.
    Bool(bool),
}

impl From<&str> for FieldValue {
    fn from(value: &str) -> FieldValue {
        FieldValue::Str(value.to_owned())
    }
}

impl From<String> for FieldValue {
    fn from(value: String) -> FieldValue {
        FieldValue::Str(value)
    }
}

impl From<u64> for FieldValue {
    fn from(value: u64) -> FieldValue {
        FieldValue::U64(value)
    }
}

impl From<usize> for FieldValue {
    fn from(value: usize) -> FieldValue {
        FieldValue::U64(value as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(value: i64) -> FieldValue {
        FieldValue::I64(value)
    }
}

impl From<f64> for FieldValue {
    fn from(value: f64) -> FieldValue {
        FieldValue::F64(value)
    }
}

impl From<bool> for FieldValue {
    fn from(value: bool) -> FieldValue {
        FieldValue::Bool(value)
    }
}

enum Sink {
    Stderr,
    File(Mutex<std::fs::File>),
}

fn sink() -> Option<&'static Sink> {
    static SINK: OnceLock<Option<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        let target = std::env::var("NTGD_LOG").ok()?;
        let target = target.trim();
        if target.is_empty() {
            return None;
        }
        if target == "stderr" {
            return Some(Sink::Stderr);
        }
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(target)
            .ok()
            .map(|file| Sink::File(Mutex::new(file)))
    })
    .as_ref()
}

/// The configured threshold (`NTGD_LOG_LEVEL`, default [`Level::Info`]).
pub fn threshold() -> Level {
    static THRESHOLD: OnceLock<Level> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("NTGD_LOG_LEVEL")
            .ok()
            .and_then(|value| Level::parse(&value))
            .unwrap_or(Level::Info)
    })
}

/// Whether an event at `level` would be written (a sink is configured and
/// the level clears the threshold) — lets callers skip building fields.
pub fn log_enabled(level: Level) -> bool {
    level >= threshold() && sink().is_some()
}

fn escape_into(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders one event as its JSON line (no trailing newline).  Pure, so
/// wire-format tests can assert exact bytes.
pub fn format_event(
    ts_ms: u64,
    level: Level,
    event: &str,
    fields: &[(&str, FieldValue)],
) -> String {
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"ts_ms\":{ts_ms},\"level\":\"{}\"", level.label());
    line.push_str(",\"event\":\"");
    escape_into(&mut line, event);
    line.push('"');
    for (key, value) in fields {
        line.push_str(",\"");
        escape_into(&mut line, key);
        line.push_str("\":");
        match value {
            FieldValue::Str(text) => {
                line.push('"');
                escape_into(&mut line, text);
                line.push('"');
            }
            FieldValue::U64(n) => {
                let _ = write!(line, "{n}");
            }
            FieldValue::I64(n) => {
                let _ = write!(line, "{n}");
            }
            FieldValue::F64(x) => {
                let _ = write!(line, "{x}");
            }
            FieldValue::Bool(b) => {
                let _ = write!(line, "{b}");
            }
        }
    }
    line.push('}');
    line
}

/// Writes one structured event to the configured sink; a no-op when no
/// sink is configured or `level` is below the threshold.
pub fn log_event(level: Level, event: &str, fields: &[(&str, FieldValue)]) {
    if !log_enabled(level) {
        return;
    }
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|elapsed| elapsed.as_millis() as u64)
        .unwrap_or(0);
    let mut line = format_event(ts_ms, level, event, fields);
    line.push('\n');
    match sink() {
        Some(Sink::Stderr) => {
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
        Some(Sink::File(file)) => {
            let _ = file.lock().unwrap().write_all(line.as_bytes());
        }
        None => {}
    }
}

/// A token bucket of one: [`RateLimit::allow`] passes at most once per
/// interval, so a tight failure loop (accept backoff) cannot flood the
/// log.  Declare as a `static` next to the event it limits.
pub struct RateLimit {
    interval: Duration,
    last: Mutex<Option<Instant>>,
}

impl RateLimit {
    /// A limiter passing one event per `interval`.
    pub const fn new(interval: Duration) -> RateLimit {
        RateLimit {
            interval,
            last: Mutex::new(None),
        }
    }

    /// Whether the caller may emit now; records the emission when yes.
    pub fn allow(&self) -> bool {
        let mut last = self.last.lock().unwrap();
        match *last {
            Some(at) if at.elapsed() < self.interval => false,
            _ => {
                *last = Some(Instant::now());
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Debug < Level::Info);
        assert!(Level::Info < Level::Warn);
        assert!(Level::Warn < Level::Error);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse(" warning "), Some(Level::Warn));
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("loud"), None);
    }

    #[test]
    fn events_format_as_one_json_line() {
        let line = format_event(
            1234,
            Level::Warn,
            "slow_request",
            &[
                ("verb", "assert".into()),
                ("session", 7u64.into()),
                ("duration_ms", 12.5f64.into()),
                ("ok", true.into()),
            ],
        );
        assert_eq!(
            line,
            "{\"ts_ms\":1234,\"level\":\"warn\",\"event\":\"slow_request\",\
             \"verb\":\"assert\",\"session\":7,\"duration_ms\":12.5,\"ok\":true}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let line = format_event(
            0,
            Level::Error,
            "accept_error",
            &[("detail", "a \"quoted\"\nline\u{1}".into())],
        );
        assert_eq!(
            line,
            "{\"ts_ms\":0,\"level\":\"error\",\"event\":\"accept_error\",\
             \"detail\":\"a \\\"quoted\\\"\\nline\\u0001\"}"
        );
    }

    #[test]
    fn rate_limit_passes_once_per_interval() {
        let limit = RateLimit::new(Duration::from_secs(3600));
        assert!(limit.allow());
        assert!(!limit.allow());
        let open = RateLimit::new(Duration::ZERO);
        assert!(open.allow());
        assert!(open.allow());
    }
}
