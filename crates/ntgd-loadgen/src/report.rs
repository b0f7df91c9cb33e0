//! Latency/throughput reports, the `BENCH_server.json` rendering, and the
//! latency-SLO gate.
//!
//! The JSON layout deliberately mirrors `BENCH_matcher.json`: one workload
//! row per line carrying `"name"` and (in `--bench` mode) `"speedup"`
//! fields, which is exactly the subset `ntgd-bench`'s `bench_gate` parses —
//! so the same gate binary guards both baselines.  Rows without a
//! `"speedup"` field (plain, non-comparative runs) are ignored by the gate.

use std::fmt::Write as _;

use crate::generator::Verb;
use crate::histogram::Histogram;

/// Latency statistics of one protocol verb across a run.
#[derive(Clone, Debug)]
pub struct VerbReport {
    /// The verb (report bucket).
    pub verb: Verb,
    /// Merged per-request latency histogram (nanoseconds).
    pub hist: Histogram,
}

/// Server-observed statistics of one verb, scraped from the `METRICS`
/// exposition: the request-count delta across the measured window and the
/// server-side p99 wall time.  The count is the server's own tally of the
/// window (before/after scrape difference, since the exposition is
/// process-cumulative), so it cross-checks the client-observed count —
/// any drift means requests were dropped, double-counted, or a foreign
/// client shared the server during the window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerVerbReport {
    /// The verb (report bucket).
    pub verb: Verb,
    /// Requests the server recorded for this verb during the window.
    pub requests: u64,
    /// Server-observed p99 request wall time, nanoseconds (process
    /// lifetime, not window-scoped — histograms don't subtract).
    pub p99_ns: u64,
}

/// One complete load run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The spec's report label.
    pub name: String,
    /// Concurrent client sessions driven.
    pub sessions: usize,
    /// Wall-clock duration of the whole run (barrier release to last
    /// session finished), nanoseconds.
    pub wall_ns: u64,
    /// Requests sent (and answered `OK`) across all sessions.
    pub requests: u64,
    /// The server's own `STAT server_requests` counter after the run, when
    /// the driver could fetch it (includes the fetching `STATS` request).
    pub server_requests: Option<u64>,
    /// Per-verb statistics, in [`Verb::ALL`] order; verbs with no requests
    /// are omitted.
    pub verbs: Vec<VerbReport>,
    /// Server-observed per-verb statistics from the `METRICS` scrape, in
    /// [`Verb::ALL`] order; empty when the scrape failed (old server, or
    /// `NTGD_OBS=0`) or nothing was recorded.
    pub server_verbs: Vec<ServerVerbReport>,
}

impl RunReport {
    /// Total request throughput over the run's wall time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.requests as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// The report of one verb, if it occurred.
    pub fn verb(&self, verb: Verb) -> Option<&VerbReport> {
        self.verbs.iter().find(|v| v.verb == verb)
    }
}

/// Picks the median element of an unordered float list (lower middle for
/// even lengths; NaN-free inputs only).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
    values[(values.len() - 1) / 2]
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Renders a run (plus optional per-verb and total speedups from a
/// `--bench` comparison) as the `BENCH_server.json` document.
pub fn render_json(
    report: &RunReport,
    command: &str,
    seed: u64,
    speedups: Option<&ServerSpeedups>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"benchmark\": \"ntgd-serve load: workload {} over {} concurrent sessions\",",
        report.name, report.sessions
    );
    let _ = writeln!(out, "  \"command\": \"{command}\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"sessions\": {},", report.sessions);
    if let Some(server_requests) = report.server_requests {
        let _ = writeln!(out, "  \"server_requests\": {server_requests},");
    }
    let _ = writeln!(out, "  \"workloads\": [");
    let mut rows: Vec<String> = Vec::new();
    for verb in &report.verbs {
        let mut row = format!(
            "    {{\"name\": \"{}\", \"requests\": {}, \"mean_us\": {:.1}, \"p50_us\": {:.1}, \"p90_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}",
            verb.verb.label(),
            verb.hist.count(),
            verb.hist.mean() / 1_000.0,
            us(verb.hist.quantile(0.50)),
            us(verb.hist.quantile(0.90)),
            us(verb.hist.quantile(0.99)),
            us(verb.hist.max()),
        );
        if let Some(server) = report.server_verbs.iter().find(|s| s.verb == verb.verb) {
            let _ = write!(
                row,
                ", \"server_requests\": {}, \"server_p99_us\": {:.1}",
                server.requests,
                us(server.p99_ns)
            );
        }
        if let Some(speedups) = speedups {
            if let Some((_, ratio)) = speedups
                .verbs
                .iter()
                .find(|(label, _)| *label == verb.verb.label())
            {
                let _ = write!(row, ", \"speedup\": {ratio:.1}");
            }
        }
        row.push('}');
        rows.push(row);
    }
    let mut total = format!(
        "    {{\"name\": \"total\", \"requests\": {}, \"wall_ms\": {:.1}, \"ops_per_sec\": {:.1}",
        report.requests,
        report.wall_ns as f64 / 1e6,
        report.ops_per_sec(),
    );
    if let Some(speedups) = speedups {
        let _ = write!(total, ", \"speedup\": {:.1}", speedups.total);
    }
    total.push('}');
    rows.push(total);
    let _ = writeln!(out, "{}", rows.join(",\n"));
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Per-verb and total cached-vs-uncached throughput ratios (`--bench`).
#[derive(Clone, Debug, Default)]
pub struct ServerSpeedups {
    /// `(verb label, uncached mean latency / cached mean latency)`.
    pub verbs: Vec<(&'static str, f64)>,
    /// Uncached wall time / cached wall time.
    pub total: f64,
}

/// The verbs whose cached/uncached latency ratio is a meaningful, gateable
/// signal.  Only `MODELS` takes a different code path on the two server
/// modes (incremental grounding vs from-scratch grounding, both
/// compute-dominated, so the ratio is machine-stable).  `ASSERT`, `QUERY`
/// and `RETRACT-TO` execute identical code on both servers — their ratio is
/// definitionally noise — and `LOAD` races: all sessions issue their one
/// `LOAD` simultaneously, so on a fresh server every one of them misses the
/// shared-base registry and builds (first-wins), making the cached mean
/// equal the uncached one by construction.
const GATED_VERBS: [Verb; 1] = [Verb::Models];

/// Computes speedups from per-round cached and uncached reports: per gated
/// verb the ratio of median mean-latencies, overall the ratio of median
/// walls.
pub fn speedups(cached: &[RunReport], uncached: &[RunReport]) -> ServerSpeedups {
    let verb_medians = |rounds: &[RunReport], verb: Verb| -> Option<f64> {
        let means: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.verb(verb))
            .filter(|v| v.hist.count() > 0)
            .map(|v| v.hist.mean())
            .collect();
        (means.len() == rounds.len()).then(|| median(means))
    };
    let mut verbs = Vec::new();
    for verb in GATED_VERBS {
        if let (Some(fast), Some(slow)) = (verb_medians(cached, verb), verb_medians(uncached, verb))
        {
            verbs.push((verb.label(), slow / fast.max(f64::MIN_POSITIVE)));
        }
    }
    let wall = |rounds: &[RunReport]| median(rounds.iter().map(|r| r.wall_ns as f64).collect());
    ServerSpeedups {
        verbs,
        total: wall(uncached) / wall(cached).max(f64::MIN_POSITIVE),
    }
}

/// The latency metric an SLO constrains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloMetric {
    /// Median latency.
    P50,
    /// 90th percentile.
    P90,
    /// 99th percentile.
    P99,
    /// Worst recorded latency.
    Max,
}

impl SloMetric {
    fn label(self) -> &'static str {
        match self {
            SloMetric::P50 => "p50",
            SloMetric::P90 => "p90",
            SloMetric::P99 => "p99",
            SloMetric::Max => "max",
        }
    }

    fn of(self, hist: &Histogram) -> u64 {
        match self {
            SloMetric::P50 => hist.quantile(0.50),
            SloMetric::P90 => hist.quantile(0.90),
            SloMetric::P99 => hist.quantile(0.99),
            SloMetric::Max => hist.max(),
        }
    }
}

/// One `--slo` rule: `[verb:]metric=duration` (e.g. `p99=5ms`,
/// `assert:p50=800us`).  Without a verb the rule applies to every verb the
/// run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct SloRule {
    /// Verb label the rule is scoped to, or `None` for all verbs.
    pub verb: Option<String>,
    /// Constrained metric.
    pub metric: SloMetric,
    /// Limit in nanoseconds.
    pub limit_ns: u64,
}

/// Parses a duration literal with a unit suffix (`ns`, `us`, `ms`, `s`).
fn parse_duration_ns(text: &str) -> Result<u64, String> {
    let (digits, scale) = if let Some(v) = text.strip_suffix("ns") {
        (v, 1.0)
    } else if let Some(v) = text.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = text.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = text.strip_suffix('s') {
        (v, 1e9)
    } else {
        return Err(format!("duration {text:?} needs a unit (ns|us|ms|s)"));
    };
    let value: f64 = digits
        .parse()
        .map_err(|_| format!("bad duration value {digits:?}"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!("bad duration value {digits:?}"));
    }
    Ok((value * scale) as u64)
}

impl SloRule {
    /// Parses one `--slo` argument.
    pub fn parse(text: &str) -> Result<SloRule, String> {
        let (verb, rest) = match text.split_once(':') {
            Some((verb, rest)) => (Some(verb.to_ascii_lowercase()), rest),
            None => (None, text),
        };
        if let Some(verb) = &verb {
            if !Verb::ALL.iter().any(|v| v.label() == verb) {
                return Err(format!(
                    "unknown SLO verb {verb:?} (expected one of load|assert|query|models|retract-to)"
                ));
            }
        }
        let Some((metric, duration)) = rest.split_once('=') else {
            return Err(format!("bad SLO {text:?}: expected [verb:]metric=duration"));
        };
        let metric = match metric.to_ascii_lowercase().as_str() {
            "p50" => SloMetric::P50,
            "p90" => SloMetric::P90,
            "p99" => SloMetric::P99,
            "max" => SloMetric::Max,
            other => return Err(format!("unknown SLO metric {other:?} (p50|p90|p99|max)")),
        };
        Ok(SloRule {
            verb,
            metric,
            limit_ns: parse_duration_ns(duration)?,
        })
    }

    /// The violations of this rule against a report, as human-readable
    /// lines (empty = satisfied).
    pub fn check(&self, report: &RunReport) -> Vec<String> {
        report
            .verbs
            .iter()
            .filter(|v| match &self.verb {
                Some(verb) => v.verb.label() == verb,
                None => true,
            })
            .filter_map(|v| {
                let observed = self.metric.of(&v.hist);
                (observed > self.limit_ns).then(|| {
                    format!(
                        "SLO VIOLATION {}: {} {:.1}us exceeds the {:.1}us limit",
                        v.verb.label(),
                        self.metric.label(),
                        us(observed),
                        us(self.limit_ns)
                    )
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(verb: Verb, samples: &[u64]) -> RunReport {
        let mut hist = Histogram::new();
        for &s in samples {
            hist.record(s);
        }
        RunReport {
            name: "t".into(),
            sessions: 1,
            wall_ns: 1_000_000,
            requests: samples.len() as u64,
            server_requests: Some(samples.len() as u64 + 1),
            verbs: vec![VerbReport { verb, hist }],
            server_verbs: Vec::new(),
        }
    }

    #[test]
    fn slo_rules_parse_and_reject() {
        assert_eq!(
            SloRule::parse("p99=5ms").unwrap(),
            SloRule {
                verb: None,
                metric: SloMetric::P99,
                limit_ns: 5_000_000
            }
        );
        assert_eq!(
            SloRule::parse("assert:p50=800us").unwrap().verb.as_deref(),
            Some("assert")
        );
        assert_eq!(SloRule::parse("max=2s").unwrap().limit_ns, 2_000_000_000);
        assert!(SloRule::parse("p98=5ms").is_err());
        assert!(SloRule::parse("frob:p99=5ms").is_err());
        assert!(SloRule::parse("p99=5").is_err());
        assert!(SloRule::parse("p99").is_err());
        assert!(SloRule::parse("p99=-1ms").is_err());
    }

    #[test]
    fn slo_violations_name_verb_metric_and_values() {
        let report = report_with(Verb::Assert, &[1_000, 2_000, 90_000_000]);
        let tight = SloRule::parse("p99=1ms").unwrap();
        let violations = tight.check(&report);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("assert"));
        assert!(violations[0].contains("p99"));
        assert!(SloRule::parse("max=1s").unwrap().check(&report).is_empty());
        // A verb-scoped rule for a verb that never ran is vacuously
        // satisfied.
        assert!(SloRule::parse("query:p50=1ns")
            .unwrap()
            .check(&report)
            .is_empty());
    }

    #[test]
    fn json_rows_carry_the_gate_fields_only_in_bench_mode() {
        let report = report_with(Verb::Assert, &[1_000, 2_000]);
        let plain = render_json(&report, "cmd", 42, None);
        assert!(plain.contains("\"name\": \"assert\""));
        assert!(plain.contains("\"name\": \"total\""));
        assert!(!plain.contains("speedup"));
        let speedups = ServerSpeedups {
            verbs: vec![("assert", 2.5)],
            total: 1.4,
        };
        let bench = render_json(&report, "cmd", 42, Some(&speedups));
        assert!(bench.contains("\"speedup\": 2.5"));
        assert!(bench.contains("\"speedup\": 1.4"));
    }

    #[test]
    fn json_rows_carry_server_observations_when_scraped() {
        let mut report = report_with(Verb::Assert, &[1_000, 2_000]);
        report.server_verbs = vec![ServerVerbReport {
            verb: Verb::Assert,
            requests: 2,
            p99_ns: 2_500,
        }];
        let json = render_json(&report, "cmd", 42, None);
        assert!(json.contains("\"server_requests\": 2, \"server_p99_us\": 2.5"));
        // A verb the server never observed carries no server fields.
        assert!(
            !render_json(&report_with(Verb::Query, &[1_000]), "cmd", 42, None)
                .contains("server_p99_us")
        );
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn speedups_compare_median_mean_latencies() {
        let fast: Vec<RunReport> = (0..3)
            .map(|i| report_with(Verb::Models, &[1_000 + i, 1_000]))
            .collect();
        let slow: Vec<RunReport> = (0..3)
            .map(|i| report_with(Verb::Models, &[3_000 + i, 3_000]))
            .collect();
        let speedups = speedups(&fast, &slow);
        assert_eq!(speedups.verbs.len(), 1);
        let (label, ratio) = speedups.verbs[0];
        assert_eq!(label, "models");
        assert!((ratio - 3.0).abs() < 0.01, "ratio was {ratio}");
        assert!((speedups.total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_gated_verbs_never_carry_speedup_rows() {
        // assert/query/retract-to run identical code on both server modes
        // and load races the registry: only MODELS ratios are gateable.
        let fast = vec![report_with(Verb::Assert, &[1_000])];
        let slow = vec![report_with(Verb::Assert, &[9_000])];
        assert!(speedups(&fast, &slow).verbs.is_empty());
    }
}
