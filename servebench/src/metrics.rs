//! Metric names, sample statistics, the reference kernel and the result
//! line.

use std::time::Instant;

/// The end-to-end metrics an untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ops_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("server_cpu_ms_per_op", "ms"),
    ("server_peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics a traced run prints, with their units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("transport.overhead_us_mean", "us"),
    ("transport.connect_us_p50", "us"),
    ("transport.poll_cycles_per_op", "count/op"),
    ("transport.exec_batches_per_op", "count/op"),
    ("session.exec_us_p50.load", "us"),
    ("session.exec_us_p50.assert", "us"),
    ("session.exec_us_p50.query", "us"),
    ("session.exec_us_p50.models", "us"),
    ("session.exec_us_p50.retract", "us"),
    ("session.self_us_mean.load", "us"),
    ("session.self_us_mean.assert", "us"),
    ("session.self_us_mean.query", "us"),
    ("session.self_us_mean.models", "us"),
    ("session.self_us_mean.retract", "us"),
    ("registry.miss_share", "ratio"),
    ("registry.hit_load_us_p50", "us"),
    ("registry.entries", "count"),
    ("registry.base_atoms_total", "count"),
    ("parser.load_us_per_kb", "us/KiB"),
    ("parser.assert_us_p50", "us"),
    ("parser.query_us_p50", "us"),
    ("classes.classify_us_p50", "us"),
    ("chase.assert_us_p50", "us"),
    ("chase.assert_us_p99", "us"),
    ("chase.retract_us_p50", "us"),
    ("chase.fork_us_p50", "us"),
    ("chase.build_ms_p50", "ms"),
    ("chase.rounds_per_assert", "count/op"),
    ("chase.triggers_per_assert", "count/op"),
    ("chase.memo_hit_ratio", "ratio"),
    ("query.answers_us_p50", "us"),
    ("sms.ensure_us_p50", "us"),
    ("sms.ensure_us_p99", "us"),
    ("sms.rebuild_share", "ratio"),
    ("sms.domain_growth_share", "ratio"),
    ("sms.closure_advances_per_models", "count/op"),
    ("cegar.search_us_p50", "us"),
    ("cegar.search_us_p99", "us"),
    ("cegar.iterations_per_models", "count/op"),
    ("pool.batches_per_op", "count/op"),
    ("pool.items_per_batch", "count"),
    ("trace.overhead_share", "ratio"),
    ("machine.ref_kernel_ms", "ms"),
];

/// One measured value.
pub struct Metric {
    /// The metric's name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The `q`-quantile of a sample by linear interpolation between closest
/// ranks; 0 for an empty sample.
pub fn quantile(sample: &[f64], q: f64) -> f64 {
    let mut sorted = sample.to_vec();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The median of a sample.
pub fn median(sample: &[f64]) -> f64 {
    quantile(sample, 0.5)
}

/// Nanosecond samples scaled to a unit (`1e3` for µs, `1e6` for ms).
pub fn scaled(ns: &[u64], per_unit: f64) -> Vec<f64> {
    ns.iter().map(|&ns| ns as f64 / per_unit).collect()
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A fixed std-only kernel (sort a pseudo-random vector, then sum a
/// strided walk over it), in milliseconds.  Timed before and after each
/// run, it shows how fast the machine was; it is never used to scale a
/// metric.
pub fn ref_kernel_ms() -> f64 {
    let started = Instant::now();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut values: Vec<u64> = (0..200_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        })
        .collect();
    values.sort_unstable();
    let mut sum = 0u64;
    let mut index = 0usize;
    for _ in 0..values.len() {
        index = (index + 7919) % values.len();
        sum = sum.wrapping_add(values[index]);
    }
    std::hint::black_box(sum);
    started.elapsed().as_secs_f64() * 1000.0
}

/// Renders the result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, each metric with its unit.
pub fn render_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    units: &[(&str, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            let unit = units
                .iter()
                .find(|(name, _)| *name == metric.name)
                .map_or("", |&(_, unit)| unit);
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                metric.name
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        }
        let mut names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
    }

    /// The `"name"` values of one array of `BENCHMARK.json`.
    fn benchmark_names(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let array = &text[start..];
        let array = &array[..array.find(']').expect("array closes")];
        array
            .split('{')
            .skip(1)
            .map(|object| {
                let field = |field: &str| {
                    let at = object.find(&format!("\"{field}\"")).expect("field present");
                    let rest = &object[at + field.len() + 2..];
                    let open = rest.find('"').expect("string value") + 1;
                    let close = open + rest[open..].find('"').expect("string closes");
                    rest[open..close].to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_sets_match_benchmark_json() {
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(name, unit)| (name.to_owned(), unit.to_owned()))
                .collect()
        };
        assert_eq!(benchmark_names("end_to_end"), owned(&END_TO_END));
        assert_eq!(benchmark_names("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&scaled(&[4000, 1000, 2000, 3000], 1e3)), 2.5);
        assert!((quantile(&[0.0, 10.0], 0.99) - 9.9).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = render_result(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.25,
            }],
            &END_TO_END,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
