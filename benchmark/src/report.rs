//! Turning results into text: the table a person reads, the one-line JSON
//! the driver reads, and the per-workload object `run` files are made of.

use crate::json::{escape, Json};
use crate::metrics::{self, END_TO_END};
use crate::stats::Summary;
use crate::workloads::Outcome;

/// One named value with its unit and the spread it was measured with.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub stat: Summary,
}

impl Row {
    pub fn new(name: &str, unit: &str, stat: Summary) -> Row {
        Row {
            name: name.to_string(),
            unit: unit.to_string(),
            stat,
        }
    }
}

/// A workload's result as rows: the five universal end-to-end metrics in
/// `BENCHMARK.json` order, then the ones only this workload has.
pub fn end_to_end_rows(o: &Outcome) -> Vec<Row> {
    let mut rows: Vec<Row> = END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "ops_per_s" => o.ops_per_s(),
                "lat_p50_ns" => o.lat_percentile(50.0),
                "lat_p99_ns" => o.lat_percentile(99.0),
                "peak_rss_mb" => Summary::single(o.peak_rss_mb),
                "setup_s" => Summary::fast(&o.setup_s, false),
                other => unreachable!("no rule for end-to-end metric {other}"),
            };
            Row::new(m.name, m.unit, value)
        })
        .collect();
    rows.extend(o.extras.iter().cloned());
    rows.push(Row::new(
        "fail_ratio",
        "ratio",
        Summary::single(o.failed as f64 / o.attempted.max(1) as f64),
    ));
    rows
}

pub fn render_rows(title: &str, rows: &[Row]) -> String {
    let mut out = format!(
        "{title}\n  {:<34} {:>16} {:<6} {:>16} {:>16} {:>5}\n",
        "metric", "value", "unit", "min", "max", "n"
    );
    for r in rows {
        out.push_str(&format!(
            "  {:<34} {:>16} {:<6} {:>16} {:>16} {:>5}\n",
            r.name,
            short(r.stat.value),
            r.unit,
            short(r.stat.min),
            short(r.stat.max),
            r.stat.n
        ));
    }
    out
}

/// Four significant digits: enough to read, not enough to mistake for the
/// recorded value.
pub fn short(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let digits = (3 - x.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{x:.digits$}")
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
pub fn contract_line(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&r.name),
                r.stat.value,
                escape(&r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The per-workload object of a `run` file: like the contract line, plus
/// each metric's spread.
pub fn detail_json(correct: bool, attempted: u64, failed: u64, rows: &[Row]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|r| {
            let v = r.stat;
            format!(
                "\"{}\": {{\"value\": {}, \"min\": {}, \"max\": {}, \"mad\": {}, \"n\": {}, \"unit\": \"{}\"}}",
                escape(&r.name),
                v.value,
                v.min,
                v.max,
                v.mad,
                v.n,
                escape(&r.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Reads the rows back out of a [`detail_json`] object.
pub fn rows_from_detail(detail: &Json) -> Vec<Row> {
    let Some(metrics) = detail.get("metrics").and_then(Json::as_obj) else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|(name, m)| {
            let f = |k: &str| m.get(k).and_then(Json::as_f64);
            Some(Row {
                name: name.clone(),
                unit: m.get("unit")?.as_str()?.to_string(),
                stat: Summary {
                    value: f("value")?,
                    min: f("min")?,
                    max: f("max")?,
                    mad: f("mad")?,
                    n: f("n")? as usize,
                },
            })
        })
        .collect()
}

/// Orders rows the way `BENCHMARK.json` lists them (anything else after, by
/// name), so tables read the same from run to run.
pub fn sort_like_manifest(rows: &mut [Row]) {
    let rank = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(metrics::SOME_WORKLOADS.iter().map(|m| m.name))
            .chain(metrics::PER_LAYER.iter().map(|m| m.name))
            .position(|n| n == name)
            .unwrap_or(usize::MAX)
    };
    rows.sort_by(|a, b| {
        rank(&a.name)
            .cmp(&rank(&b.name))
            .then_with(|| a.name.cmp(&b.name))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_all_digits() {
        let rows = [Row::new(
            "lat_p50_ns",
            "ns",
            Summary::single(1_234.567_891_234),
        )];
        let v = json::parse(&contract_line(true, 10, 0, &rows)).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("lat_p50_ns").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1_234.567_891_234));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ns"));
    }

    #[test]
    fn detail_round_trips() {
        let rows = [Row::new("ops_per_s", "1/s", Summary::of(&[3.0, 1.0, 2.0]))];
        let v = json::parse(&detail_json(true, 3, 0, &rows)).unwrap();
        let back = rows_from_detail(&v);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].stat, rows[0].stat);
        assert_eq!(back[0].unit, "1/s");
    }

    #[test]
    fn short_keeps_four_significant_digits() {
        assert_eq!(short(123_456.7), "123457");
        assert_eq!(short(1.234_56), "1.235");
        assert_eq!(short(0.001_234_56), "0.001235");
        assert_eq!(short(0.0), "0");
    }
}
