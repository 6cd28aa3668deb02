//! `check BENCHMARK.json`: a quick run of every workload, untraced and traced,
//! held against the manifest. Fails unless each run's result line names
//! exactly the metrics the manifest lists for it, each with the listed unit,
//! reports its outputs correct, and has no failed operation.

use crate::json::{self, Json};
use std::path::Path;
use std::process::{Command, ExitCode};

/// The `name` (and `unit`, where there is one) of each entry of a manifest
/// list.
fn entries(manifest: &Json, list: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Json::Arr(items)) = manifest.get(list) else {
        return Err(format!("the manifest has no `{list}` list"));
    };
    items
        .iter()
        .map(|item| {
            let name = item
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("a `{list}` entry has no name"))?;
            let unit = item.get("unit").and_then(Json::as_str).unwrap_or("");
            Ok((name.to_string(), unit.to_string()))
        })
        .collect()
}

/// What is wrong with one result line, if anything.
fn problems(line: &str, want: &[(String, String)]) -> Vec<String> {
    let result = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return vec![format!("the last line is not JSON ({e}): {line}")],
    };
    let mut out = Vec::new();
    if result.get("correct") != Some(&Json::Bool(true)) {
        out.push("outputs were not correct".to_string());
    }
    if result.get("failed").and_then(Json::as_f64) != Some(0.0) {
        out.push(format!("failed = {:?}", result.get("failed")));
    }
    if result
        .get("attempted")
        .and_then(Json::as_f64)
        .is_none_or(|n| n < 1.0)
    {
        out.push("attempted < 1".to_string());
    }
    let empty = Default::default();
    let got = result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or(&empty);
    for (name, unit) in want {
        match got.get(name) {
            None => out.push(format!("{name} is missing")),
            Some(m) => {
                if m.get("unit").and_then(Json::as_str) != Some(unit) {
                    out.push(format!("{name} has unit {:?}, not {unit:?}", m.get("unit")));
                }
                if m.get("value")
                    .and_then(Json::as_f64)
                    .is_none_or(|v| !v.is_finite())
                {
                    out.push(format!("{name} has no finite value"));
                }
            }
        }
    }
    // The parser refuses a key that appears twice, so present means once.
    for name in got.keys().filter(|k| !want.iter().any(|(n, _)| n == *k)) {
        out.push(format!("{name} is not in the manifest"));
    }
    out
}

pub fn check(manifest_path: &Path) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let manifest = json::parse(&text).map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let workloads = entries(&manifest, "workloads")?;
    let lists = [
        entries(&manifest, "end_to_end")?,
        entries(&manifest, "per_layer")?,
    ];
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut bad = 0;
    for (workload, _) in &workloads {
        for (trace, want) in lists.iter().enumerate() {
            let out = Command::new(&exe)
                .args(["run", "--quick", "--seed", "11", "--workload", workload])
                .args(["--trace", &trace.to_string()])
                .output()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut found = if out.status.success() {
                problems(stdout.lines().last().unwrap_or(""), want)
            } else {
                vec![format!(
                    "exited with {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )]
            };
            let verdict = if found.is_empty() { "ok" } else { "FAILED" };
            println!(
                "{workload:<16} trace {trace}: {} metrics  {verdict}",
                want.len()
            );
            for p in found.drain(..) {
                println!("    {p}");
                bad += 1;
            }
        }
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_result_line_is_held_to_the_manifest() {
        let want = vec![("ops_per_s".to_string(), "1/s".to_string())];
        let good = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"ops_per_s": {"value": 2.5, "unit": "1/s"}}}"#;
        assert!(problems(good, &want).is_empty());
        let cases = [
            (good.replace("true", "false"), "not correct"),
            (good.replace("\"failed\": 0", "\"failed\": 1"), "failed"),
            (good.replace("1/s\"}", "ns\"}"), "unit"),
            (good.replace("ops_per_s", "ops"), "missing"),
            (
                good.replace(
                    "{\"ops_per_s\"",
                    "{\"extra\": {\"value\": 1, \"unit\": \"s\"}, \"ops_per_s\"",
                ),
                "not in the manifest",
            ),
            ("{".to_string(), "not JSON"),
        ];
        for (line, complaint) in cases {
            let found = problems(&line, &want);
            assert!(
                found.iter().any(|p| p.contains(complaint)),
                "{line}: {found:?}"
            );
        }
    }
}
