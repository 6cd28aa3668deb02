//! `compare A.json B.json`: judges run file B against run file A, one row per
//! workload and end-to-end metric.
//!
//! A metric is **worse** (or **better**) when its median moved against (or
//! with) its direction by more than the bound fixed in `metrics.rs`. When the
//! two medians are themselves uncertain by more than the bound — twice the
//! standard error of a median, from the recorded MAD and sample count — and
//! the move is inside that uncertainty, the row is **unresolved**, not
//! unchanged. Per-layer metrics have no bound: their rows show the ratio only.

use crate::json::{self, Json};
use crate::metrics::{self, Better};
use crate::report::{rows_from_detail, short, Row};
use crate::stats::Summary;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// How far off a median of `n` samples with this MAD may be, as a share of
/// the median: two standard errors, taking 1.4826 MAD for the deviation and
/// 1.2533 sigma / sqrt(n) for the median's standard error.
pub fn uncertainty(s: &Summary) -> f64 {
    if s.value == 0.0 || s.n < 2 {
        return 0.0;
    }
    2.0 * 1.2533 * 1.4826 * s.mad / (s.n as f64).sqrt() / s.value.abs()
}

/// By how much `new` is worse than `base`, as a share of `base`; negative
/// when it is better.
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == 0.0 {
            0.0
        } else {
            f64::INFINITY * (new - base).signum()
        };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

pub fn judge(better: Better, bound: f64, base: &Summary, new: &Summary) -> Verdict {
    let w = worsening(better, base.value, new.value);
    let noise = uncertainty(base).max(uncertainty(new));
    if noise > bound && w.abs() <= noise {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if v.get("schema").and_then(Json::as_str) != Some("relic-benchmark-v1") {
        return Err(format!("{} is not a file written by `run`", path.display()));
    }
    Ok(v)
}

pub fn compare_files(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (ja, jb) = (load(a)?, load(b)?);
    for key in ["trace", "quick"] {
        if ja.get(key) != jb.get(key) {
            return Err(format!(
                "the two files differ in `{key}`: they are not comparable"
            ));
        }
    }
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let (wa, wb) = (workloads(&ja), workloads(&jb));
    println!(
        "base {} (seed {})   new {} (seed {})",
        a.display(),
        ja.get("seed").and_then(Json::as_f64).unwrap_or(-1.0),
        b.display(),
        jb.get("seed").and_then(Json::as_f64).unwrap_or(-1.0)
    );
    println!(
        "{:<16} {:<30} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "noise", "bound"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    for (name, _) in crate::workloads::WORKLOADS {
        let (Some(da), Some(db)) = (wa.get(name), wb.get(name)) else {
            return Err(format!("workload {name} is missing from one of the files"));
        };
        let mut rows_a = rows_from_detail(da);
        crate::report::sort_like_manifest(&mut rows_a);
        let rows_b: Vec<Row> = rows_from_detail(db);
        for ra in &rows_a {
            let Some(rb) = rows_b.iter().find(|r| r.name == ra.name) else {
                return Err(format!(
                    "{name}: {} is missing from {}",
                    ra.name,
                    b.display()
                ));
            };
            let ratio = if ra.stat.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:.3}", rb.stat.value / ra.stat.value)
            };
            let noise = uncertainty(&ra.stat).max(uncertainty(&rb.stat));
            let (bound, verdict) = match metrics::end_to_end(&ra.name) {
                Some(m) => {
                    let v = judge(m.better, m.bound, &ra.stat, &rb.stat);
                    worse += usize::from(v == Verdict::Worse);
                    unresolved += usize::from(v == Verdict::Unresolved);
                    (format!("{:.0}%", m.bound * 100.0), v.as_str())
                }
                None => ("-".to_string(), ""),
            };
            println!(
                "{name:<16} {:<30} {:>14} {:>14} {:>8} {:>7.1}% {:>7}  {verdict}",
                ra.name,
                short(ra.stat.value),
                short(rb.stat.value),
                ratio,
                noise * 100.0,
                bound
            );
        }
        if db.get("correct") != Some(&Json::Bool(true)) {
            println!("{name:<16} outputs were NOT correct in {}", b.display());
            worse += 1;
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, mad: f64, n: usize) -> Summary {
        Summary {
            value,
            min: value - 3.0 * mad,
            max: value + 3.0 * mad,
            mad,
            n,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(Better::Lower, 100.0, 120.0) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert!(worsening(Better::Lower, 0.0, 0.1) > 1e9);
    }

    #[test]
    fn verdicts() {
        let quiet = |m| s(m, 0.5, 16);
        assert_eq!(
            judge(Better::Lower, 0.10, &quiet(100.0), &quiet(105.0)),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &quiet(100.0), &quiet(115.0)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.10, &quiet(100.0), &quiet(85.0)),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Higher, 0.10, &quiet(100.0), &quiet(85.0)),
            Verdict::Worse
        );
        // A median this uncertain cannot resolve a 10 % bound...
        let noisy = |m| s(m, 20.0, 4);
        assert!(uncertainty(&noisy(100.0)) > 0.10);
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy(100.0), &noisy(108.0)),
            Verdict::Unresolved
        );
        // ...but a move larger than the uncertainty itself is still called.
        assert_eq!(
            judge(Better::Lower, 0.10, &noisy(100.0), &noisy(300.0)),
            Verdict::Worse
        );
        // fail_ratio: bound 0, any rise is worse.
        assert_eq!(
            judge(Better::Lower, 0.0, &s(0.0, 0.0, 1), &s(0.001, 0.0, 1)),
            Verdict::Worse
        );
        assert_eq!(
            judge(Better::Lower, 0.0, &s(0.0, 0.0, 1), &s(0.0, 0.0, 1)),
            Verdict::WithinBound
        );
    }
}
