//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! relic_benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
//! relic_benchmark compare A.json B.json
//! relic_benchmark check BENCHMARK.json
//! relic_benchmark manifest | describe
//! ```
//!
//! `run --workload NAME` measures one workload in this process and ends its
//! standard output with the one-line JSON result. Without `--workload`, `run`
//! starts itself once per workload (so peak memory and allocator state are
//! per workload), prints every metric, and writes a file `compare` reads.

mod alloc;
mod check;
mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use report::Row;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Cfg, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out FILE]
  compare A.json B.json
  check BENCHMARK.json
  manifest | describe";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => RunArgs::parse(&args[1..]).and_then(run),
        Some("compare") if args.len() == 3 => {
            compare::compare_files(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("check") if args.len() == 2 => check::check(Path::new(&args[1])),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("describe") if args.len() == 1 => {
            print!("{}", metrics::describe());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

impl RunArgs {
    fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut a = RunArgs {
            workload: None,
            seed: 11,
            seconds: None,
            trace: false,
            quick: false,
            out: None,
        };
        let mut it = args.iter().peekable();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or(format!("{flag} needs {what}\n{USAGE}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let w = value("a workload name")?;
                    if !WORKLOADS.iter().any(|(n, _)| *n == w) {
                        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                        return Err(format!("unknown workload {w:?}; one of {names:?}"));
                    }
                    a.workload = Some(w);
                }
                "--seed" => {
                    a.seed = value("a number")?
                        .parse()
                        .map_err(|_| "--seed needs a whole number".to_string())?;
                }
                "--seconds" => {
                    let s: f64 = value("a number")?
                        .parse()
                        .map_err(|_| "--seconds needs a number".to_string())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    a.seconds = Some(s);
                }
                "--trace" => {
                    // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                    a.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--quick" => a.quick = true,
                "--out" => a.out = Some(PathBuf::from(value("a file")?)),
                other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
            }
        }
        Ok(a)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            0.2
        } else {
            f64::from(metrics::RUN_SECONDS)
        })
    }
}

/// `benchmark/out`: under the current directory when that is a checkout
/// (the driver's case), else beside this crate's manifest.
fn out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

fn run(a: RunArgs) -> Result<ExitCode, String> {
    match a.workload.clone() {
        Some(w) => run_one(&w, &a),
        None => run_all(&a),
    }
}

/// One workload, in this process.
fn run_one(workload: &str, a: &RunArgs) -> Result<ExitCode, String> {
    let work_dir = out_dir().join(format!("work_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work_dir);
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let cfg = Cfg {
        seed: a.seed,
        seconds: a.seconds(),
        quick: a.quick,
        work_dir: work_dir.clone(),
    };
    let (correct, attempted, failed, rows) = if a.trace {
        let t = layers::traced_run(workload, &cfg, &out_dir());
        print!("{}", t.text);
        (t.correct, t.attempted, t.failed, t.rows)
    } else {
        let o = workloads::run(workload, &cfg, &mut trace::Tracer::off())
            .expect("workload name was checked");
        let rows = report::end_to_end_rows(&o);
        for n in &o.notes {
            println!("  note: {n}");
        }
        if let Some((p, v, n)) = o.pooled_tail() {
            println!(
                "  note: pooled latency p{p} = {} ns over n = {n} samples",
                report::short(v)
            );
        }
        (o.correct, o.attempted, o.failed, rows)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let title = format!(
        "{workload} (seed {}, {} s, {}{})",
        a.seed,
        cfg.seconds,
        if a.trace { "traced" } else { "untraced" },
        if a.quick { ", quick" } else { "" }
    );
    print!("{}", report::render_rows(&title, &rows));
    println!("  correct: {correct}   attempted: {attempted}   failed: {failed}");
    println!(
        "DETAIL {}",
        report::detail_json(correct, attempted, failed, &rows)
    );
    // The driver's line carries exactly the metrics BENCHMARK.json lists.
    let listed: Vec<Row> = rows
        .iter()
        .filter(|r| {
            if a.trace {
                metrics::PER_LAYER.iter().any(|m| m.name == r.name)
            } else {
                metrics::END_TO_END.iter().any(|m| m.name == r.name)
            }
        })
        .cloned()
        .collect();
    println!(
        "{}",
        report::contract_line(correct, attempted, failed, &listed)
    );
    Ok(ExitCode::SUCCESS)
}

/// Every workload, each in a child process of its own.
fn run_all(a: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut details = Vec::new();
    let mut all_correct = true;
    let start = std::time::Instant::now();
    for (name, _) in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", name, "--seed", &a.seed.to_string()]);
        cmd.args(["--seconds", &a.seconds().to_string()]);
        cmd.args(["--trace", if a.trace { "1" } else { "0" }]);
        if a.quick {
            cmd.arg("--quick");
        }
        let t = std::time::Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "{name} exited with {}:\n{stdout}{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let detail = stdout
            .lines()
            .find_map(|l| l.strip_prefix("DETAIL "))
            .ok_or(format!("{name} printed no DETAIL line"))?;
        for line in stdout
            .lines()
            .filter(|l| !l.starts_with("DETAIL ") && !l.starts_with('{'))
        {
            println!("{line}");
        }
        println!("  wall: {:.1} s\n", t.elapsed().as_secs_f64());
        let parsed = json::parse(detail).map_err(|e| format!("{name}: bad DETAIL line: {e}"))?;
        all_correct &= parsed.get("correct") == Some(&json::Json::Bool(true));
        details.push(format!("    \"{name}\": {detail}"));
    }
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let file = format!(
        "{{\n  \"schema\": \"relic-benchmark-v1\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"trace\": {},\n  \"quick\": {},\n  \"cpus\": {cpus},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        a.seed,
        a.seconds(),
        a.trace,
        a.quick,
        details.join(",\n")
    );
    let path = a.out.clone().unwrap_or_else(|| {
        out_dir().join(format!(
            "run_seed{}{}{}.json",
            a.seed,
            if a.trace { "_trace" } else { "" },
            if a.quick { "_quick" } else { "" }
        ))
    });
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} cpus, {:.1} s in all)",
        path.display(),
        cpus,
        start.elapsed().as_secs_f64()
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
