//! `shell_script`: a fixed 9-statement script through `Session::eval`, on
//! memory relations made with plain `create relation` and `load`ed from TSV.
//!
//! One pass = the `flows join addrs` aggregate, a range select, `count(*)`,
//! four point selects, one insert and one remove of the same fresh key.
//! Literals are drawn per pass, and every second pass replays the one before
//! verbatim, so half the statement texts repeat and half are new text of a
//! known shape. A repeat is 16 passes: `lat_p99_ns` is the slowest position of
//! the latency profile, and a short repeat buys each position four times the
//! samples a 64-pass repeat would (about 70 in fifteen seconds, not 18),
//! which is what keeps a busy neighbour out of it. The hand-written arm runs
//! the same passes over a `HashMap<i64, BTreeMap<i64, (i64, i64)>>` and must
//! print the same bytes.

use super::{peak_rss_mb, repeat_for, timed_setups, Cfg, Mini, Outcome, Repeat};
use crate::gen::{packet_trace, Flow, Rng, StreamHash};
use crate::stats;
use crate::trace::{Tracer, NONE};
use relic_shell::{Outcome as Evaluated, Session};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const LOCALS: usize = 64;
pub const REMOTES: usize = 512;
pub const STATEMENTS: usize = 9;
const RANGE_ROWS: i64 = 32;
/// Remotes from here up are free: the inserts take them.
const FRESH_REMOTE: i64 = 10_000;

pub const CREATE_FLOWS: &str =
    "create relation flows(local:16, remote:16, bytes, pkts) fd local, remote -> bytes, pkts";
pub const CREATE_ADDRS: &str =
    "create relation addrs(local:16, owner, tier:8) fd local -> owner, tier";

/// `(packets accounted into the flow table, passes per repeat)`.
fn sizes(cfg: &Cfg) -> (usize, usize) {
    (cfg.size(200_000, 2_000), cfg.size(16, 4))
}

/// One statement of the script, as the generator knows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    JoinAgg {
        tier: i64,
    },
    Range {
        local: i64,
        lo: i64,
        hi: i64,
    },
    Count,
    Point {
        local: i64,
        remote: i64,
    },
    Insert {
        local: i64,
        remote: i64,
        bytes: i64,
        pkts: i64,
    },
    Remove {
        local: i64,
        remote: i64,
    },
}

impl Stmt {
    /// The line a shell user types.
    pub fn text(&self) -> String {
        match *self {
            Stmt::JoinAgg { tier } => {
                format!("select count(*), sum(bytes), max(pkts) from flows join addrs where tier = {tier}")
            }
            Stmt::Range { local, lo, hi } => {
                format!("select remote, bytes from flows where local = {local}, remote between {lo} and {hi}")
            }
            Stmt::Count => "select count(*) from flows".to_string(),
            Stmt::Point { local, remote } => {
                format!("select bytes, pkts from flows where local = {local}, remote = {remote}")
            }
            Stmt::Insert {
                local,
                remote,
                bytes,
                pkts,
            } => format!(
                "insert flows local = {local}, remote = {remote}, bytes = {bytes}, pkts = {pkts}"
            ),
            Stmt::Remove { local, remote } => {
                format!("remove flows where local = {local}, remote = {remote}")
            }
        }
    }

    fn span(&self) -> &'static str {
        match self {
            Stmt::JoinAgg { .. } => "eval_join_agg",
            Stmt::Range { .. } => "eval_range",
            Stmt::Count => "eval_count",
            Stmt::Point { .. } => "eval_point",
            Stmt::Insert { .. } => "eval_insert",
            Stmt::Remove { .. } => "eval_remove",
        }
    }
}

/// One pass of the script: the statements and their texts.
pub struct Pass {
    pub stmts: [Stmt; STATEMENTS],
    pub lines: [String; STATEMENTS],
}

/// The generated inputs: the flow table, the address table as
/// `(local, owner, tier)`, both as TSV files, and the script passes.
pub struct Input {
    pub flows: Vec<Flow>,
    pub addrs: Vec<(i64, String, i64)>,
    pub flows_path: PathBuf,
    pub addrs_path: PathBuf,
    pub passes: Vec<Pass>,
}

pub fn generate(dir: &Path, packets: usize, passes: usize, seed: u64) -> Input {
    let mut table: BTreeMap<(i64, i64), (i64, i64)> = BTreeMap::new();
    for (l, r, len) in packet_trace(packets, LOCALS, REMOTES, seed) {
        let e = table.entry((l, r)).or_insert((0, 0));
        e.0 += len;
        e.1 += 1;
    }
    let flows: Vec<Flow> = table
        .iter()
        .map(|(&(l, r), &(b, p))| (l, r, b, p))
        .collect();
    let addrs: Vec<(i64, String, i64)> = (0..LOCALS as i64)
        .map(|h| (h, format!("team-{}", h % 4), h % 3))
        .collect();

    let mut tsv = String::from("local\tremote\tbytes\tpkts\n");
    for (l, r, b, p) in &flows {
        tsv.push_str(&format!("{l}\t{r}\t{b}\t{p}\n"));
    }
    let flows_path = dir.join("flows.tsv");
    std::fs::write(&flows_path, tsv).expect("write flows.tsv");
    let mut tsv = String::from("local\towner\ttier\n");
    for (l, owner, tier) in &addrs {
        tsv.push_str(&format!("{l}\t{owner}\t{tier}\n"));
    }
    let addrs_path = dir.join("addrs.tsv");
    std::fs::write(&addrs_path, tsv).expect("write addrs.tsv");

    let passes = (0..passes)
        .map(|i| {
            // Passes 2k and 2k+1 share their literals.
            let mut rng = Rng::new(seed ^ 0x5C_21_97 ^ ((i as u64 / 2) << 20));
            let mut existing = || {
                let (l, r, _, _) = flows[rng.below(flows.len() as u64) as usize];
                (l, r)
            };
            let points = [existing(), existing(), existing(), existing()];
            let (local, r) = existing();
            let lo = r.min(REMOTES as i64 - RANGE_ROWS);
            let fresh = FRESH_REMOTE + (i as i64 / 2);
            let point = |(local, remote): (i64, i64)| Stmt::Point { local, remote };
            let stmts = [
                // The tiers take turns, so every seed's script holds each of
                // the three join sizes as often as any other seed's.
                Stmt::JoinAgg {
                    tier: (i as i64 / 2) % 3,
                },
                Stmt::Range {
                    local,
                    lo,
                    hi: lo + RANGE_ROWS - 1,
                },
                Stmt::Count,
                point(points[0]),
                point(points[1]),
                point(points[2]),
                point(points[3]),
                Stmt::Insert {
                    local,
                    remote: fresh,
                    bytes: 40 + rng.below(1461) as i64,
                    pkts: 1 + rng.below(9) as i64,
                },
                Stmt::Remove {
                    local,
                    remote: fresh,
                },
            ];
            Pass {
                stmts,
                lines: stmts.map(|st| st.text()),
            }
        })
        .collect();
    Input {
        flows,
        addrs,
        flows_path,
        addrs_path,
        passes,
    }
}

/// What one statement printed, folded to a word.
fn digest(text: &str) -> u64 {
    let mut h = StreamHash::default();
    h.push_str(text);
    h.finish()
}

/// Evaluates one line; a diagnostic digests to 0, which no output does.
fn eval(session: &mut Session, line: &str) -> u64 {
    match session.eval(line) {
        Ok(Evaluated::Text(t)) => digest(&t),
        Ok(Evaluated::Quit) | Err(_) => 0,
    }
}

pub fn setup(input: &Input) -> Session {
    let mut s = Session::new();
    for line in [
        CREATE_FLOWS.to_string(),
        CREATE_ADDRS.to_string(),
        format!("load flows from \"{}\"", input.flows_path.display()),
        format!("load addrs from \"{}\"", input.addrs_path.display()),
    ] {
        if let Err(d) = s.eval(&line) {
            panic!("set-up line failed:\n{}", d.render(&line));
        }
    }
    // Warm-up: the first pass, which leaves the relations as it found them.
    for line in &input.passes[0].lines {
        eval(&mut s, line);
    }
    s
}

/// One repeat: every pass once. Returns the per-statement digests.
pub fn pass(session: &mut Session, passes: &[Pass], tr: &mut Tracer) -> (Repeat, Vec<u64>) {
    let mut rep = Repeat {
        ops: (passes.len() * STATEMENTS) as u64,
        lat_ns: Vec::with_capacity(passes.len()),
        lat_tile: 1.0,
        ..Repeat::default()
    };
    let mut digests = Vec::with_capacity(passes.len() * STATEMENTS);
    let start = Instant::now();
    for (i, p) in passes.iter().enumerate() {
        let t = Instant::now();
        let root = tr.begin("shell", "pass", i as u32, NONE);
        for (line, stmt) in p.lines.iter().zip(&p.stmts) {
            digests.push(tr.leaf("shell", stmt.span(), i as u32, root, || {
                (eval(session, line), 1)
            }));
        }
        tr.end(root, STATEMENTS as u32);
        rep.lat_ns.push(t.elapsed().as_nanos() as f64);
    }
    rep.wall_ns = start.elapsed().as_nanos() as u64;
    (rep, digests)
}

/// The hand-written arm: the same statements executed over plain
/// collections and printed in the shell's format.
pub struct Hand {
    flows: HashMap<i64, BTreeMap<i64, (i64, i64)>>,
    tier: HashMap<i64, i64>,
    rows: usize,
}

impl Hand {
    pub fn build(input: &Input) -> Hand {
        let mut flows: HashMap<i64, BTreeMap<i64, (i64, i64)>> = HashMap::new();
        for &(l, r, b, p) in &input.flows {
            flows.entry(l).or_default().insert(r, (b, p));
        }
        Hand {
            flows,
            tier: input.addrs.iter().map(|(l, _, t)| (*l, *t)).collect(),
            rows: input.flows.len(),
        }
    }

    fn statement(&mut self, stmt: Stmt) -> String {
        match stmt {
            Stmt::JoinAgg { tier } => {
                let (mut count, mut sum, mut max) = (0u64, 0i64, None::<i64>);
                for (l, inner) in &self.flows {
                    if self.tier.get(l) == Some(&tier) {
                        for &(b, p) in inner.values() {
                            count += 1;
                            sum += b;
                            max = Some(max.map_or(p, |m| m.max(p)));
                        }
                    }
                }
                let max = max.map_or("-".to_string(), |m| m.to_string());
                format!("count(*)\tsum(bytes)\tmax(pkts)\n{count}\t{sum}\t{max}")
            }
            Stmt::Range { local, lo, hi } => {
                let mut out = String::from("remote\tbytes");
                let mut n = 0;
                if let Some(inner) = self.flows.get(&local) {
                    for (r, (b, _)) in inner.range(lo..=hi) {
                        out.push_str(&format!("\n{r}\t{b}"));
                        n += 1;
                    }
                }
                out.push_str(&format!("\n({n} rows)"));
                out
            }
            Stmt::Count => format!("count(*)\n{}", self.rows),
            Stmt::Point { local, remote } => {
                match self.flows.get(&local).and_then(|m| m.get(&remote)) {
                    Some((b, p)) => format!("bytes\tpkts\n{b}\t{p}\n(1 rows)"),
                    None => "bytes\tpkts\n(0 rows)".to_string(),
                }
            }
            Stmt::Insert {
                local,
                remote,
                bytes,
                pkts,
            } => {
                let fresh = self
                    .flows
                    .entry(local)
                    .or_default()
                    .insert(remote, (bytes, pkts))
                    .is_none();
                self.rows += usize::from(fresh);
                if fresh {
                    "inserted 1 into flows".to_string()
                } else {
                    "inserted 0 into flows (duplicate)".to_string()
                }
            }
            Stmt::Remove { local, remote } => {
                let gone = self
                    .flows
                    .get_mut(&local)
                    .and_then(|m| m.remove(&remote))
                    .is_some();
                self.rows -= usize::from(gone);
                format!("removed {} from flows", usize::from(gone))
            }
        }
    }

    /// One repeat: wall time and per-statement digests.
    pub fn pass(&mut self, passes: &[Pass]) -> (u64, Vec<u64>) {
        let mut digests = Vec::with_capacity(passes.len() * STATEMENTS);
        let start = Instant::now();
        for p in passes {
            for &stmt in &p.stmts {
                digests.push(digest(&self.statement(stmt)));
            }
        }
        (start.elapsed().as_nanos() as u64, digests)
    }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Outcome {
    let (packets, n_passes) = sizes(cfg);
    let input = generate(&cfg.work_dir, packets, n_passes, cfg.seed);
    let mut out = Outcome::default();

    let (mut session, setup_s) = timed_setups(cfg, 5, || setup(&input));
    out.setup_s = setup_s;

    let mut got: Vec<Vec<u64>> = Vec::new();
    out.repeats = repeat_for(cfg.seconds, |_| {
        let (rep, digests) = pass(&mut session, &input.passes, tr);
        if got.last() != Some(&digests) {
            got.push(digests);
        }
        rep
    });
    out.peak_rss_mb = peak_rss_mb();
    drop(session);

    let mut hand = Hand::build(&input);
    let (_, want) = hand.pass(&input.passes);

    let wrong: usize = got
        .iter()
        .map(|d| d.iter().zip(&want).filter(|(a, b)| a != b).count() + d.len().abs_diff(want.len()))
        .sum();
    out.attempted = out.repeats.iter().map(|r| r.ops).sum();
    out.failed = wrong as u64;
    out.correct = wrong == 0 && got.len() == 1;

    let (hand_wall, repeats) = out.versus_hand(cfg.seconds, || hand.pass(&input.passes).0);
    out.notes.push(format!(
        "{} flow rows, {n_passes} passes of {STATEMENTS} statements per repeat; hand-written arm {:.0} ns/pass over {repeats} repeats",
        input.flows.len(),
        hand_wall / n_passes as f64,
    ));
    out
}

/// A small pass for the traced run; `aux` is the hand-written arm's ns per
/// script pass.
pub fn mini(cfg: &Cfg, tr: &mut Tracer) -> Mini {
    let (packets, _) = sizes(cfg);
    let input = generate(&cfg.work_dir, packets, cfg.size(16, 2), cfg.seed);
    let mut session = setup(&input);
    let (rep, got) = pass(&mut session, &input.passes, tr);
    let mut hand = Hand::build(&input);
    let (_, want) = hand.pass(&input.passes);
    let mut walls: Vec<f64> = (0..9).map(|_| hand.pass(&input.passes).0 as f64).collect();
    Mini {
        rep,
        failed: got.iter().zip(&want).filter(|(a, b)| a != b).count() as u64,
        hand_ns_per_op: stats::median(&mut walls) / input.passes.len() as f64,
    }
}
