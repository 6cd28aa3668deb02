//! Differential join test: whatever strategy the compiler picks per leg —
//! index nested-loop probe, or one sweep against the materialized prefix
//! with a semi-join filter — the shell must print exactly what a
//! brute-force natural join computed here prints.
//!
//! Four small relations share columns pairwise: `a ⋈ b` on two columns
//! (an integer and a string, many-to-many), `b ⋈ c` on one integer,
//! `d ⋈ a` on the string alone, `a ⋈ c` on nothing (a cross product).
//! Every case draws fresh data (sometimes an empty relation, so both an
//! empty build side and an empty swept leg occur), and per relation a
//! layout — the flat hash a plain `create relation` picks (joins sweep it)
//! or a two-level `using` decomposition keyed on its join columns (joins
//! probe it) — and a backend, memory or durable. Every query runs in both
//! syntactic orders.

use relic_shell::{Outcome, Session};
use relic_spec::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// xorshift64*: the cases must repeat exactly.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % n
    }
}

struct Rel {
    name: &'static str,
    cols: &'static [&'static str],
    /// How many leading columns key the first level of the `using` layout.
    keyed: usize,
}

const RELS: [Rel; 4] = [
    Rel {
        name: "a",
        cols: &["k", "s", "x"],
        keyed: 2,
    },
    Rel {
        name: "b",
        cols: &["k", "s", "y"],
        keyed: 2,
    },
    Rel {
        name: "c",
        cols: &["y", "z"],
        keyed: 1,
    },
    Rel {
        name: "d",
        cols: &["s", "w"],
        keyed: 1,
    },
];

type Row = BTreeMap<&'static str, Value>;
type Data = BTreeMap<&'static str, BTreeSet<Row>>;

fn draw(rng: &mut Rng, col: &str) -> Value {
    match col {
        "k" => Value::from(rng.below(3) as i64),
        "s" => Value::from(["p", "q", "r"][rng.below(3) as usize]),
        _ => Value::from(rng.below(4) as i64),
    }
}

/// `{key} -[htable]-> ({rest} -[htable]-> unit {})` in let-notation.
fn two_level(rel: &Rel) -> String {
    let all = rel.cols.join(",");
    let (key, rest) = rel.cols.split_at(rel.keyed);
    let (key, rest) = (key.join(","), rest.join(","));
    format!(
        "let u : {{{all}}} . {{}} = unit {{}} in \
         let m : {{{key}}} . {{{rest}}} = {{{rest}}} -[htable]-> u in \
         let r : {{}} . {{{all}}} = {{{key}}} -[htable]-> m in r"
    )
}

fn eval(s: &mut Session, line: &str) -> String {
    match s.eval(line) {
        Ok(Outcome::Text(t)) => t,
        Ok(Outcome::Quit) => panic!("{line:?} quit"),
        Err(d) => panic!("{}", d.render(line)),
    }
}

/// Builds a session holding `data`; `layout(i)` says whether relation `i` is
/// `(indexed, durable)`.
fn session(dir: &Path, data: &Data, layout: impl Fn(usize) -> (bool, bool)) -> Session {
    let mut s = Session::new();
    for (i, rel) in RELS.iter().enumerate() {
        let (indexed, durable) = layout(i);
        let mut line = format!("create relation {}({})", rel.name, rel.cols.join(", "));
        if durable {
            line.push_str(&format!(" at \"{}\"", dir.join(rel.name).display()));
        }
        if indexed {
            line.push_str(&format!(" using {}", two_level(rel)));
        }
        eval(&mut s, &line);
        for row in &data[rel.name] {
            let cells: Vec<String> = rel
                .cols
                .iter()
                .map(|c| format!("{c} = {}", row[c]))
                .collect();
            eval(&mut s, &format!("insert {} {}", rel.name, cells.join(", ")));
        }
    }
    s
}

enum Items {
    All,
    Cols(&'static [&'static str]),
    /// `(fold, column)`; `count` takes `*`.
    Aggs(&'static [(&'static str, &'static str)]),
}

struct Query {
    items: Items,
    rels: &'static [&'static str],
    /// `(column, operator, literal)`.
    preds: &'static [(&'static str, &'static str, &'static str)],
}

const QUERIES: &[Query] = &[
    // Two join columns, one a string, many-to-many.
    Query {
        items: Items::All,
        rels: &["a", "b"],
        preds: &[],
    },
    // User predicates on a join column: an equality, then a range.
    Query {
        items: Items::Cols(&["k", "x", "y"]),
        rels: &["a", "b"],
        preds: &[("k", "=", "1")],
    },
    Query {
        items: Items::All,
        rels: &["a", "b"],
        preds: &[("k", ">=", "1"), ("x", "<", "3")],
    },
    Query {
        items: Items::Cols(&["s", "y"]),
        rels: &["b", "a"],
        preds: &[("s", "!=", "\"q\""), ("y", "between", "1 and 2")],
    },
    // One integer join column.
    Query {
        items: Items::All,
        rels: &["b", "c"],
        preds: &[("z", ">", "0")],
    },
    // A string join column alone.
    Query {
        items: Items::Aggs(&[("count", "*"), ("sum", "w"), ("min", "s"), ("max", "x")]),
        rels: &["d", "a"],
        preds: &[],
    },
    // Three legs.
    Query {
        items: Items::Aggs(&[("count", "*"), ("sum", "x"), ("min", "y"), ("max", "z")]),
        rels: &["a", "b", "c"],
        preds: &[],
    },
    Query {
        items: Items::Cols(&["s", "z", "x"]),
        rels: &["c", "a", "b"],
        preds: &[("s", "!=", "\"q\""), ("y", "<=", "2")],
    },
    Query {
        items: Items::All,
        rels: &["d", "b", "a"],
        preds: &[("w", "=", "1")],
    },
    // No shared column: a cross product.
    Query {
        items: Items::Aggs(&[("count", "*"), ("sum", "z")]),
        rels: &["a", "c"],
        preds: &[("x", "=", "2")],
    },
];

impl Query {
    fn text(&self, rels: &[&str]) -> String {
        let items = match &self.items {
            Items::All => "*".to_string(),
            Items::Cols(cols) => cols.join(", "),
            Items::Aggs(aggs) => aggs
                .iter()
                .map(|(f, c)| format!("{f}({c})"))
                .collect::<Vec<_>>()
                .join(", "),
        };
        let mut text = format!("select {items} from {}", rels.join(" join "));
        for (i, (c, op, lit)) in self.preds.iter().enumerate() {
            text.push_str(if i == 0 { " where " } else { ", " });
            text.push_str(&format!("{c} {op} {lit}"));
        }
        text
    }
}

fn lit(text: &str) -> Value {
    match text.strip_prefix('"') {
        Some(s) => Value::from(s.trim_end_matches('"')),
        None => Value::from(text.parse::<i64>().unwrap()),
    }
}

fn accepts(op: &str, literal: &str, v: &Value) -> bool {
    match op {
        "=" => *v == lit(literal),
        "!=" => *v != lit(literal),
        "<" => *v < lit(literal),
        "<=" => *v <= lit(literal),
        ">" => *v > lit(literal),
        ">=" => *v >= lit(literal),
        "between" => {
            let (lo, hi) = literal.split_once(" and ").unwrap();
            lit(lo) <= *v && *v <= lit(hi)
        }
        _ => panic!("operator {op}"),
    }
}

/// What the shell must print for `q` over `rels` (in that syntactic order).
fn brute_force(q: &Query, rels: &[&str], data: &Data) -> String {
    // `select *` names every column in order of first appearance.
    let mut all_cols: Vec<&str> = Vec::new();
    let mut joined: Vec<Row> = vec![Row::new()];
    for name in rels {
        let rel = RELS.iter().find(|r| r.name == *name).unwrap();
        for c in rel.cols {
            if !all_cols.contains(c) {
                all_cols.push(c);
            }
        }
        let mut next = Vec::new();
        for left in &joined {
            for right in &data[name] {
                if right
                    .iter()
                    .all(|(c, v)| left.get(c).is_none_or(|l| l == v))
                {
                    let mut row = left.clone();
                    row.extend(right.iter().map(|(c, v)| (*c, v.clone())));
                    next.push(row);
                }
            }
        }
        joined = next;
    }
    joined.retain(|row| q.preds.iter().all(|(c, op, l)| accepts(op, l, &row[c])));

    let project = |cols: &[&str]| {
        let rows: BTreeSet<Vec<Value>> = joined
            .iter()
            .map(|row| cols.iter().map(|c| row[c].clone()).collect())
            .collect();
        let mut out = cols.join("\t");
        for row in &rows {
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            out.push_str(&format!("\n{}", cells.join("\t")));
        }
        out.push_str(&format!("\n({} rows)", rows.len()));
        out
    };
    match &q.items {
        Items::All => project(&all_cols),
        Items::Cols(cols) => project(cols),
        Items::Aggs(aggs) => {
            let (mut header, mut vals) = (Vec::new(), Vec::new());
            for (fold, col) in *aggs {
                header.push(format!("{fold}({col})"));
                let column = || joined.iter().map(|row| &row[col]);
                let shown = |v: Option<&Value>| v.map_or("-".to_string(), Value::to_string);
                vals.push(match *fold {
                    "count" => joined.len().to_string(),
                    "sum" => column()
                        .map(|v| match v {
                            Value::Int(n) => *n,
                            other => panic!("sum over {other}"),
                        })
                        .sum::<i64>()
                        .to_string(),
                    "min" => shown(column().min()),
                    "max" => shown(column().max()),
                    _ => panic!("fold {fold}"),
                });
            }
            format!("{}\n{}", header.join("\t"), vals.join("\t"))
        }
    }
}

fn case_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("relic_shell_join_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn shell_joins_equal_a_brute_force_natural_join() {
    let root = case_dir("equiv");
    let (mut swept, mut probed) = (0, 0);
    for case in 0..48u64 {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (case << 32 | case));
        // The first cases run every relation flat, then every relation
        // indexed; the rest mix layouts and backends per relation.
        let layouts: Vec<(bool, bool)> = RELS
            .iter()
            .map(|_| match case {
                0..=7 => (false, false),
                8..=15 => (true, false),
                _ => (rng.below(2) == 0, rng.below(3) == 0),
            })
            .collect();
        let mut data = Data::new();
        for rel in &RELS {
            // One case in five leaves a relation empty.
            let rows = if rng.below(5) == 0 {
                0
            } else {
                1 + rng.below(12)
            };
            let set = (0..rows)
                .map(|_| rel.cols.iter().map(|c| (*c, draw(&mut rng, c))).collect())
                .collect();
            data.insert(rel.name, set);
        }
        let dir = root.join(case.to_string());
        let mut s = session(&dir, &data, |i| layouts[i]);
        for q in QUERIES {
            let mut backwards = q.rels.to_vec();
            backwards.reverse();
            for rels in [q.rels, &backwards[..]] {
                let text = q.text(rels);
                let plan = eval(&mut s, &format!("plan {text}"));
                swept += plan.matches("sweep, build on").count();
                probed += plan.matches("probe on").count();
                assert_eq!(
                    eval(&mut s, &text),
                    brute_force(q, rels, &data),
                    "case {case}, layouts {layouts:?}: `{text}`\n{plan}\ndata: {data:?}"
                );
            }
        }
    }
    assert!(
        swept > 100 && probed > 100,
        "{swept} sweeps, {probed} probes"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The strategies are the planner's: a flat hash is swept, a leg indexed on
/// its join columns is probed, and a sweep may sit between the two.
#[test]
fn plan_names_the_strategy_per_leg() {
    let dir = case_dir("plan");
    let mut rng = Rng(7);
    let mut data = Data::new();
    for (rel, rows) in RELS.iter().zip([2, 8, 12, 3]) {
        let mut set = BTreeSet::new();
        while set.len() < rows {
            set.insert(rel.cols.iter().map(|c| (*c, draw(&mut rng, c))).collect());
        }
        data.insert(rel.name, set);
    }
    // `b` flat in memory, `c` indexed on `y` and durable.
    let mut s = session(&dir, &data, |i| (i == 2, i == 2));
    let q = &QUERIES[6];
    let plan = eval(&mut s, &format!("plan {}", q.text(q.rels)));
    let legs: Vec<&str> = plan.lines().collect();
    assert!(legs[0].starts_with("leg 1: a (memory): est~"), "{plan}");
    assert!(
        legs[1].starts_with("leg 2: b (memory): sweep, build on a (k, s); "),
        "{plan}"
    );
    assert!(
        legs[2].starts_with("leg 3: c (durable): probe on y; "),
        "{plan}"
    );
    assert_eq!(eval(&mut s, &q.text(q.rels)), brute_force(q, q.rels, &data));

    let plan = eval(&mut s, "plan select count(*) from a join c");
    assert!(
        plan.contains("sweep, build on a (cross product); "),
        "{plan}"
    );
    assert_eq!(
        eval(&mut s, "plan select count(*), count(*) from b"),
        "leg 1: b (memory): count from len"
    );
    assert_eq!(
        eval(&mut s, "select count(*), count(*) from b"),
        "count(*)\tcount(*)\n8\t8"
    );
    assert_eq!(eval(&mut s, "select count(*) from c"), "count(*)\n12");
    let _ = std::fs::remove_dir_all(&dir);
}
