//! The served-read oracle: every `Query` and `QueryWhere` a live server
//! answers equals `NetResponse::Rows { tuples }`, with `tuples` what
//! `RelRead::query` / `RelRead::query_where` return on an in-process view
//! of the same relation.
//!
//! The server streams a read's rows into a flat buffer and sorts and
//! deduplicates a row index before framing; the in-process path collects
//! `Tuple`s. Holding the two paths to one answer checks that the flat
//! path's order is `Tuple`'s and that it drops exactly the duplicates.
//! Two layouts: an `htable` inner edge, whose scan order is not sorted
//! order, and an `avl` one, whose scan order is. Projections that drop the
//! key repeat rows; one answer of thousands of repeated rows crosses the
//! collector's compaction threshold.

use proptest::prelude::*;
use relic_core::netmsg::{NetRequest, NetResponse};
use relic_core::{Op, RelRead};
use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_server::{Client, ServeHandle, ServerConfig};
use relic_spec::{parse_pattern, Catalog, ColSet, RelSpec, Tuple, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn case_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("relic_served_reads_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Names drawn for the `Str` column; the last one is never inserted.
const NAMES: [&str; 7] = ["ant", "bee", "cat", "dog", "eel", "fox", "zzz"];

/// A served `{name: Str, k: Int}` relation with `k → name`, laid out as
/// `{name} -[avl]-> ({k} -[inner]-> unit {})`. `name` is the first column,
/// so `Tuple`'s order is by name, then k: the `avl` inner edge scans in
/// sorted order, the `htable` one does not.
struct Served {
    dir: PathBuf,
    cat: Catalog,
    rel: Arc<DurableRelation>,
    server: Option<ServeHandle>,
    client: Client,
}

impl Served {
    fn new(inner: &str) -> Served {
        let dir = case_dir();
        let mut cat = Catalog::new();
        let name = cat.intern("name");
        let k = cat.intern("k");
        let d = relic_decomp::parse(
            &mut cat,
            &format!(
                "let u : {{name,k}} . {{}} = unit {{}} in
                 let y : {{name}} . {{k}} = {{k}} -[{inner}]-> u in
                 let x : {{}} . {{name,k}} = {{name}} -[avl]-> y in x"
            ),
        )
        .unwrap();
        let spec = RelSpec::new(name | k).with_fd(k.set(), name.set());
        let rel = Arc::new(
            DurableRelation::create(
                &dir,
                &cat,
                spec,
                d,
                k.set(),
                1,
                true,
                GroupCommitPolicy::manual(),
            )
            .unwrap(),
        );
        let server = ServeHandle::spawn(Arc::clone(&rel), ServerConfig::default()).unwrap();
        let client = Client::connect(server.addr()).unwrap();
        Served {
            dir,
            cat,
            rel,
            server: Some(server),
            client,
        }
    }

    fn row(&self, k: i64, name: usize) -> Tuple {
        Tuple::from_pairs([
            (self.cat.col("name").unwrap(), Value::from(NAMES[name])),
            (self.cat.col("k").unwrap(), Value::from(k)),
        ])
    }

    /// Inserts `rows` (k → name index; the map keeps the FD), half as one
    /// `InsertMany` and half as single inserts the server may coalesce.
    fn insert(&mut self, rows: &BTreeMap<i64, usize>) {
        let tuples: Vec<Tuple> = rows.iter().map(|(&k, &n)| self.row(k, n)).collect();
        let (many, single) = tuples.split_at(tuples.len() / 2);
        self.client.apply(Op::InsertMany(many.to_vec())).unwrap();
        for t in single {
            self.client.insert(t.clone()).unwrap();
        }
    }

    /// The in-process answer to `req`, as the server must frame it.
    fn expected(&self, req: &NetRequest) -> NetResponse {
        let mut handle = self.rel.read_handle();
        let view = handle.view();
        let all = |out: ColSet| {
            if out.is_empty() {
                view.spec().cols()
            } else {
                out
            }
        };
        let answer = match req {
            NetRequest::Query { pattern, out } => view.query(pattern, all(*out)),
            NetRequest::QueryWhere { pattern, out } => {
                let p = parse_pattern(&self.cat, pattern).unwrap();
                view.query_where(&p, all(*out))
            }
            other => panic!("not a read: {other:?}"),
        };
        NetResponse::Rows {
            tuples: answer.unwrap(),
        }
    }

    fn check(&mut self, req: &NetRequest) {
        let got = self.client.request(req).unwrap();
        assert_eq!(got, self.expected(req), "{req:?}");
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        drop(self.server.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[derive(Debug, Clone)]
enum Read {
    Query {
        k: Option<i64>,
        name: Option<usize>,
        out: u64,
    },
    Where {
        pattern: String,
        out: u64,
    },
}

fn read() -> impl Strategy<Value = Read> {
    let name = 0..NAMES.len();
    let pattern = prop_oneof![
        Just(String::new()),
        (-5i64..70).prop_map(|x| format!("k >= {x}")),
        (-5i64..70).prop_map(|x| format!("k < {x}")),
        (-5i64..70, 0i64..30).prop_map(|(x, w)| format!("k between {x} and {}", x + w)),
        name.clone()
            .prop_map(|n| format!("name = \"{}\"", NAMES[n])),
        name.clone()
            .prop_map(|n| format!("name != \"{}\"", NAMES[n])),
        (-5i64..70, name.clone()).prop_map(|(x, n)| format!("k != {x}, name >= \"{}\"", NAMES[n])),
    ];
    prop_oneof![
        (
            proptest::option::of(-5i64..70),
            proptest::option::of(name),
            0u64..4
        )
            .prop_map(|(k, name, out)| Read::Query { k, name, out }),
        (pattern, 0u64..4).prop_map(|(pattern, out)| Read::Where { pattern, out }),
    ]
}

impl Served {
    fn request(&self, r: &Read) -> NetRequest {
        // `name` is column 0 and `k` column 1, so `out`'s two bits are
        // ∅ (all columns), {name} (drops the key), {k} and {name, k}.
        match r {
            Read::Query { k, name, out } => {
                let mut pattern = Vec::new();
                if let Some(n) = name {
                    pattern.push((self.cat.col("name").unwrap(), Value::from(NAMES[*n])));
                }
                if let Some(k) = k {
                    pattern.push((self.cat.col("k").unwrap(), Value::from(*k)));
                }
                NetRequest::Query {
                    pattern: Tuple::from_pairs(pattern),
                    out: ColSet::from_bits(*out),
                }
            }
            Read::Where { pattern, out } => NetRequest::QueryWhere {
                pattern: pattern.clone(),
                out: ColSet::from_bits(*out),
            },
        }
    }
}

fn served_reads_match_in_process(
    inner: &str,
    rows: &[(i64, usize)],
    reads: &[Read],
) -> Result<(), TestCaseError> {
    // One name per key keeps the FD.
    let rows: BTreeMap<i64, usize> = rows.iter().copied().collect();
    let mut s = Served::new(inner);
    // Answers over the empty relation, then over the inserted rows.
    for r in reads.iter().take(3) {
        s.check(&s.request(r));
    }
    s.insert(&rows);
    for r in reads {
        s.check(&s.request(r));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn served_reads_equal_in_process_reads_on_an_htable_inner_edge(
        rows in proptest::collection::vec((0i64..64, 0usize..NAMES.len() - 1), 0..80),
        reads in proptest::collection::vec(read(), 1..24),
    ) {
        served_reads_match_in_process("htable", &rows, &reads)?;
    }

    #[test]
    fn served_reads_equal_in_process_reads_on_an_avl_inner_edge(
        rows in proptest::collection::vec((0i64..64, 0usize..NAMES.len() - 1), 0..80),
        reads in proptest::collection::vec(read(), 1..24),
    ) {
        served_reads_match_in_process("avl", &rows, &reads)?;
    }
}

/// Thousands of rows projected onto the non-key column: the collector
/// compacts duplicates mid-stream (past 1 024 rows, then past twice the
/// distinct count) and still answers exactly the distinct names.
#[test]
fn a_projection_repeating_thousands_of_rows_answers_its_distinct_rows() {
    for inner in ["htable", "avl"] {
        let mut s = Served::new(inner);
        let rows: BTreeMap<i64, usize> = (0..3000i64).map(|k| (k, (k % 5) as usize)).collect();
        s.insert(&rows);
        let name = s.cat.col("name").unwrap().set();
        let k = s.cat.col("k").unwrap();
        for req in [
            NetRequest::Query {
                pattern: Tuple::empty(),
                out: name,
            },
            NetRequest::QueryWhere {
                pattern: "k >= 100".to_string(),
                out: name,
            },
            NetRequest::Query {
                pattern: Tuple::empty(),
                out: ColSet::EMPTY,
            },
            NetRequest::QueryWhere {
                pattern: "name != \"cat\"".to_string(),
                out: k.set(),
            },
        ] {
            s.check(&req);
        }
        let got = s
            .client
            .request(&NetRequest::Query {
                pattern: Tuple::empty(),
                out: name,
            })
            .unwrap();
        let NetResponse::Rows { tuples } = got else {
            panic!("expected rows, got {got:?}");
        };
        assert_eq!(tuples.len(), 5, "{inner}");
    }
}
