//! Golden-snapshot tests for the relational shell: each script under
//! `tests/golden/` runs through a fresh in-memory [`Session`] and its
//! batch transcript (echoed lines, results, caret-rendered diagnostics)
//! must match the committed `.snap` byte for byte.
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test shell_golden
//! ```
//!
//! Scripts use memory backends only, so transcripts are fully
//! deterministic — no temp dirs, no ports, no timestamps.

use relic_shell::Session;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, script: &str) {
    let got = Session::new().run_script(script);
    let path = golden_dir().join(format!("{name}.snap"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "transcript for `{name}` drifted from {}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional",
        path.display()
    );
}

/// Single-relation basics: create, insert, point/range queries,
/// aggregates, removal, the session listing, the layout `create` picked.
#[test]
fn golden_basics() {
    check(
        "basics",
        "\
create relation kv(k:16, v) fd k -> v
insert kv k = 1, v = 10
insert kv k = 2, v = 20
insert kv k = 3, v = 30
insert kv k = 1, v = 10
select * from kv
select v from kv where k = 2
select k, v from kv where v between 10 and 20
select count(*), sum(v), min(v), max(v) from kv
remove kv where k = 1
select count(*) from kv
show relations
show layout kv
",
    );
}

/// The paper's flows ⋈ addrs demo on inline data: join order comes from
/// the cost model, and `plan` shows each leg's chosen decomposition walk.
#[test]
fn golden_joins() {
    check(
        "joins",
        "\
create relation flows(local:16, remote:16, bytes, pkts) fd local, remote -> bytes, pkts
create relation addrs(local:16, owner, tier:8) fd local -> owner, tier
insert addrs local = 0, owner = \"team-0\", tier = 0
insert addrs local = 1, owner = \"team-1\", tier = 1
insert addrs local = 2, owner = \"team-2\", tier = 2
insert flows local = 0, remote = 100, bytes = 1500, pkts = 2
insert flows local = 0, remote = 101, bytes = 300, pkts = 1
insert flows local = 1, remote = 100, bytes = 9000, pkts = 6
insert flows local = 2, remote = 102, bytes = 40, pkts = 1
select local, owner, bytes from flows join addrs where tier = 0
select owner, remote from flows join addrs where bytes >= 1500
select count(*), sum(bytes) from flows join addrs where owner = \"team-0\"
plan select local, owner, bytes from flows join addrs where tier = 0
plan select count(*) from flows where local = 1, bytes > 100
",
    );
}

/// Error paths stay typed and carry carets: lexer, parser, compiler and
/// executor failures all render against the offending line, and the
/// session keeps working after every one of them.
#[test]
fn golden_errors() {
    check(
        "errors",
        "\
create relation kv(k:16, v) fd k -> v
insert kv k = 1, v = 10
frobnicate kv
create relation kv(k)
create relation bad(k:65)
create relation bad(k, k)
select * from nope
select zap from kv
select k, count(*) from kv
select count(k) from kv
select sum(*) from kv
select * from kv where k = 99999999999999999999
select * from kv where k = 70000
select * from kv where k = 1, k = 2
select * from kv extra garbage
insert kv k = 1
insert kv k < 5, v = 1
remove kv where v ~ 3
load kv from \"/no/such/file.tsv\"
open kv2 from
connect kv2 to \"nowhere\"
select * from kv where v = \"unterminated
select count(*) from kv
",
    );
}
