//! The shell's core contract: no input — byte soup or near-miss token
//! salad — may ever panic the session. Every failure must come back as a
//! typed `Diag`, and the session must stay usable afterwards.

use proptest::prelude::*;
use relic_shell::Session;

/// Tokens biased to collide with the command grammar and its embedded
/// sub-languages (predicates, let-notation, aggregates). `at` and
/// `connect` are deliberately absent so generated scripts never create
/// directories or dial sockets.
const TOKENS: &[&str] = &[
    "select",
    "*",
    "from",
    "join",
    "where",
    "create",
    "relation",
    "insert",
    "remove",
    "load",
    "open",
    "commit",
    "plan",
    "show",
    "relations",
    "layout",
    "help",
    "fd",
    "->",
    ",",
    "(",
    ")",
    ":",
    "=",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "between",
    "and",
    "count",
    "sum",
    "min",
    "max",
    "using",
    "let",
    "in",
    "unit",
    "-[htable]->",
    "{",
    "}",
    ".",
    "t",
    "u",
    "k",
    "v",
    "local",
    "bytes",
    "0",
    "1",
    "-1",
    "16",
    "65536",
    "9223372036854775807",
    "-9223372036854775808",
    "+5",
    "\"s\"",
    "\"",
    "§",
    "é",
];

/// One line of near-token salad: indices into [`TOKENS`], space-joined.
fn salad_line() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..16).prop_map(|picks| {
        picks
            .iter()
            .map(|&i| TOKENS[i])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_soup_never_panics(
        lines in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..80),
            0..6,
        )
    ) {
        let mut s = Session::new();
        for bytes in &lines {
            let _ = s.eval(&String::from_utf8_lossy(bytes));
        }
    }

    #[test]
    fn token_salad_never_panics(
        script in proptest::collection::vec(salad_line(), 0..6)
    ) {
        let mut s = Session::new();
        for line in &script {
            let _ = s.eval(line);
        }
        // The session survives whatever happened above.
        let _ = s.eval("show relations");
    }

    #[test]
    fn salad_after_real_relations_never_panics(line in salad_line()) {
        let mut s = Session::new();
        s.eval("create relation t(k:16, v) fd k -> v").unwrap();
        s.eval("insert t k = 1, v = 10").unwrap();
        let _ = s.eval(&line);
        // Queries still work after arbitrary garbage.
        assert!(s.eval("select count(*) from t").is_ok());
    }
}
