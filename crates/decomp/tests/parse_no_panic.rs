//! No-panic properties for the let-notation parser: arbitrary garbage —
//! including non-UTF-8 byte soup (lossily decoded) and multibyte
//! characters landing mid-identifier — produces a typed [`ParseError`]
//! with a source position, never a panic. This mirrors the PR 9
//! `pattern_parse` sweep for the decomposition tokenizer (the
//! `from_utf8(..).unwrap()` it replaced sat on the identifier path).

use proptest::prelude::*;
use relic_decomp::parse;
use relic_spec::Catalog;

/// Tokens that keep random inputs *near* the let-notation grammar, so the
/// generator reaches deep parser states (edge arrows, colsets, joins)
/// instead of dying at the first lexer error.
const TOKENS: &[&str] = &[
    "let", "in", "unit", "join", "x", "w", "ghost", "{", "}", "(", ")", ",", ":", ".", "=", "-[",
    "]->", "-", "]", "htable", "avl", "btree99", "//", "\n", "é", "𝕏", "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup (lossily decoded) never panics the parser.
    #[test]
    fn parse_never_panics_on_arbitrary_strings(
        bytes in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..128),
    ) {
        let mut cat = Catalog::new();
        let _ = parse(&mut cat, &String::from_utf8_lossy(&bytes));
    }

    /// Near-grammar token salad never panics either; it reaches the deep
    /// states (builder errors, annotation mismatches) the byte soup can't.
    #[test]
    fn parse_never_panics_on_token_salad(
        picks in proptest::collection::vec(0..TOKENS.len(), 0..48),
    ) {
        let mut src = String::new();
        for (n, i) in picks.iter().enumerate() {
            if n > 0 {
                src.push(' ');
            }
            src.push_str(TOKENS[*i]);
        }
        let mut cat = Catalog::new();
        let _ = parse(&mut cat, &src);
    }
}

/// Multibyte input mid-identifier is a positioned diagnostic, not a panic.
#[test]
fn multibyte_identifier_bytes_are_typed_errors() {
    for src in [
        "let é : {} . {a} = unit {a} in é",
        "let x𝕏 : {} . {a} = unit {a} in x",
        "let x : {} . {a} = unit {a} in x\u{feff}",
        "лет x : {} . {a} = unit {a} in x",
    ] {
        let mut cat = Catalog::new();
        let err = parse(&mut cat, src).unwrap_err();
        assert!(err.line >= 1 && err.col >= 1, "{src:?}: {err}");
    }
}

/// Let-notation naming 65 distinct columns overflows the 64-column
/// catalog: a positioned diagnostic at the 65th name, not a panic — the
/// text can arrive over the wire as a migration target.
#[test]
fn a_65th_column_is_a_typed_error() {
    let names: Vec<String> = (0..65).map(|i| format!("c{i}")).collect();
    let src = format!(
        "let u : {{}} . {{{cols}}} = unit {{{cols}}} in u",
        cols = names.join(",")
    );
    let mut cat = Catalog::new();
    let err = parse(&mut cat, &src).unwrap_err();
    assert!(err.message.contains("c64"), "{err}");
    assert_eq!(cat.len(), 64, "the catalog holds the 64 names it could");
}
