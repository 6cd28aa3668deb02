//! A hand-written lexer and recursive-descent parser for the let-notation
//! concrete syntax of decompositions.
//!
//! ```text
//! decomp  := { "let" IDENT ":" colset "." colset "=" prim "in" } IDENT
//! prim    := term { "join" term }
//! term    := "unit" colset
//!          | colset "-[" IDENT "]->" IDENT
//!          | "(" prim ")"
//! colset  := "{" [ IDENT { "," IDENT } ] "}"
//! ```
//!
//! Line comments start with `//`. Column names are interned into the caller's
//! [`Catalog`] on sight.

use crate::{DecompBuilder, Decomposition, DsKind, ParseError, Prim};
use relic_spec::{Catalog, ColSet};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Let,
    In,
    Unit,
    Join,
    Ident(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Colon,
    Dot,
    Eq,
    /// `-[`
    ArrowOpen,
    /// `]->`
    ArrowClose,
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Let => write!(f, "`let`"),
            Tok::In => write!(f, "`in`"),
            Tok::Unit => write!(f, "`unit`"),
            Tok::Join => write!(f, "`join`"),
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::ArrowOpen => write!(f, "`-[`"),
            Tok::ArrowClose => write!(f, "`]->`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = *self.src.get(self.pos)?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<(Tok, usize, usize), ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = match c {
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b':' => {
                self.bump();
                Tok::Colon
            }
            b'.' => {
                self.bump();
                Tok::Dot
            }
            b'=' => {
                self.bump();
                Tok::Eq
            }
            b'-' => {
                self.bump();
                if self.peek() == Some(b'[') {
                    self.bump();
                    Tok::ArrowOpen
                } else {
                    return Err(ParseError::new(line, col, "expected `-[`"));
                }
            }
            b']' => {
                self.bump();
                if self.peek() == Some(b'-') && self.peek2() == Some(b'>') {
                    self.bump();
                    self.bump();
                    Tok::ArrowClose
                } else {
                    return Err(ParseError::new(line, col, "expected `]->`"));
                }
            }
            c if c.is_ascii_alphanumeric() || c == b'_' => {
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
                // The loop above only accepts ASCII identifier bytes, so the
                // slice is valid UTF-8 by construction — but the tokenizer
                // runs over untrusted input, so decode failure is a typed
                // diagnostic, never a panic.
                let word = std::str::from_utf8(&self.src[start..self.pos])
                    .map_err(|_| ParseError::new(line, col, "identifier is not valid UTF-8"))?;
                match word {
                    "let" => Tok::Let,
                    "in" => Tok::In,
                    "unit" => Tok::Unit,
                    "join" => Tok::Join,
                    _ => Tok::Ident(word.to_string()),
                }
            }
            other => {
                return Err(ParseError::new(
                    line,
                    col,
                    format!("unexpected character `{}`", other as char),
                ))
            }
        };
        Ok((tok, line, col))
    }
}

struct Parser<'a> {
    toks: Vec<(Tok, usize, usize)>,
    pos: usize,
    cat: &'a mut Catalog,
    builder: DecompBuilder,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn here(&self) -> (usize, usize) {
        (self.toks[self.pos].1, self.toks[self.pos].2)
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            let (l, c) = self.here();
            Err(ParseError::new(
                l,
                c,
                format!("expected {want}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => {
                let (l, c) = self.here();
                Err(ParseError::new(
                    l,
                    c,
                    format!("expected identifier, found {other}"),
                ))
            }
        }
    }

    fn colset(&mut self) -> Result<ColSet, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut cols = ColSet::EMPTY;
        if *self.peek() != Tok::RBrace {
            loop {
                let (l, c) = self.here();
                let name = self.ident()?;
                let col = self.cat.try_intern(&name).ok_or_else(|| {
                    ParseError::new(l, c, format!("`{name}` is a 65th column: at most 64"))
                })?;
                cols = cols | col;
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(cols)
    }

    fn term(&mut self) -> Result<Prim, ParseError> {
        match self.peek().clone() {
            Tok::Unit => {
                self.bump();
                Ok(Prim::Unit(self.colset()?))
            }
            Tok::LParen => {
                self.bump();
                let p = self.prim()?;
                self.expect(Tok::RParen)?;
                Ok(p)
            }
            Tok::LBrace => {
                let key = self.colset()?;
                self.expect(Tok::ArrowOpen)?;
                let (l, c) = self.here();
                let ds_name = self.ident()?;
                let ds = DsKind::from_name(&ds_name).ok_or_else(|| {
                    ParseError::new(l, c, format!("unknown data structure `{ds_name}`"))
                })?;
                self.expect(Tok::ArrowClose)?;
                let (l, c) = self.here();
                let target = self.ident()?;
                let node = self.builder.get(&target).ok_or_else(|| {
                    ParseError::new(
                        l,
                        c,
                        format!("unknown node `{target}` (nodes must be let-bound before use)"),
                    )
                })?;
                Ok(Prim::Map(key, ds, node))
            }
            other => {
                let (l, c) = self.here();
                Err(ParseError::new(
                    l,
                    c,
                    format!("expected `unit`, `{{` or `(`, found {other}"),
                ))
            }
        }
    }

    fn prim(&mut self) -> Result<Prim, ParseError> {
        let mut acc = self.term()?;
        while *self.peek() == Tok::Join {
            self.bump();
            let rhs = self.term()?;
            acc = Prim::join(acc, rhs);
        }
        Ok(acc)
    }

    fn decomp(mut self) -> Result<Decomposition, ParseError> {
        while *self.peek() == Tok::Let {
            self.bump();
            let name = self.ident()?;
            self.expect(Tok::Colon)?;
            let bound = self.colset()?;
            self.expect(Tok::Dot)?;
            let declared_cols = self.colset()?;
            self.expect(Tok::Eq)?;
            let prim = self.prim()?;
            self.expect(Tok::In)?;
            let (l, c) = self.here();
            let id = self
                .builder
                .node(&name, bound, prim)
                .map_err(|e| ParseError::new(l, c, e.to_string()))?;
            // The declared `C` must agree with the body-derived columns.
            let computed = self.builder.node_cols(id);
            if computed != declared_cols {
                return Err(ParseError::new(
                    l,
                    c,
                    format!(
                        "node `{name}` declares columns {declared_cols:?} but its body represents {computed:?}"
                    ),
                ));
            }
        }
        let (l, c) = self.here();
        let root = self.ident()?;
        match self.builder.get(&root) {
            Some(_) => {}
            None => {
                return Err(ParseError::new(l, c, format!("unknown root node `{root}`")));
            }
        }
        self.expect(Tok::Eof)?;
        let d = self
            .builder
            .finish()
            .map_err(|e| ParseError::new(l, c, e.to_string()))?;
        if d.node(d.root()).name != root {
            return Err(ParseError::new(
                l,
                c,
                format!(
                    "root must be the last binding `{}`, found `{root}`",
                    d.node(d.root()).name
                ),
            ));
        }
        Ok(d)
    }
}

/// Parses a decomposition in let-notation, interning column names into `cat`.
///
/// # Errors
///
/// Returns a [`ParseError`] with a 1-based source position on syntax errors,
/// unknown data-structure names, references to unbound nodes, structural
/// errors (duplicate names, binding mismatches) and `C`-annotation mismatches.
pub fn parse(cat: &mut Catalog, src: &str) -> Result<Decomposition, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        let t = lexer.next_token()?;
        let eof = t.0 == Tok::Eof;
        toks.push(t);
        if eof {
            break;
        }
    }
    Parser {
        toks,
        pos: 0,
        cat,
        builder: DecompBuilder::new(),
    }
    .decomp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_adequacy;
    use relic_spec::RelSpec;

    const SCHEDULER: &str = "
        // The running example of Fig. 2(a).
        let w : {ns,pid,state} . {cpu} = unit {cpu} in
        let y : {ns} . {pid,cpu} = {pid} -[htable]-> w in
        let z : {state} . {ns,pid,cpu} = {ns,pid} -[dlist]-> w in
        let x : {} . {ns,pid,state,cpu} =
          ({ns} -[htable]-> y) join ({state} -[vec]-> z) in
        x";

    #[test]
    fn parses_the_paper_example() {
        let mut cat = Catalog::new();
        let d = parse(&mut cat, SCHEDULER).unwrap();
        assert_eq!(d.node_count(), 4);
        assert_eq!(d.edge_count(), 4);
        let w = d.node_by_name("w").unwrap();
        assert_eq!(d.incoming_edges(w).len(), 2);
        let spec = RelSpec::new(cat.all()).with_fd(
            cat.col("ns").unwrap() | cat.col("pid").unwrap(),
            cat.col("state").unwrap() | cat.col("cpu").unwrap(),
        );
        check_adequacy(&d, &spec).unwrap();
    }

    #[test]
    fn round_trips_through_pretty_printer() {
        let mut cat = Catalog::new();
        let d = parse(&mut cat, SCHEDULER).unwrap();
        let printed = d.to_let_notation(&cat);
        let mut cat2 = cat.clone();
        let d2 = parse(&mut cat2, &printed).unwrap();
        assert_eq!(d.canonical_string(true), d2.canonical_string(true));
    }

    #[test]
    fn reports_unknown_node() {
        let mut cat = Catalog::new();
        let err = parse(&mut cat, "let x : {} . {a} = {a} -[htable]-> ghost in x").unwrap_err();
        assert!(err.message.contains("unknown node `ghost`"), "{err}");
    }

    #[test]
    fn reports_unknown_data_structure() {
        let mut cat = Catalog::new();
        let err = parse(
            &mut cat,
            "let u : {a} . {} = unit {} in let x : {} . {a} = {a} -[btree99]-> u in x",
        )
        .unwrap_err();
        assert!(err.message.contains("unknown data structure"), "{err}");
    }

    #[test]
    fn reports_cols_annotation_mismatch() {
        let mut cat = Catalog::new();
        let err = parse(
            &mut cat,
            "let u : {a} . {} = unit {} in let x : {} . {a,b} = {a} -[htable]-> u in x",
        )
        .unwrap_err();
        assert!(err.message.contains("declares columns"), "{err}");
    }

    #[test]
    fn reports_syntax_error_with_position() {
        let mut cat = Catalog::new();
        let err = parse(&mut cat, "let x : {} . {a} = = in x").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.col > 1);
    }

    #[test]
    fn reports_wrong_root() {
        let mut cat = Catalog::new();
        let err = parse(
            &mut cat,
            "let u : {a} . {} = unit {} in let x : {} . {a} = {a} -[htable]-> u in u",
        )
        .unwrap_err();
        assert!(
            err.message.contains("root") || err.message.contains("bound"),
            "{err}"
        );
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let mut cat = Catalog::new();
        let d = parse(
            &mut cat,
            "// heading\nlet u : {a} . {} = unit {} in // trailing\nlet x : {} . {a} = {a} -[avl]-> u in x",
        )
        .unwrap();
        assert_eq!(d.edge_count(), 1);
        assert_eq!(d.edge(crate::EdgeId(0)).ds, DsKind::AvlTree);
    }

    #[test]
    fn empty_input_is_an_error() {
        let mut cat = Catalog::new();
        assert!(parse(&mut cat, "").is_err());
        assert!(parse(&mut cat, "   // nothing\n").is_err());
    }

    #[test]
    fn all_ds_names_parse() {
        for ds in DsKind::ALL {
            let mut cat = Catalog::new();
            let src = format!(
                "let u : {{a}} . {{}} = unit {{}} in let x : {{}} . {{a}} = {{a}} -[{}]-> u in x",
                ds.name()
            );
            let d = parse(&mut cat, &src).unwrap();
            assert_eq!(d.edge(crate::EdgeId(0)).ds, ds);
        }
    }
}
