//! The shell's span-carrying token cursor.
//!
//! The command grammar is line-oriented: a [`Cursor`] walks one line and
//! hands out identifiers, integers, quoted strings and punctuation, each
//! tagged with its byte [`Span`]. Sub-languages embedded in a command —
//! predicate patterns after `where`, let-notation after `using` — are
//! *not* tokenized here: the parser captures them as raw spans of the tail
//! ([`Cursor::rest`]) and delegates to their own parsers, so the shell
//! reuses the exact concrete syntaxes the library crates define.

use crate::diag::{Diag, Span};

/// One token of the command grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`select`, `flows`, `count`, ...).
    Ident(String),
    /// An integer literal (only widths use these at the command layer).
    Int(i64),
    /// A double-quoted string literal (paths, addresses), unescaped.
    Str(String),
    /// A single punctuation character: `( ) , : * =` or `->` (as `>`
    /// following `-` is fused by [`Cursor::next`]).
    Punct(char),
    /// The `->` arrow of a functional-dependency clause.
    Arrow,
}

impl Tok {
    /// A short description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(w) => format!("`{w}`"),
            Tok::Int(n) => format!("`{n}`"),
            Tok::Str(s) => format!("{s:?}"),
            Tok::Punct(c) => format!("`{c}`"),
            Tok::Arrow => "`->`".to_string(),
        }
    }
}

/// A token with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spanned {
    /// The token.
    pub tok: Tok,
    /// Its byte range in the source line.
    pub span: Span,
}

/// A character-level cursor over one source line.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Self {
        Cursor { src, pos: 0 }
    }

    /// Current byte position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The unconsumed tail and its span (leading whitespace skipped) —
    /// the raw-capture hook for embedded sub-languages.
    pub fn rest(&mut self) -> (&'a str, Span) {
        self.skip_ws();
        let tail = self.src[self.pos..].trim_end();
        let span = Span::new(self.pos, self.pos + tail.len());
        self.pos = self.src.len();
        (tail, span)
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.src[self.pos..].chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    /// The next token without consuming it.
    pub fn peek(&mut self) -> Result<Option<Spanned>, Diag> {
        let mut probe = self.clone();
        probe.next()
    }

    /// Consumes and returns the next token, or `None` at end of line.
    ///
    /// # Errors
    ///
    /// A spanned [`Diag`] on unterminated strings, malformed integers, or
    /// bytes outside the command alphabet.
    ///
    /// Not `Iterator::next`: the cursor is fallible and peekable, and the
    /// parser wants `?` on every call.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Spanned>, Diag> {
        self.skip_ws();
        let start = self.pos;
        let Some(c) = self.src[self.pos..].chars().next() else {
            return Ok(None);
        };
        let tok = match c {
            '(' | ')' | ',' | ':' | '*' | '=' => {
                self.pos += 1;
                Tok::Punct(c)
            }
            '-' if self.src[self.pos..].starts_with("->") => {
                self.pos += 2;
                Tok::Arrow
            }
            '"' => {
                let body = &self.src[self.pos + 1..];
                let Some(len) = body.find('"') else {
                    return Err(Diag::at(
                        Span::new(start, self.src.len()),
                        "unterminated string literal",
                    ));
                };
                self.pos += 1 + len + 1;
                Tok::Str(body[..len].to_string())
            }
            c if c.is_ascii_digit() || c == '-' || c == '+' => {
                let digits = self.src[self.pos + 1..]
                    .find(|ch: char| !ch.is_ascii_digit())
                    .map(|i| i + 1)
                    .unwrap_or_else(|| self.src.len() - self.pos);
                let text = &self.src[self.pos..self.pos + digits];
                let n: i64 = text.parse().map_err(|_| {
                    Diag::at(
                        Span::new(start, start + digits),
                        format!("malformed integer `{text}`"),
                    )
                })?;
                self.pos += digits;
                Tok::Int(n)
            }
            c if c.is_alphanumeric() || c == '_' => {
                let len = self.src[self.pos..]
                    .find(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                    .unwrap_or(self.src.len() - self.pos);
                let word = &self.src[self.pos..self.pos + len];
                self.pos += len;
                Tok::Ident(word.to_string())
            }
            other => {
                return Err(Diag::at(
                    Span::new(start, start + other.len_utf8()),
                    format!("unexpected character `{other}`"),
                ));
            }
        };
        Ok(Some(Spanned {
            tok,
            span: Span::new(start, self.pos),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        let mut c = Cursor::new(src);
        let mut out = Vec::new();
        while let Some(s) = c.next().unwrap() {
            out.push(s.tok);
        }
        out
    }

    #[test]
    fn tokenizes_command_heads() {
        assert_eq!(
            toks(r#"create relation flows(local:16, remote)"#),
            vec![
                Tok::Ident("create".into()),
                Tok::Ident("relation".into()),
                Tok::Ident("flows".into()),
                Tok::Punct('('),
                Tok::Ident("local".into()),
                Tok::Punct(':'),
                Tok::Int(16),
                Tok::Punct(','),
                Tok::Ident("remote".into()),
                Tok::Punct(')'),
            ]
        );
        assert_eq!(
            toks(r#"fd a -> b load "x.tsv""#),
            vec![
                Tok::Ident("fd".into()),
                Tok::Ident("a".into()),
                Tok::Arrow,
                Tok::Ident("b".into()),
                Tok::Ident("load".into()),
                Tok::Str("x.tsv".into()),
            ]
        );
    }

    #[test]
    fn rest_captures_raw_tails() {
        let mut c = Cursor::new("select * from flows where local = 3, ts between 1 and 9");
        for _ in 0..5 {
            c.next().unwrap();
        }
        let (tail, span) = c.rest();
        assert_eq!(tail, "local = 3, ts between 1 and 9");
        assert_eq!(
            &"select * from flows where local = 3, ts between 1 and 9"[span.start..span.end],
            tail
        );
    }

    #[test]
    fn errors_are_spanned_not_panics() {
        let mut c = Cursor::new(r#"load "unterminated"#);
        c.next().unwrap();
        let err = c.next().unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert!(err.span.is_some());
        let mut c = Cursor::new("x = 99999999999999999999999");
        c.next().unwrap();
        c.next().unwrap();
        assert!(c.next().unwrap_err().message.contains("malformed integer"));
        let mut c = Cursor::new("§");
        assert!(c
            .next()
            .unwrap_err()
            .message
            .contains("unexpected character"));
    }
}
