//! The line parser: one source line → one [`Command`].
//!
//! Commands are recognized by their head keyword; embedded sub-languages
//! (`where` predicates, `using` let-notation) are captured as raw spans
//! and resolved later by the compiler, against the relations the query
//! actually names.

use crate::ast::*;
use crate::diag::{Diag, Span};
use crate::lexer::{Cursor, Spanned, Tok};

/// Parses one line into a [`Command`].
///
/// # Errors
///
/// A spanned [`Diag`] for every malformed line; this function never
/// panics, whatever the input.
pub fn parse_line(src: &str) -> Result<Command, Diag> {
    let trimmed = src.trim_start();
    if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with("--") {
        return Ok(Command::Nothing);
    }
    let mut c = Cursor::new(src);
    let head = expect_ident(&mut c, "a command")?;
    let cmd = match head.0.as_str() {
        "create" => parse_create(&mut c)?,
        "open" => {
            let name = expect_ident(&mut c, "a relation name")?;
            expect_keyword(&mut c, "from")?;
            let dir = expect_string(&mut c, "a directory path")?;
            Command::Open { name, dir }
        }
        "connect" => {
            let name = expect_ident(&mut c, "a relation name")?;
            expect_keyword(&mut c, "to")?;
            let addr = expect_string(&mut c, "a host:port address")?;
            Command::Connect { name, addr }
        }
        "load" => {
            let name = expect_ident(&mut c, "a relation name")?;
            expect_keyword(&mut c, "from")?;
            let path = expect_string(&mut c, "a file path")?;
            Command::Load { name, path }
        }
        "insert" => {
            let name = expect_ident(&mut c, "a relation name")?;
            let (text, span) = c.rest();
            if text.is_empty() {
                return Err(Diag::at(
                    Span::point(span.start),
                    "expected a row: `insert NAME col = value, ...`",
                ));
            }
            return Ok(Command::Insert {
                name,
                row: Raw {
                    text: text.to_string(),
                    span,
                },
            });
        }
        "remove" => {
            let name = expect_ident(&mut c, "a relation name")?;
            let where_raw = parse_opt_where(&mut c)?;
            Command::Remove { name, where_raw }
        }
        "select" => Command::Select(parse_select(&mut c)?),
        "plan" => {
            expect_keyword(&mut c, "select")?;
            Command::Plan(parse_select(&mut c)?)
        }
        "commit" => Command::Commit {
            name: expect_ident(&mut c, "a relation name")?,
        },
        "show" => match expect_ident(&mut c, "`relations` or `layout`")? {
            (w, _) if w == "relations" => Command::ShowRelations,
            (w, _) if w == "layout" => Command::ShowLayout {
                name: expect_ident(&mut c, "a relation name")?,
            },
            (w, span) => {
                return Err(Diag::at(
                    span,
                    format!("expected `relations` or `layout`, found `{w}`"),
                ))
            }
        },
        "help" => Command::Help,
        "quit" | "exit" => Command::Quit,
        other => {
            return Err(Diag::at(
                head.1,
                format!("unknown command `{other}` (try `help`)"),
            ));
        }
    };
    expect_end(&mut c)?;
    Ok(cmd)
}

fn parse_create(c: &mut Cursor<'_>) -> Result<Command, Diag> {
    expect_keyword(c, "relation")?;
    let name = expect_ident(c, "a relation name")?;
    expect_punct(c, '(')?;
    let mut cols = Vec::new();
    loop {
        let (col, span) = expect_ident(c, "a column name")?;
        let bits = if peek_punct(c, ':')? {
            c.next()?;
            let (n, nspan) = expect_int(c, "a bit width")?;
            if !(1..=64).contains(&n) {
                return Err(Diag::at(
                    nspan,
                    format!("bit width must be 1..=64, got {n}"),
                ));
            }
            Some(n as u32)
        } else {
            None
        };
        cols.push(ColDecl {
            name: col,
            span,
            bits,
        });
        if peek_punct(c, ',')? {
            c.next()?;
        } else {
            break;
        }
    }
    expect_punct(c, ')')?;
    let mut fds = Vec::new();
    let mut at = None;
    let mut using = None;
    while let Some(next) = c.peek()? {
        match &next.tok {
            Tok::Ident(w) if w == "fd" => {
                c.next()?;
                let from = parse_col_list(c)?;
                expect_arrow(c)?;
                let to = parse_col_list(c)?;
                fds.push(FdDecl { from, to });
            }
            Tok::Ident(w) if w == "at" => {
                c.next()?;
                let dir = expect_string(c, "a directory path")?;
                if at.replace(dir).is_some() {
                    return Err(Diag::at(next.span, "duplicate `at` clause"));
                }
            }
            Tok::Ident(w) if w == "using" => {
                c.next()?;
                let (text, span) = c.rest();
                if text.is_empty() {
                    return Err(Diag::at(
                        Span::point(span.start),
                        "expected a decomposition in let-notation after `using`",
                    ));
                }
                using = Some(Raw {
                    text: text.to_string(),
                    span,
                });
                break;
            }
            _ => {
                return Err(Diag::at(
                    next.span,
                    format!(
                        "expected `fd`, `at`, or `using`, found {}",
                        next.tok.describe()
                    ),
                ));
            }
        }
    }
    Ok(Command::Create {
        name,
        cols,
        fds,
        at,
        using,
    })
}

fn parse_col_list(c: &mut Cursor<'_>) -> Result<Vec<(String, Span)>, Diag> {
    let mut cols = vec![expect_ident(c, "a column name")?];
    while peek_punct(c, ',')? {
        c.next()?;
        cols.push(expect_ident(c, "a column name")?);
    }
    Ok(cols)
}

fn parse_select(c: &mut Cursor<'_>) -> Result<SelectStmt, Diag> {
    let items = parse_items(c)?;
    expect_keyword(c, "from")?;
    let mut rels = vec![expect_ident(c, "a relation name")?];
    while let Some(next) = c.peek()? {
        match &next.tok {
            Tok::Ident(w) if w == "join" => {
                c.next()?;
                rels.push(expect_ident(c, "a relation name")?);
            }
            _ => break,
        }
    }
    let where_raw = parse_opt_where(c)?;
    Ok(SelectStmt {
        items,
        rels,
        where_raw,
    })
}

fn parse_items(c: &mut Cursor<'_>) -> Result<Items, Diag> {
    if peek_punct(c, '*')? {
        c.next()?;
        return Ok(Items::All);
    }
    let mut cols: Vec<(String, Span)> = Vec::new();
    let mut aggs: Vec<Agg> = Vec::new();
    loop {
        let (word, span) = expect_ident(c, "a column or aggregate")?;
        let kind = match word.as_str() {
            "count" if peek_punct(c, '(')? => Some(AggKind::Count),
            "sum" if peek_punct(c, '(')? => Some(AggKind::Sum),
            "min" if peek_punct(c, '(')? => Some(AggKind::Min),
            "max" if peek_punct(c, '(')? => Some(AggKind::Max),
            _ => None,
        };
        match kind {
            Some(kind) => {
                c.next()?;
                let col = if peek_punct(c, '*')? {
                    c.next()?;
                    if kind != AggKind::Count {
                        return Err(Diag::at(
                            span,
                            format!("`{}(*)` is not a thing; give it a column", kind.name()),
                        ));
                    }
                    None
                } else {
                    Some(expect_ident(c, "a column name")?)
                };
                if kind == AggKind::Count && col.is_some() {
                    return Err(Diag::at(span, "`count` takes `*`, not a column"));
                }
                let close = expect_punct(c, ')')?;
                aggs.push(Agg {
                    kind,
                    col,
                    span: span.to(close),
                });
            }
            None => cols.push((word, span)),
        }
        if peek_punct(c, ',')? {
            c.next()?;
        } else {
            break;
        }
    }
    match (cols.is_empty(), aggs.is_empty()) {
        (false, true) => Ok(Items::Cols(cols)),
        (true, false) => Ok(Items::Aggs(aggs)),
        _ => Err(Diag::at(
            cols.first().map(|c| c.1).unwrap_or_else(|| aggs[0].span),
            "cannot mix plain columns with aggregates in one select",
        )),
    }
}

fn parse_opt_where(c: &mut Cursor<'_>) -> Result<Option<Raw>, Diag> {
    let Some(next) = c.peek()? else {
        return Ok(None);
    };
    match &next.tok {
        Tok::Ident(w) if w == "where" => {
            c.next()?;
            let (text, span) = c.rest();
            if text.is_empty() {
                return Err(Diag::at(
                    Span::point(span.start),
                    "expected a predicate after `where`",
                ));
            }
            Ok(Some(Raw {
                text: text.to_string(),
                span,
            }))
        }
        _ => Err(Diag::at(
            next.span,
            format!(
                "expected `where` or end of line, found {}",
                next.tok.describe()
            ),
        )),
    }
}

// ---- token-level helpers ----------------------------------------------

fn expect_next(c: &mut Cursor<'_>, what: &str) -> Result<Spanned, Diag> {
    match c.next()? {
        Some(s) => Ok(s),
        None => Err(Diag::at(
            Span::point(c.pos()),
            format!("expected {what}, found end of line"),
        )),
    }
}

fn expect_ident(c: &mut Cursor<'_>, what: &str) -> Result<(String, Span), Diag> {
    let s = expect_next(c, what)?;
    match s.tok {
        Tok::Ident(w) => Ok((w, s.span)),
        other => Err(Diag::at(
            s.span,
            format!("expected {what}, found {}", other.describe()),
        )),
    }
}

fn expect_keyword(c: &mut Cursor<'_>, kw: &str) -> Result<Span, Diag> {
    let (word, span) = expect_ident(c, &format!("`{kw}`"))?;
    if word == kw {
        Ok(span)
    } else {
        Err(Diag::at(span, format!("expected `{kw}`, found `{word}`")))
    }
}

fn expect_string(c: &mut Cursor<'_>, what: &str) -> Result<Raw, Diag> {
    let s = expect_next(c, what)?;
    match s.tok {
        Tok::Str(text) => Ok(Raw { text, span: s.span }),
        other => Err(Diag::at(
            s.span,
            format!(
                "expected {what} in double quotes, found {}",
                other.describe()
            ),
        )),
    }
}

fn expect_int(c: &mut Cursor<'_>, what: &str) -> Result<(i64, Span), Diag> {
    let s = expect_next(c, what)?;
    match s.tok {
        Tok::Int(n) => Ok((n, s.span)),
        other => Err(Diag::at(
            s.span,
            format!("expected {what}, found {}", other.describe()),
        )),
    }
}

fn expect_punct(c: &mut Cursor<'_>, p: char) -> Result<Span, Diag> {
    let s = expect_next(c, &format!("`{p}`"))?;
    match s.tok {
        Tok::Punct(q) if q == p => Ok(s.span),
        other => Err(Diag::at(
            s.span,
            format!("expected `{p}`, found {}", other.describe()),
        )),
    }
}

fn expect_arrow(c: &mut Cursor<'_>) -> Result<(), Diag> {
    let s = expect_next(c, "`->`")?;
    match s.tok {
        Tok::Arrow => Ok(()),
        other => Err(Diag::at(
            s.span,
            format!("expected `->`, found {}", other.describe()),
        )),
    }
}

fn peek_punct(c: &mut Cursor<'_>, p: char) -> Result<bool, Diag> {
    Ok(matches!(c.peek()?, Some(Spanned { tok: Tok::Punct(q), .. }) if q == p))
}

fn expect_end(c: &mut Cursor<'_>) -> Result<(), Diag> {
    match c.peek()? {
        None => Ok(()),
        Some(s) => Err(Diag::at(
            s.span,
            format!("unexpected trailing {}", s.tok.describe()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_with_widths_fds_and_storage() {
        let cmd = parse_line(
            r#"create relation flows(local:16, remote:16, bytes) fd local, remote -> bytes at "/tmp/w""#,
        )
        .unwrap();
        let Command::Create {
            name,
            cols,
            fds,
            at,
            using,
        } = cmd
        else {
            panic!("not a create");
        };
        assert_eq!(name.0, "flows");
        assert_eq!(
            cols.iter()
                .map(|c| (c.name.as_str(), c.bits))
                .collect::<Vec<_>>(),
            vec![("local", Some(16)), ("remote", Some(16)), ("bytes", None)]
        );
        assert_eq!(fds.len(), 1);
        assert_eq!(fds[0].from.len(), 2);
        assert_eq!(fds[0].to[0].0, "bytes");
        assert_eq!(at.unwrap().text, "/tmp/w");
        assert!(using.is_none());
    }

    #[test]
    fn create_using_captures_raw_let_notation() {
        let cmd =
            parse_line("create relation kv(k, v) fd k -> v using let x : {} . {k,v} = {k} -[htable]-> unit {v} in x")
                .unwrap();
        let Command::Create { using, .. } = cmd else {
            panic!()
        };
        assert_eq!(
            using.unwrap().text,
            "let x : {} . {k,v} = {k} -[htable]-> unit {v} in x"
        );
    }

    #[test]
    fn parses_select_join_where() {
        let cmd =
            parse_line("select local, owner, sum(bytes) from flows join addrs where tier = 1");
        // Mixing columns and aggregates is rejected.
        assert!(cmd.unwrap_err().message.contains("cannot mix"));

        let cmd =
            parse_line("select sum(bytes), count(*) from flows join addrs where tier = 1").unwrap();
        let Command::Select(sel) = cmd else { panic!() };
        assert_eq!(
            sel.rels.iter().map(|r| r.0.as_str()).collect::<Vec<_>>(),
            vec!["flows", "addrs"]
        );
        let Items::Aggs(aggs) = sel.items else {
            panic!()
        };
        assert_eq!(aggs.len(), 2);
        assert_eq!(sel.where_raw.unwrap().text, "tier = 1");
    }

    #[test]
    fn blank_and_comment_lines_are_nothing() {
        assert_eq!(parse_line("").unwrap(), Command::Nothing);
        assert_eq!(parse_line("   # hi").unwrap(), Command::Nothing);
        assert_eq!(parse_line("-- note").unwrap(), Command::Nothing);
    }

    #[test]
    fn errors_carry_spans() {
        let err = parse_line("selct * from t").unwrap_err();
        assert!(err.message.contains("unknown command"));
        assert_eq!(err.span, Some(Span::new(0, 5)));

        let err = parse_line("select * from").unwrap_err();
        assert!(err.message.contains("end of line"));

        let err = parse_line("select * from t garbage").unwrap_err();
        assert!(err.message.contains("expected `where`"));

        let err = parse_line("create relation t(a:99)").unwrap_err();
        assert!(err.message.contains("bit width"));

        let err = parse_line("select count(bytes) from t").unwrap_err();
        assert!(err.message.contains("count"));
    }
}
