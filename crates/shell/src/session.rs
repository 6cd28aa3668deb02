//! The session: named backends plus the eval loop.
//!
//! [`Session::eval`] takes one source line through parse → compile →
//! execute and returns either an [`Outcome`] or a [`Diag`]; it never
//! panics, whatever the line says. [`Session::run_script`] drives a whole
//! batch script, echoing each line and rendering diagnostics with carets,
//! and keeps going after errors — a script is a transcript, not a
//! transaction.
//!
//! A `create relation` without `using` indexes its key's first-declared
//! column (see `key_prefix_decomposition`); `show layout NAME` prints what
//! a relation got, in let-notation `using` accepts.

use crate::ast::{ColDecl, Command, FdDecl, Raw, SelectStmt};
use crate::backend::{backend_err, Backend, RemoteRel};
use crate::compiler::compile_select;
use crate::diag::Diag;
use crate::executor::{execute, explain};
use crate::parser::parse_line;
use relic_core::{Op, SynthRelation};
use relic_decomp::{check_adequacy, DecompBuilder, DecompError, Decomposition, DsKind, Prim};
use relic_persist::{DurableRelation, GroupCommitPolicy};
use relic_server::Client;
use relic_spec::{parse_pattern, Catalog, ColSet, Pattern, RelSpec, Tuple, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;

/// What a successfully evaluated line produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Text to print (may be empty for blank lines).
    Text(String),
    /// The user asked to leave.
    Quit,
}

/// A shell session: an ordered map of name → backend.
#[derive(Default)]
pub struct Session {
    rels: BTreeMap<String, Backend>,
}

impl Session {
    /// An empty session.
    pub fn new() -> Self {
        Session::default()
    }

    /// The bound relation names, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.rels.keys().map(String::as_str)
    }

    /// Evaluates one line.
    ///
    /// # Errors
    ///
    /// A [`Diag`] (render it against the same line) on any failure; the
    /// session stays usable afterwards.
    pub fn eval(&mut self, line: &str) -> Result<Outcome, Diag> {
        match parse_line(line)? {
            Command::Nothing => Ok(Outcome::Text(String::new())),
            Command::Quit => Ok(Outcome::Quit),
            Command::Help => Ok(Outcome::Text(HELP.trim_end().to_string())),
            Command::ShowRelations => self.show_relations().map(Outcome::Text),
            Command::ShowLayout { name } => {
                let (nm, backend) = self.lookup_mut(&name)?;
                Ok(Outcome::Text(match backend.decomposition()? {
                    Some(d) => d.to_let_notation(backend.catalog()).replace('\n', " "),
                    None => format!("{nm} is server-planned"),
                }))
            }
            Command::Create {
                name,
                cols,
                fds,
                at,
                using,
            } => self.create(name, cols, fds, at, using).map(Outcome::Text),
            Command::Open { name, dir } => self.open(name, dir).map(Outcome::Text),
            Command::Connect { name, addr } => self.connect(name, addr).map(Outcome::Text),
            Command::Load { name, path } => self.load(name, path).map(Outcome::Text),
            Command::Insert { name, row } => self.insert(name, row).map(Outcome::Text),
            Command::Remove { name, where_raw } => self.remove(name, where_raw).map(Outcome::Text),
            Command::Select(sel) => self.select(&sel).map(Outcome::Text),
            Command::Plan(sel) => {
                let q = compile_select(&self.rels, &sel)?;
                Ok(Outcome::Text(explain(&q)))
            }
            Command::Commit { name } => {
                let (nm, backend) = self.lookup_mut(&name)?;
                match backend.commit()? {
                    Some(seq) => Ok(Outcome::Text(format!("committed {nm} at seq {seq}"))),
                    None => Ok(Outcome::Text(format!(
                        "nothing to commit ({nm} is a memory relation)"
                    ))),
                }
            }
        }
    }

    /// Runs a batch script: echoes each line with a `> ` prefix, prints
    /// outcomes and caret-rendered diagnostics, and continues past
    /// errors. Stops early on `quit`.
    pub fn run_script(&mut self, script: &str) -> String {
        let mut out = String::new();
        for line in script.lines() {
            out.push_str("> ");
            out.push_str(line);
            out.push('\n');
            match self.eval(line) {
                Ok(Outcome::Quit) => break,
                Ok(Outcome::Text(t)) => {
                    if !t.is_empty() {
                        out.push_str(&t);
                        out.push('\n');
                    }
                }
                Err(d) => {
                    out.push_str(&d.render(line));
                    out.push('\n');
                }
            }
        }
        out
    }

    fn lookup_mut<'a>(
        &'a mut self,
        name: &'a (String, crate::diag::Span),
    ) -> Result<(&'a str, &'a mut Backend), Diag> {
        match self.rels.get_mut(&name.0) {
            Some(b) => Ok((name.0.as_str(), b)),
            None => Err(Diag::at(
                name.1,
                format!("unknown relation `{}` (see `show relations`)", name.0),
            )),
        }
    }

    /// Refuses a name the session already binds.
    fn vacant(&self, name: &(String, crate::diag::Span)) -> Result<(), Diag> {
        if self.rels.contains_key(&name.0) {
            Err(Diag::at(
                name.1,
                format!("relation `{}` already exists", name.0),
            ))
        } else {
            Ok(())
        }
    }

    fn show_relations(&self) -> Result<String, Diag> {
        if self.rels.is_empty() {
            return Ok("(no relations)".to_string());
        }
        let rows = self.rels.iter().map(|(name, b)| {
            let cols = col_list(b.catalog(), b.spec().cols());
            Ok(format!("{name}\t{}\t{} rows\t({cols})", b.kind(), b.len()?))
        });
        Ok(rows.collect::<Result<Vec<_>, Diag>>()?.join("\n"))
    }

    fn create(
        &mut self,
        name: (String, crate::diag::Span),
        cols: Vec<ColDecl>,
        fds: Vec<FdDecl>,
        at: Option<Raw>,
        using: Option<Raw>,
    ) -> Result<String, Diag> {
        self.vacant(&name)?;
        if cols.len() > 64 {
            return Err(Diag::at(cols[64].span, "a relation has at most 64 columns"));
        }
        let mut cat = Catalog::new();
        for c in &cols {
            if cat.col(&c.name).is_some() {
                return Err(Diag::at(c.span, format!("duplicate column `{}`", c.name)));
            }
            let id = cat.intern(&c.name);
            if let Some(bits) = c.bits {
                cat.declare_bit_width(id, bits);
            }
        }
        let mut spec = RelSpec::new(cat.all());
        for fd in &fds {
            let lhs = resolve_cols(&cat, &fd.from)?;
            let rhs = resolve_cols(&cat, &fd.to)?;
            spec = spec.with_fd(lhs, rhs);
        }
        let (d, span) = match &using {
            // The let-notation parser interns freely, so run it on a scratch
            // catalog; adequacy checking then rejects foreign columns with a
            // proper diagnostic.
            Some(raw) => (
                relic_decomp::parse(&mut cat.clone(), &raw.text).map_err(|e| e.to_string()),
                raw.span,
            ),
            None => (
                key_prefix_decomposition(&spec).map_err(|e| e.to_string()),
                name.1,
            ),
        };
        let d = d.map_err(|e| Diag::at(span, e))?;
        check_adequacy(&d, &spec).map_err(|e| Diag::at(span, e.to_string()))?;
        let backend = match &at {
            Some(dir) => {
                std::fs::create_dir_all(&dir.text).map_err(|e| {
                    Diag::at(dir.span, format!("cannot create `{}`: {e}", dir.text))
                })?;
                let rel = DurableRelation::create(
                    Path::new(&dir.text),
                    &cat,
                    spec,
                    d,
                    ColSet::EMPTY,
                    1,
                    !fds.is_empty(),
                    GroupCommitPolicy::default(),
                )
                .map_err(|e| Diag::at(dir.span, e.to_string()))?;
                Backend::Durable(rel)
            }
            None => Backend::Mem(
                SynthRelation::new(&cat, spec, d).map_err(|e| Diag::at(name.1, e.to_string()))?,
            ),
        };
        let kind = backend.kind();
        self.rels.insert(name.0.clone(), backend);
        Ok(format!("created {} ({kind})", name.0))
    }

    fn open(&mut self, name: (String, crate::diag::Span), dir: Raw) -> Result<String, Diag> {
        self.vacant(&name)?;
        let rel = DurableRelation::open(Path::new(&dir.text), GroupCommitPolicy::default())
            .map_err(|e| Diag::at(dir.span, e.to_string()))?;
        let n = rel.len();
        self.rels.insert(name.0.clone(), Backend::Durable(rel));
        Ok(format!("opened {} ({n} rows, durable)", name.0))
    }

    fn connect(&mut self, name: (String, crate::diag::Span), addr: Raw) -> Result<String, Diag> {
        self.vacant(&name)?;
        let mut client = Client::connect(addr.text.as_str())
            .map_err(|e| Diag::at(addr.span, format!("cannot connect to `{}`: {e}", addr.text)))?;
        let (cat, spec) = client.catalog().map_err(backend_err)?;
        let n = client.stats().map_err(backend_err)?.len;
        self.rels.insert(
            name.0.clone(),
            Backend::Remote(RemoteRel {
                client: RefCell::new(client),
                cat,
                spec,
                addr: addr.text,
            }),
        );
        Ok(format!("connected {} ({n} rows, remote)", name.0))
    }

    fn load(&mut self, name: (String, crate::diag::Span), path: Raw) -> Result<String, Diag> {
        let (nm, backend) = self.lookup_mut(&name)?;
        let text = std::fs::read_to_string(&path.text)
            .map_err(|e| Diag::at(path.span, format!("cannot read `{}`: {e}", path.text)))?;
        let sep = if path.text.ends_with(".csv") {
            ','
        } else {
            '\t'
        };
        let cat = backend.catalog();
        let spec_cols = backend.spec().cols();
        let mut lines = text.lines();
        let Some(header) = lines.next() else {
            return Err(Diag::at(path.span, "empty file (expected a header row)"));
        };
        let mut cols = Vec::new();
        for h in header.split(sep) {
            let h = h.trim();
            let Some(c) = cat.col(h) else {
                return Err(Diag::at(
                    path.span,
                    format!("header column `{h}` is not a column of `{nm}`"),
                ));
            };
            if cols.contains(&c) {
                return Err(Diag::at(
                    path.span,
                    format!("duplicate header column `{h}`"),
                ));
            }
            cols.push(c);
        }
        let have: ColSet = cols.iter().copied().collect();
        if have != spec_cols {
            return Err(Diag::at(
                path.span,
                format!(
                    "header must name every column of `{nm}` ({})",
                    col_list(cat, spec_cols)
                ),
            ));
        }
        // Sized once: a buffer grown by doubling leaves freed heap behind it
        // (verify skill, "Gotchas").
        let mut tuples = Vec::with_capacity(lines.clone().count());
        let mut cells: Vec<&str> = Vec::with_capacity(cols.len());
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            cells.clear();
            cells.extend(line.split(sep));
            if cells.len() != cols.len() {
                return Err(Diag::at(
                    path.span,
                    format!(
                        "line {}: expected {} cells, got {}",
                        i + 2,
                        cols.len(),
                        cells.len()
                    ),
                ));
            }
            let mut pairs = Vec::with_capacity(cols.len());
            for (&c, cell) in cols.iter().zip(&cells) {
                let v = parse_cell(cell.trim());
                if !cat.value_fits_width(c, &v) {
                    return Err(Diag::at(
                        path.span,
                        format!(
                            "line {}: value {v} is outside column `{}`'s declared width",
                            i + 2,
                            cat.name(c)
                        ),
                    ));
                }
                pairs.push((c, v));
            }
            tuples.push(Tuple::from_pairs(pairs));
        }
        // In batches of 4 096 rows: a batch insert's transient buffers grow
        // with it, and whole files fragmented the heap across reloads.
        let (mut rows, mut n) = (tuples.into_iter().peekable(), 0);
        while rows.peek().is_some() {
            n += backend.apply(Op::InsertMany(rows.by_ref().take(4096).collect()))?;
        }
        Ok(format!("loaded {n} rows into {nm}"))
    }

    fn insert(&mut self, name: (String, crate::diag::Span), row: Raw) -> Result<String, Diag> {
        let (nm, backend) = self.lookup_mut(&name)?;
        let p = parse_pattern(backend.catalog(), &row.text)
            .map_err(|e| Diag::at(row.span, e.to_string()))?;
        if !p.cmp_cols().is_empty() {
            return Err(Diag::at(
                row.span,
                "insert binds every column with `=` (no ranges)",
            ));
        }
        let missing = backend.spec().cols() - p.dom();
        if !missing.is_empty() {
            return Err(Diag::at(
                row.span,
                format!(
                    "insert must bind every column; missing: {}",
                    col_list(backend.catalog(), missing)
                ),
            ));
        }
        let fresh = backend.apply(Op::Insert(p.eq_tuple()))? == 1;
        Ok(if fresh {
            format!("inserted 1 into {nm}")
        } else {
            format!("inserted 0 into {nm} (duplicate)")
        })
    }

    fn remove(
        &mut self,
        name: (String, crate::diag::Span),
        where_raw: Option<Raw>,
    ) -> Result<String, Diag> {
        let (nm, backend) = self.lookup_mut(&name)?;
        let pattern = match &where_raw {
            Some(raw) => parse_pattern(backend.catalog(), &raw.text)
                .map_err(|e| Diag::at(raw.span, e.to_string()))?,
            None => Pattern::new(),
        };
        let n = backend.apply(Op::RemoveWhere(pattern))?;
        Ok(format!("removed {n} from {nm}"))
    }

    fn select(&mut self, sel: &SelectStmt) -> Result<String, Diag> {
        let q = compile_select(&self.rels, sel)?;
        execute(&self.rels, &q)
    }
}

/// The decomposition a plain `create relation` gets, read off the spec's
/// key `K`: the left side of the first declared dependency that determines
/// every column, else a minimal key. `K`'s first-declared column `k`
/// indexes the root, `{k} -[htable]-> ({K - k} -[htable]-> unit {C - K})`,
/// so a query that binds only `k` looks up instead of scanning; a
/// one-column key gets the single edge `{K} -[htable]-> unit {C - K}`.
fn key_prefix_decomposition(spec: &RelSpec) -> Result<Decomposition, DecompError> {
    let (all, fds) = (spec.cols(), spec.fds());
    let key = fds
        .iter()
        .map(|fd| fd.lhs)
        .find(|&lhs| fds.is_key(lhs, all))
        .unwrap_or_else(|| spec.minimal_key());
    let lead: ColSet = key.iter().take(1).collect();
    let mut b = DecompBuilder::new();
    let mut below = b.node("w", key, Prim::Unit(all - key))?;
    if key != lead {
        below = b.node("v", lead, Prim::Map(key - lead, DsKind::HashTable, below))?;
    }
    b.node(
        "r",
        ColSet::EMPTY,
        Prim::Map(lead, DsKind::HashTable, below),
    )?;
    b.finish()
}

/// Parses one TSV/CSV cell: integer, then boolean, then string.
fn parse_cell(cell: &str) -> Value {
    if let Ok(n) = cell.parse::<i64>() {
        return Value::Int(n);
    }
    match cell {
        "true" => Value::from(true),
        "false" => Value::from(false),
        _ => Value::from(cell),
    }
}

/// The names of `cols`, comma-separated.
fn col_list(cat: &Catalog, cols: ColSet) -> String {
    cols.iter()
        .map(|c| cat.name(c))
        .collect::<Vec<_>>()
        .join(", ")
}

fn resolve_cols(cat: &Catalog, names: &[(String, crate::diag::Span)]) -> Result<ColSet, Diag> {
    let mut cs = ColSet::EMPTY;
    for (n, span) in names {
        let Some(c) = cat.col(n) else {
            return Err(Diag::at(*span, format!("unknown column `{n}` in fd")));
        };
        cs = cs | [c].into_iter().collect::<ColSet>();
    }
    Ok(cs)
}

const HELP: &str = "\
commands:
  create relation NAME(col[:bits], ...) [fd a, b -> c]... [at \"dir\"] [using LET-NOTATION]
  open NAME from \"dir\"            open an existing durable relation
  connect NAME to \"host:port\"     attach a relation served by relic_server
  load NAME from \"file.tsv\"       bulk-load TSV/CSV with a header row
  insert NAME col = value, ...      insert one row
  remove NAME [where PRED]          remove matching rows (all rows if no where)
  select ITEMS from NAME [join NAME]... [where PRED]
      ITEMS: * | col, ... | count(*), sum(col), min(col), max(col)
      PRED:  col = v | col != v | col < v | col <= v | col > v | col >= v
             | col between lo and hi    (comma-separated, AND semantics)
  plan select ...                   show the chosen join order and plans
  commit NAME                       force a durable/remote commit
  show relations                    list session bindings
  show layout NAME                  print NAME's decomposition (pasteable into `using`)
  quit
";

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_ok(s: &mut Session, line: &str) -> String {
        match s.eval(line) {
            Ok(Outcome::Text(t)) => t,
            Ok(Outcome::Quit) => panic!("unexpected quit from {line:?}"),
            Err(d) => panic!("{line:?} failed:\n{}", d.render(line)),
        }
    }

    fn demo(s: &mut Session) {
        eval_ok(
            s,
            "create relation flows(local:16, remote:16, bytes) fd local, remote -> bytes",
        );
        eval_ok(
            s,
            "create relation addrs(local:16, owner, tier) fd local -> owner, tier",
        );
        eval_ok(s, "insert flows local = 1, remote = 7, bytes = 100");
        eval_ok(s, "insert flows local = 1, remote = 8, bytes = 50");
        eval_ok(s, "insert flows local = 2, remote = 7, bytes = 10");
        eval_ok(s, "insert addrs local = 1, owner = \"ana\", tier = 0");
        eval_ok(s, "insert addrs local = 2, owner = \"bob\", tier = 1");
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut s = Session::new();
        demo(&mut s);
        let out = eval_ok(&mut s, "select * from flows where local = 1");
        assert_eq!(out, "local\tremote\tbytes\n1\t7\t100\n1\t8\t50\n(2 rows)");
        let out = eval_ok(&mut s, "select bytes from flows where remote = 7");
        assert_eq!(out, "bytes\n10\n100\n(2 rows)");
    }

    #[test]
    fn join_unifies_columns_by_name() {
        let mut s = Session::new();
        demo(&mut s);
        let out = eval_ok(
            &mut s,
            "select owner, bytes from flows join addrs where tier = 0",
        );
        assert_eq!(out, "owner\tbytes\n\"ana\"\t50\n\"ana\"\t100\n(2 rows)");
        let out = eval_ok(
            &mut s,
            "select count(*), sum(bytes) from flows join addrs where tier = 0",
        );
        assert_eq!(out, "count(*)\tsum(bytes)\n2\t150");
        // Join order must not change the answer.
        let swapped = eval_ok(
            &mut s,
            "select count(*), sum(bytes) from addrs join flows where tier = 0",
        );
        assert_eq!(swapped, "count(*)\tsum(bytes)\n2\t150");
    }

    #[test]
    fn aggregates_and_ranges() {
        let mut s = Session::new();
        demo(&mut s);
        let out = eval_ok(
            &mut s,
            "select min(bytes), max(bytes) from flows where bytes between 20 and 200",
        );
        assert_eq!(out, "min(bytes)\tmax(bytes)\n50\t100");
        let out = eval_ok(&mut s, "select count(*) from flows where bytes != 50");
        assert_eq!(out, "count(*)\n2");
    }

    #[test]
    fn plan_reports_each_leg() {
        let mut s = Session::new();
        demo(&mut s);
        let out = eval_ok(
            &mut s,
            "plan select count(*) from flows join addrs where local = 1",
        );
        assert!(out.contains("leg 1:"), "{out}");
        assert!(out.contains("leg 2:"), "{out}");
        assert!(out.contains("memory"), "{out}");
    }

    #[test]
    fn remove_and_commit() {
        let mut s = Session::new();
        demo(&mut s);
        assert_eq!(
            eval_ok(&mut s, "remove flows where local = 1"),
            "removed 2 from flows"
        );
        assert_eq!(eval_ok(&mut s, "select count(*) from flows"), "count(*)\n1");
        assert_eq!(eval_ok(&mut s, "remove flows"), "removed 1 from flows");
        assert!(eval_ok(&mut s, "commit flows").contains("nothing to commit"));
    }

    #[test]
    fn diagnostics_carry_spans_and_session_survives() {
        let mut s = Session::new();
        demo(&mut s);
        for bad in [
            "select * from nope",
            "select zap from flows",
            "select * from flows where zap = 1",
            "select * from flows where local = 99999",
            "select * from flows where local = 1, local < 2",
            "insert flows local = 1",
            "insert flows local = 1, remote < 2, bytes = 3",
            "create relation flows(x)",
            "load flows from \"/no/such/file.tsv\"",
            "open flows2 from \"/no/such/dir\"",
            "remove flows where bytes ~ 1",
        ] {
            let err = s.eval(bad).expect_err(bad);
            let _ = err.render(bad);
        }
        // Still fully usable.
        assert_eq!(eval_ok(&mut s, "select count(*) from flows"), "count(*)\n3");
    }

    #[test]
    fn run_script_echoes_and_continues() {
        let mut s = Session::new();
        let out = s.run_script("create relation kv(k, v) fd k -> v\ninsert kv k = 1, v = 2\nbogus\nselect * from kv\nquit\nselect * from kv\n");
        assert!(
            out.contains("> bogus\nerror: unknown command `bogus`"),
            "{out}"
        );
        assert!(out.contains("k\tv\n1\t2\n(1 rows)"), "{out}");
        // Nothing after quit.
        assert!(out.ends_with("> quit\n"), "{out}");
    }

    #[test]
    fn explicit_using_decomposition_is_honored() {
        let mut s = Session::new();
        eval_ok(
            &mut s,
            "create relation kv(k, v) fd k -> v using let u : {k} . {v} = unit {v} in let x : {} . {k,v} = {k} -[htable]-> u in x",
        );
        eval_ok(&mut s, "insert kv k = 3, v = 30");
        assert_eq!(
            eval_ok(&mut s, "select v from kv where k = 3"),
            "v\n30\n(1 rows)"
        );
        let err = s
            .eval("create relation kv2(k) using let u : {k} . {zap} = unit {zap} in let x : {} . {k,zap} = {k} -[htable]-> u in x")
            .unwrap_err();
        assert!(err.message.contains("column"), "{}", err.message);
    }

    /// Every spec shape the shell suites, goldens, example and benchmark
    /// create without `using`, plus two whose key does not lead the
    /// column list: the pick is adequate, its root edge is keyed on the
    /// key's first-declared column alone, and a query binding that column
    /// looks up instead of scanning.
    #[test]
    fn plain_create_indexes_the_keys_leading_column() {
        type Fds<'a> = &'a [(&'a str, &'a str)];
        let specs: [(&str, Fds<'_>, &str); 10] = [
            ("k", &[], "k"),
            ("k, v", &[("k", "v")], "k"),
            ("local, remote", &[], "local"),
            ("local, owner, tier", &[], "local"),
            ("local, owner, tier", &[("local", "owner, tier")], "local"),
            (
                "local, remote, bytes",
                &[("local, remote", "bytes")],
                "local",
            ),
            ("local, remote, bytes, pkts", &[], "local"),
            (
                "local, remote, bytes, pkts",
                &[("local, remote", "bytes, pkts")],
                "local",
            ),
            ("owner, local, tier", &[("local", "owner, tier")], "local"),
            // The first dependency is no key; the second is, and its
            // first-declared column is `a`, whatever order the fd lists.
            ("a, b, c", &[("b", "c"), ("c, a", "b")], "a"),
        ];
        for (cols, fds, lead) in specs {
            let mut line = format!("create relation t({cols})");
            for (lhs, rhs) in fds {
                line.push_str(&format!(" fd {lhs} -> {rhs}"));
            }
            let mut s = Session::new();
            eval_ok(&mut s, &line);
            let Some(Backend::Mem(r)) = s.rels.get("t") else {
                panic!("{line}: no memory relation");
            };
            let d = r.decomposition();
            check_adequacy(d, r.spec()).unwrap_or_else(|e| panic!("{line}: {e}"));
            let relic_decomp::Body::Map(root) = d.node(d.root()).body else {
                panic!("{line}: the root is not a map");
            };
            let want: ColSet = r.catalog().col(lead).into_iter().collect();
            assert_eq!(d.edge(root).key, want, "{line}");
            let plan = eval_ok(&mut s, &format!("plan select * from t where {lead} = 1"));
            let walk = plan
                .split_once("cost ")
                .and_then(|(_, w)| w.split_once(", "));
            assert!(
                walk.is_some_and(|(_, w)| w.starts_with("qlookup")),
                "{line}: {plan}"
            );
        }
    }

    #[test]
    fn durable_create_load_reopen() {
        let dir = std::env::temp_dir().join(format!("relic_shell_t{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = dir.join("kv");
        let tsv = dir.join("kv.tsv");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&tsv, "k\tv\n1\t10\n2\t20\n").unwrap();
        let mut s = Session::new();
        eval_ok(
            &mut s,
            &format!(
                "create relation kv(k, v) fd k -> v at \"{}\"",
                wal.display()
            ),
        );
        assert_eq!(
            eval_ok(&mut s, &format!("load kv from \"{}\"", tsv.display())),
            "loaded 2 rows into kv"
        );
        assert!(eval_ok(&mut s, "commit kv").contains("committed kv"));
        drop(s);
        let mut s = Session::new();
        let out = eval_ok(&mut s, &format!("open kv from \"{}\"", wal.display()));
        assert_eq!(out, "opened kv (2 rows, durable)");
        assert_eq!(
            eval_ok(&mut s, "select * from kv where k = 2"),
            "k\tv\n2\t20\n(1 rows)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
