//! A text parser for FO and temporal formulas, so tests and examples can
//! state properties close to how the paper prints them.
//!
//! # Grammar (informal)
//!
//! ```text
//! property := ['forall' ident+ '.'] temporal
//! temporal := iff
//! iff      := implies ('<->' implies)*
//! implies  := or ('->' implies)?              (right associative)
//! or       := and ('|' and)*
//! and      := until ('&' until)*
//! until    := unary (('U'|'B') until)?        (right associative)
//! unary    := '!' unary | 'X' unary | 'F' unary | 'G' unary
//!           | 'E' unary | 'A' unary
//!           | ('exists'|'forall') ident+ '.' temporal   (body must be FO)
//!           | primary
//! primary  := 'true' | 'false' | '(' temporal ')'
//!           | ident '(' term (',' term)* ')'   (relational atom)
//!           | term ('='|'!=') term             (equality)
//!           | ident                            (proposition)
//! term     := ident | '"' chars '"' | integer
//! ```
//!
//! An identifier in term position denotes a **variable** when it is bound
//! by an enclosing quantifier or listed in the caller's free-variable
//! declaration, and a **named constant** otherwise — matching the paper's
//! convention (`name`, `password` are constants; `x, y, pid` variables).
//! The single letters `X F G U B E A` are reserved operator tokens.
//!
//! Nesting is capped at [`MAX_NESTING`] levels: every prefix operator,
//! quantifier, parenthesis and right-associative `->`/`U`/`B` step
//! counts one. The parser recurses once per level, and so does every
//! later pass over the tree (NNF/PNF, LTL→Büchi, fingerprinting, lint),
//! so the cap is what turns a hostile `((((…` into a typed
//! [`ParseError`] instead of a stack overflow that aborts the process.
//!
//! Growth is capped too. `a <-> b` desugars to `(a -> b) & (b -> a)`,
//! copying both sides, so a chain of `n` links has an AST exponential in
//! `n`. Before each such copy the parser adds the nodes it would copy to
//! a per-formula total and refuses past [`MAX_FORMULA_NODES`] with a
//! typed [`ParseError`], so a few hundred bytes of `<->` cannot exhaust
//! time or memory: every AST stays within the token count plus the cap.

use std::fmt;

use crate::formula::{Formula, Term, Var};
use crate::span::{line_col, Span, SpanTable};
use crate::temporal::{Property, TFormula};
use crate::value::Value;

/// Parse failure with byte position, `line:column`, and message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source (kept for tooling).
    pub pos: usize,
    /// 1-based line of `pos`.
    pub line: u32,
    /// 1-based column of `pos`, counted in characters.
    pub col: u32,
    /// Human-readable description.
    pub msg: String,
}

impl ParseError {
    /// Builds an error at byte `pos` of `src`, computing `line:column`.
    pub fn at(src: &str, pos: usize, msg: impl Into<String>) -> ParseError {
        let (line, col) = line_col(src, pos);
        ParseError {
            pos,
            line,
            col,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Deepest nesting the parser accepts (see the module docs for what
/// counts as a level). The same cap as the serving protocol's JSON
/// depth; written properties nest under a dozen levels.
pub const MAX_NESTING: usize = 128;

/// Most AST nodes (as counted by [`TFormula::size`]) the desugaring
/// copies of one formula may add, summed over the formula (see the
/// module docs). Far above any written property: after desugaring, the
/// largest of the demo properties, the wave-qa generator's and the
/// wave-load corpus has 23 nodes. A 10-link `<->` chain (8,124 copied
/// nodes) still fits, so a refusal copies at most a few thousand nodes.
pub const MAX_FORMULA_NODES: usize = 8_192;

const RESERVED_OPS: &[&str] = &["X", "F", "G", "U", "B", "E", "A"];
const KEYWORDS: &[&str] = &["true", "false", "exists", "forall"];

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Dot,
    Eq,
    Neq,
    Bang,
    Amp,
    Pipe,
    Arrow,
    DArrow,
}

struct Lexer<'a> {
    src: &'a str,
    /// `(start, end, token)`: half-open byte range of each token.
    toks: Vec<(usize, usize, Tok)>,
}

fn lex(src: &str) -> Result<Vec<(usize, usize, Tok)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                toks.push((i, i + 1, Tok::LParen));
                i += 1;
            }
            ')' => {
                toks.push((i, i + 1, Tok::RParen));
                i += 1;
            }
            ',' => {
                toks.push((i, i + 1, Tok::Comma));
                i += 1;
            }
            '.' => {
                toks.push((i, i + 1, Tok::Dot));
                i += 1;
            }
            '&' => {
                toks.push((i, i + 1, Tok::Amp));
                i += 1;
            }
            '|' => {
                toks.push((i, i + 1, Tok::Pipe));
                i += 1;
            }
            '=' => {
                toks.push((i, i + 1, Tok::Eq));
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    toks.push((i, i + 2, Tok::Neq));
                    i += 2;
                } else {
                    toks.push((i, i + 1, Tok::Bang));
                    i += 1;
                }
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    toks.push((i, i + 2, Tok::Arrow));
                    i += 2;
                } else if bytes
                    .get(i + 1)
                    .map(|b| b.is_ascii_digit())
                    .unwrap_or(false)
                {
                    let start = i;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let n: i64 = src[start..i]
                        .parse()
                        .map_err(|_| ParseError::at(src, start, "bad integer"))?;
                    toks.push((start, i, Tok::Int(n)));
                } else {
                    return Err(ParseError::at(src, i, "unexpected `-`"));
                }
            }
            '<' => {
                if src[i..].starts_with("<->") {
                    toks.push((i, i + 3, Tok::DArrow));
                    i += 3;
                } else {
                    return Err(ParseError::at(src, i, "unexpected `<`"));
                }
            }
            '"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(ParseError::at(src, start, "unterminated string literal"));
                    }
                    match bytes[i] as char {
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\\' => {
                            let esc = bytes
                                .get(i + 1)
                                .copied()
                                .ok_or_else(|| ParseError::at(src, i, "dangling escape"))?
                                as char;
                            s.push(esc);
                            i += 2;
                        }
                        other => {
                            s.push(other);
                            i += 1;
                        }
                    }
                }
                toks.push((start, i, Tok::Str(s)));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: i64 = src[start..i]
                    .parse()
                    .map_err(|_| ParseError::at(src, start, "bad integer"))?;
                toks.push((start, i, Tok::Int(n)));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                toks.push((start, i, Tok::Ident(src[start..i].to_string())));
            }
            other => {
                return Err(ParseError::at(src, i, format!("unexpected `{other}`")));
            }
        }
    }
    Ok(toks)
}

struct Parser<'a> {
    lx: Lexer<'a>,
    pos: usize,
    scope: Vec<Var>,
    /// Where each FO atom, equality and quantifier came from; `None`
    /// unless a `_spanned` entry point asked for it, so the plain
    /// parsers never clone a subformula into a table.
    spans: Option<SpanTable>,
    /// Levels currently open, bounded by [`MAX_NESTING`].
    depth: usize,
    /// Nodes copied by desugaring so far, bounded by
    /// [`MAX_FORMULA_NODES`].
    copied: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str, free: &[&str], spanned: bool) -> Result<Self, ParseError> {
        let toks = lex(src)?;
        Ok(Parser {
            lx: Lexer { src, toks },
            pos: 0,
            scope: free.iter().map(|s| s.to_string()).collect(),
            spans: spanned.then(SpanTable::new),
            depth: 0,
            copied: 0,
        })
    }

    /// Records `f` as spanning from `start` to the end of the last
    /// consumed token, when spans are being recorded.
    fn record(&mut self, f: &Formula, start: usize) {
        let end = self.prev_end();
        if let Some(spans) = &mut self.spans {
            spans.record(f, Span::new(start, end));
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.lx.toks.get(self.pos).map(|(_, _, t)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.lx.toks.get(self.pos + 1).map(|(_, _, t)| t)
    }

    fn here(&self) -> usize {
        self.lx
            .toks
            .get(self.pos)
            .map(|(p, _, _)| *p)
            .unwrap_or(self.lx.src.len())
    }

    /// End byte of the most recently consumed token.
    fn prev_end(&self) -> usize {
        if self.pos == 0 {
            0
        } else {
            self.lx.toks[self.pos - 1].1
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.lx.toks.get(self.pos).map(|(_, _, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn err(&self, msg: String) -> ParseError {
        ParseError::at(self.lx.src, self.here(), msg)
    }

    /// Runs `f` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("formula nested deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn parse_temporal(&mut self) -> Result<TFormula, ParseError> {
        self.parse_iff()
    }

    fn parse_iff(&mut self) -> Result<TFormula, ParseError> {
        let mut lhs = self.parse_implies()?;
        while self.peek() == Some(&Tok::DArrow) {
            let at = self.here();
            self.bump();
            let rhs = self.parse_implies()?;
            self.copied += lhs.size() + rhs.size();
            if self.copied > MAX_FORMULA_NODES {
                return Err(ParseError::at(
                    self.lx.src,
                    at,
                    format!("`<->` desugaring copies more than {MAX_FORMULA_NODES} formula nodes"),
                ));
            }
            lhs = tand(vec![timplies(lhs.clone(), rhs.clone()), timplies(rhs, lhs)]);
        }
        Ok(lhs)
    }

    fn parse_implies(&mut self) -> Result<TFormula, ParseError> {
        let lhs = self.parse_or()?;
        if self.peek() == Some(&Tok::Arrow) {
            self.bump();
            let rhs = self.nested(Self::parse_implies)?;
            Ok(timplies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<TFormula, ParseError> {
        let mut parts = vec![self.parse_and()?];
        while self.peek() == Some(&Tok::Pipe) {
            self.bump();
            parts.push(self.parse_and()?);
        }
        Ok(tor(parts))
    }

    fn parse_and(&mut self) -> Result<TFormula, ParseError> {
        let mut parts = vec![self.parse_until()?];
        while self.peek() == Some(&Tok::Amp) {
            self.bump();
            parts.push(self.parse_until()?);
        }
        Ok(tand(parts))
    }

    fn parse_until(&mut self) -> Result<TFormula, ParseError> {
        let lhs = self.parse_unary()?;
        match self.peek() {
            Some(Tok::Ident(op)) if op == "U" || op == "B" => {
                let op = op.clone();
                self.bump();
                let rhs = self.nested(Self::parse_until)?;
                Ok(if op == "U" {
                    TFormula::until(lhs, rhs)
                } else {
                    TFormula::before(lhs, rhs)
                })
            }
            _ => Ok(lhs),
        }
    }

    fn parse_unary(&mut self) -> Result<TFormula, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Bang) => {
                self.bump();
                let f = self.nested(Self::parse_unary)?;
                Ok(tnot(f))
            }
            Some(Tok::Ident(id)) if RESERVED_OPS.contains(&id.as_str()) => {
                self.bump();
                let f = self.nested(Self::parse_unary)?;
                Ok(match id.as_str() {
                    "X" => TFormula::next(f),
                    "F" => TFormula::eventually(f),
                    "G" => TFormula::always(f),
                    "E" => TFormula::exists_path(f),
                    "A" => TFormula::all_paths(f),
                    other => return Err(self.err(format!("`{other}` is not a prefix operator"))),
                })
            }
            Some(Tok::Ident(id)) if id == "exists" || id == "forall" => {
                let start = self.here();
                self.bump();
                let mut vars = Vec::new();
                while let Some(Tok::Ident(v)) = self.peek() {
                    if RESERVED_OPS.contains(&v.as_str()) || KEYWORDS.contains(&v.as_str()) {
                        return Err(self.err(format!("`{v}` cannot be a variable")));
                    }
                    vars.push(v.clone());
                    self.bump();
                }
                if vars.is_empty() {
                    return Err(self.err("expected at least one variable".into()));
                }
                self.expect(&Tok::Dot, "`.` after quantified variables")?;
                let depth = self.scope.len();
                self.scope.extend(vars.iter().cloned());
                let body = self.nested(Self::parse_unary)?;
                self.scope.truncate(depth);
                let fo = to_fo(&body).ok_or_else(|| {
                    self.err("FO quantifier body may not contain temporal operators".into())
                })?;
                let q = if id == "exists" {
                    Formula::exists(vars, fo)
                } else {
                    Formula::forall(vars, fo)
                };
                self.record(&q, start);
                Ok(TFormula::Fo(q))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<TFormula, ParseError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                self.bump();
                let f = self.nested(Self::parse_temporal)?;
                self.expect(&Tok::RParen, "`)`")?;
                // A parenthesized formula may still be an equality LHS?
                // No: equalities use term syntax, not parens. Done.
                Ok(f)
            }
            Some(Tok::Ident(id)) if id == "true" => {
                self.bump();
                Ok(TFormula::Fo(Formula::True))
            }
            Some(Tok::Ident(id)) if id == "false" => {
                self.bump();
                Ok(TFormula::Fo(Formula::False))
            }
            Some(Tok::Ident(id)) => {
                if RESERVED_OPS.contains(&id.as_str()) {
                    return Err(self.err(format!("`{id}` is a reserved operator")));
                }
                let start = self.here();
                // atom, equality, or proposition — decide by lookahead
                match self.peek2() {
                    Some(Tok::LParen) => {
                        self.bump(); // ident
                        self.bump(); // (
                        let mut args = Vec::new();
                        if self.peek() != Some(&Tok::RParen) {
                            loop {
                                args.push(self.parse_term()?);
                                if self.peek() == Some(&Tok::Comma) {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(&Tok::RParen, "`)` after atom arguments")?;
                        let f = Formula::rel(id, args);
                        self.record(&f, start);
                        Ok(TFormula::Fo(f))
                    }
                    Some(Tok::Eq) | Some(Tok::Neq) => {
                        let lhs = self.parse_term()?;
                        let neq = self.peek() == Some(&Tok::Neq);
                        self.bump();
                        let rhs = self.parse_term()?;
                        let f = if neq {
                            Formula::neq(lhs, rhs)
                        } else {
                            Formula::eq(lhs, rhs)
                        };
                        self.record(&f, start);
                        Ok(TFormula::Fo(f))
                    }
                    _ => {
                        self.bump();
                        let f = Formula::prop(id);
                        self.record(&f, start);
                        Ok(TFormula::Fo(f))
                    }
                }
            }
            Some(Tok::Str(_)) | Some(Tok::Int(_)) => {
                // literal must start an equality
                let start = self.here();
                let lhs = self.parse_term()?;
                let neq = match self.peek() {
                    Some(Tok::Eq) => false,
                    Some(Tok::Neq) => true,
                    _ => return Err(self.err("expected `=` or `!=` after literal".into())),
                };
                self.bump();
                let rhs = self.parse_term()?;
                let f = if neq {
                    Formula::neq(lhs, rhs)
                } else {
                    Formula::eq(lhs, rhs)
                };
                self.record(&f, start);
                Ok(TFormula::Fo(f))
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::Ident(id)) => {
                if RESERVED_OPS.contains(&id.as_str()) || KEYWORDS.contains(&id.as_str()) {
                    return Err(self.err(format!("`{id}` cannot be a term")));
                }
                if self.scope.contains(&id) {
                    Ok(Term::Var(id))
                } else {
                    Ok(Term::Const(id))
                }
            }
            Some(Tok::Str(s)) => Ok(Term::Lit(Value::str(s))),
            Some(Tok::Int(n)) => Ok(Term::Lit(Value::Int(n))),
            other => Err(self.err(format!("expected a term, got {other:?}"))),
        }
    }
}

fn to_fo(f: &TFormula) -> Option<Formula> {
    match f {
        TFormula::Fo(g) => Some(g.clone()),
        TFormula::Not(g) => Some(Formula::not(to_fo(g)?)),
        TFormula::And(fs) => {
            let parts: Option<Vec<_>> = fs.iter().map(to_fo).collect();
            Some(Formula::and(parts?))
        }
        TFormula::Or(fs) => {
            let parts: Option<Vec<_>> = fs.iter().map(to_fo).collect();
            Some(Formula::or(parts?))
        }
        _ => None,
    }
}

/// Collapses boolean combinations of pure-FO children into single FO nodes,
/// maximizing the FO components the verifiers treat atomically.
fn fuse(f: TFormula) -> TFormula {
    if let Some(g) = to_fo(&f) {
        return TFormula::Fo(g);
    }
    match f {
        TFormula::Not(g) => TFormula::not(fuse(*g)),
        TFormula::And(fs) => TFormula::and(fs.into_iter().map(fuse)),
        TFormula::Or(fs) => TFormula::or(fs.into_iter().map(fuse)),
        TFormula::X(g) => TFormula::next(fuse(*g)),
        TFormula::F(g) => TFormula::eventually(fuse(*g)),
        TFormula::G(g) => TFormula::always(fuse(*g)),
        TFormula::U(a, b) => TFormula::until(fuse(*a), fuse(*b)),
        TFormula::B(a, b) => TFormula::before(fuse(*a), fuse(*b)),
        TFormula::Path(q, g) => TFormula::Path(q, Box::new(fuse(*g))),
        TFormula::Fo(g) => TFormula::Fo(g),
    }
}

fn tnot(f: TFormula) -> TFormula {
    TFormula::not(f)
}
fn tand(fs: Vec<TFormula>) -> TFormula {
    TFormula::and(fs)
}
fn tor(fs: Vec<TFormula>) -> TFormula {
    TFormula::or(fs)
}
fn timplies(a: TFormula, b: TFormula) -> TFormula {
    TFormula::implies(a, b)
}

/// Parses a pure FO formula. Identifiers in `free` (plus quantified names)
/// are variables; all other identifiers in term position are constants.
pub fn parse_fo(src: &str, free: &[&str]) -> Result<Formula, ParseError> {
    parse_fo_with(src, free, false).map(|(f, _)| f)
}

/// Like [`parse_fo`], but also returns the [`SpanTable`] mapping each
/// atom, equality and quantifier to its byte range in `src`, plus the
/// whole formula to the full token range.
pub fn parse_fo_spanned(src: &str, free: &[&str]) -> Result<(Formula, SpanTable), ParseError> {
    parse_fo_with(src, free, true).map(|(f, spans)| (f, spans.unwrap_or_default()))
}

fn parse_fo_with(
    src: &str,
    free: &[&str],
    spanned: bool,
) -> Result<(Formula, Option<SpanTable>), ParseError> {
    let mut p = Parser::new(src, free, spanned)?;
    let f = p.parse_temporal()?;
    if p.pos != p.lx.toks.len() {
        return Err(p.err("trailing input".into()));
    }
    let full = full_span(&p);
    let g = to_fo(&fuse(f)).ok_or_else(|| {
        ParseError::at(
            src,
            0,
            "formula contains temporal operators; use parse_temporal",
        )
    })?;
    let mut spans = p.spans;
    if let Some(spans) = &mut spans {
        spans.record(&g, full);
    }
    Ok((g, spans))
}

/// Parses a temporal (LTL-FO / CTL(\*)-FO) formula.
pub fn parse_temporal(src: &str, free: &[&str]) -> Result<TFormula, ParseError> {
    parse_temporal_with(src, free, false).map(|(f, _)| f)
}

/// Like [`parse_temporal`], but also returns the [`SpanTable`] of the
/// FO atoms, equalities and quantifiers embedded in the formula.
pub fn parse_temporal_spanned(
    src: &str,
    free: &[&str],
) -> Result<(TFormula, SpanTable), ParseError> {
    parse_temporal_with(src, free, true).map(|(f, spans)| (f, spans.unwrap_or_default()))
}

fn parse_temporal_with(
    src: &str,
    free: &[&str],
    spanned: bool,
) -> Result<(TFormula, Option<SpanTable>), ParseError> {
    let mut p = Parser::new(src, free, spanned)?;
    let f = p.parse_temporal()?;
    if p.pos != p.lx.toks.len() {
        return Err(p.err("trailing input".into()));
    }
    Ok((fuse(f), p.spans))
}

/// Byte range covering every token the parser consumed.
fn full_span(p: &Parser<'_>) -> Span {
    let start = p.lx.toks.first().map(|(s, _, _)| *s).unwrap_or(0);
    let end = p.lx.toks.last().map(|(_, e, _)| *e).unwrap_or(0);
    Span::new(start, end)
}

/// Parses a property: an optional leading universal closure
/// `forall x y . <temporal>`. Without the prefix, the closure is taken over
/// all free variables.
pub fn parse_property(src: &str) -> Result<Property, ParseError> {
    let trimmed = src.trim_start();
    if let Some(rest) = trimmed.strip_prefix("forall") {
        // Leading closure only if a `.` appears before any other structure:
        // parse the variable list manually.
        let mut vars = Vec::new();
        let mut it = rest.char_indices().peekable();
        let mut cur = String::new();
        let mut end = None;
        while let Some((i, c)) = it.next() {
            if c.is_ascii_alphanumeric() || c == '_' {
                cur.push(c);
            } else if c.is_whitespace() {
                if !cur.is_empty() {
                    vars.push(std::mem::take(&mut cur));
                }
            } else if c == '.' {
                if !cur.is_empty() {
                    vars.push(std::mem::take(&mut cur));
                }
                end = Some(i + 1);
                break;
            } else {
                break; // not a closure prefix after all
            }
            let _ = &it;
        }
        if let Some(end) = end {
            if !vars.is_empty() && vars.iter().all(|v| !KEYWORDS.contains(&v.as_str())) {
                let refs: Vec<&str> = vars.iter().map(|s| s.as_str()).collect();
                let body = parse_temporal(&rest[end..], &refs)?;
                return Property::with_vars(vars, body).map_err(|msg| ParseError::at(src, 0, msg));
            }
        }
    }
    let body = parse_temporal(src, &[])?;
    Ok(Property::close(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TemporalClass;

    #[test]
    fn parse_atoms_and_props() {
        let f = parse_fo("HP", &[]).unwrap();
        assert_eq!(f, Formula::prop("HP"));
        let g = parse_fo("user(name, password)", &[]).unwrap();
        assert_eq!(
            g,
            Formula::rel("user", vec![Term::cst("name"), Term::cst("password")])
        );
    }

    #[test]
    fn free_vars_vs_constants() {
        let f = parse_fo("pick(pid, price)", &["pid", "price"]).unwrap();
        assert_eq!(
            f,
            Formula::rel("pick", vec![Term::var("pid"), Term::var("price")])
        );
        let g = parse_fo("pick(pid, price)", &[]).unwrap();
        assert_eq!(
            g,
            Formula::rel("pick", vec![Term::cst("pid"), Term::cst("price")])
        );
    }

    #[test]
    fn literals_and_equality() {
        let f = parse_fo("button(\"login\")", &[]).unwrap();
        assert_eq!(f, Formula::rel("button", vec![Term::lit("login")]));
        let g = parse_fo("x = \"search\" | x = 42", &["x"]).unwrap();
        assert_eq!(
            g,
            Formula::or([
                Formula::eq(Term::var("x"), Term::lit("search")),
                Formula::eq(Term::var("x"), Term::lit(42)),
            ])
        );
        let h = parse_fo("x != -3", &["x"]).unwrap();
        assert_eq!(h, Formula::neq(Term::var("x"), Term::lit(-3)));
    }

    #[test]
    fn quantifiers_bind() {
        let f = parse_fo("exists x . (I(x) & x != min)", &[]).unwrap();
        assert_eq!(
            f,
            Formula::exists(
                vec!["x".into()],
                Formula::and([
                    Formula::rel("I", vec![Term::var("x")]),
                    Formula::neq(Term::var("x"), Term::cst("min")),
                ])
            )
        );
    }

    #[test]
    fn quantifier_scope_is_unary() {
        // exists binds only the next unary formula: `exists x . p(x) & q`
        // parses as (exists x. p(x)) & q
        let f = parse_fo("exists x . p(x) & q", &[]).unwrap();
        assert_eq!(
            f,
            Formula::and([
                Formula::exists(vec!["x".into()], Formula::rel("p", vec![Term::var("x")])),
                Formula::prop("q"),
            ])
        );
    }

    #[test]
    fn precedence_and_over_or() {
        let f = parse_fo("a & b | c", &[]).unwrap();
        assert_eq!(
            f,
            Formula::or([
                Formula::and([Formula::prop("a"), Formula::prop("b")]),
                Formula::prop("c"),
            ])
        );
    }

    #[test]
    fn implication_right_assoc() {
        let f = parse_fo("a -> b -> c", &[]).unwrap();
        // a -> (b -> c) = !a | (!b | c)
        assert_eq!(
            f,
            Formula::or([
                Formula::not(Formula::prop("a")),
                Formula::not(Formula::prop("b")),
                Formula::prop("c"),
            ])
        );
    }

    #[test]
    fn temporal_operators() {
        let f = parse_temporal("G (!P) | F (P & F Q)", &[]).unwrap();
        assert_eq!(f.classify(), TemporalClass::Ltl);
        assert_eq!(f.to_string(), "(G (!(P)) | F ((P & F (Q))))");
    }

    #[test]
    fn until_binds_tighter_than_and() {
        let f = parse_temporal("a & b U c", &[]).unwrap();
        assert_eq!(
            f,
            TFormula::and([
                TFormula::prop("a"),
                TFormula::until(TFormula::prop("b"), TFormula::prop("c")),
            ])
        );
    }

    #[test]
    fn ctl_properties_from_example_43() {
        let f = parse_temporal("A G (E F HP)", &[]).unwrap();
        assert_eq!(f.classify(), TemporalClass::Ctl);
        let g = parse_temporal(
            "A G ((HP & button(\"login\")) -> E F button(\"authorize payment\"))",
            &[],
        )
        .unwrap();
        assert_eq!(g.classify(), TemporalClass::Ctl);
    }

    #[test]
    fn property_closure() {
        let p = parse_property("forall pid price . pick(pid, price) B !(ship(name, pid))").unwrap();
        assert_eq!(p.vars, vec!["pid".to_string(), "price".to_string()]);
        assert_eq!(p.classify(), TemporalClass::Ltl);
        // without prefix: closure over free vars (none here — all consts)
        let q = parse_property("G !(error(\"failed login\"))").unwrap();
        assert!(q.vars.is_empty());
    }

    #[test]
    fn fo_body_required_under_quantifier() {
        let err = parse_temporal("exists x . F p(x)", &[]).unwrap_err();
        assert!(err.msg.contains("temporal"));
    }

    #[test]
    fn fuse_maximizes_fo_components() {
        let f = parse_temporal("G (a & b(x))", &["x"]).unwrap();
        match f {
            TFormula::G(inner) => match *inner {
                TFormula::Fo(g) => {
                    assert_eq!(
                        g,
                        Formula::and([Formula::prop("a"), Formula::rel("b", vec![Term::var("x")])])
                    );
                }
                other => panic!("expected fused FO, got {other}"),
            },
            other => panic!("expected G, got {other}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_fo("(", &[]).is_err());
        assert!(parse_fo("a b", &[]).is_err()); // trailing input
        assert!(parse_fo("\"unterminated", &[]).is_err());
        assert!(parse_fo("exists . p", &[]).is_err());
        assert!(parse_fo("X", &[]).is_err()); // reserved
        assert!(parse_fo("p(%)", &[]).is_err());
    }

    #[test]
    fn errors_carry_line_and_column() {
        // `%` sits at byte 2 on line 1 → column 3.
        let e = parse_fo("p(%)", &[]).unwrap_err();
        assert_eq!((e.pos, e.line, e.col), (2, 1, 3));
        assert_eq!(e.to_string(), "parse error at 1:3: unexpected `%`");
        // Across a newline the line advances and the column resets.
        let e = parse_fo("p(a) &\n q(%)", &[]).unwrap_err();
        assert_eq!((e.pos, e.line, e.col), (10, 2, 4));
        assert!(e.to_string().starts_with("parse error at 2:4:"));
        // End-of-input errors point one past the last token.
        let e = parse_fo("a &", &[]).unwrap_err();
        assert_eq!((e.line, e.col), (1, 4));
    }

    #[test]
    fn spans_recorded_for_atoms_equalities_quantifiers() {
        let src = "exists x . (I(x) & x != min)";
        let (f, spans) = parse_fo_spanned(src, &[]).unwrap();
        // the atom `I(x)` covers bytes 12..16
        assert_eq!(spans.atom_span("I"), Some(crate::span::Span::new(12, 16)));
        assert_eq!(spans.atom_span("I").unwrap().snippet(src), "I(x)");
        // the equality `x != min`
        let eq = Formula::neq(Term::var("x"), Term::cst("min"));
        assert_eq!(spans.span_of(&eq).unwrap().snippet(src), "x != min");
        // the quantifier covers the whole formula
        let q = spans.quantifier_span(&["x".to_string()]).unwrap();
        assert_eq!(q.snippet(src), src);
        // the top-level formula is recorded too
        assert_eq!(spans.span_of(&f), Some(q));
    }

    #[test]
    fn spanned_and_plain_parsers_return_equal_formulas() {
        for (src, free) in [
            ("exists x . (I(x) & x != min)", &[][..]),
            (
                "user(name, password) & button(\"login\") | x = 42",
                &["x"][..],
            ),
        ] {
            assert_eq!(
                parse_fo(src, free).unwrap(),
                parse_fo_spanned(src, free).unwrap().0
            );
        }
        for (src, free) in [
            ("G (pick(x) -> F ship(x))", &["x"][..]),
            ("paid B (exists y . ship(y)) & X (COP <-> !HP)", &[][..]),
            ("A G (E F HP)", &[][..]),
        ] {
            assert_eq!(
                parse_temporal(src, free).unwrap(),
                parse_temporal_spanned(src, free).unwrap().0
            );
        }
        // And errors agree too.
        assert_eq!(
            parse_temporal("G (p(%))", &[]).unwrap_err(),
            parse_temporal_spanned("G (p(%))", &[]).unwrap_err()
        );
    }

    #[test]
    fn spans_recorded_inside_temporal_formulas() {
        let src = "G (pick(x) -> F ship(x))";
        let (_, spans) = parse_temporal_spanned(src, &["x"]).unwrap();
        assert_eq!(spans.atom_span("pick").unwrap().snippet(src), "pick(x)");
        assert_eq!(spans.atom_span("ship").unwrap().snippet(src), "ship(x)");
    }

    #[test]
    fn reserved_letters_rejected_as_terms() {
        assert!(parse_fo("r(U)", &[]).is_err());
        assert!(parse_fo("exists U . p(U)", &[]).is_err());
    }

    #[test]
    fn iff_desugars() {
        let f = parse_fo("a <-> b", &[]).unwrap();
        assert_eq!(
            f,
            Formula::and([
                Formula::or([Formula::not(Formula::prop("a")), Formula::prop("b")]),
                Formula::or([Formula::not(Formula::prop("b")), Formula::prop("a")]),
            ])
        );
    }

    #[test]
    fn string_escapes() {
        let f = parse_fo(r#"button("say \"hi\"")"#, &[]).unwrap();
        assert_eq!(f, Formula::rel("button", vec![Term::lit("say \"hi\"")]));
    }

    #[test]
    fn example_22_target_rule_parses() {
        let f = parse_fo(
            "user(name, password) & button(\"login\") & name != \"Admin\"",
            &[],
        )
        .unwrap();
        assert_eq!(f.constants_used().len(), 2);
        assert_eq!(f.relations_used().len(), 2);
    }

    /// `n` copies of `open`, then `p`, then `n` copies of `close`.
    fn nest(open: &str, close: &str, n: usize) -> String {
        format!("{}p{}", open.repeat(n), close.repeat(n))
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        // Each construct that recurses is accepted at the cap and refused
        // one level past it.
        for (open, close) in [
            ("(", ")"),
            ("X ", ""),
            ("!", ""),
            ("exists x . ", ""),
            ("p -> ", ""),
            ("p U ", ""),
            ("p B ", ""),
        ] {
            let at_cap = nest(open, close, MAX_NESTING);
            assert!(parse_property(&at_cap).is_ok(), "`{open}` at the cap");
            let e = parse_property(&nest(open, close, MAX_NESTING + 1)).unwrap_err();
            assert!(e.msg.contains("nested deeper than 128"), "`{open}`: {e}");
        }
        // The cap is per open level, not per formula.
        let wide = vec![nest("(", ")", MAX_NESTING); 4].join(" & ");
        assert!(parse_property(&wide).is_ok());
    }

    #[test]
    fn iff_chains_are_capped_by_size() {
        let chain = |links: usize| vec!["paid"; links + 1].join(" <-> ");
        // Short chains desugar as before.
        let f = parse_property(&chain(3)).expect("a short chain parses");
        assert!(f.body.size() <= MAX_FORMULA_NODES);
        // Each link doubles the AST: 40 links would be ~2^43 nodes.
        let start = std::time::Instant::now();
        let e = parse_property(&chain(40)).unwrap_err();
        assert!(e.msg.contains("formula nodes"), "{e}");
        assert!(
            start.elapsed() < std::time::Duration::from_millis(500),
            "refusal took {:?}",
            start.elapsed()
        );
        // The budget is per formula: many chains just under the cap
        // each still add up past it.
        let many = vec![format!("({})", chain(10)); 64].join(" & ");
        assert!(parse_property(&chain(10)).is_ok());
        assert!(parse_property(&many).is_err());
    }

    #[test]
    fn iff_budget_is_exact_at_the_cap() {
        // Each `(q <-> r)` copies its two one-node sides.
        let pairs = |n: usize| vec!["(q <-> r)"; n].join(" & ");
        assert!(parse_property(&pairs(MAX_FORMULA_NODES / 2)).is_ok());
        let e = parse_property(&pairs(MAX_FORMULA_NODES / 2 + 1)).unwrap_err();
        assert!(e.msg.contains("formula nodes"), "{e}");
    }

    #[test]
    fn hostile_depth_returns_err_instead_of_overflowing() {
        // Each of these overflowed an 8 MiB stack before the cap.
        for (open, close, n) in [("!", "", 100_000), ("G ", "", 100_000), ("(", ")", 10_000)] {
            assert!(parse_property(&nest(open, close, n)).is_err());
        }
    }
}
