//! A small text format for CFDs.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! cfd   := '(' '[' atoms ']' '->' '[' atom ']' ')' | '[' atoms ']' '->' '[' atom ']'
//! atoms := atom (',' atom)*
//! atom  := NAME ('=' value)?          -- no value or '_' means wildcard
//! value := INT | "'" chars "'" | bare-chars
//! ```
//!
//! Examples (the paper's Fig. 1):
//!
//! ```text
//! ([CC=44, zip] -> [street])
//! ([CC=44, AC=131] -> [city=EDI])
//! ```
//!
//! Bare values that parse as `i64` become integers; quote them to force
//! strings (`[CC='44'] -> [street]`).
//!
//! Every diagnostic carries a [`Span`] (1-based line/column plus fragment
//! length) via [`CfdError::At`], so tools like `cfdlint` point at the
//! exact offending input. [`parse_cfds`] stops at the first error;
//! [`parse_catalog`] keeps going and collects every line's diagnostic.

use crate::cfd::{Cfd, CfdId};
use crate::pattern::PatternValue;
use crate::{CfdError, Span};
use relation::{Schema, Value};

/// Parse a single CFD from text against `schema`, assigning `id`.
/// Diagnostics are located as if `input` were line 1 of a catalog.
///
/// ```
/// let s = relation::Schema::new("EMP", &["id", "CC", "zip", "street"], "id").unwrap();
/// let phi = cfd::parse::parse_cfd(&s, 0, "([CC=44, zip] -> [street])").unwrap();
/// assert!(phi.is_variable());
/// assert_eq!(phi.display(&s).to_string(), "([CC=44, zip] -> [street])");
/// ```
pub fn parse_cfd(schema: &Schema, id: CfdId, input: &str) -> Result<Cfd, CfdError> {
    parse_cfd_at(schema, id, 1, input)
}

/// [`parse_cfd`] with an explicit 1-based source line for diagnostics.
fn parse_cfd_at(schema: &Schema, id: CfdId, line: usize, input: &str) -> Result<Cfd, CfdError> {
    let span = |start: usize, len: usize| Span {
        line,
        col: start + 1,
        len: len.max(1),
    };
    let mut base = input.len() - input.trim_start().len();
    let mut s = input.trim();
    if let Some(stripped) = s.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        base += 1;
        base += stripped.len() - stripped.trim_start().len();
        s = stripped.trim();
    }

    let Some(arrow) = s.find("->") else {
        let t = input.trim();
        return Err(CfdError::Parse(format!("missing `->` in `{t}`")).at(span(base, s.len())));
    };
    let (lhs_part, rhs_part) = (&s[..arrow], &s[arrow + 2..]);

    let lhs_atoms = parse_bracketed(line, lhs_part, base)?;
    let rhs_atoms = parse_bracketed(line, rhs_part, base + arrow + 2)?;
    if rhs_atoms.len() != 1 {
        let start = base + arrow + 2 + (rhs_part.len() - rhs_part.trim_start().len());
        return Err(CfdError::Parse(format!(
            "RHS must have exactly one attribute, got {}",
            rhs_atoms.len()
        ))
        .at(span(start, rhs_part.trim().len())));
    }

    let mut lhs_ids = Vec::with_capacity(lhs_atoms.len());
    let mut lhs_pat = Vec::with_capacity(lhs_atoms.len());
    for atom in &lhs_atoms {
        lhs_ids.push(schema.attr_id(&atom.name).map_err(|_| {
            CfdError::UnknownAttribute(atom.name.clone()).at(span(atom.start, atom.len))
        })?);
        lhs_pat.push(atom.pattern.clone());
    }
    let rhs_atom = &rhs_atoms[0];
    let rhs_id = schema.attr_id(&rhs_atom.name).map_err(|_| {
        CfdError::UnknownAttribute(rhs_atom.name.clone()).at(span(rhs_atom.start, rhs_atom.len))
    })?;

    Cfd::new(
        id,
        schema,
        lhs_ids,
        rhs_id,
        lhs_pat,
        rhs_atom.pattern.clone(),
    )
    .map_err(|e| e.at(span(base, s.len())))
}

/// Parse several CFDs, one per non-empty, non-`#`-comment line, assigning
/// contiguous ids starting at 0. Stops at the first error; use
/// [`parse_catalog`] to collect every diagnostic.
pub fn parse_cfds(schema: &Schema, input: &str) -> Result<Vec<Cfd>, CfdError> {
    let mut out = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let id = out.len() as CfdId;
        out.push(parse_cfd_at(schema, id, lineno + 1, line)?);
    }
    Ok(out)
}

/// A fully-scanned catalog text: the rules that parsed (contiguous ids),
/// the 1-based source line of each, and every failed line's located
/// diagnostic — `cfdlint` reports them all instead of stopping at the
/// first.
#[derive(Debug, Clone, Default)]
pub struct ParsedCatalog {
    /// Rules that parsed, ids contiguous from 0.
    pub cfds: Vec<Cfd>,
    /// 1-based source line of each parsed rule (aligned with `cfds`).
    pub lines: Vec<usize>,
    /// Every diagnostic, each located via [`CfdError::At`].
    pub errors: Vec<CfdError>,
}

/// Parse a whole catalog, continuing past bad lines.
pub fn parse_catalog(schema: &Schema, input: &str) -> ParsedCatalog {
    let mut out = ParsedCatalog::default();
    for (lineno, line) in input.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let id = out.cfds.len() as CfdId;
        match parse_cfd_at(schema, id, lineno + 1, line) {
            Ok(cfd) => {
                out.cfds.push(cfd);
                out.lines.push(lineno + 1);
            }
            Err(e) => out.errors.push(e),
        }
    }
    out
}

/// One parsed atom with its source position within the line.
struct Atom {
    name: String,
    pattern: PatternValue,
    start: usize,
    len: usize,
}

fn parse_bracketed(line: usize, part: &str, base: usize) -> Result<Vec<Atom>, CfdError> {
    let pbase = base + (part.len() - part.trim_start().len());
    let p = part.trim();
    let inner = p
        .strip_prefix('[')
        .and_then(|q| q.strip_suffix(']'))
        .ok_or_else(|| {
            CfdError::Parse(format!("expected `[...]`, got `{p}`")).at(Span {
                line,
                col: pbase + 1,
                len: p.len().max(1),
            })
        })?;
    let ibase = pbase + 1;
    let mut out = Vec::new();
    let mut off = 0usize;
    for raw in inner.split(',') {
        let start = ibase + off + (raw.len() - raw.trim_start().len());
        let atom = raw.trim();
        out.push(parse_atom(line, atom, start)?);
        off += raw.len() + 1;
    }
    Ok(out)
}

fn parse_atom(line: usize, atom: &str, start: usize) -> Result<Atom, CfdError> {
    let located = |len: usize| Span {
        line,
        col: start + 1,
        len: len.max(1),
    };
    if atom.is_empty() {
        return Err(CfdError::Parse("empty atom".into()).at(located(1)));
    }
    let (name, pattern) = match atom.split_once('=') {
        None => (atom.to_string(), PatternValue::Wildcard),
        Some((name, raw)) => {
            let name = name.trim().to_string();
            let raw = raw.trim();
            let pat = if raw == "_" {
                PatternValue::Wildcard
            } else if let Some(quoted) = raw.strip_prefix('\'').and_then(|r| r.strip_suffix('\'')) {
                PatternValue::Const(Value::str(quoted))
            } else if let Ok(i) = raw.parse::<i64>() {
                PatternValue::Const(Value::int(i))
            } else {
                PatternValue::Const(Value::str(raw))
            };
            (name, pat)
        }
    };
    Ok(Atom {
        name,
        pattern,
        start,
        len: atom.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new("EMP", &["id", "CC", "AC", "zip", "street", "city"], "id").unwrap()
    }

    #[test]
    fn parses_fig1_phi1() {
        let s = schema();
        let c = parse_cfd(&s, 0, "([CC=44, zip] -> [street])").unwrap();
        assert!(c.is_variable());
        assert_eq!(c.lhs, vec![1, 3]);
        assert_eq!(c.rhs, 4);
        assert_eq!(c.lhs_pattern[0], PatternValue::Const(Value::int(44)));
        assert!(c.lhs_pattern[1].is_wildcard());
        assert_eq!(c.display(&s).to_string(), "([CC=44, zip] -> [street])");
    }

    #[test]
    fn parses_fig1_phi2() {
        let s = schema();
        let c = parse_cfd(&s, 1, "([CC=44, AC=131] -> [city=EDI])").unwrap();
        assert!(c.is_constant());
        assert_eq!(c.rhs_pattern, PatternValue::Const(Value::str("EDI")));
    }

    #[test]
    fn quoted_values_force_strings_and_allow_spaces() {
        let s = schema();
        let c = parse_cfd(&s, 0, "[zip='EH4 8LE'] -> [street]").unwrap();
        assert_eq!(c.lhs_pattern[0], PatternValue::Const(Value::str("EH4 8LE")));
        let c2 = parse_cfd(&s, 0, "[CC='44'] -> [street]").unwrap();
        assert_eq!(c2.lhs_pattern[0], PatternValue::Const(Value::str("44")));
    }

    #[test]
    fn underscore_is_wildcard() {
        let s = schema();
        let c = parse_cfd(&s, 0, "[CC=_, zip=_] -> [street=_]").unwrap();
        assert!(c.is_fd());
    }

    #[test]
    fn multi_line_parse_with_comments() {
        let s = schema();
        let text = "\n# Fig. 1\n([CC=44, zip] -> [street])\n\n([CC=44, AC=131] -> [city=EDI])\n";
        let cfds = parse_cfds(&s, text).unwrap();
        assert_eq!(cfds.len(), 2);
        assert_eq!(cfds[0].id, 0);
        assert_eq!(cfds[1].id, 1);
    }

    #[test]
    fn errors_are_reported_with_spans() {
        let s = schema();
        let unwrap_at = |e: CfdError| match e {
            CfdError::At { span, inner } => (span, *inner),
            other => panic!("expected located error, got {other:?}"),
        };
        let (span, inner) = unwrap_at(parse_cfd(&s, 0, "[CC=44] [street]").unwrap_err());
        assert!(matches!(inner, CfdError::Parse(_)));
        assert_eq!(span.line, 1);

        let (span, inner) = unwrap_at(parse_cfd(&s, 0, "[nope] -> [street]").unwrap_err());
        assert!(matches!(inner, CfdError::UnknownAttribute(ref a) if a == "nope"));
        assert_eq!((span.col, span.len), (2, 4)); // `nope` right after `[`

        let (_, inner) = unwrap_at(parse_cfd(&s, 0, "[CC] -> [street, city]").unwrap_err());
        assert!(matches!(inner, CfdError::Parse(_)));

        let (_, inner) = unwrap_at(parse_cfd(&s, 0, "CC -> street").unwrap_err());
        assert!(matches!(inner, CfdError::Parse(_)));
    }

    #[test]
    fn spans_locate_the_offending_line_and_atom() {
        let s = schema();
        let text = "# ok\n([CC=44, zip] -> [street])\n([CC, bogus] -> [city])\n";
        let err = parse_cfds(&s, text).unwrap_err();
        let span = err.span().expect("located");
        assert_eq!(span.line, 3);
        assert_eq!(span.col, 7); // `bogus` starts at byte 6 of the line
        assert_eq!(span.len, 5);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn parse_catalog_collects_all_errors_and_line_map() {
        let s = schema();
        let text =
            "([CC=44, zip] -> [street])\n[nope] -> [city]\n\n[AC] -> [oops]\n[zip] -> [city]\n";
        let cat = parse_catalog(&s, text);
        assert_eq!(cat.cfds.len(), 2);
        assert_eq!(cat.lines, vec![1, 5]);
        assert_eq!(cat.cfds[1].id, 1, "ids stay contiguous past bad lines");
        assert_eq!(cat.errors.len(), 2);
        assert_eq!(cat.errors[0].span().unwrap().line, 2);
        assert_eq!(cat.errors[1].span().unwrap().line, 4);
    }
}
