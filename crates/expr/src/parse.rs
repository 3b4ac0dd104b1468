//! Text parser for condition expressions.
//!
//! Grammar (the paper's surface syntax, plus `&&`/`||` aliases):
//!
//! ```text
//! expr    := orExpr
//! orExpr  := andExpr ( ("_" | "||") andExpr )*
//! andExpr := factor ( ("^" | "&&") factor )*
//! factor  := atom | "(" expr ")"
//! atom    := ident op constant
//! op      := "=" | "!=" | "<" | "<=" | ">" | ">=" | "contains"
//! constant:= int | float | string | "true" | "false"
//! ```
//!
//! `^` binds tighter than `_`, matching conventional precedence.
//!
//! Parentheses nest at most [`MAX_COND_DEPTH`] deep; deeper input is a
//! [`ParseError`], so untrusted text cannot exhaust the thread stack here
//! or in the recursive passes that walk the tree afterwards.

use crate::atom::{Atom, CmpOp};
use crate::tree::CondTree;
use crate::value::Value;
use std::fmt;

/// The deepest parenthesis nesting [`parse_condition`] accepts. Every
/// later pass (rewriting, planning, `Check`, evaluation, rendering) recurses
/// once per tree level, and a condition of alternating `^`/`_` nested this
/// deep still plans and answers on a 2 MiB thread stack (the default for
/// spawned threads, serve workers included).
pub const MAX_COND_DEPTH: usize = 128;

/// A parse error with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a condition expression from its text syntax.
pub fn parse_condition(input: &str) -> Result<CondTree, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let tree = p.or_expr()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError {
            message: format!("unexpected trailing token {:?}", p.tokens[p.pos].kind),
            position: p.tokens[p.pos].at,
        });
    }
    Ok(tree)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Int(i64),
    Float(f64),
    Op(CmpOp),
    And,
    Or,
    LParen,
    RParen,
}

#[derive(Debug, Clone)]
struct Spanned {
    kind: Tok,
    at: usize,
}

fn lex(input: &str) -> Result<Vec<Spanned>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push(Spanned { kind: Tok::LParen, at: i });
                i += 1;
            }
            ')' => {
                out.push(Spanned { kind: Tok::RParen, at: i });
                i += 1;
            }
            '^' => {
                out.push(Spanned { kind: Tok::And, at: i });
                i += 1;
            }
            '&' if bytes.get(i + 1) == Some(&b'&') => {
                out.push(Spanned { kind: Tok::And, at: i });
                i += 2;
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                out.push(Spanned { kind: Tok::Or, at: i });
                i += 2;
            }
            '=' => {
                out.push(Spanned { kind: Tok::Op(CmpOp::Eq), at: i });
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Spanned { kind: Tok::Op(CmpOp::Ne), at: i });
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned { kind: Tok::Op(CmpOp::Le), at: i });
                    i += 2;
                } else {
                    out.push(Spanned { kind: Tok::Op(CmpOp::Lt), at: i });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Spanned { kind: Tok::Op(CmpOp::Ge), at: i });
                    i += 2;
                } else {
                    out.push(Spanned { kind: Tok::Op(CmpOp::Gt), at: i });
                    i += 1;
                }
            }
            '"' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(ParseError {
                                message: "unterminated string literal".into(),
                                position: start,
                            })
                        }
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            match bytes.get(i + 1) {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                other => {
                                    return Err(ParseError {
                                        message: format!("invalid escape {other:?}"),
                                        position: i,
                                    })
                                }
                            }
                            i += 2;
                        }
                        Some(_) => {
                            // Advance one UTF-8 character.
                            let ch_len = input[i..].chars().next().map(char::len_utf8).unwrap_or(1);
                            s.push_str(&input[i..i + ch_len]);
                            i += ch_len;
                        }
                    }
                }
                out.push(Spanned { kind: Tok::Str(s), at: start });
            }
            '0'..='9' | '-' => {
                let start = i;
                if c == '-' {
                    i += 1;
                }
                let mut is_float = false;
                while i < bytes.len() {
                    match bytes[i] as char {
                        '0'..='9' => i += 1,
                        '.' if !is_float => {
                            is_float = true;
                            i += 1;
                        }
                        _ => break,
                    }
                }
                let text = &input[start..i];
                let kind = if is_float {
                    Tok::Float(text.parse().map_err(|e| ParseError {
                        message: format!("bad float {text:?}: {e}"),
                        position: start,
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|e| ParseError {
                        message: format!("bad integer {text:?}: {e}"),
                        position: start,
                    })?)
                };
                out.push(Spanned { kind, at: start });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                // NOTE: a lone '_' is the Or connector; identifiers must be
                // longer or start with a letter.
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[start..i];
                let kind = match word {
                    "_" => Tok::Or,
                    "contains" => Tok::Op(CmpOp::Contains),
                    "true" => Tok::Ident("true".into()), // handled as constant in atom position
                    "false" => Tok::Ident("false".into()),
                    w => Tok::Ident(w.to_string()),
                };
                out.push(Spanned { kind, at: start });
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character {other:?}"),
                    position: i,
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Parentheses currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|s| &s.kind)
    }

    fn at(&self) -> usize {
        self.tokens.get(self.pos).map(|s| s.at).unwrap_or(usize::MAX)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|s| s.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn or_expr(&mut self) -> Result<CondTree, ParseError> {
        let mut parts = vec![self.and_expr()?];
        while self.peek() == Some(&Tok::Or) {
            self.bump();
            parts.push(self.and_expr()?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("len checked") } else { CondTree::or(parts) })
    }

    fn and_expr(&mut self) -> Result<CondTree, ParseError> {
        let mut parts = vec![self.factor()?];
        while self.peek() == Some(&Tok::And) {
            self.bump();
            parts.push(self.factor()?);
        }
        Ok(if parts.len() == 1 { parts.pop().expect("len checked") } else { CondTree::and(parts) })
    }

    fn factor(&mut self) -> Result<CondTree, ParseError> {
        match self.peek() {
            Some(Tok::LParen) => {
                if self.depth == MAX_COND_DEPTH {
                    return Err(ParseError {
                        message: format!("parentheses nested deeper than {MAX_COND_DEPTH}"),
                        position: self.at(),
                    });
                }
                self.bump();
                self.depth += 1;
                let inner = self.or_expr()?;
                self.depth -= 1;
                if self.peek() == Some(&Tok::RParen) {
                    self.bump();
                    Ok(inner)
                } else {
                    Err(ParseError { message: "expected ')'".into(), position: self.at() })
                }
            }
            Some(Tok::Ident(_)) => self.atom(),
            other => Err(ParseError {
                message: format!("expected atom or '(', found {other:?}"),
                position: self.at(),
            }),
        }
    }

    fn atom(&mut self) -> Result<CondTree, ParseError> {
        let attr = match self.bump() {
            Some(Tok::Ident(name)) => name,
            other => {
                return Err(ParseError {
                    message: format!("expected attribute name, found {other:?}"),
                    position: self.at(),
                })
            }
        };
        let op = match self.bump() {
            Some(Tok::Op(op)) => op,
            other => {
                return Err(ParseError {
                    message: format!("expected comparison operator, found {other:?}"),
                    position: self.at(),
                })
            }
        };
        let value = match self.bump() {
            Some(Tok::Int(i)) => Value::Int(i),
            Some(Tok::Float(f)) => Value::Float(f),
            Some(Tok::Str(s)) => Value::Str(s),
            Some(Tok::Ident(w)) if w == "true" => Value::Bool(true),
            Some(Tok::Ident(w)) if w == "false" => Value::Bool(false),
            other => {
                return Err(ParseError {
                    message: format!("expected constant, found {other:?}"),
                    position: self.at(),
                })
            }
        };
        Ok(CondTree::leaf(Atom { attr, op, value }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Connector;

    #[test]
    fn parses_paper_example_1_1() {
        let t = parse_condition(
            "(author = \"Sigmund Freud\" _ author = \"Carl Jung\") ^ title contains \"dreams\"",
        )
        .unwrap();
        assert_eq!(t.connector(), Some(Connector::And));
        assert_eq!(t.n_atoms(), 3);
    }

    #[test]
    fn precedence_and_binds_tighter() {
        let t = parse_condition("a = 1 ^ b = 2 _ c = 3").unwrap();
        // (a ^ b) _ c
        assert_eq!(t.connector(), Some(Connector::Or));
        assert_eq!(t.children().len(), 2);
        assert_eq!(t.children()[0].connector(), Some(Connector::And));
    }

    #[test]
    fn parens_override_precedence() {
        let t = parse_condition("a = 1 ^ (b = 2 _ c = 3)").unwrap();
        assert_eq!(t.connector(), Some(Connector::And));
        assert_eq!(t.children()[1].connector(), Some(Connector::Or));
    }

    #[test]
    fn alias_connectors() {
        let t1 = parse_condition("a = 1 && b = 2 || c = 3").unwrap();
        let t2 = parse_condition("a = 1 ^ b = 2 _ c = 3").unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn all_operators() {
        for (text, op) in [
            ("a = 1", CmpOp::Eq),
            ("a != 1", CmpOp::Ne),
            ("a < 1", CmpOp::Lt),
            ("a <= 1", CmpOp::Le),
            ("a > 1", CmpOp::Gt),
            ("a >= 1", CmpOp::Ge),
            ("a contains \"x\"", CmpOp::Contains),
        ] {
            let t = parse_condition(text).unwrap();
            let CondTree::Leaf(atom) = t else { panic!("expected leaf") };
            assert_eq!(atom.op, op, "{text}");
        }
    }

    #[test]
    fn constants() {
        assert!(matches!(
            parse_condition("a = -42").unwrap(),
            CondTree::Leaf(Atom { value: Value::Int(-42), .. })
        ));
        assert!(matches!(
            parse_condition("a = 3.5").unwrap(),
            CondTree::Leaf(Atom { value: Value::Float(_), .. })
        ));
        assert!(matches!(
            parse_condition("a = true").unwrap(),
            CondTree::Leaf(Atom { value: Value::Bool(true), .. })
        ));
    }

    #[test]
    fn string_escapes() {
        let t = parse_condition("a = \"he said \\\"hi\\\"\"").unwrap();
        let CondTree::Leaf(atom) = t else { panic!() };
        assert_eq!(atom.value, Value::str("he said \"hi\""));
    }

    #[test]
    fn errors_are_positioned() {
        let e = parse_condition("a = ").unwrap_err();
        assert!(e.message.contains("expected constant"), "{e}");
        let e = parse_condition("a = \"unterminated").unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");
        let e = parse_condition("a = 1 ) ").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
        let e = parse_condition("a = 1 @@").unwrap_err();
        assert!(e.message.contains("unexpected character"), "{e}");
    }

    #[test]
    fn display_round_trip() {
        for text in [
            "make = \"BMW\" ^ price < 40000",
            "style = \"sedan\" ^ (size = \"compact\" _ size = \"midsize\") ^ ((make = \"Toyota\" ^ price <= 20000) _ (make = \"BMW\" ^ price <= 40000))",
            "title contains \"dreams\"",
            "a = 1 ^ (b = 2 ^ c = 3)",
        ] {
            let t = parse_condition(text).unwrap();
            let rendered = t.to_string();
            let reparsed = parse_condition(&rendered).unwrap();
            // Note: rendering of nested same-connector nodes re-parses to the
            // same tree because nesting is parenthesized.
            assert_eq!(t, reparsed, "round trip failed for {text}");
        }
    }

    /// `depth` parenthesized levels alternating `^` and `_`.
    fn nested(depth: usize) -> String {
        let mut s = String::from("a = 0");
        for d in 0..depth {
            let op = if d % 2 == 0 { "^" } else { "_" };
            s = format!("(a = {d} {op} {s})");
        }
        s
    }

    #[test]
    fn nesting_is_capped() {
        assert!(parse_condition(&nested(MAX_COND_DEPTH)).is_ok());
        let deep = nested(MAX_COND_DEPTH + 1);
        let e = parse_condition(&deep).unwrap_err();
        assert!(e.message.contains("nested deeper"), "{e}");
        let excess = deep.match_indices('(').nth(MAX_COND_DEPTH).unwrap().0;
        assert_eq!(e.position, excess, "the first excess parenthesis is reported");
        // Far past the cap: typed errors, never a stack overflow.
        for depth in [5_000, 1_000_000] {
            let text = format!("{}a = 1{}", "(".repeat(depth), ")".repeat(depth));
            let e = parse_condition(&text).unwrap_err();
            assert!(e.message.contains("nested deeper"), "{e}");
        }
        // Sequential groups do not add up: the cap bounds nesting only.
        let wide = vec!["(a = 1)"; 4 * MAX_COND_DEPTH].join(" ^ ");
        assert!(parse_condition(&wide).is_ok());
    }

    #[test]
    fn unicode_in_strings() {
        let t = parse_condition("author = \"Zoë Müller\"").unwrap();
        let CondTree::Leaf(atom) = t else { panic!() };
        assert_eq!(atom.value, Value::str("Zoë Müller"));
    }
}
