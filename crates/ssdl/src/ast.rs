//! The SSDL description AST — the triplet ⟨S, G, A⟩ of §4.
//!
//! `S` is the set of *condition nonterminals* (those directly derivable from
//! the implicit start symbol `s`), `G` the CFG rules, and `A` the attribute
//! associations: for each condition nonterminal, the set of attributes the
//! source exports when a query parses through it.

use crate::error::SsdlError;
use crate::token::Term;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A grammar symbol in a rule body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Sym {
    /// Reference to a nonterminal by name.
    NonTerm(String),
    /// A terminal.
    Term(Term),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::NonTerm(n) => write!(f, "{n}"),
            Sym::Term(t) => write!(f, "{t}"),
        }
    }
}

/// One CFG production `lhs -> rhs` (alternatives are separate rules).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// Left-hand-side nonterminal.
    pub lhs: String,
    /// Right-hand-side symbol sequence (may be empty).
    pub rhs: Vec<Sym>,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ->", self.lhs)?;
        if self.rhs.is_empty() {
            write!(f, " ε")?;
        }
        for s in &self.rhs {
            write!(f, " {s}")?;
        }
        Ok(())
    }
}

/// An SSDL source description: the triplet ⟨S, G, A⟩.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsdlDesc {
    /// Source name (informational).
    pub name: String,
    /// CFG rules. The implicit start rule `s -> s1 | … | sm` over the
    /// condition nonterminals is added at compile time, not stored here.
    pub rules: Vec<Rule>,
    /// Attribute associations for condition nonterminals; the key set *is*
    /// the set `S` of condition nonterminals.
    pub exports: BTreeMap<String, BTreeSet<String>>,
}

impl SsdlDesc {
    /// Builds a description and validates it (see [`SsdlDesc::validate`]).
    pub fn new(
        name: impl Into<String>,
        rules: Vec<Rule>,
        exports: BTreeMap<String, BTreeSet<String>>,
    ) -> Result<Self, SsdlError> {
        let d = SsdlDesc { name: name.into(), rules, exports };
        d.validate()?;
        Ok(d)
    }

    /// The condition nonterminals `S` (those with attribute associations).
    pub fn condition_nonterminals(&self) -> impl Iterator<Item = &str> {
        self.exports.keys().map(String::as_str)
    }

    /// All nonterminal names defined by some rule.
    pub fn defined_nonterminals(&self) -> BTreeSet<&str> {
        self.rules.iter().map(|r| r.lhs.as_str()).collect()
    }

    /// Validates the well-formedness constraints of §4:
    /// - at least one condition nonterminal;
    /// - every condition nonterminal has at least one rule;
    /// - every referenced nonterminal is defined;
    /// - every *condition* nonterminal has exactly one attribute clause
    ///   (guaranteed by the map) and `s` is not user-defined.
    pub fn validate(&self) -> Result<(), SsdlError> {
        if self.exports.is_empty() {
            return Err(SsdlError::Empty);
        }
        if self.exports.contains_key("s") || self.rules.iter().any(|r| r.lhs == "s") {
            return Err(SsdlError::ReservedStartSymbol);
        }
        let defined = self.defined_nonterminals();
        for nt in self.exports.keys() {
            if !defined.contains(nt.as_str()) {
                return Err(SsdlError::MissingRule(nt.clone()));
            }
        }
        for rule in &self.rules {
            for sym in &rule.rhs {
                if let Sym::NonTerm(reference) = sym {
                    if reference == "s" {
                        return Err(SsdlError::ReservedStartSymbol);
                    }
                    if !defined.contains(reference.as_str()) {
                        return Err(SsdlError::UndefinedNonterminal {
                            rule: rule.lhs.clone(),
                            reference: reference.clone(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Renders the description in SSDL text syntax (round-trips through
    /// [`crate::parser::parse_ssdl`]).
    pub fn to_text(&self) -> String {
        let mut out = format!("source {} {{\n", self.name);
        for rule in &self.rules {
            out.push_str("  ");
            out.push_str(&rule.to_string());
            out.push_str(" ;\n");
        }
        for (nt, attrs) in &self.exports {
            let list: Vec<&str> = attrs.iter().map(String::as_str).collect();
            out.push_str(&format!("  attributes :: {nt} : {{ {} }} ;\n", list.join(", ")));
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for SsdlDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Convenience builder used by templates and tests.
#[derive(Debug, Default)]
pub struct DescBuilder {
    name: String,
    rules: Vec<Rule>,
    exports: BTreeMap<String, BTreeSet<String>>,
}

impl DescBuilder {
    /// Starts a builder for a source with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        DescBuilder { name: name.into(), ..Default::default() }
    }

    /// Adds a production.
    pub fn rule(mut self, lhs: &str, rhs: Vec<Sym>) -> Self {
        self.rules.push(Rule { lhs: lhs.to_string(), rhs });
        self
    }

    /// Declares `nt` as a condition nonterminal exporting `attrs`.
    pub fn exports(mut self, nt: &str, attrs: &[&str]) -> Self {
        self.exports.insert(nt.to_string(), attrs.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Finalizes and validates the description.
    pub fn build(self) -> Result<SsdlDesc, SsdlError> {
        SsdlDesc::new(self.name, self.rules, self.exports)
    }
}

/// Shorthand constructors for rule-body symbols, used by templates and tests.
pub mod sym {
    use super::Sym;
    use crate::token::Term;
    use csqp_expr::{CmpOp, Value, ValueType};

    /// Nonterminal reference.
    pub fn nt(name: &str) -> Sym {
        Sym::NonTerm(name.to_string())
    }
    /// Attribute terminal.
    pub fn attr(name: &str) -> Sym {
        Sym::Term(Term::Attr(name.to_string()))
    }
    /// Operator terminal.
    pub fn op(o: CmpOp) -> Sym {
        Sym::Term(Term::Op(o))
    }
    /// Typed placeholder terminal.
    pub fn ph(ty: ValueType) -> Sym {
        Sym::Term(Term::Placeholder(ty))
    }
    /// Literal-constant terminal.
    pub fn lit(v: impl Into<Value>) -> Sym {
        Sym::Term(Term::ConstLit(v.into()))
    }
    /// `^` terminal.
    pub fn and() -> Sym {
        Sym::Term(Term::AndSym)
    }
    /// `_` terminal.
    pub fn or() -> Sym {
        Sym::Term(Term::OrSym)
    }
    /// `(` terminal.
    pub fn lparen() -> Sym {
        Sym::Term(Term::LParen)
    }
    /// `)` terminal.
    pub fn rparen() -> Sym {
        Sym::Term(Term::RParen)
    }
    /// `true` terminal (download rule).
    pub fn tru() -> Sym {
        Sym::Term(Term::True)
    }
    /// The common three-symbol sequence `attr op $type`.
    pub fn atom(a: &str, o: CmpOp, ty: ValueType) -> Vec<Sym> {
        vec![attr(a), op(o), ph(ty)]
    }
}

#[cfg(test)]
mod tests {
    use super::sym::*;
    use super::*;
    use csqp_expr::{CmpOp, ValueType};

    /// Example 4.1's description.
    fn car_dealer() -> SsdlDesc {
        DescBuilder::new("car_dealer")
            .rule("s1", {
                let mut r = atom("make", CmpOp::Eq, ValueType::Str);
                r.push(and());
                r.extend(atom("price", CmpOp::Lt, ValueType::Int));
                r
            })
            .rule("s2", {
                let mut r = atom("make", CmpOp::Eq, ValueType::Str);
                r.push(and());
                r.extend(atom("color", CmpOp::Eq, ValueType::Str));
                r
            })
            .exports("s1", &["make", "model", "year", "color"])
            .exports("s2", &["make", "model", "year"])
            .build()
            .unwrap()
    }

    #[test]
    fn example_4_1_validates() {
        let d = car_dealer();
        assert_eq!(d.condition_nonterminals().count(), 2);
        assert_eq!(d.rules.len(), 2);
    }

    #[test]
    fn missing_rule_detected() {
        let e = DescBuilder::new("x").exports("s1", &["a"]).build().unwrap_err();
        assert_eq!(e, SsdlError::MissingRule("s1".into()));
    }

    #[test]
    fn undefined_reference_detected() {
        let e = DescBuilder::new("x")
            .rule("s1", vec![nt("helper")])
            .exports("s1", &["a"])
            .build()
            .unwrap_err();
        assert!(matches!(e, SsdlError::UndefinedNonterminal { .. }));
    }

    #[test]
    fn helper_nonterminals_need_no_exports() {
        let d = DescBuilder::new("x")
            .rule("s1", vec![lparen(), nt("list"), rparen()])
            .rule("list", atom("size", CmpOp::Eq, ValueType::Str))
            .rule("list", {
                let mut r = atom("size", CmpOp::Eq, ValueType::Str);
                r.push(or());
                r.push(nt("list"));
                r
            })
            .exports("s1", &["size", "model"])
            .build();
        assert!(d.is_ok());
    }

    #[test]
    fn empty_description_rejected() {
        let e = DescBuilder::new("x").build().unwrap_err();
        assert_eq!(e, SsdlError::Empty);
    }

    #[test]
    fn reserved_start_symbol_rejected() {
        let e =
            DescBuilder::new("x").rule("s", vec![tru()]).exports("s", &["a"]).build().unwrap_err();
        assert_eq!(e, SsdlError::ReservedStartSymbol);
    }

    #[test]
    fn text_rendering_mentions_rules_and_exports() {
        let text = car_dealer().to_text();
        assert!(text.contains("s1 -> make = $str ^ price < $int ;"));
        assert!(text.contains("attributes :: s2 : { make, model, year } ;"));
    }
}
