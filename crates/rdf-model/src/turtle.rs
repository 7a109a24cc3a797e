//! A Turtle parser (subset of [W3C Turtle](https://www.w3.org/TR/turtle/)).
//!
//! N-Triples is the workhorse exchange format in this workspace, but
//! real-world RDF (including the LUBM tooling the paper's dataset came
//! from) ships as Turtle. Supported here:
//!
//! - `@prefix` / `PREFIX` and `@base` / `BASE` directives;
//! - prefixed names (`ex:advisor`) and relative IRIs against the base;
//! - the `a` keyword for `rdf:type`;
//! - predicate-object lists (`;`) and object lists (`,`);
//! - literals with escapes, language tags, datatypes (IRI or prefixed),
//!   and the numeric/boolean shorthands (`42`, `3.14`, `true`);
//! - blank node labels (`_:b0`) and anonymous/nested blank nodes
//!   (`[ ex:p ex:o ; … ]`).
//!
//! Not supported (rejected with an error, never mis-parsed): RDF
//! collections `( … )` and the triple-quoted long string forms.

use crate::term::{BlankNode, Iri, Literal, Term};
use crate::triple::Triple;
use std::collections::HashMap;
use std::fmt;

/// The IRI of `rdf:type`, which the `a` keyword abbreviates.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// Error produced while parsing a Turtle document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurtleParseError {
    /// 1-based line of the error.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for TurtleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Turtle parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TurtleParseError {}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    prefixes: HashMap<String, String>,
    base: String,
    bnode_counter: usize,
    triples: Vec<Triple>,
}

impl<'a> Parser<'a> {
    fn line(&self) -> usize {
        self.input[..self.pos].bytes().filter(|&b| b == b'\n').count() + 1
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, TurtleParseError> {
        Err(TurtleParseError { line: self.line(), message: message.into() })
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let trimmed = r.trim_start();
            self.pos += r.len() - trimmed.len();
            if self.rest().starts_with('#') {
                match self.rest().find('\n') {
                    Some(nl) => self.pos += nl + 1,
                    None => self.pos = self.input.len(),
                }
            } else {
                return;
            }
        }
    }

    fn expect(&mut self, c: char) -> Result<(), TurtleParseError> {
        self.skip_ws();
        match self.bump() {
            Some(got) if got == c => Ok(()),
            Some(got) => self.err(format!("expected '{c}', found '{got}'")),
            None => self.err(format!("expected '{c}', found end of input")),
        }
    }

    fn eat_keyword_ci(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let r = self.rest();
        if r.len() >= kw.len() && r[..kw.len()].eq_ignore_ascii_case(kw) {
            let next = r[kw.len()..].chars().next();
            if next.is_none_or(|c| c.is_whitespace() || c == '<') {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn fresh_bnode(&mut self) -> Term {
        let label = format!("genid{}", self.bnode_counter);
        self.bnode_counter += 1;
        Term::Blank(BlankNode::new(label))
    }

    // --- terminals ------------------------------------------------

    fn parse_iri_ref(&mut self) -> Result<Iri, TurtleParseError> {
        // caller consumed '<'
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('>') => break,
                Some(c) if c == ' ' || c == '<' || c == '"' => {
                    return self.err(format!("invalid character '{c}' in IRI"))
                }
                Some('\\') => match self.bump() {
                    Some('u') => out.push(self.unicode_escape(4)?),
                    Some('U') => out.push(self.unicode_escape(8)?),
                    Some(c) => return self.err(format!("invalid IRI escape '\\{c}'")),
                    None => return self.err("dangling backslash in IRI"),
                },
                Some(c) => out.push(c),
                None => return self.err("unterminated IRI"),
            }
        }
        // Resolve relative IRIs against the base (simple concatenation —
        // sufficient for the hash/slash namespaces RDF uses in practice).
        if out.contains("://") || self.base.is_empty() {
            Ok(Iri::new(out))
        } else {
            Ok(Iri::new(format!("{}{}", self.base, out)))
        }
    }

    fn unicode_escape(&mut self, digits: usize) -> Result<char, TurtleParseError> {
        let mut value: u32 = 0;
        for _ in 0..digits {
            let c = self.bump().ok_or_else(|| TurtleParseError {
                line: self.line(),
                message: "truncated unicode escape".into(),
            })?;
            let d = c.to_digit(16).ok_or_else(|| TurtleParseError {
                line: self.line(),
                message: format!("invalid hex digit '{c}'"),
            })?;
            value = value * 16 + d;
        }
        char::from_u32(value).ok_or_else(|| TurtleParseError {
            line: self.line(),
            message: format!("invalid code point U+{value:X}"),
        })
    }

    fn is_pname_char(c: char) -> bool {
        c.is_alphanumeric() || c == '_' || c == '-' || c == '.'
    }

    /// Parses `prefix:local`, resolving against declared prefixes.
    fn parse_prefixed_name(&mut self) -> Result<Iri, TurtleParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if Self::is_pname_char(c)) {
            self.bump();
        }
        let prefix = self.input[start..self.pos].to_string();
        if self.peek() != Some(':') {
            return self.err(format!("expected ':' in prefixed name after '{prefix}'"));
        }
        self.bump();
        let start = self.pos;
        while matches!(self.peek(), Some(c) if Self::is_pname_char(c)) {
            self.bump();
        }
        let mut local = &self.input[start..self.pos];
        // A trailing '.' is the statement terminator, not part of the name.
        while local.ends_with('.') {
            local = &local[..local.len() - 1];
            self.pos -= 1;
        }
        match self.prefixes.get(&prefix) {
            Some(ns) => Ok(Iri::new(format!("{ns}{local}"))),
            None => self.err(format!("undeclared prefix '{prefix}:'")),
        }
    }

    fn parse_string(&mut self) -> Result<String, TurtleParseError> {
        // caller consumed the opening quote
        if self.rest().starts_with("\"\"") {
            return self.err("long (triple-quoted) strings are not supported");
        }
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('t') => out.push('\t'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('"') => out.push('"'),
                    Some('\'') => out.push('\''),
                    Some('\\') => out.push('\\'),
                    Some('u') => out.push(self.unicode_escape(4)?),
                    Some('U') => out.push(self.unicode_escape(8)?),
                    Some(c) => return self.err(format!("invalid escape '\\{c}'")),
                    None => return self.err("dangling backslash"),
                },
                Some('\n') => return self.err("newline in single-quoted string"),
                Some(c) => out.push(c),
                None => return self.err("unterminated string"),
            }
        }
    }

    fn parse_literal(&mut self) -> Result<Term, TurtleParseError> {
        let lex = self.parse_string()?;
        match self.peek() {
            Some('@') => {
                self.bump();
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == '-') {
                    self.bump();
                }
                if self.pos == start {
                    return self.err("empty language tag");
                }
                Ok(Term::Literal(Literal::lang(lex, &self.input[start..self.pos])))
            }
            Some('^') => {
                self.bump();
                if self.bump() != Some('^') {
                    return self.err("expected '^^'");
                }
                self.skip_ws();
                let dt = match self.peek() {
                    Some('<') => {
                        self.bump();
                        self.parse_iri_ref()?
                    }
                    _ => self.parse_prefixed_name()?,
                };
                Ok(Term::Literal(Literal::typed(lex, dt)))
            }
            _ => Ok(Term::Literal(Literal::simple(lex))),
        }
    }

    /// Numeric / boolean shorthand literals.
    fn parse_shorthand(&mut self) -> Result<Term, TurtleParseError> {
        if self.eat_keyword_ci("true") {
            return Ok(Term::typed_literal("true", format!("{XSD}boolean")));
        }
        if self.eat_keyword_ci("false") {
            return Ok(Term::typed_literal("false", format!("{XSD}boolean")));
        }
        let start = self.pos;
        if matches!(self.peek(), Some('+' | '-')) {
            self.bump();
        }
        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => {
                    self.bump();
                }
                '.' => {
                    // A '.' followed by a non-digit is the statement dot.
                    let mut it = self.rest().chars();
                    it.next();
                    if saw_dot || !matches!(it.next(), Some('0'..='9')) {
                        break;
                    }
                    saw_dot = true;
                    self.bump();
                }
                'e' | 'E' if !saw_exp => {
                    saw_exp = true;
                    self.bump();
                    if matches!(self.peek(), Some('+' | '-')) {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
        let text = &self.input[start..self.pos];
        if text.is_empty() || text == "+" || text == "-" {
            return self.err("expected a term");
        }
        let datatype = if saw_exp {
            format!("{XSD}double")
        } else if saw_dot {
            format!("{XSD}decimal")
        } else {
            format!("{XSD}integer")
        };
        Ok(Term::typed_literal(text, datatype))
    }

    // --- grammar --------------------------------------------------

    /// Parses a subject/object term; brackets recurse into a nested
    /// property list whose triples are emitted with a fresh blank node.
    fn parse_term(&mut self, as_predicate: bool) -> Result<Term, TurtleParseError> {
        self.skip_ws();
        match self.peek() {
            Some('<') => {
                self.bump();
                Ok(Term::Iri(self.parse_iri_ref()?))
            }
            Some('"') => {
                self.bump();
                if as_predicate {
                    return self.err("literal in predicate position");
                }
                self.parse_literal()
            }
            Some('_') => {
                self.bump();
                if self.bump() != Some(':') {
                    return self.err("expected ':' after '_'");
                }
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
                    self.bump();
                }
                if self.pos == start {
                    return self.err("empty blank node label");
                }
                Ok(Term::blank(&self.input[start..self.pos]))
            }
            Some('[') => {
                self.bump();
                let node = self.fresh_bnode();
                self.skip_ws();
                if self.peek() == Some(']') {
                    self.bump();
                } else {
                    self.parse_predicate_object_list(&node)?;
                    self.expect(']')?;
                }
                Ok(node)
            }
            Some('(') => self.err("RDF collections '( … )' are not supported"),
            Some(c) if c == 'a' && as_predicate => {
                // `a` only when followed by whitespace/term start.
                let mut it = self.rest().chars();
                it.next();
                if matches!(it.next(), Some(c2) if c2.is_whitespace() || c2 == '<' || c2 == '[') {
                    self.bump();
                    return Ok(Term::iri(RDF_TYPE));
                }
                Ok(Term::Iri(self.parse_prefixed_name()?))
            }
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' => {
                if as_predicate {
                    return self.err("number in predicate position");
                }
                self.parse_shorthand()
            }
            Some(c) if c.is_alphabetic() || c == ':' => {
                // true/false or prefixed name.
                if !as_predicate
                    && (self.rest().starts_with("true") || self.rest().starts_with("false"))
                {
                    let term = self.parse_shorthand()?;
                    return Ok(term);
                }
                Ok(Term::Iri(self.parse_prefixed_name()?))
            }
            Some(c) => self.err(format!("unexpected character '{c}'")),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_object_list(
        &mut self,
        subject: &Term,
        predicate: &Term,
    ) -> Result<(), TurtleParseError> {
        loop {
            let object = self.parse_term(false)?;
            self.triples.push(Triple::new(subject.clone(), predicate.clone(), object));
            self.skip_ws();
            if self.peek() == Some(',') {
                self.bump();
            } else {
                return Ok(());
            }
        }
    }

    fn parse_predicate_object_list(&mut self, subject: &Term) -> Result<(), TurtleParseError> {
        loop {
            let predicate = self.parse_term(true)?;
            if !predicate.is_valid_predicate() {
                return self.err("predicate must be an IRI");
            }
            self.parse_object_list(subject, &predicate)?;
            self.skip_ws();
            if self.peek() == Some(';') {
                self.bump();
                self.skip_ws();
                // A ';' may be trailing before '.' or ']'.
                if matches!(self.peek(), Some('.') | Some(']') | None) {
                    return Ok(());
                }
            } else {
                return Ok(());
            }
        }
    }

    fn parse_directive(&mut self) -> Result<bool, TurtleParseError> {
        let sparql_style_prefix = self.eat_keyword_ci("PREFIX");
        if sparql_style_prefix || self.eat_keyword_ci("@prefix") {
            self.skip_ws();
            let start = self.pos;
            while matches!(self.peek(), Some(c) if Self::is_pname_char(c)) {
                self.bump();
            }
            let name = self.input[start..self.pos].to_string();
            self.expect(':')?;
            self.skip_ws();
            self.expect('<')?;
            let iri = self.parse_iri_ref()?;
            self.prefixes.insert(name, iri.as_str().to_string());
            if !sparql_style_prefix {
                self.expect('.')?;
            }
            return Ok(true);
        }
        let sparql_style_base = self.eat_keyword_ci("BASE");
        if sparql_style_base || self.eat_keyword_ci("@base") {
            self.skip_ws();
            self.expect('<')?;
            let iri = self.parse_iri_ref()?;
            self.base = iri.as_str().to_string();
            if !sparql_style_base {
                self.expect('.')?;
            }
            return Ok(true);
        }
        Ok(false)
    }

    fn parse_document(mut self) -> Result<Vec<Triple>, TurtleParseError> {
        loop {
            self.skip_ws();
            if self.peek().is_none() {
                return Ok(self.triples);
            }
            if self.parse_directive()? {
                continue;
            }
            let subject = self.parse_term(false)?;
            if !subject.is_valid_subject() {
                return self.err("subject must be an IRI or blank node");
            }
            self.skip_ws();
            // `[ … ] .` alone is a valid statement (triples were emitted
            // by the bracket); otherwise a predicate-object list follows.
            if self.peek() != Some('.') {
                self.parse_predicate_object_list(&subject)?;
            }
            self.expect('.')?;
        }
    }
}

/// Serializes triples as Turtle, grouping by subject (predicate-object
/// lists with `;`) and by predicate (object lists with `,`), with the `a`
/// shorthand for `rdf:type`. Terms are written in full (no prefix
/// compression), so the output is also valid N-Triples-per-group and
/// round-trips through [`parse_turtle`].
pub fn write_turtle<'a>(triples: impl IntoIterator<Item = &'a Triple>) -> String {
    let mut sorted: Vec<&Triple> = triples.into_iter().collect();
    sorted.sort();
    sorted.dedup();
    let mut out = String::new();
    let mut i = 0;
    while i < sorted.len() {
        let subject = &sorted[i].subject;
        out.push_str(&subject.to_string());
        let mut first_predicate = true;
        while i < sorted.len() && &sorted[i].subject == subject {
            let predicate = &sorted[i].predicate;
            if first_predicate {
                out.push(' ');
                first_predicate = false;
            } else {
                out.push_str(
                    " ;
    ",
                );
            }
            if predicate.as_iri() == Some(RDF_TYPE) {
                out.push('a');
            } else {
                out.push_str(&predicate.to_string());
            }
            let mut first_object = true;
            while i < sorted.len()
                && &sorted[i].subject == subject
                && &sorted[i].predicate == predicate
            {
                if first_object {
                    out.push(' ');
                    first_object = false;
                } else {
                    out.push_str(" , ");
                }
                out.push_str(&sorted[i].object.to_string());
                i += 1;
            }
        }
        out.push_str(
            " .
",
        );
    }
    out
}

/// Parses a Turtle document into triples.
pub fn parse_turtle(input: &str) -> Result<Vec<Triple>, TurtleParseError> {
    Parser {
        input,
        pos: 0,
        prefixes: HashMap::new(),
        base: String::new(),
        bnode_counter: 0,
        triples: Vec::new(),
    }
    .parse_document()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_prefixed_triples() {
        let doc = r#"
@prefix ex: <http://example.org/> .
ex:ID3 ex:advisor ex:ID2 .
"#;
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 1);
        assert_eq!(triples[0].subject, Term::iri("http://example.org/ID3"));
        assert_eq!(triples[0].predicate, Term::iri("http://example.org/advisor"));
    }

    #[test]
    fn sparql_style_prefix_without_dot() {
        let doc = "PREFIX ex: <http://x/>\nex:a ex:p ex:b .";
        assert_eq!(parse_turtle(doc).unwrap().len(), 1);
    }

    #[test]
    fn a_keyword_expands_to_rdf_type() {
        let doc = "@prefix ex: <http://x/> .\nex:ID1 a ex:FullProfessor .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].predicate, Term::iri(RDF_TYPE));
    }

    #[test]
    fn predicate_object_and_object_lists() {
        let doc = r#"
@prefix ex: <http://x/> .
ex:ID1 a ex:FullProfessor ;
       ex:teacherOf "AI" , "ML" ;
       ex:phdFrom "Yale" .
"#;
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 4);
        assert!(triples.iter().all(|t| t.subject == Term::iri("http://x/ID1")));
        let objects: Vec<String> = triples.iter().map(|t| t.object.to_string()).collect();
        assert!(objects.contains(&"\"ML\"".to_string()));
    }

    #[test]
    fn literals_with_lang_datatype_and_shorthands() {
        let doc = r#"
@prefix ex: <http://x/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:r ex:label "chat"@fr ;
     ex:count 42 ;
     ex:ratio 3.14 ;
     ex:huge 1.0e6 ;
     ex:flag true ;
     ex:note "x"^^xsd:string ;
     ex:age "9"^^xsd:integer .
"#;
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 7);
        let get = |pred: &str| {
            triples
                .iter()
                .find(|t| t.predicate == Term::iri(format!("http://x/{pred}")))
                .unwrap()
                .object
                .clone()
        };
        assert_eq!(get("label").as_literal().unwrap().language(), Some("fr"));
        assert_eq!(
            get("count").as_literal().unwrap().datatype(),
            "http://www.w3.org/2001/XMLSchema#integer"
        );
        assert_eq!(
            get("ratio").as_literal().unwrap().datatype(),
            "http://www.w3.org/2001/XMLSchema#decimal"
        );
        assert_eq!(
            get("huge").as_literal().unwrap().datatype(),
            "http://www.w3.org/2001/XMLSchema#double"
        );
        assert_eq!(
            get("flag").as_literal().unwrap().datatype(),
            "http://www.w3.org/2001/XMLSchema#boolean"
        );
        // ^^xsd:string normalizes to a plain literal.
        assert_eq!(get("note"), Term::literal("x"));
    }

    #[test]
    fn base_resolution() {
        let doc = "@base <http://x/ns/> .\n<a> <p> <b> .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples[0].subject, Term::iri("http://x/ns/a"));
        assert_eq!(triples[0].object, Term::iri("http://x/ns/b"));
    }

    #[test]
    fn blank_nodes_labelled_and_anonymous() {
        let doc = r#"
@prefix ex: <http://x/> .
_:b0 ex:p ex:o .
ex:s ex:q [ ex:inner "v" ; ex:also ex:o2 ] .
[] ex:standalone "w" .
"#;
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 5);
        // The bracketed node's triples share one generated blank node.
        let nested: Vec<&Triple> = triples
            .iter()
            .filter(|t| {
                t.predicate == Term::iri("http://x/inner")
                    || t.predicate == Term::iri("http://x/also")
            })
            .collect();
        assert_eq!(nested.len(), 2);
        assert_eq!(nested[0].subject, nested[1].subject);
        // And that node is the object of ex:q.
        let q = triples.iter().find(|t| t.predicate == Term::iri("http://x/q")).unwrap();
        assert_eq!(q.object, nested[0].subject);
    }

    #[test]
    fn comments_and_whitespace() {
        let doc = "# header\n@prefix ex: <http://x/> . # ns\nex:a ex:p ex:b . # done";
        assert_eq!(parse_turtle(doc).unwrap().len(), 1);
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse_turtle("ex:a ex:p ex:b .").unwrap_err().message.contains("undeclared"));
        assert!(parse_turtle("@prefix ex: <http://x/> .\nex:a ex:p").is_err());
        assert!(parse_turtle("@prefix ex: <http://x/> .\n\"lit\" ex:p ex:b .").is_err());
        assert!(parse_turtle("@prefix ex: <http://x/> .\nex:a ex:p (1 2) .")
            .unwrap_err()
            .message
            .contains("collections"));
        let e = parse_turtle("@prefix ex: <http://x/> .\nex:a ex:p \"unterminated .").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn turtle_agrees_with_ntriples_for_shared_subset() {
        let turtle = r#"
@prefix ex: <http://x/> .
ex:ID2 ex:worksFor "MIT" .
ex:ID3 ex:advisor ex:ID2 .
"#;
        let nt = r#"
<http://x/ID2> <http://x/worksFor> "MIT" .
<http://x/ID3> <http://x/advisor> <http://x/ID2> .
"#;
        let mut a = parse_turtle(turtle).unwrap();
        let parsed = crate::ntriples::parse_document(nt).unwrap();
        let mut b: Vec<Triple> = parsed.iter().map(|s| s.triple().to_owned()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn writer_groups_and_roundtrips() {
        let doc = r#"
@prefix ex: <http://x/> .
ex:ID1 a ex:FullProfessor ; ex:teacherOf "AI" , "ML" .
ex:ID2 ex:worksFor "MIT" .
"#;
        let mut triples = parse_turtle(doc).unwrap();
        triples.sort();
        let written = write_turtle(&triples);
        // Grouping shorthand present.
        assert!(written.contains(
            " ;
"
        ));
        assert!(written.contains(" , "));
        assert!(written.contains(" a "));
        let mut reparsed = parse_turtle(&written).unwrap();
        reparsed.sort();
        assert_eq!(reparsed, triples);
    }

    #[test]
    fn numbers_before_statement_dot() {
        let doc = "@prefix ex: <http://x/> .\nex:a ex:n 5 .\nex:b ex:n 6.5 .";
        let triples = parse_turtle(doc).unwrap();
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[0].object.as_literal().unwrap().lexical(), "5");
        assert_eq!(triples[1].object.as_literal().unwrap().lexical(), "6.5");
    }
}
