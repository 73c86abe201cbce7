//! Parser for the XPath fragment corresponding to twig queries.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! query      ::= ('/' | '//') step (('/' | '//') step)*
//! step       ::= nodetest predicate*
//! nodetest   ::= NAME | '*'
//! predicate  ::= '[' relpath ']'
//! relpath    ::= ('.//')? step (('/' | '//') step)*
//! ```
//!
//! The selected node of the resulting [`TwigQuery`] is the last step of the outermost path.
//! This covers the twig-expressible queries of XPathMark; features outside the fragment
//! (attributes, functions, value comparisons, reverse axes, unions) are rejected with a
//! descriptive error so the XPathMark module can classify queries as twig-expressible or not.

use crate::query::{Axis, NodeTest, QNodeId, TwigQuery};
use std::fmt;

/// Error raised while parsing an XPath expression into a twig query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// Byte position of the error.
    pub position: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XPath parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for XPathError {}

/// The deepest predicate nesting [`parse_xpath`] accepts. The parser recurses once per level,
/// so without a cap a few hundred kilobytes of `[a` would overflow the stack.
const MAX_DEPTH: usize = 256;

/// Parse an XPath string into a [`TwigQuery`]. Predicates nested deeper than 256 levels are an
/// error.
///
/// ```
/// let q = qbe_twig::parse_xpath("/site//person[profile[age]]/name").unwrap();
/// assert_eq!(q.to_xpath(), "/site//person[profile[age]]/name");
/// ```
pub fn parse_xpath(input: &str) -> Result<TwigQuery, XPathError> {
    Parser {
        input: input.as_bytes(),
        pos: 0,
    }
    .parse_query()
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, XPathError> {
        Err(XPathError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_axis(&mut self) -> Result<Axis, XPathError> {
        if !self.eat(b'/') {
            return self.err("expected `/` or `//`");
        }
        if self.eat(b'/') {
            Ok(Axis::Descendant)
        } else {
            Ok(Axis::Child)
        }
    }

    fn parse_nodetest(&mut self) -> Result<NodeTest, XPathError> {
        self.skip_ws();
        if self.eat(b'*') {
            return Ok(NodeTest::Wildcard);
        }
        if self.peek() == Some(b'@') {
            return self.err("attribute steps are outside the twig fragment");
        }
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected an element name or `*`");
        }
        let name = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
        if name.contains('(') {
            return self.err("function calls are outside the twig fragment");
        }
        Ok(NodeTest::label(name))
    }

    fn parse_query(mut self) -> Result<TwigQuery, XPathError> {
        self.skip_ws();
        let axis = self.parse_axis()?;
        let test = self.parse_nodetest()?;
        let mut query = TwigQuery::new(axis, test);
        self.parse_predicates(&mut query, QNodeId::ROOT, 1)?;
        let mut current = QNodeId::ROOT;
        loop {
            self.skip_ws();
            match self.peek() {
                None => break,
                Some(b'/') => {
                    let axis = self.parse_axis()?;
                    let test = self.parse_nodetest()?;
                    current = query.add_node(current, axis, test);
                    self.parse_predicates(&mut query, current, 1)?;
                }
                Some(other) => {
                    return self.err(format!(
                        "unexpected character `{}` (unsupported XPath feature?)",
                        other as char
                    ));
                }
            }
        }
        query.set_selected(current);
        Ok(query)
    }

    /// Parse the predicates of `node`, each opening nesting level `depth` (a step's own
    /// predicates are level 1).
    fn parse_predicates(
        &mut self,
        query: &mut TwigQuery,
        node: QNodeId,
        depth: usize,
    ) -> Result<(), XPathError> {
        loop {
            self.skip_ws();
            if !self.eat(b'[') {
                return Ok(());
            }
            if depth > MAX_DEPTH {
                return self.err(format!("predicates nest deeper than {MAX_DEPTH} levels"));
            }
            self.parse_relative_path(query, node, depth)?;
            self.skip_ws();
            if !self.eat(b']') {
                return self.err("expected `]` closing a predicate");
            }
        }
    }

    fn parse_relative_path(
        &mut self,
        query: &mut TwigQuery,
        parent: QNodeId,
        depth: usize,
    ) -> Result<(), XPathError> {
        self.skip_ws();
        if self.peek() == Some(b'@') {
            return self.err("attribute predicates are outside the twig fragment");
        }
        // Optional leading `.//` or `./`.
        let mut first_axis = Axis::Child;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            first_axis = self.parse_axis()?;
        } else if self.peek() == Some(b'/') {
            return self.err("absolute paths are not allowed inside predicates");
        }
        let test = self.parse_nodetest()?;
        let mut current = query.add_node(parent, first_axis, test);
        self.parse_predicates(query, current, depth + 1)?;
        loop {
            self.skip_ws();
            if self.peek() == Some(b'/') {
                let axis = self.parse_axis()?;
                let test = self.parse_nodetest()?;
                current = query.add_node(current, axis, test);
                self.parse_predicates(query, current, depth + 1)?;
            } else {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(s: &str) {
        let q = parse_xpath(s).unwrap();
        assert_eq!(q.to_xpath(), s, "round-trip failed for {s}");
    }

    #[test]
    fn parses_simple_absolute_path() {
        let q = parse_xpath("/site/people/person").unwrap();
        assert_eq!(q.size(), 3);
        assert!(q.is_path());
        assert_eq!(q.test(q.selected()), &NodeTest::label("person"));
    }

    #[test]
    fn parses_descendant_axes() {
        let q = parse_xpath("//person//age").unwrap();
        assert_eq!(q.size(), 2);
        assert_eq!(q.axis(QNodeId::ROOT), Axis::Descendant);
        assert_eq!(q.descendant_edge_count(), 2);
    }

    #[test]
    fn parses_predicates_into_filters() {
        let q = parse_xpath("/site/people/person[name][emailaddress]/profile").unwrap();
        assert_eq!(q.filter_roots().len(), 2);
        assert_eq!(q.test(q.selected()), &NodeTest::label("profile"));
    }

    #[test]
    fn parses_nested_predicates() {
        let q = parse_xpath("//person[profile[age][education]]").unwrap();
        assert_eq!(q.size(), 4);
        assert_eq!(q.to_xpath(), "//person[profile[age][education]]");
    }

    #[test]
    fn parses_descendant_predicates() {
        let q = parse_xpath("//person[.//age]").unwrap();
        assert_eq!(q.to_xpath(), "//person[.//age]");
    }

    #[test]
    fn parses_wildcards() {
        let q = parse_xpath("/site/*/person").unwrap();
        assert_eq!(q.wildcard_count(), 1);
    }

    #[test]
    fn parses_multi_step_predicates() {
        let q = parse_xpath("//open_auction[bidder/increase]").unwrap();
        assert_eq!(q.size(), 3);
        assert_eq!(q.to_xpath(), "//open_auction[bidder[increase]]");
    }

    #[test]
    fn roundtrips_canonical_forms() {
        roundtrip("/site/people/person[name][.//age]/emailaddress");
        roundtrip("//person");
        roundtrip("/site//open_auction[bidder]/current");
        roundtrip("//*[name]");
    }

    #[test]
    fn rejects_attributes_functions_and_unions() {
        assert!(parse_xpath("//person/@id").is_err());
        assert!(parse_xpath("//person[@id='p0']").is_err());
        assert!(parse_xpath("//person | //item").is_err());
        assert!(parse_xpath("//person[count(watches)>1]").is_err());
    }

    #[test]
    fn rejects_relative_queries_and_garbage() {
        assert!(parse_xpath("person/name").is_err());
        assert!(parse_xpath("").is_err());
        assert!(parse_xpath("///").is_err());
        assert!(parse_xpath("/site[").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |levels: usize| format!("//a{}{}", "[a".repeat(levels), "]".repeat(levels));
        assert_eq!(
            parse_xpath(&nested(MAX_DEPTH)).unwrap().size(),
            MAX_DEPTH + 1
        );
        let err = parse_xpath(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
        // 100,000 unclosed predicates: an error, not a stack overflow.
        let err = parse_xpath(&format!("//a{}", "[a".repeat(100_000))).unwrap_err();
        assert_eq!(err.position, "//a".len() + 2 * MAX_DEPTH + 1);
    }

    #[test]
    fn selected_node_is_last_outer_step_even_with_predicates() {
        let q = parse_xpath("//person[name]/profile[age]/education").unwrap();
        assert_eq!(q.test(q.selected()), &NodeTest::label("education"));
        let spine_labels: Vec<String> = q.spine().iter().map(|n| q.test(*n).to_string()).collect();
        assert_eq!(spine_labels, vec!["person", "profile", "education"]);
    }
}
