//! A small, dependency-free XML parser covering the fragment used throughout the workspace:
//! elements, attributes, text content, comments, CDATA, processing instructions and XML
//! declarations.
//!
//! It intentionally does **not** implement namespaces, DTD internal subsets, or entity
//! definitions other than the five predefined entities — the documents manipulated by the
//! learning algorithms (XMark-style data, synthetic corpora) never need them, and keeping the
//! parser small keeps the round-trip guarantees easy to test.

use crate::tree::{NodeId, XmlTree};
use std::fmt;

/// Error raised while parsing an XML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input at which the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// The deepest element nesting [`parse_xml`] accepts (libxml2's default limit). The parser
/// recurses once per level, so without a cap a few kilobytes of unclosed tags would overflow
/// the stack.
const MAX_DEPTH: usize = 256;

/// Parse an XML document into an [`XmlTree`]. Elements nested deeper than 256 levels are an
/// error.
///
/// ```
/// let doc = qbe_xml::parse_xml("<site><people><person id='p0'><name>Alice</name></person></people></site>").unwrap();
/// assert_eq!(doc.label(qbe_xml::XmlTree::ROOT), "site");
/// assert_eq!(doc.nodes_with_label("person").len(), 1);
/// ```
pub fn parse_xml(input: &str) -> Result<XmlTree, ParseError> {
    let raw = Parser::new(input).parse_document()?;
    Ok(raw.into_tree())
}

/// Intermediate recursive representation produced by the parser before arena conversion.
struct RawElement {
    name: String,
    attributes: Vec<(String, String)>,
    text: Option<String>,
    children: Vec<RawElement>,
}

impl RawElement {
    fn into_tree(self) -> XmlTree {
        let mut tree = XmlTree::new(&self.name);
        Self::fill(&mut tree, NodeId::ROOT, self);
        tree
    }

    fn fill(tree: &mut XmlTree, id: NodeId, raw: RawElement) {
        for (k, v) in raw.attributes {
            tree.set_attribute(id, k, v);
        }
        if let Some(t) = raw.text {
            if !t.trim().is_empty() {
                tree.set_text(id, t.trim().to_string());
            }
        }
        for child in raw.children {
            let cid = tree.add_child(id, &child.name);
            Self::fill(tree, cid, child);
        }
    }
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Parser<'a> {
        Parser {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            position: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_whitespace(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_whitespace();
            if self.starts_with("<?") {
                self.consume_until("?>")?;
            } else if self.starts_with("<!--") {
                self.consume_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.consume_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn consume_until(&mut self, end: &str) -> Result<(), ParseError> {
        match find_subsequence(&self.input[self.pos..], end.as_bytes()) {
            Some(ix) => {
                self.pos += ix + end.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct, expected `{end}`")),
        }
    }

    fn consume_doctype(&mut self) -> Result<(), ParseError> {
        // Consume "<!DOCTYPE" ... ">" honouring one level of "[ ... ]".
        self.bump("<!DOCTYPE".len());
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            match c {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.bump(1);
                    return Ok(());
                }
                _ => {}
            }
            self.bump(1);
        }
        self.err("unterminated DOCTYPE")
    }

    fn parse_document(mut self) -> Result<RawElement, ParseError> {
        self.skip_misc()?;
        if self.peek() != Some(b'<') {
            return self.err("expected root element");
        }
        let root = self.parse_element(1)?;
        self.skip_misc()?;
        if self.pos != self.input.len() {
            return self.err("trailing content after root element");
        }
        Ok(root)
    }

    /// Parse the element starting here, at nesting level `depth` (the root is level 1).
    fn parse_element(&mut self, depth: usize) -> Result<RawElement, ParseError> {
        if depth > MAX_DEPTH {
            return self.err(format!("elements nest deeper than {MAX_DEPTH} levels"));
        }
        if self.peek() != Some(b'<') {
            return self.err("expected `<`");
        }
        self.bump(1);
        let name = self.parse_name()?;
        let mut element = RawElement {
            name: name.clone(),
            attributes: Vec::new(),
            text: None,
            children: Vec::new(),
        };
        // Attributes and tag close.
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'/') => {
                    self.bump(1);
                    if self.peek() != Some(b'>') {
                        return self.err("expected `>` after `/`");
                    }
                    self.bump(1);
                    return Ok(element);
                }
                Some(b'>') => {
                    self.bump(1);
                    break;
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    self.skip_whitespace();
                    if self.peek() != Some(b'=') {
                        return self.err("expected `=` in attribute");
                    }
                    self.bump(1);
                    self.skip_whitespace();
                    let value = self.parse_quoted()?;
                    element.attributes.push((attr_name, unescape(&value)));
                }
                None => return self.err("unexpected end of input in tag"),
            }
        }
        // Content.
        let mut text_acc = String::new();
        loop {
            match self.peek() {
                None => return self.err(format!("unexpected end of input inside <{name}>")),
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.bump(2);
                        let close = self.parse_name()?;
                        if close != name {
                            return self.err(format!(
                                "mismatched closing tag </{close}>, expected </{name}>"
                            ));
                        }
                        self.skip_whitespace();
                        if self.peek() != Some(b'>') {
                            return self.err("expected `>` in closing tag");
                        }
                        self.bump(1);
                        if !text_acc.trim().is_empty() {
                            element.text = Some(text_acc);
                        }
                        return Ok(element);
                    } else if self.starts_with("<!--") {
                        self.consume_until("-->")?;
                    } else if self.starts_with("<![CDATA[") {
                        let start = self.pos + "<![CDATA[".len();
                        match find_subsequence(&self.input[start..], b"]]>") {
                            Some(ix) => {
                                let chunk = std::str::from_utf8(&self.input[start..start + ix])
                                    .map_err(|_| ParseError {
                                        position: start,
                                        message: "invalid UTF-8 in CDATA".into(),
                                    })?;
                                text_acc.push_str(chunk);
                                self.pos = start + ix + 3;
                            }
                            None => return self.err("unterminated CDATA section"),
                        }
                    } else if self.starts_with("<?") {
                        self.consume_until("?>")?;
                    } else {
                        let child = self.parse_element(depth + 1)?;
                        element.children.push(child);
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.bump(1);
                    }
                    let raw = std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| {
                        ParseError {
                            position: start,
                            message: "invalid UTF-8 in text".into(),
                        }
                    })?;
                    text_acc.push_str(&unescape(raw));
                }
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' || c == b':' {
                self.bump(1);
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos])
            .unwrap()
            .to_string())
    }

    fn parse_quoted(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.err("expected quoted attribute value"),
        };
        self.bump(1);
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let s = std::str::from_utf8(&self.input[start..self.pos])
                    .unwrap()
                    .to_string();
                self.bump(1);
                return Ok(s);
            }
            self.bump(1);
        }
        self.err("unterminated attribute value")
    }
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Replace the five predefined XML entities by their characters.
pub fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Escape a string for inclusion in XML text or attribute content.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::to_xml_string;

    #[test]
    fn parses_simple_nested_document() {
        let doc = parse_xml("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(doc.label(XmlTree::ROOT), "a");
        assert_eq!(doc.nodes_with_label("b").len(), 2);
        assert_eq!(doc.nodes_with_label("c").len(), 1);
    }

    #[test]
    fn parses_attributes_with_both_quote_styles() {
        let doc = parse_xml(r#"<item id="i1" class='featured'/>"#).unwrap();
        assert_eq!(doc.attribute(XmlTree::ROOT, "id"), Some("i1"));
        assert_eq!(doc.attribute(XmlTree::ROOT, "class"), Some("featured"));
    }

    #[test]
    fn parses_text_content() {
        let doc = parse_xml("<name>Alice</name>").unwrap();
        assert_eq!(doc.text(XmlTree::ROOT), Some("Alice"));
    }

    #[test]
    fn parses_mixed_formatting_whitespace() {
        let doc = parse_xml("<a>\n  <b>hi</b>\n  <c/>\n</a>").unwrap();
        assert_eq!(doc.size(), 3);
        let b = doc.nodes_with_label("b")[0];
        assert_eq!(doc.text(b), Some("hi"));
    }

    #[test]
    fn unescapes_entities() {
        let doc = parse_xml("<t a=\"x &amp; y\">1 &lt; 2</t>").unwrap();
        assert_eq!(doc.attribute(XmlTree::ROOT, "a"), Some("x & y"));
        assert_eq!(doc.text(XmlTree::ROOT), Some("1 < 2"));
    }

    #[test]
    fn skips_declaration_comments_and_doctype() {
        let doc = parse_xml(
            "<?xml version=\"1.0\"?><!-- hello --><!DOCTYPE site [<!ELEMENT site ANY>]><site/>",
        )
        .unwrap();
        assert_eq!(doc.label(XmlTree::ROOT), "site");
    }

    #[test]
    fn parses_cdata_as_text() {
        let doc = parse_xml("<d><![CDATA[a < b & c]]></d>").unwrap();
        assert_eq!(doc.text(XmlTree::ROOT), Some("a < b & c"));
    }

    #[test]
    fn rejects_mismatched_tags() {
        let err = parse_xml("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_xml("<a/><b/>").is_err());
    }

    #[test]
    fn rejects_unterminated_document() {
        assert!(parse_xml("<a><b>").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |levels: usize| "<a>".repeat(levels) + &"</a>".repeat(levels);
        assert_eq!(
            parse_xml(&nested(MAX_DEPTH)).unwrap().height(),
            MAX_DEPTH - 1
        );
        let err = parse_xml(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nest deeper"), "{err}");
        // 100,000 unclosed tags: an error, not a stack overflow.
        let err = parse_xml(&"<a>".repeat(100_000)).unwrap_err();
        assert_eq!(err.position, 3 * MAX_DEPTH);
    }

    #[test]
    fn preserves_document_order_of_children() {
        let doc = parse_xml("<r><x/><y/><z/></r>").unwrap();
        let labels: Vec<&str> = doc
            .children(XmlTree::ROOT)
            .iter()
            .map(|c| doc.label(*c))
            .collect();
        assert_eq!(labels, vec!["x", "y", "z"]);
    }

    #[test]
    fn roundtrips_through_serializer() {
        let src =
            "<site><people><person id=\"p0\"><name>Alice &amp; Bob</name></person></people></site>";
        let doc = parse_xml(src).unwrap();
        let out = to_xml_string(&doc);
        let doc2 = parse_xml(&out).unwrap();
        assert!(doc.unordered_eq(&doc2));
        assert_eq!(
            doc2.attribute(doc2.nodes_with_label("person")[0], "id"),
            Some("p0")
        );
        assert_eq!(
            doc2.text(doc2.nodes_with_label("name")[0]),
            Some("Alice & Bob")
        );
    }

    #[test]
    fn escape_then_unescape_is_identity() {
        let s = "a<b>&\"'c";
        assert_eq!(unescape(&escape(s)), s);
    }
}
