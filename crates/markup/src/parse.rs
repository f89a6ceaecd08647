//! A strict parser for the well-formed markup subset the engines emit.
//!
//! Handles: nested elements, quoted attributes, self-closing tags, HTML
//! void elements (`<br>`, `<img>`, `<input>`, `<hr>`, `<meta>`, `<link>`),
//! the five standard entities, comments, and a leading prolog/doctype
//! (skipped). Case-insensitive tag matching, tags normalised to lowercase.

use std::fmt;

use crate::dom::{Element, Node, MAX_DEPTH};

/// HTML elements that never have content or a closing tag.
pub(crate) const VOID_ELEMENTS: [&str; 6] = ["br", "img", "input", "hr", "meta", "link"];

/// Error produced when markup fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMarkupError {
    /// Byte offset of the failure.
    pub(crate) offset: usize,
    /// What went wrong.
    pub(crate) message: String,
}

impl fmt::Display for ParseMarkupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "markup parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseMarkupError {}

/// Parses `input` into its single root element.
///
/// # Errors
///
/// Returns [`ParseMarkupError`] on malformed input: unbalanced tags,
/// unterminated strings/comments, trailing non-whitespace content, or
/// elements nested more than 128 levels deep.
///
/// ```
/// let root = markup::parse::parse("<p>Hi <b>there</b></p>")?;
/// assert_eq!(root.tag(), "p");
/// assert_eq!(root.text_content(), "Hi there");
/// # Ok::<(), markup::ParseMarkupError>(())
/// ```
pub fn parse(input: &str) -> Result<Element, ParseMarkupError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws_and_meta()?;
    let root = p.parse_element(1)?;
    p.skip_ws_and_meta()?;
    if p.pos < p.input.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseMarkupError {
        ParseMarkupError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, comments, doctypes and processing instructions.
    fn skip_ws_and_meta(&mut self) -> Result<(), ParseMarkupError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                let end = find(self.input, self.pos + 4, b"-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos = end + 3;
            } else if self.starts_with("<!") || self.starts_with("<?") {
                let end = find(self.input, self.pos + 2, b">")
                    .ok_or_else(|| self.err("unterminated declaration"))?;
                self.pos = end + 1;
            } else {
                return Ok(());
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseMarkupError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'-' || c == b'_' || c == b':')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).to_ascii_lowercase())
    }

    /// Parses the element at `depth` (the root is 1) and its subtree.
    fn parse_element(&mut self, depth: usize) -> Result<Element, ParseMarkupError> {
        if depth > MAX_DEPTH {
            return Err(self.err(format!("elements nest deeper than {MAX_DEPTH} levels")));
        }
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let tag = self.parse_name()?;
        let mut element = Element::new(tag.clone());

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(element); // self-closing
                }
                Some(_) => {
                    let name = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() == Some(b'=') {
                        self.pos += 1;
                        self.skip_ws();
                        let quote = self.peek().ok_or_else(|| self.err("eof in attribute"))?;
                        if quote != b'"' && quote != b'\'' {
                            return Err(self.err("attribute value must be quoted"));
                        }
                        self.pos += 1;
                        let start = self.pos;
                        while self.peek() != Some(quote) {
                            if self.peek().is_none() {
                                return Err(self.err("unterminated attribute value"));
                            }
                            self.pos += 1;
                        }
                        let raw = String::from_utf8_lossy(&self.input[start..self.pos]);
                        self.pos += 1;
                        // Entity-free values (the common case) skip the
                        // unescape pass and its extra allocation.
                        let value = if raw.contains('&') {
                            unescape(&raw)
                        } else {
                            raw.into_owned()
                        };
                        element.set_attr(name, value);
                    } else {
                        // Boolean attribute.
                        element.set_attr(name, "");
                    }
                }
                None => return Err(self.err("eof inside tag")),
            }
        }

        if VOID_ELEMENTS.contains(&tag.as_str()) {
            return Ok(element); // no content, no closing tag expected
        }

        // Children until the matching close tag.
        loop {
            if self.starts_with("<!--") {
                let end = find(self.input, self.pos + 4, b"-->")
                    .ok_or_else(|| self.err("unterminated comment"))?;
                self.pos = end + 3;
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != tag {
                    return Err(self.err(format!("mismatched close tag: <{tag}> vs </{close}>")));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in close tag"));
                }
                self.pos += 1;
                return Ok(element);
            }
            match self.peek() {
                Some(b'<') => {
                    let child = self.parse_element(depth + 1)?;
                    element.push_child(child);
                }
                Some(_) => {
                    let start = self.pos;
                    while !matches!(self.peek(), Some(b'<') | None) {
                        self.pos += 1;
                    }
                    let raw = String::from_utf8_lossy(&self.input[start..self.pos]);
                    // Decode and normalise only when the run needs it —
                    // clean text takes the single-allocation path.
                    let text = if raw.contains('&') {
                        std::borrow::Cow::Owned(unescape(&raw))
                    } else {
                        raw
                    };
                    if !text.trim().is_empty() {
                        let text = if needs_ws_normalise(&text) {
                            normalise_ws(&text)
                        } else {
                            text.into_owned()
                        };
                        element.push_child(Node::text(text));
                    }
                }
                None => return Err(self.err(format!("eof inside <{tag}>"))),
            }
        }
    }
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| i + from)
}

/// Decodes the five standard entities (and `&#NN;` numeric forms).
pub(crate) fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let Some(end) = rest.find(';') else {
            out.push('&');
            rest = &rest[1..];
            continue;
        };
        let entity = &rest[1..end];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ => {
                if let Some(num) = entity.strip_prefix('#') {
                    if let Ok(code) = num.parse::<u32>() {
                        if let Some(c) = char::from_u32(code) {
                            out.push(c);
                            rest = &rest[end + 1..];
                            continue;
                        }
                    }
                }
                // Unknown entity: keep literally.
                out.push('&');
                out.push_str(entity);
                out.push(';');
            }
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    out
}

/// Whether [`normalise_ws`] would change `text`: any non-space
/// whitespace, or a run of consecutive spaces.
fn needs_ws_normalise(text: &str) -> bool {
    let mut last_ws = false;
    for c in text.chars() {
        if c.is_whitespace() {
            if c != ' ' || last_ws {
                return true;
            }
            last_ws = true;
        } else {
            last_ws = false;
        }
    }
    false
}

/// Collapses internal whitespace runs to single spaces (HTML semantics).
fn normalise_ws(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_ws = false;
    for c in text.chars() {
        if c.is_whitespace() {
            if !last_ws {
                out.push(' ');
            }
            last_ws = true;
        } else {
            out.push(c);
            last_ws = false;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for levels in [5_000, 100_000] {
            assert!(parse(&"<a>".repeat(levels)).is_err());
        }
        let ok = format!("{}{}", "<a>".repeat(MAX_DEPTH), "</a>".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        assert!(parse(&format!("<a>{ok}</a>")).is_err());
    }

    #[test]
    fn parses_nested_structure() {
        let root = parse("<html><body><p>One</p><p>Two</p></body></html>").unwrap();
        assert_eq!(root.tag(), "html");
        assert_eq!(root.find_all("p").count(), 2);
        assert_eq!(root.text_content(), "OneTwo");
    }

    #[test]
    fn parses_attributes_and_entities() {
        let root = parse(r#"<a href="/x?a=1&amp;b=2" class='k'>5 &lt; 6</a>"#).unwrap();
        assert_eq!(root.attr("href"), Some("/x?a=1&b=2"));
        assert_eq!(root.attr("class"), Some("k"));
        assert_eq!(root.text_content(), "5 < 6");
    }

    #[test]
    fn void_and_self_closing_elements() {
        let root = parse("<p>a<br>b<img src=\"i.png\">c<hr/></p>").unwrap();
        assert_eq!(root.text_content(), "abc");
        assert!(root.find("br").is_some());
        assert_eq!(root.find("img").unwrap().attr("src"), Some("i.png"));
    }

    #[test]
    fn skips_doctype_and_comments() {
        let root =
            parse("<!DOCTYPE html>\n<!-- hi --><html><body><!-- x -->ok</body></html>").unwrap();
        assert_eq!(root.text_content(), "ok");
    }

    #[test]
    fn tag_case_is_normalised() {
        let root = parse("<HTML><Body>x</bOdY></HTML>").unwrap();
        assert_eq!(root.tag(), "html");
        assert_eq!(root.find("body").unwrap().text_content(), "x");
    }

    #[test]
    fn boolean_attributes() {
        let root = parse(r#"<input checked name="q"/>"#).unwrap();
        assert_eq!(root.attr("checked"), Some(""));
        assert_eq!(root.attr("name"), Some("q"));
    }

    #[test]
    fn numeric_entities_decode() {
        let root = parse("<p>&#65;&#8364;</p>").unwrap();
        assert_eq!(root.text_content(), "A€");
    }

    #[test]
    fn whitespace_is_collapsed() {
        let root = parse("<p>a\n   b\t\tc</p>").unwrap();
        assert_eq!(root.text_content(), "a b c");
    }

    #[test]
    fn errors_carry_position_and_reason() {
        let cases = [
            ("<p>unclosed", "eof inside"),
            ("<p></q>", "mismatched close tag"),
            ("<p></p><p></p>", "trailing content"),
            ("<p a=unquoted></p>", "quoted"),
            ("", "expected '<'"),
            ("<p><!-- never></p>", "unterminated comment"),
        ];
        for (input, needle) in cases {
            let err = parse(input).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{input:?} gave {:?}, wanted {needle:?}",
                err.message
            );
        }
    }

    #[test]
    fn round_trip_parse_serialise_parse() {
        let original = "<html><body><p class=\"x\">Hi <b>you</b> &amp; me</p><br/></body></html>";
        let parsed = parse(original).unwrap();
        let serialised = parsed.to_markup();
        let reparsed = parse(&serialised).unwrap();
        assert_eq!(parsed, reparsed);
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(unescape("&nbsp;x"), "&nbsp;x");
        assert_eq!(unescape("a & b"), "a & b");
    }
}
