//! cHTML — Compact HTML, i-mode's host language (Table 3).
//!
//! cHTML is a strict subset of HTML designed for phones: no tables, no
//! frames, no stylesheets, no scripts. i-mode serves it *directly* over
//! (modified) TCP/IP — no gateway translation step — which is exactly the
//! architectural contrast with WAP the middleware experiments measure.

use std::fmt;

use crate::dom::Element;

/// Tags allowed in our cHTML subset (per the Compact HTML W3C note, minus
/// rarely used presentation tags).
pub(crate) const CHTML_TAGS: [&str; 24] = [
    "html", "head", "title", "body", "p", "a", "br", "img", "h1", "h2", "h3", "h4", "h5", "h6",
    "ul", "ol", "li", "form", "input", "select", "option", "div", "center", "hr",
];

/// Attributes cHTML keeps; everything else is stripped on simplification.
pub(crate) const CHTML_ATTRS: [&str; 8] = [
    "href", "src", "alt", "name", "value", "type", "action", "method",
];

/// Error produced by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateChtmlError {
    /// What is wrong with the document.
    pub(crate) message: String,
}

impl fmt::Display for ValidateChtmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cHTML: {}", self.message)
    }
}

impl std::error::Error for ValidateChtmlError {}

/// Checks that `doc` uses only cHTML tags and attributes.
///
/// # Errors
///
/// Returns [`ValidateChtmlError`] describing the first violation found.
pub fn validate(doc: &Element) -> Result<(), ValidateChtmlError> {
    if doc.tag() != "html" {
        return Err(ValidateChtmlError {
            message: format!("root must be <html>, found <{}>", doc.tag()),
        });
    }
    for e in doc.descendants() {
        if !CHTML_TAGS.contains(&e.tag()) {
            return Err(ValidateChtmlError {
                message: format!("tag <{}> is not cHTML", e.tag()),
            });
        }
        for (name, _) in e.attrs() {
            if !CHTML_ATTRS.contains(&name.as_ref()) {
                return Err(ValidateChtmlError {
                    message: format!("attribute {name:?} on <{}> is not cHTML", e.tag()),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::html;

    #[test]
    fn plain_page_is_valid_chtml() {
        let doc = html::page(
            "Menu",
            vec![html::p("Pick one").into(), html::ul(["a", "b"]).into()],
        );
        validate(&doc).unwrap();
    }

    #[test]
    fn tables_are_rejected() {
        let doc = html::page("T", vec![html::table([("a", "b")]).into()]);
        assert!(validate(&doc)
            .unwrap_err()
            .message
            .contains("<table> is not cHTML"));
    }

    #[test]
    fn styling_attributes_are_rejected() {
        let doc = html::page(
            "S",
            vec![Element::new("p").with_attr("style", "color:red").into()],
        );
        assert!(validate(&doc).unwrap_err().message.contains("\"style\""));
    }

    #[test]
    fn wrong_root_is_rejected() {
        assert!(validate(&Element::new("wml")).is_err());
    }
}
