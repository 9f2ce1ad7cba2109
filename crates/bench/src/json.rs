//! Minimal JSON rendering for the `ssr` command-line tool.
//!
//! The workspace has no crates.io access (no `serde`), and `ssr info --json`,
//! `ssr stats --json` and `ssr cluster … stats` only write JSON, so this
//! module implements exactly that: a [`JsonValue`] tree with a pretty
//! renderer. Nothing in the workspace reads JSON back.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (rendered without a fraction when integral).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for object members.
    pub fn object(members: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as pretty-printed JSON (two-space indent, trailing
    /// newline), suitable for diffing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            JsonValue::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            JsonValue::String(s) => render_string(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            JsonValue::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    render_string(out, key);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_reparse_roundtrips() {
        let doc = JsonValue::object(vec![
            ("name", JsonValue::String("bench \"smoke\"".to_string())),
            ("count", JsonValue::Number(42.0)),
            ("ratio", JsonValue::Number(2.5)),
            ("ok", JsonValue::Bool(true)),
            ("missing", JsonValue::Null),
            (
                "stages",
                JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(2.0)]),
            ),
            ("empty", JsonValue::Object(Vec::new())),
        ]);
        let expected = r#"{
  "name": "bench \"smoke\"",
  "count": 42,
  "ratio": 2.5,
  "ok": true,
  "missing": null,
  "stages": [
    1,
    2
  ],
  "empty": {}
}
"#;
        assert_eq!(doc.render(), expected);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(JsonValue::Number(120000.0).render(), "120000\n");
        assert_eq!(JsonValue::Number(0.5).render(), "0.5\n");
    }

    #[test]
    fn control_characters_roundtrip_through_unicode_escapes() {
        let doc = JsonValue::String("bell\u{7} tab\t".to_string());
        assert_eq!(doc.render(), "\"bell\\u0007 tab\\t\"\n");
    }
}
