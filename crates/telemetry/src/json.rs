//! A minimal JSON value tree and writer.
//!
//! The workspace links no serializer crate, so the exporters build
//! their documents from this tiny value enum and render them with a
//! hand-rolled writer. Streaming writers that skip the tree (the Chrome
//! trace exporter) call `write_escaped`, `write_num` and
//! `write_uint` directly, so every document shares one escaping and
//! one number rule. Output is strict JSON: strings are escaped per
//! RFC 8259, non-finite numbers render as `null`, and object keys keep
//! insertion order so exports are byte-stable across runs.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A floating-point number (`null` if not finite).
    Num(f64),
    /// An unsigned integer, rendered without a fractional part.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for an object.
    #[must_use]
    pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Renders the value as compact JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => write_num(out, *v),
            JsonValue::UInt(v) => write_uint(out, *v),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `v` as a JSON number, or `null` if it is not finite.
pub(crate) fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's `Display` for f64 is shortest-round-trip decimal
        // notation, which is always valid JSON.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `v` in decimal, without going through `fmt`.
pub(crate) fn write_uint(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Appends `s` as a quoted JSON string, escaped per RFC 8259.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Copy unescaped runs whole (most strings are one run). Every byte
    // that needs escaping is ASCII, so run bounds are char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::Num(1.5).render(), "1.5");
        assert_eq!(JsonValue::UInt(42).render(), "42");
        assert_eq!(JsonValue::str("hi").render(), "\"hi\"");
    }

    #[test]
    fn uints_match_display() {
        for v in [0, 1, 9, 10, 99, 100, 4_294_967_295, 10_000_000_000_000_000_000, u64::MAX] {
            let mut out = String::from("x");
            write_uint(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_control_and_quotes() {
        assert_eq!(JsonValue::str("a\"b\\c\n").render(), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(JsonValue::str("\u{01}").render(), "\"\\u0001\"");
        assert_eq!(JsonValue::str("\r\t\u{1f}é").render(), "\"\\r\\t\\u001fé\"");
    }

    #[test]
    fn escaping_matches_a_char_by_char_reference() {
        let reference = |s: &str| {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' | '\\' => out.extend(['\\', c]),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out + "\""
        };
        for c in (0u32..0x80).chain([0xe9, 0x2028, 0x1f600]).filter_map(char::from_u32) {
            let s = format!("{c}a{c}{c}é{c}");
            assert_eq!(JsonValue::str(&s).render(), reference(&s), "{s:?}");
        }
    }

    #[test]
    fn containers_nest() {
        let v = JsonValue::obj(vec![
            ("xs", JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::UInt(2)])),
            ("name", JsonValue::str("t")),
        ]);
        assert_eq!(v.render(), "{\"xs\":[1,2],\"name\":\"t\"}");
    }

    #[test]
    fn small_decimals_stay_plain_notation() {
        // Rust's f64 Display never emits exponent notation, which keeps
        // the output strictly JSON-parsable by minimal parsers.
        assert_eq!(JsonValue::Num(0.0000001).render(), "0.0000001");
    }
}
