//! Reading JSON back: the benchmark's own result documents and
//! `BENCHMARK.json`, for `--compare` and the smoke test. Documents are
//! built and rendered with the repository's
//! [`aw_telemetry::json::JsonValue`](agilewatts::aw_telemetry::json::JsonValue);
//! this module only adds a parser and field accessors.

pub use agilewatts::aw_telemetry::json::JsonValue;

/// Field and scalar access on a parsed [`JsonValue`].
pub trait JsonRead {
    /// The field `key` of an object.
    fn get(&self, key: &str) -> Option<&JsonValue>;
    /// A number, integer or not.
    fn as_f64(&self) -> Option<f64>;
    fn as_str(&self) -> Option<&str>;
    fn as_array(&self) -> Option<&[JsonValue]>;
    /// An object's fields in document order (empty for other values).
    fn fields(&self) -> &[(String, JsonValue)];
}

impl JsonRead for JsonValue {
    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields().iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            JsonValue::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    fn fields(&self) -> &[(String, JsonValue)] {
        match self {
            JsonValue::Object(fields) => fields,
            _ => &[],
        }
    }
}

/// Parses one JSON document. Non-negative integers come back as
/// [`JsonValue::UInt`], every other number as [`JsonValue::Num`].
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { src: text, s: text.as_bytes(), i: 0 };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    /// After an item of a container: `true` on `,`, `false` on `close`.
    fn more(&mut self, close: u8) -> Result<bool, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b',') => {
                self.i += 1;
                Ok(true)
            }
            Some(&c) if c == close => {
                self.i += 1;
                Ok(false)
            }
            _ => Err(format!("expected ',' or '{}' at byte {}", close as char, self.i)),
        }
    }

    /// Consumes `close` if it is the next byte (an empty container).
    fn empty(&mut self, close: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&close);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                if !self.empty(b'}') {
                    loop {
                        let key = self.string()?;
                        self.eat(b':')?;
                        fields.push((key, self.value()?));
                        if !self.more(b'}')? {
                            break;
                        }
                    }
                }
                Ok(JsonValue::Object(fields))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if !self.empty(b']') {
                    loop {
                        items.push(self.value()?);
                        if !self.more(b']')? {
                            break;
                        }
                    }
                }
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.0123456789eE".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = &self.src[start..self.i];
                if let Ok(n) = text.parse::<u64>() {
                    return Ok(JsonValue::UInt(n));
                }
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("bad value at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // `i` always sits on a char boundary: it only advances past
            // ASCII bytes or by whole decoded chars.
            let rest = &self.src[self.i..];
            let mut chars = rest.chars();
            match chars.next() {
                None => return Err("unterminated string".to_string()),
                Some('"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    let esc = chars.next();
                    self.i += 1 + esc.map_or(0, char::len_utf8);
                    match esc {
                        Some('n') => out.push('\n'),
                        Some('t') => out.push('\t'),
                        Some('r') => out.push('\r'),
                        Some('u') => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        Some(c) => out.push(c),
                        None => return Err("unterminated escape".to_string()),
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_what_the_repository_writer_renders() {
        let doc = JsonValue::obj(vec![
            ("name", JsonValue::str("fig8_grid")),
            ("ok", JsonValue::Bool(true)),
            ("n", JsonValue::UInt(7)),
            (
                "samples",
                JsonValue::Array(vec![
                    JsonValue::Num(1.5),
                    JsonValue::Num(0.000012),
                    JsonValue::Num(-3.25),
                ]),
            ),
            ("quote", JsonValue::str("a \"b\"\n\u{1}")),
            ("empty", JsonValue::Object(Vec::new())),
        ]);
        let back = parse(&doc.render()).expect("writer output parses");
        assert_eq!(back, doc);
        assert_eq!(back.get("samples").and_then(JsonRead::as_array).map(<[_]>::len), Some(3));
        assert_eq!(back.get("n").and_then(JsonRead::as_f64), Some(7.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("1 2").is_err());
    }
}
