//! A small JSON reader producing the workspace's [`JsonValue`] tree.
//!
//! `zkspeed_rt` only emits JSON; the benchmark also has to read it back
//! (`BENCHMARK.json`, a child run's result line, two result files in
//! `compare`), so the inverse lives here.

use zkspeed::rt::JsonValue;

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

/// Looks up `key` in an object.
pub fn get<'a>(value: &'a JsonValue, key: &str) -> Option<&'a JsonValue> {
    match value {
        JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The fields of an object (empty for any other value).
pub fn fields(value: &JsonValue) -> &[(String, JsonValue)] {
    match value {
        JsonValue::Object(fields) => fields,
        _ => &[],
    }
}

/// The items of an array (empty for any other value).
pub fn items(value: &JsonValue) -> &[JsonValue] {
    match value {
        JsonValue::Array(items) => items,
        _ => &[],
    }
}

/// Any JSON number as `f64`.
pub fn number(value: &JsonValue) -> Option<f64> {
    match value {
        JsonValue::Int(i) => Some(*i as f64),
        JsonValue::UInt(u) => Some(*u as f64),
        JsonValue::Float(f) => Some(*f),
        _ => None,
    }
}

/// A JSON string.
pub fn string(value: &JsonValue) -> Option<&str> {
    match value {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Object(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string".to_string())?;
            self.pos += 1;
            match byte {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(format!("bad \\u escape at offset {}", self.pos))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if let Ok(u) = text.parse::<u64>() {
            Ok(JsonValue::UInt(u))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(JsonValue::Int(i))
        } else {
            text.parse::<f64>()
                .map(JsonValue::Float)
                .map_err(|_| format!("bad number '{text}' at offset {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_what_the_workspace_emits() {
        let tree = JsonValue::Object(vec![
            ("a".into(), JsonValue::UInt(3)),
            ("b".into(), JsonValue::Float(-1.25e-3)),
            (
                "c".into(),
                JsonValue::Array(vec![
                    JsonValue::Str("x\"y\n".into()),
                    JsonValue::Null,
                    JsonValue::Bool(true),
                    JsonValue::Int(-7),
                ]),
            ),
            ("d".into(), JsonValue::Object(Vec::new())),
        ]);
        assert_eq!(parse(&tree.render()).unwrap(), tree);
        assert_eq!(parse(&tree.pretty()).unwrap(), tree);
        assert_eq!(number(get(&tree, "b").unwrap()), Some(-1.25e-3));
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1,").is_err());
    }
}
