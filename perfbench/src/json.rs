//! A linear-time JSON reader for poll responses.
//!
//! The viewer decodes every frame it receives, as a browser's
//! `JSON.parse` would.  The workspace's `serde_json` stand-in re-validates
//! the rest of the input for every string character it reads, so a full
//! 256×256 frame payload takes it seconds; this reader builds the same
//! [`Value`] tree in one pass, and the hub's own decoders
//! (`delta_from_json`, `image_from_json`) then read it.

use serde_json::{Map, Value};

/// Parse one JSON document.
pub fn parse(input: &[u8]) -> Result<Value, String> {
    let mut r = Reader { b: input, at: 0 };
    let v = r.value()?;
    r.ws();
    if r.at != input.len() {
        return Err(format!("trailing bytes at {}", r.at));
    }
    Ok(v)
}

struct Reader<'a> {
    b: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.b.get(self.at).is_some_and(|c| c.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.b
            .get(self.at)
            .copied()
            .ok_or_else(|| "unexpected end".to_string())
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? != c {
            return Err(format!("expected `{}` at {}", c as char, self.at));
        }
        self.at += 1;
        Ok(())
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.b[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'n' => self.keyword("null", Value::Null),
            b't' => self.keyword("true", Value::Bool(true)),
            b'f' => self.keyword("false", Value::Bool(false)),
            b'"' => self.string().map(Value::String),
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.at += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.at += 1,
                        b']' => {
                            self.at += 1;
                            return Ok(Value::Array(items));
                        }
                        c => return Err(format!("unexpected `{}` in array", c as char)),
                    }
                }
            }
            b'{' => {
                self.at += 1;
                let mut map = Map::new();
                if self.peek()? == b'}' {
                    self.at += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.peek()?;
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    match self.peek()? {
                        b',' => self.at += 1,
                        b'}' => {
                            self.at += 1;
                            return Ok(Value::Object(map));
                        }
                        c => return Err(format!("unexpected `{}` in object", c as char)),
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while self
            .b
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.b[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let run = self.b[self.at..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .ok_or("unterminated string")?;
            out.extend_from_slice(&self.b[self.at..self.at + run]);
            self.at += run;
            if self.b[self.at] == b'"' {
                self.at += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            let esc = *self.b.get(self.at + 1).ok_or("unterminated escape")?;
            self.at += 2;
            let c = match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{08}',
                b'f' => '\u{0C}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.b.get(self.at..self.at + 4).ok_or("short \\u escape")?;
                    self.at += 4;
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or("bad \\u escape")?;
                    // Frame payloads never carry surrogate pairs.
                    char::from_u32(code).ok_or("unpaired surrogate")?
                }
                other => return Err(format!("bad escape `\\{}`", other as char)),
            };
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_workspace_parser_reads() {
        let text = r#" {"a": [1, -2.5e3, true, null, {"b": "x\"yé\n"}], "c": {}, "d": []} "#;
        assert_eq!(
            parse(text.as_bytes()),
            Ok(serde_json::from_str::<Value>(text).unwrap())
        );
        assert!(parse(b"{\"a\": 1,}").is_err());
        assert!(parse(b"[1 2]").is_err());
        assert!(parse(b"\"open").is_err());
        assert!(parse(b"{} x").is_err());
    }
}
