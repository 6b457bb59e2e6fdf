//! The JSON of the bench documents: one writer for the documents the
//! `t13`–`t18` benches print, and the flattening reader the `cc-bench-diff`
//! gate compares them with.
//!
//! ```
//! use cc_bench::json::{fixed, flatten, Json, Leaf};
//!
//! let doc = Json::obj()
//!     .field("bench", "demo")
//!     .field("results", vec![Json::obj().field("kernel", "csr").field("wall_ms", fixed(1.25, 3))]);
//! let flat = flatten(&doc.render()).unwrap();
//! assert_eq!(flat["results.0.kernel"], Leaf::Str("csr".into()));
//! assert_eq!(flat["results.0.wall_ms"], Leaf::Num(1.25));
//! ```

use std::collections::BTreeMap;

/// A JSON value of a bench document. Objects keep their fields in
/// insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A number, rendered when the value is built (see [`fixed`]).
    Num(String),
    /// `true` or `false`.
    Bool(bool),
    /// A string, escaped when rendered.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

/// `x` rendered with `decimals` digits after the point; a non-finite `x`
/// becomes `null`, which JSON has in place of NaN and ∞.
pub fn fixed(x: f64, decimals: usize) -> Json {
    if x.is_finite() {
        Json::Num(format!("{x:.decimals$}"))
    } else {
        Json::Num("null".into())
    }
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to this object and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(fields) = &mut self else {
            panic!("field {key:?} added to a non-object");
        };
        fields.push((key.to_string(), value.into()));
        self
    }

    /// The document as text: the top-level object one field per line,
    /// arrays of objects or arrays one element per line, and everything
    /// else inline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// `self` as a table cell: a string unquoted, anything else inline.
    pub(crate) fn cell(&self) -> String {
        match self {
            Json::Str(s) => s.clone(),
            value => {
                let mut out = String::new();
                value.write(&mut out, None);
                out
            }
        }
    }

    /// Writes `self` at `indent`; `None` writes it and everything inside
    /// it inline.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Num(text) => return out.push_str(text),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => return write_str(out, s),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(&k[..]), v)).collect(),
            ),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        };
        let block = indent.filter(|&at| match self {
            Json::Obj(_) => at == 0,
            _ => entries
                .iter()
                .any(|(_, v)| matches!(v, Json::Obj(_) | Json::Arr(_))),
        });
        out.push(open);
        for (i, (key, value)) in entries.iter().enumerate() {
            match block {
                Some(at) => {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&" ".repeat(at + 2));
                }
                None if i > 0 => out.push_str(", "),
                None => {}
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, block.map(|at| at + 2));
        }
        if let Some(at) = block {
            out.push('\n');
            out.push_str(&" ".repeat(at));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x.to_string())
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x.to_string())
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// An object from `(key, value)` pairs, in iteration order.
impl<K: Into<String>> FromIterator<(K, Json)> for Json {
    fn from_iter<I: IntoIterator<Item = (K, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// A leaf value of a flattened JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Leaf {
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string (escapes decoded).
    Str(String),
}

/// Flattens a JSON document into `dotted.path → leaf`, with arrays indexed
/// numerically (`results.3.wall_ms`). `null` and empty containers leave no
/// leaf.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn flatten(text: &str) -> Result<BTreeMap<String, Leaf>, String> {
    let mut out = BTreeMap::new();
    let mut r = Reader {
        bytes: text.as_bytes(),
        pos: 0,
    };
    r.value("", &mut out)?;
    Ok(out)
}

/// Minimal recursive-descent JSON reader: only what the bench documents
/// need.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "non-utf8 string".into());
                }
                Some(b'\\') => {
                    let Some(&esc) = self.bytes.get(self.pos + 1) else {
                        return Err("dangling escape".into());
                    };
                    self.pos += 2;
                    let decoded = match esc {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or(char::REPLACEMENT_CHARACTER)
                        }
                        // `\"`, `\\`, `\/`; unknown escapes pass through verbatim.
                        other => char::from(other),
                    };
                    let mut buf = [0u8; 4];
                    out.extend_from_slice(decoded.encode_utf8(&mut buf).as_bytes());
                }
                Some(b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, path: &str, out: &mut BTreeMap<String, Leaf>) -> Result<(), String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                self.pos += 1;
                let close = if open == b'{' { b'}' } else { b']' };
                if self.peek() == Some(close) {
                    self.pos += 1;
                    return Ok(());
                }
                let mut i = 0usize;
                loop {
                    let key = if open == b'{' {
                        let key = self.string()?;
                        self.expect(b':')?;
                        key
                    } else {
                        let index = i.to_string();
                        i += 1;
                        index
                    };
                    let child = if path.is_empty() {
                        key
                    } else {
                        format!("{path}.{key}")
                    };
                    self.value(&child, out)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b) if b == close => {
                            self.pos += 1;
                            return Ok(());
                        }
                        other => return Err(format!("bad separator {other:?}")),
                    }
                }
            }
            Some(b'"') => {
                let s = self.string()?;
                out.insert(path.to_string(), Leaf::Str(s));
                Ok(())
            }
            Some(b't') => {
                self.literal("true")?;
                out.insert(path.to_string(), Leaf::Bool(true));
                Ok(())
            }
            Some(b'f') => {
                self.literal("false")?;
                out.insert(path.to_string(), Leaf::Bool(false));
                Ok(())
            }
            Some(b'n') => self.literal("null"),
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|&b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "non-utf8 number".to_string())?;
                let num: f64 = text
                    .parse()
                    .map_err(|_| format!("bad number {text:?} at byte {start}"))?;
                out.insert(path.to_string(), Leaf::Num(num));
                Ok(())
            }
            None => Err("unexpected end of document".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_walks_nested_objects_and_arrays() {
        let doc = r#"{"bench": "x", "lat_us": {"p50": 1.5}, "results": [{"a": 1}, {"a": 2}], "ok": true}"#;
        let m = flatten(doc).unwrap();
        assert_eq!(m.get("bench"), Some(&Leaf::Str("x".into())));
        assert_eq!(m.get("lat_us.p50"), Some(&Leaf::Num(1.5)));
        assert_eq!(m.get("results.1.a"), Some(&Leaf::Num(2.0)));
        assert_eq!(m.get("ok"), Some(&Leaf::Bool(true)));
    }

    #[test]
    fn written_documents_read_back_leaf_for_leaf() {
        let tricky = "quote \" backslash \\ newline \n tab \t bell \u{7} é";
        let doc = Json::obj()
            .field("bench", "round-trip")
            .field("quick", true)
            .field("broken", false)
            .field("count", 42usize)
            .field("ratio", fixed(0.12345, 3))
            .field("nan", fixed(f64::NAN, 3))
            .field("escapes", tricky)
            .field(
                "nested",
                Json::obj().field("inner", Json::obj().field("x", 7u64)),
            )
            .field("flat", vec![Json::from(1u64), Json::from("two")])
            .field(
                "results",
                vec![
                    Json::obj().field("kernel", "a").field("ops", 1u64),
                    Json::obj().field("kernel", "b").field("ops", 2u64),
                ],
            )
            .field("empty", Json::obj());
        let text = doc.render();
        assert!(
            text.starts_with("{\n  \"bench\": \"round-trip\",\n"),
            "{text}"
        );
        assert!(
            text.contains("\n    {\"kernel\": \"a\", \"ops\": 1},\n"),
            "{text}"
        );
        let m = flatten(&text).unwrap();
        let want: BTreeMap<String, Leaf> = [
            ("bench", Leaf::Str("round-trip".into())),
            ("quick", Leaf::Bool(true)),
            ("broken", Leaf::Bool(false)),
            ("count", Leaf::Num(42.0)),
            ("ratio", Leaf::Num(0.123)),
            ("escapes", Leaf::Str(tricky.into())),
            ("nested.inner.x", Leaf::Num(7.0)),
            ("flat.0", Leaf::Num(1.0)),
            ("flat.1", Leaf::Str("two".into())),
            ("results.0.kernel", Leaf::Str("a".into())),
            ("results.0.ops", Leaf::Num(1.0)),
            ("results.1.kernel", Leaf::Str("b".into())),
            ("results.1.ops", Leaf::Num(2.0)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        assert_eq!(m, want);
    }

    #[test]
    fn malformed_documents_are_errors() {
        assert!(flatten(r#"{"a": 1"#).is_err());
        assert!(flatten(r#"{"a": tru}"#).is_err());
        assert!(flatten(r#"{"a": "\u12"}"#).is_err());
    }
}
