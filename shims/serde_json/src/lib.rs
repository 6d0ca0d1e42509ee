//! Offline shim for `serde_json`, writing and parsing JSON text as the
//! workspace-local `serde` [`Value`] tree.
//!
//! Numeric fidelity: floats print via `{:?}` (Rust's shortest round-trip
//! formatting) so `f64` values survive save/load bit-exactly; `u64`/`i64`
//! print as integer literals. JSON has no literals for non-finite floats, so
//! ±∞ is written as `1e999`/`-1e999` (which parse back to ±∞) and NaN as
//! `null` (which a reader expecting a float takes for NaN).
//!
//! The parser accepts at most 128 nested arrays and objects, so hostile
//! input ends in an [`Error`], not a stack overflow.

use serde::Value;

/// Deepest nesting of arrays and objects the parser accepts (real
/// `serde_json`'s default recursion limit).
const MAX_DEPTH: usize = 128;

/// Serialization or parse failure.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_nan() {
                out.push_str("null");
            } else if f.is_infinite() {
                out.push_str(if *f > 0.0 { "1e999" } else { "-1e999" });
            } else if *f == f.trunc() && f.abs() < 1e15 {
                // Integral floats print with a trailing ".0" so they parse
                // back as floats, matching real serde_json.
                out.push_str(&format!("{f:.1}"));
            } else {
                out.push_str(&format!("{f:?}"));
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

/// Print as a compact JSON string.
pub fn to_string(value: &Value) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, value);
    Ok(out)
}

/// Print as a JSON string with two-space indentation.
pub fn to_string_pretty(value: &Value) -> Result<String> {
    let mut out = String::new();
    write_pretty(&mut out, value, 0);
    Ok(out)
}

fn write_pretty(out: &mut String, v: &Value, indent: usize) {
    const STEP: usize = 2;
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_pretty(out, item, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&" ".repeat(indent + STEP));
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, val, indent + STEP);
            }
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            out.push('}');
        }
        other => write_value(out, other),
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn expect_literal(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    /// Parse one value nested inside `depth` arrays and objects.
    fn parse_value(&mut self, depth: usize) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'n') => self.expect_literal("null", Value::Null),
            Some(b't') => self.expect_literal("true", Value::Bool(true)),
            Some(b'f') => self.expect_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(depth + 1),
            Some(b'{') => self.parse_object(depth + 1),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value(depth)?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the unescaped run in one go.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            // Surrogate pairs for astral-plane chars.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.parse_hex4()?;
                                // Only a low surrogate completes the pair.
                                (0xDC00..0xE000)
                                    .contains(&lo)
                                    .then(|| 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                                    .and_then(char::from_u32)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Exactly four hex digits: no sign, no space, no shorter run.
    fn parse_hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut cp = 0;
        for &b in digits {
            let d = char::from(b)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            cp = cp * 16 + d;
        }
        self.pos += 4;
        Ok(cp)
    }

    /// A run of one or more ASCII digits.
    fn digits(&mut self) -> Result<()> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("malformed number"));
        }
        Ok(())
    }

    /// JSON's number grammar, `-? (0 | [1-9][0-9]*) (.[0-9]+)?
    /// ([eE][+-]?[0-9]+)?`: no leading zeros, and a digit after every `.`
    /// and exponent.
    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(i) = stripped.parse::<u64>() {
                    if i <= i64::MAX as u64 {
                        return Ok(Value::Int(-(i as i64)));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        // Floats, and integers too large for 64 bits.
        // `1e999` overflows to ±inf, matching our non-finite encoding.
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Parse a JSON string.
pub fn from_str(s: &str) -> Result<Value> {
    let mut p = Parser::new(s);
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float(s: &str) -> f64 {
        match from_str(s).unwrap() {
            Value::Float(f) => f,
            other => panic!("{s} parsed as {other:?}"),
        }
    }

    #[test]
    fn float_roundtrip_bit_exact() {
        for f in [
            0.1,
            -1.5e-300,
            std::f64::consts::PI,
            1.0,
            -0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let s = to_string(&Value::Float(f)).unwrap();
            let back = float(&s);
            assert_eq!(back.to_bits(), f.to_bits(), "{f} -> {s} -> {back}");
        }
    }

    /// The exact text of the float printer: shortest round-trip digits,
    /// exponent form where `{:?}` chooses it, and `.0` on integral values
    /// below 1e15.
    #[test]
    fn float_strings_are_pinned() {
        for (f, s) in [
            (1.5e16, "1.5e16"),
            (1e-4 / 3.0, "3.3333333333333335e-5"),
            (7e-8, "7e-8"),
            (1.0 / 3.0, "0.3333333333333333"),
            (30.125, "30.125"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
        ] {
            assert_eq!(to_string(&Value::Float(f)).unwrap(), s);
            assert_eq!(float(s).to_bits(), f.to_bits(), "{s}");
        }
    }

    #[test]
    fn nonfinite_floats() {
        assert_eq!(to_string(&Value::Float(f64::INFINITY)).unwrap(), "1e999");
        assert_eq!(
            to_string(&Value::Float(f64::NEG_INFINITY)).unwrap(),
            "-1e999"
        );
        assert_eq!(float("1e999"), f64::INFINITY);
        assert_eq!(float("-1e999"), f64::NEG_INFINITY);
        assert_eq!(to_string(&Value::Float(f64::NAN)).unwrap(), "null");
        assert_eq!(from_str("null").unwrap(), Value::Null);
    }

    #[test]
    fn u64_max_roundtrip() {
        let s = to_string(&Value::UInt(u64::MAX)).unwrap();
        assert_eq!(s, "18446744073709551615");
        assert_eq!(from_str(&s).unwrap(), Value::UInt(u64::MAX));
        assert_eq!(from_str("-5").unwrap(), Value::Int(-5));
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "quote\" slash\\ newline\n tab\t unicode\u{1F980}control\u{0001}";
        let json = to_string(&Value::Str(s.into())).unwrap();
        assert_eq!(from_str(&json).unwrap().as_str().unwrap(), s);
        assert_eq!(
            from_str(r#""\ud83e\udd80""#).unwrap().as_str().unwrap(),
            "\u{1F980}"
        );
        // A high surrogate followed by a non-surrogate, and a lone low one.
        assert!(from_str(r#""\ud800\u0041""#).is_err());
        assert!(from_str(r#""\udc00""#).is_err());
    }

    #[test]
    fn nested_structures() {
        let row = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
        let v = Value::Array(vec![row(&[1.0, 2.5]), row(&[]), row(&[-3.0])]);
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1.0,2.5],[],[-3.0]]");
        assert_eq!(from_str(&json).unwrap(), v);
    }

    #[test]
    fn whitespace_and_pretty() {
        let v = Value::Array(vec![Value::UInt(1), Value::UInt(2), Value::UInt(3)]);
        assert_eq!(from_str(" [ 1 , 2 , 3 ] ").unwrap(), v);
        let obj = Value::Object(vec![
            ("a".into(), v.clone()),
            ("b".into(), Value::Array(vec![])),
        ]);
        let pretty = to_string_pretty(&obj).unwrap();
        assert_eq!(
            pretty,
            "{\n  \"a\": [\n    1,\n    2,\n    3\n  ],\n  \"b\": []\n}"
        );
        assert_eq!(from_str(&pretty).unwrap(), obj);
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for ok in [
            "0", "-0", "-0.0", "10", "2.5", "1e5", "1E+5", "2.5e-3", "1e999",
        ] {
            assert!(from_str(ok).is_ok(), "{ok} is JSON");
        }
        assert_eq!(from_str("1E+2").unwrap(), Value::Float(100.0));
        // Leading zeros, a `.` or exponent without digits, a bare or
        // doubled sign, and a missing integer part.
        for bad in [
            "01", "-01", "00", "1.", "1.e5", "1e", "1e+", "-", "+1", "--1", ".5", "-.5", "1.5.",
        ] {
            assert!(from_str(bad).is_err(), "{bad} is not JSON");
            assert!(
                from_str(&format!("[{bad}]")).is_err(),
                "[{bad}] is not JSON"
            );
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str(r#""\u0041""#).unwrap().as_str().unwrap(), "A");
        assert_eq!(from_str(r#""\u00e9""#).unwrap().as_str().unwrap(), "é");
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u41""#,
            r#""\u004g""#,
        ] {
            assert!(from_str(bad).is_err(), "{bad} is not JSON");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(from_str("1 x").is_err());
        assert!(from_str("[1,]").is_err());
    }

    #[test]
    fn nesting_is_limited() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        for nested in [arrays, objects] {
            assert!(from_str(&nested(MAX_DEPTH)).is_ok());
            assert!(from_str(&nested(MAX_DEPTH + 1)).is_err());
        }
        // Far past the limit: an error, not a stack overflow.
        assert!(from_str(&"[".repeat(50_000)).is_err());
    }
}
