//! Offline shim for `serde`, reduced to its data model.
//!
//! [`Value`] is the JSON-like tree that `serde_json` (the shim) prints and
//! parses. There are no (de)serialization traits and no derives:
//! a format that leaves a process builds its `Value` by hand and reads one
//! back through [`Value::field`] and [`Value::as_str`] and by matching
//! on its variants; a failure is a [`DeError`].

/// In-memory JSON-like tree: what `serde_json` prints and parses.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Non-negative integers; kept separate from `Int` so `u64` seeds
    /// round-trip exactly.
    UInt(u64),
    /// Negative integers.
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered object so output is deterministic.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup; `Err` if `self` is not an object or lacks `name`.
    pub fn field(&self, name: &str) -> Result<&Value, DeError> {
        match self {
            Value::Object(entries) => entries
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| DeError(format!("missing field `{name}`"))),
            other => Err(DeError(format!(
                "expected object with field `{name}`, found {}",
                other.kind()
            ))),
        }
    }

    /// String view; `Err` for non-strings.
    pub fn as_str(&self) -> Result<&str, DeError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(DeError(format!("expected string, found {}", other.kind()))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::UInt(_) | Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Deserialization error: what was expected vs. found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_field_is_error() {
        let v = Value::Object(vec![("a".into(), Value::UInt(1))]);
        assert!(v.field("a").is_ok());
        assert!(v.field("b").is_err());
    }
}
