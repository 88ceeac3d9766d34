//! The dynamically typed cell value of the noisy table model.
//!
//! Definition 1 of the paper allows tables with missing headers and missing
//! cell values, so `Null` is a first-class variant. Text is stored as
//! `Arc<str>` so cloning values across candidate views is a refcount bump,
//! not an allocation (perf-book: avoid hot `clone` allocations).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Logical type of a column (inferred, since pathless collections carry no
/// reliable schema metadata).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integers.
    Int,
    /// 64-bit floats (bit-equality semantics, see [`Value`]).
    Float,
    /// UTF-8 text.
    Text,
    /// Column with no non-null values observed.
    Unknown,
}

impl DataType {
    /// Stable one-byte code of the type in the persisted-index and wire
    /// formats.
    pub fn code(self) -> u8 {
        match self {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Text => 2,
            DataType::Unknown => 3,
        }
    }

    /// Inverse of [`DataType::code`]; `None` for a code no type has.
    pub fn from_code(code: u8) -> Option<DataType> {
        match code {
            0 => Some(DataType::Int),
            1 => Some(DataType::Float),
            2 => Some(DataType::Text),
            3 => Some(DataType::Unknown),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Int => write!(f, "int"),
            DataType::Float => write!(f, "float"),
            DataType::Text => write!(f, "text"),
            DataType::Unknown => write!(f, "unknown"),
        }
    }
}

/// A single cell value.
///
/// `Float` uses **bit equality** (and hashes its bits) so `Value` can be an
/// `Eq + Hash` key in row-hash sets and inverted indexes. `NaN == NaN` under
/// this scheme, which is the useful behaviour for deduplication.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Missing value.
    Null,
    /// Integer.
    Int(i64),
    /// Float (bit-equality semantics).
    Float(f64),
    /// Text (cheaply cloneable).
    Text(Arc<str>),
}

impl Value {
    /// Build a text value.
    pub fn text(s: impl Into<Arc<str>>) -> Self {
        Value::Text(s.into())
    }

    /// `true` when the value is [`Value::Null`].
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Logical type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Unknown,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Text(_) => DataType::Text,
        }
    }

    /// Parse a raw string cell into the most specific value, mirroring
    /// pandas-style CSV type inference: empty → null, integer, float, text.
    pub fn parse(raw: &str) -> Self {
        let t = raw.trim();
        if t.is_empty() || t.eq_ignore_ascii_case("null") || t.eq_ignore_ascii_case("na") {
            return Value::Null;
        }
        if let Ok(i) = t.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = t.parse::<f64>() {
            return Value::Float(f);
        }
        Value::text(t)
    }

    /// Canonical string form used by keyword matching: lower-cased and
    /// whitespace-trimmed. Numeric values render without `.0` noise where
    /// possible so `Int(5)` and `"5"` normalise identically.
    pub fn normalized(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
                    format!("{}", *f as i64)
                } else {
                    format!("{f}")
                }
            }
            Value::Text(s) => s.trim().to_lowercase(),
        }
    }

    /// Stable byte encoding used for hashing (row hashes, MinHash). Includes
    /// a type tag so `Int(1)` and `Text("1")` hash differently while two
    /// equal values always hash equally.
    pub fn write_hash_bytes(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                out.push(3);
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Int(i) => {
                state.write_u8(1);
                state.write_u64(*i as u64);
            }
            Value::Float(f) => {
                state.write_u8(2);
                state.write_u64(f.to_bits());
            }
            Value::Text(s) => {
                state.write_u8(3);
                state.write(s.as_bytes());
            }
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < Int < Float < Text; floats order by `total_cmp`.
    /// Used for deterministic output ordering, not for semantics.
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) => 1,
                Value::Float(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::fx_hash_u64;

    #[test]
    fn data_type_codes_are_the_persisted_ones() {
        let types = [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Unknown,
        ];
        for (code, t) in types.into_iter().enumerate() {
            assert_eq!(t.code(), code as u8);
            assert_eq!(DataType::from_code(code as u8), Some(t));
        }
        assert_eq!(DataType::from_code(4), None);
    }

    #[test]
    fn parse_inference() {
        assert_eq!(Value::parse("42"), Value::Int(42));
        assert_eq!(Value::parse("-7"), Value::Int(-7));
        assert_eq!(Value::parse("3.5"), Value::Float(3.5));
        assert_eq!(Value::parse("  hello "), Value::text("hello"));
        assert_eq!(Value::parse(""), Value::Null);
        assert_eq!(Value::parse("NA"), Value::Null);
        assert_eq!(Value::parse("null"), Value::Null);
    }

    #[test]
    fn normalized_unifies_numeric_forms() {
        assert_eq!(Value::Int(5).normalized(), "5");
        assert_eq!(Value::Float(5.0).normalized(), "5");
        assert_eq!(Value::text("  MiXeD Case ").normalized(), "mixed case");
        assert_eq!(Value::Null.normalized(), "");
    }

    #[test]
    fn float_bit_equality_and_hash() {
        let nan1 = Value::Float(f64::NAN);
        let nan2 = Value::Float(f64::NAN);
        assert_eq!(nan1, nan2);
        assert_eq!(fx_hash_u64(&nan1), fx_hash_u64(&nan2));
        // +0.0 and -0.0 have different bits → different values here.
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn typed_hash_bytes_distinguish_types() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Value::Int(1).write_hash_bytes(&mut a);
        Value::text("1").write_hash_bytes(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn ordering_is_total_and_ranked() {
        let mut vals = vec![
            Value::text("b"),
            Value::Null,
            Value::Float(1.5),
            Value::Int(10),
            Value::text("a"),
        ];
        vals.sort();
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Int(10),
                Value::Float(1.5),
                Value::text("a"),
                Value::text("b"),
            ]
        );
    }

    #[test]
    fn display_roundtrips_for_ints() {
        assert_eq!(Value::Int(17).to_string(), "17");
        assert_eq!(Value::text("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn cheap_text_clone_shares_storage() {
        let v = Value::text("shared");
        let w = v.clone();
        if let (Value::Text(a), Value::Text(b)) = (&v, &w) {
            assert!(Arc::ptr_eq(a, b));
        } else {
            panic!("expected text values");
        }
    }
}
