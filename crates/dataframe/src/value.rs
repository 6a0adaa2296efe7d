//! Scalar cell values.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A single cell value. `StrList` exists because each feedback row carries
/// *multiple* abstractive topics (paper Sec. 3.3: "LLMs predict one or
/// multiple topics for each feedback").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    /// Epoch seconds (UTC).
    DateTime(i64),
    StrList(Vec<String>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    /// Is this the null value?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view: Int and Float (and Bool as 0/1) coerce to f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total ordering used by sort and group-by: Null sorts first; numeric
    /// types compare numerically across Int/Float; lists compare
    /// lexicographically; cross-type comparisons fall back to a stable
    /// type-rank order.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (DateTime(a), DateTime(b)) => a.cmp(b),
            (StrList(a), StrList(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }

    /// Equality for filtering/grouping: Int/Float unify numerically.
    pub fn loose_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::DateTime(_) => 4,
            Value::Str(_) => 5,
            Value::StrList(_) => 6,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Null => f.write_str(""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x:.4}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
            Value::DateTime(t) => {
                write!(f, "{}", crate::datetime::CivilDateTime::from_epoch(*t))
            }
            Value::StrList(v) => write!(f, "[{}]", v.join("; ")),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.loose_eq(other)
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
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::str("x").as_f64(), None);
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert!(Value::Int(2).loose_eq(&Value::Float(2.0)));
        assert!(!Value::Int(2).loose_eq(&Value::Float(2.5)));
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(-100)), Ordering::Less);
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.5).to_string(), "2.5000");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::StrList(vec!["a".into(), "b".into()]).to_string(), "[a; b]");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn nan_total_ordering_is_stable() {
        let nan = Value::Float(f64::NAN);
        // total_cmp never panics and is self-consistent.
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
    }
}
