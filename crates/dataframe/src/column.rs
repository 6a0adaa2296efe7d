//! Typed columns with per-cell nullability.

use crate::error::FrameError;
use crate::value::Value;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Column data type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    Int,
    Float,
    Str,
    Bool,
    DateTime,
    StrList,
}

/// Typed column storage; `None` cells are nulls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ColumnData {
    Int(Vec<Option<i64>>),
    Float(Vec<Option<f64>>),
    Str(Vec<Option<String>>),
    Bool(Vec<Option<bool>>),
    /// Epoch seconds.
    DateTime(Vec<Option<i64>>),
    StrList(Vec<Option<Vec<String>>>),
}

impl ColumnData {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::DateTime(v) => v.len(),
            ColumnData::StrList(v) => v.len(),
        }
    }

    /// True when there are no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The data type.
    pub fn dtype(&self) -> DType {
        match self {
            ColumnData::Int(_) => DType::Int,
            ColumnData::Float(_) => DType::Float,
            ColumnData::Str(_) => DType::Str,
            ColumnData::Bool(_) => DType::Bool,
            ColumnData::DateTime(_) => DType::DateTime,
            ColumnData::StrList(_) => DType::StrList,
        }
    }

    /// Cell at `i` as a [`Value`] (Null when out of bounds or null).
    pub fn get(&self, i: usize) -> Value {
        match self {
            ColumnData::Int(v) => v.get(i).copied().flatten().map_or(Value::Null, Value::Int),
            ColumnData::Float(v) => v.get(i).copied().flatten().map_or(Value::Null, Value::Float),
            ColumnData::Str(v) => v
                .get(i)
                .and_then(|o| o.clone())
                .map_or(Value::Null, Value::Str),
            ColumnData::Bool(v) => v.get(i).copied().flatten().map_or(Value::Null, Value::Bool),
            ColumnData::DateTime(v) => {
                v.get(i).copied().flatten().map_or(Value::Null, Value::DateTime)
            }
            ColumnData::StrList(v) => v
                .get(i)
                .and_then(|o| o.clone())
                .map_or(Value::Null, Value::StrList),
        }
    }

    /// Append a value, coercing Int↔Float where loss-free. Errors on an
    /// incompatible type; appends null for `Value::Null`.
    pub fn push(&mut self, value: Value) -> Result<()> {
        let type_err = |expected: DType, v: &Value| FrameError::Invalid(
            format!("cannot push {v:?} into {expected:?} column"),
        );
        match (self, value) {
            (ColumnData::Int(v), Value::Int(x)) => v.push(Some(x)),
            (ColumnData::Int(v), Value::Null) => v.push(None),
            (ColumnData::Float(v), Value::Float(x)) => v.push(Some(x)),
            (ColumnData::Float(v), Value::Int(x)) => v.push(Some(x as f64)),
            (ColumnData::Float(v), Value::Null) => v.push(None),
            (ColumnData::Str(v), Value::Str(x)) => v.push(Some(x)),
            (ColumnData::Str(v), Value::Null) => v.push(None),
            (ColumnData::Bool(v), Value::Bool(x)) => v.push(Some(x)),
            (ColumnData::Bool(v), Value::Null) => v.push(None),
            (ColumnData::DateTime(v), Value::DateTime(x)) => v.push(Some(x)),
            (ColumnData::DateTime(v), Value::Null) => v.push(None),
            (ColumnData::StrList(v), Value::StrList(x)) => v.push(Some(x)),
            (ColumnData::StrList(v), Value::Null) => v.push(None),
            (this, v) => return Err(type_err(this.dtype(), &v)),
        }
        Ok(())
    }

    /// Empty storage of the given dtype.
    pub fn empty(dtype: DType) -> ColumnData {
        match dtype {
            DType::Int => ColumnData::Int(Vec::new()),
            DType::Float => ColumnData::Float(Vec::new()),
            DType::Str => ColumnData::Str(Vec::new()),
            DType::Bool => ColumnData::Bool(Vec::new()),
            DType::DateTime => ColumnData::DateTime(Vec::new()),
            DType::StrList => ColumnData::StrList(Vec::new()),
        }
    }

    /// Select the cells at `indices` (in order) into a new storage.
    pub fn take(&self, indices: &[usize]) -> ColumnData {
        fn gather<T: Clone>(v: &[Option<T>], idx: &[usize]) -> Vec<Option<T>> {
            idx.iter().map(|&i| v.get(i).cloned().flatten()).collect()
        }
        match self {
            ColumnData::Int(v) => ColumnData::Int(gather(v, indices)),
            ColumnData::Float(v) => ColumnData::Float(gather(v, indices)),
            ColumnData::Str(v) => ColumnData::Str(gather(v, indices)),
            ColumnData::Bool(v) => ColumnData::Bool(gather(v, indices)),
            ColumnData::DateTime(v) => ColumnData::DateTime(gather(v, indices)),
            ColumnData::StrList(v) => ColumnData::StrList(gather(v, indices)),
        }
    }
}

/// A named, typed column. The storage is immutable and shared behind an
/// `Arc`: cloning a column, or a frame holding it, costs a reference
/// count, never a copy of its cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    name: String,
    data: Arc<ColumnData>,
}

impl Column {
    /// Create a column from storage.
    pub fn new(name: &str, data: ColumnData) -> Self {
        Column { name: name.to_string(), data: Arc::new(data) }
    }

    /// Non-null i64 column.
    pub fn from_i64s(name: &str, values: &[i64]) -> Self {
        Column::new(name, ColumnData::Int(values.iter().map(|&v| Some(v)).collect()))
    }

    /// Non-null f64 column.
    pub fn from_f64s(name: &str, values: &[f64]) -> Self {
        Column::new(name, ColumnData::Float(values.iter().map(|&v| Some(v)).collect()))
    }

    /// Non-null string column.
    pub fn from_strs(name: &str, values: &[&str]) -> Self {
        Column::new(
            name,
            ColumnData::Str(values.iter().map(|v| Some(v.to_string())).collect()),
        )
    }

    /// Non-null string column from owned strings.
    pub fn from_strings(name: &str, values: Vec<String>) -> Self {
        Column::new(name, ColumnData::Str(values.into_iter().map(Some).collect()))
    }

    /// Non-null datetime column from epoch seconds.
    pub fn from_datetimes(name: &str, epochs: &[i64]) -> Self {
        Column::new(
            name,
            ColumnData::DateTime(epochs.iter().map(|&v| Some(v)).collect()),
        )
    }

    /// Non-null string-list column.
    pub fn from_str_lists(name: &str, values: Vec<Vec<String>>) -> Self {
        Column::new(name, ColumnData::StrList(values.into_iter().map(Some).collect()))
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename, returning the column.
    pub fn renamed(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Data type.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Underlying storage, shared by every clone of this column.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Cell at `i` as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        self.data.get(i)
    }

    /// Iterate cells as [`Value`]s.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.data.get(i))
    }

    /// Number of null cells.
    pub fn null_count(&self) -> usize {
        self.iter().filter(Value::is_null).count()
    }

    /// Select rows at `indices` into a new column.
    pub fn take(&self, indices: &[usize]) -> Column {
        Column::new(&self.name, self.data.take(indices))
    }

    /// Numeric view of the cells (nulls and non-numerics become None).
    pub fn f64_iter(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        (0..self.len()).map(move |i| self.data.get(i).as_f64())
    }

    /// Mean of the non-null numeric cells.
    pub fn mean(&self) -> Option<f64> {
        let vals: Vec<f64> = self.f64_iter().flatten().collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Sum of the non-null numeric cells (0 for an all-null column).
    pub fn sum(&self) -> f64 {
        self.f64_iter().flatten().sum()
    }

    /// Minimum non-null value (by total order).
    pub fn min(&self) -> Value {
        self.iter()
            .filter(|v| !v.is_null())
            .min_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)
    }

    /// Maximum non-null value (by total order).
    pub fn max(&self) -> Value {
        self.iter()
            .filter(|v| !v.is_null())
            .max_by(|a, b| a.total_cmp(b))
            .unwrap_or(Value::Null)
    }

    /// Sample standard deviation of non-null numeric cells (None if < 2).
    pub fn std(&self) -> Option<f64> {
        let vals: Vec<f64> = self.f64_iter().flatten().collect();
        if vals.len() < 2 {
            return None;
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (vals.len() - 1) as f64;
        Some(var.sqrt())
    }

    /// Median of non-null numeric cells.
    pub fn median(&self) -> Option<f64> {
        let mut vals: Vec<f64> = self.f64_iter().flatten().collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(|a, b| a.total_cmp(b));
        let mid = vals.len() / 2;
        Some(if vals.len() % 2 == 0 { (vals[mid - 1] + vals[mid]) / 2.0 } else { vals[mid] })
    }

    /// Number of distinct non-null values.
    pub fn n_unique(&self) -> usize {
        let mut vals: Vec<String> = self
            .iter()
            .filter(|v| !v.is_null())
            .map(|v| format!("{v:?}"))
            .collect();
        vals.sort();
        vals.dedup();
        vals.len()
    }

    /// Require the column to be of `expected` type.
    pub fn expect_dtype(&self, expected: DType) -> Result<()> {
        if self.dtype() == expected {
            Ok(())
        } else {
            Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected,
                actual: self.dtype(),
            })
        }
    }

    /// Borrow string cells (errors unless a Str column).
    pub fn strs(&self) -> Result<&[Option<String>]> {
        match &*self.data {
            ColumnData::Str(v) => Ok(v),
            _ => Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: DType::Str,
                actual: self.dtype(),
            }),
        }
    }

    /// Borrow string-list cells (errors unless a StrList column).
    pub fn str_lists(&self) -> Result<&[Option<Vec<String>>]> {
        match &*self.data {
            ColumnData::StrList(v) => Ok(v),
            _ => Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: DType::StrList,
                actual: self.dtype(),
            }),
        }
    }

    /// Borrow datetime cells (errors unless a DateTime column).
    pub fn datetimes(&self) -> Result<&[Option<i64>]> {
        match &*self.data {
            ColumnData::DateTime(v) => Ok(v),
            _ => Err(FrameError::TypeMismatch {
                column: self.name.clone(),
                expected: DType::DateTime,
                actual: self.dtype(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_access() {
        let c = Column::from_i64s("x", &[1, 2, 3]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(1), Value::Int(2));
        assert_eq!(c.get(99), Value::Null);
        assert_eq!(c.dtype(), DType::Int);
    }

    #[test]
    fn push_with_coercion() {
        let mut data = ColumnData::Float(vec![]);
        data.push(Value::Int(2)).unwrap();
        data.push(Value::Float(2.5)).unwrap();
        data.push(Value::Null).unwrap();
        assert_eq!(data.len(), 3);
        assert!(data.push(Value::str("no")).is_err());
    }

    #[test]
    fn aggregates() {
        let c = Column::from_f64s("x", &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.mean(), Some(2.5));
        assert_eq!(c.sum(), 10.0);
        assert_eq!(c.min(), Value::Float(1.0));
        assert_eq!(c.max(), Value::Float(4.0));
        assert_eq!(c.median(), Some(2.5));
        assert!((c.std().unwrap() - 1.2909944).abs() < 1e-6);
    }

    #[test]
    fn aggregates_with_nulls() {
        let c = Column::new("x", ColumnData::Float(vec![Some(1.0), None, Some(3.0)]));
        assert_eq!(c.mean(), Some(2.0));
        assert_eq!(c.null_count(), 1);
        let empty = Column::new("y", ColumnData::Float(vec![None, None]));
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.min(), Value::Null);
    }

    #[test]
    fn take_reorders_and_handles_oob() {
        let c = Column::from_strs("s", &["a", "b", "c"]);
        let t = c.take(&[2, 0, 10]);
        assert_eq!(t.get(0), Value::str("c"));
        assert_eq!(t.get(1), Value::str("a"));
        assert_eq!(t.get(2), Value::Null);
    }

    #[test]
    fn n_unique() {
        let c = Column::from_strs("s", &["a", "b", "a"]);
        assert_eq!(c.n_unique(), 2);
    }

    #[test]
    fn typed_accessors() {
        let c = Column::from_strs("s", &["x"]);
        assert!(c.strs().is_ok());
        assert!(c.datetimes().is_err());
        assert!(c.expect_dtype(DType::Str).is_ok());
        assert!(c.expect_dtype(DType::Int).is_err());
    }

    #[test]
    fn str_list_column() {
        let c = Column::from_str_lists("topics", vec![
            vec!["bug".into(), "ui".into()],
            vec!["perf".into()],
        ]);
        assert_eq!(c.dtype(), DType::StrList);
        assert_eq!(c.get(0), Value::StrList(vec!["bug".into(), "ui".into()]));
    }
}
