//! Column-major value storage with lazily computed statistics.

use serde::{Deserialize, Serialize};
use ver_common::fxhash::{fx_hash_u64, FxHashSet};
use ver_common::value::{DataType, Value};

/// A single column of values.
///
/// Statistics (distinct count, null count, inferred type) are computed once
/// on demand and cached; mutation goes through [`Column::push`], which
/// invalidates the cache.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct Column {
    values: Vec<Value>,
    #[serde(skip)]
    stats: std::sync::OnceLock<ColumnStats>,
}

/// Cached column statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ColumnStats {
    distinct: usize,
    nulls: usize,
    dtype: DataType,
}

impl Column {
    /// Empty column.
    pub fn new() -> Self {
        Column::default()
    }

    /// Column from a vector of values.
    pub fn from_values(values: Vec<Value>) -> Self {
        Column {
            values,
            stats: std::sync::OnceLock::new(),
        }
    }

    /// Append a value (invalidates cached statistics).
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
        self.stats = std::sync::OnceLock::new();
    }

    /// All values, in row order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> Option<&Value> {
        self.values.get(row)
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn stats(&self) -> &ColumnStats {
        self.stats.get_or_init(|| {
            let mut distinct: FxHashSet<&Value> = FxHashSet::default();
            let mut nulls = 0usize;
            let mut dtype = DataType::Unknown;
            for v in &self.values {
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                distinct.insert(v);
                // Type inference: promote Int → Float when mixed; any text
                // makes the whole column Text (pandas `object` behaviour).
                dtype = match (dtype, v.data_type()) {
                    (DataType::Unknown, t) => t,
                    (t, u) if t == u => t,
                    (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                        DataType::Float
                    }
                    _ => DataType::Text,
                };
            }
            ColumnStats {
                distinct: distinct.len(),
                nulls,
                dtype,
            }
        })
    }

    /// Number of distinct non-null values.
    pub fn distinct_count(&self) -> usize {
        self.stats().distinct
    }

    /// Number of null values.
    pub fn null_count(&self) -> usize {
        self.stats().nulls
    }

    /// Inferred logical type of the column.
    pub fn inferred_type(&self) -> DataType {
        self.stats().dtype
    }

    /// Ratio of distinct non-null values to non-null rows, in `[0, 1]`.
    /// A ratio of 1.0 means the column is a (candidate) key of its table.
    pub fn distinct_ratio(&self) -> f64 {
        let non_null = self.len() - self.null_count();
        if non_null == 0 {
            0.0
        } else {
            self.distinct_count() as f64 / non_null as f64
        }
    }

    /// Sorted, deduplicated Fx hashes of the distinct non-null values.
    ///
    /// This is the allocation-free-comparison representation of the
    /// column's value set: MinHash sketches are fed from it directly and
    /// exact containment between two columns is a linear merge over the two
    /// sorted vectors (no per-call `Value` clones, no hash-set churn).
    /// Hashes use the same [`fx_hash_u64`] the MinHash sketcher applies, so
    /// sketches built from these hashes are identical to sketches built
    /// from the values themselves.
    pub fn distinct_hashes(&self) -> Vec<u64> {
        let mut hashes: Vec<u64> = self
            .values
            .iter()
            .filter(|v| !v.is_null())
            .map(fx_hash_u64)
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes
    }

    /// Iterate over non-null values.
    pub fn non_null(&self) -> impl Iterator<Item = &Value> {
        self.values.iter().filter(|v| !v.is_null())
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

impl Eq for Column {}

impl FromIterator<Value> for Column {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Column::from_values(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> Column {
        Column::from_values(vec![
            Value::Int(1),
            Value::Int(2),
            Value::Int(1),
            Value::Null,
            Value::Int(3),
        ])
    }

    #[test]
    fn stats_basic() {
        let c = mixed();
        assert_eq!(c.len(), 5);
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.inferred_type(), DataType::Int);
        assert!((c.distinct_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn push_invalidates_cache() {
        let mut c = mixed();
        assert_eq!(c.distinct_count(), 3);
        c.push(Value::Int(99));
        assert_eq!(c.distinct_count(), 4);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn type_promotion_int_float_text() {
        let c = Column::from_values(vec![Value::Int(1), Value::Float(2.5)]);
        assert_eq!(c.inferred_type(), DataType::Float);
        let c = Column::from_values(vec![Value::Int(1), Value::text("x")]);
        assert_eq!(c.inferred_type(), DataType::Text);
        let c = Column::from_values(vec![Value::Null, Value::Null]);
        assert_eq!(c.inferred_type(), DataType::Unknown);
        assert_eq!(c.distinct_ratio(), 0.0);
    }

    #[test]
    fn distinct_values_excludes_nulls() {
        let c = mixed();
        assert_eq!(c.distinct_count(), 3);
        assert!(c
            .distinct_hashes()
            .binary_search(&fx_hash_u64(&Value::Null))
            .is_err());
    }

    #[test]
    fn distinct_hashes_are_sorted_dedup_and_value_derived() {
        let h = mixed().distinct_hashes();
        assert_eq!(h.len(), 3, "one hash per distinct non-null value");
        assert!(h.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        for v in [Value::Int(1), Value::Int(2), Value::Int(3)] {
            assert!(h.binary_search(&fx_hash_u64(&v)).is_ok());
        }
        assert!(h.binary_search(&fx_hash_u64(&Value::Null)).is_err());
    }

    #[test]
    fn key_column_has_ratio_one() {
        let c: Column = (0..50).map(Value::Int).collect();
        assert_eq!(c.distinct_ratio(), 1.0);
    }

    #[test]
    fn equality_ignores_cache_state() {
        let a = mixed();
        let b = mixed();
        let _ = a.distinct_count(); // warm a's cache only
        assert_eq!(a, b);
    }
}
