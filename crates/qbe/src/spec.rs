//! The VIEW-SPECIFICATION input types.
//!
//! The reference architecture supports multiple discovery interfaces
//! (spreadsheet-style QBE, keyword search, attribute search, ...). Ver
//! implements QBE by default; the paper's §VI-C1 compares all three
//! implementations end-to-end.

use crate::query::ExampleQuery;
use serde::{Deserialize, Serialize};

/// A view specification submitted by the user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ViewSpec {
    /// Query-by-example: an example table (Ver's default interface).
    Qbe(ExampleQuery),
    /// Keyword search: terms matched against values and table names.
    Keyword(Vec<String>),
    /// Attribute search: terms matched against attribute (header) names.
    Attribute(Vec<String>),
}

impl ViewSpec {
    /// Number of output attributes the specification implies.
    ///
    /// QBE fixes the output arity at `τ`; keyword and attribute interfaces
    /// request one output column per term (the paper notes their results
    /// "contain a large number of columns as compared to QBE").
    pub fn arity(&self) -> usize {
        match self {
            ViewSpec::Qbe(q) => q.arity(),
            ViewSpec::Keyword(terms) | ViewSpec::Attribute(terms) => terms.len(),
        }
    }

    /// Human-readable interface label (reporting).
    pub fn interface_name(&self) -> &'static str {
        match self {
            ViewSpec::Qbe(_) => "QBE",
            ViewSpec::Keyword(_) => "Keyword",
            ViewSpec::Attribute(_) => "Attribute",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qbe() -> ViewSpec {
        ViewSpec::Qbe(
            ExampleQuery::from_rows(&[vec!["Indiana", "IND"], vec!["Georgia", "ATL"]]).unwrap(),
        )
    }

    #[test]
    fn arity_per_interface() {
        assert_eq!(qbe().arity(), 2);
        assert_eq!(ViewSpec::Keyword(vec!["population".into()]).arity(), 1);
        assert_eq!(
            ViewSpec::Attribute(vec!["state".into(), "iata".into()]).arity(),
            2
        );
    }

    #[test]
    fn interface_names() {
        assert_eq!(qbe().interface_name(), "QBE");
        assert_eq!(ViewSpec::Keyword(vec![]).interface_name(), "Keyword");
        assert_eq!(ViewSpec::Attribute(vec![]).interface_name(), "Attribute");
    }
}
