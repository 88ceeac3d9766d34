//! Word-cloud term extraction for the summary interface.
//!
//! The paper visualises view-group summaries as word clouds; the underlying
//! data is a term-frequency ranking over attribute names and a sample of
//! cell values.

use ver_common::fxhash::FxHashMap;
use ver_common::text::tokenize;
use ver_engine::view::View;

/// Top-`k` terms across the views' attribute names and value samples,
/// ordered by frequency (ties alphabetical). Attribute-name tokens count
/// double — schema words describe a view better than any single value.
pub fn wordcloud_terms(views: &[&View], k: usize) -> Vec<String> {
    const VALUE_SAMPLE_ROWS: usize = 20;
    let mut freq: FxHashMap<String, usize> = FxHashMap::default();
    for v in views {
        for name in v.attribute_names() {
            for tok in tokenize(&name) {
                *freq.entry(tok).or_insert(0) += 2;
            }
        }
        // Forces the gather: the cloud samples cell values.
        for col in v.table.columns() {
            for val in col.values().iter().take(VALUE_SAMPLE_ROWS) {
                if let ver_common::value::Value::Text(s) = val {
                    for tok in tokenize(s) {
                        *freq.entry(tok).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    let mut terms: Vec<(String, usize)> = freq.into_iter().collect();
    terms.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    terms.into_iter().take(k).map(|(t, _)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::ids::ViewId;
    use ver_common::value::Value;
    use ver_engine::view::Provenance;
    use ver_store::table::TableBuilder;

    fn view(id: u32, attr: &str, values: &[&str]) -> View {
        let mut b = TableBuilder::new("v", &[attr]);
        for v in values {
            b.push_row(vec![Value::text(*v)]).unwrap();
        }
        View::new(ViewId(id), b.build(), Provenance::default())
    }

    #[test]
    fn attribute_tokens_rank_first() {
        let v = view(0, "newspaper_title", &["daily star", "morning sun"]);
        let terms = wordcloud_terms(&[&v], 4);
        assert!(terms.contains(&"newspaper".to_string()));
        assert!(terms.contains(&"title".to_string()));
        // attribute tokens (weight 2) precede single-occurrence values
        assert!(terms.iter().position(|t| t == "newspaper").unwrap() < 2);
    }

    #[test]
    fn frequency_aggregates_across_views() {
        let a = view(0, "state", &["georgia", "georgia"]);
        let b = view(1, "state", &["georgia"]);
        let terms = wordcloud_terms(&[&a, &b], 2);
        assert_eq!(terms[0], "state"); // 2+2 = 4 occurrences
        assert_eq!(terms[1], "georgia"); // 3 occurrences
    }

    #[test]
    fn k_truncates() {
        let v = view(0, "a b c d e", &[]);
        assert_eq!(wordcloud_terms(&[&v], 3).len(), 3);
    }

    #[test]
    fn empty_views_give_empty_cloud() {
        assert!(wordcloud_terms(&[], 5).is_empty());
    }
}
