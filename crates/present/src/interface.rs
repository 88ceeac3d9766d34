//! Question interfaces and question generation.
//!
//! Ver supports four interface designs (Section IV "Question Interface"):
//!
//! * **Dataset** — show one candidate view: "does it satisfy your need?"
//! * **Attribute** — show one attribute: "should it be in the output?"
//! * **Dataset pair** — show two views and ask the user to pick one; this
//!   interface leverages the 4C categorisation (contradictory /
//!   complementary pairs are the informative ones).
//! * **Summary** — show a word-cloud style summary of a set of views:
//!   "is this group relevant?"
//!
//! Question generation is driven by the current candidate set, the 4C graph
//! and the input query; candidates are ordered by their distance from the
//! query (lexical distance, the offline word2vec substitute).

use crate::wordcloud::wordcloud_terms;
use serde::{Deserialize, Serialize};
use ver_common::fxhash::{FxHashMap, FxHashSet};
use ver_common::ids::ViewId;
use ver_common::text::lexical_distance;
use ver_distill::DistillOutput;
use ver_engine::view::View;
use ver_qbe::ExampleQuery;

/// The four interface designs (bandit arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterfaceKind {
    /// Show a single candidate view.
    Dataset,
    /// Show a single attribute name.
    Attribute,
    /// Show a pair of views (4C-informed).
    DatasetPair,
    /// Show a word-cloud summary of a view group.
    Summary,
}

impl InterfaceKind {
    /// All interfaces in display order.
    pub fn all() -> [InterfaceKind; 4] {
        [
            InterfaceKind::Dataset,
            InterfaceKind::Attribute,
            InterfaceKind::DatasetPair,
            InterfaceKind::Summary,
        ]
    }
}

/// A concrete question shown to the user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Question {
    /// "Does view `view` satisfy your requirement?"
    Dataset {
        /// The view shown.
        view: ViewId,
    },
    /// "Should attribute `name` appear in the output?"
    Attribute {
        /// Attribute display name.
        name: String,
        /// Views whose schema carries the attribute.
        with_attribute: Vec<ViewId>,
    },
    /// "Which of these two views is right?" (4C-informed)
    DatasetPair {
        /// First view.
        a: ViewId,
        /// Second view.
        b: ViewId,
        /// Views that agree with `a` (same contradiction side), incl. `a`.
        agree_a: Vec<ViewId>,
        /// Views that agree with `b`, incl. `b`.
        agree_b: Vec<ViewId>,
    },
    /// "Is this group of views relevant?" with word-cloud terms.
    Summary {
        /// Top summary terms.
        terms: Vec<String>,
        /// The summarised views.
        group: Vec<ViewId>,
    },
}

impl Question {
    /// The interface the question belongs to.
    pub fn interface(&self) -> InterfaceKind {
        match self {
            Question::Dataset { .. } => InterfaceKind::Dataset,
            Question::Attribute { .. } => InterfaceKind::Attribute,
            Question::DatasetPair { .. } => InterfaceKind::DatasetPair,
            Question::Summary { .. } => InterfaceKind::Summary,
        }
    }
}

/// A user's reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Answer {
    /// Affirmative (dataset satisfies / attribute wanted / group relevant).
    Yes,
    /// Negative.
    No,
    /// Pick the first view of a pair.
    PickFirst,
    /// Pick the second view of a pair.
    PickSecond,
    /// The user cannot answer this question (Ver adapts — Section IV).
    Skip,
}

/// Generates candidate questions from the current state.
pub struct QuestionFactory<'a> {
    views: &'a [View],
    distill: &'a DistillOutput,
    query_text: String,
}

impl<'a> QuestionFactory<'a> {
    /// Create a factory for a presentation session.
    pub fn new(views: &'a [View], distill: &'a DistillOutput, query: &ExampleQuery) -> Self {
        QuestionFactory {
            views,
            distill,
            query_text: query.all_example_strings().join(" "),
        }
    }

    fn view(&self, id: ViewId) -> Option<&View> {
        self.views.iter().find(|v| v.id == id)
    }

    fn view_distance(&self, id: ViewId) -> f64 {
        match self.view(id) {
            Some(v) => {
                let schema = v.attribute_names().join(" ");
                lexical_distance(&schema, &self.query_text)
            }
            None => 1.0,
        }
    }

    /// Best question for `kind` over the `alive` candidate set, or `None`
    /// when the interface has nothing to ask.
    pub fn question(&self, kind: InterfaceKind, alive: &[ViewId]) -> Option<Question> {
        match kind {
            InterfaceKind::Dataset => self.dataset_question(alive),
            InterfaceKind::Attribute => self.attribute_question(alive),
            InterfaceKind::DatasetPair => self.pair_question(alive),
            InterfaceKind::Summary => self.summary_question(alive),
        }
    }

    fn dataset_question(&self, alive: &[ViewId]) -> Option<Question> {
        // Prioritise views by distance to the query (closest first), so the
        // likeliest-relevant dataset is shown first.
        alive
            .iter()
            .copied()
            .min_by(|&a, &b| {
                self.view_distance(a)
                    .partial_cmp(&self.view_distance(b))
                    .expect("distances are finite")
                    .then(a.cmp(&b))
            })
            .map(|view| Question::Dataset { view })
    }

    fn attribute_question(&self, alive: &[ViewId]) -> Option<Question> {
        // Candidate attributes = names appearing in some but not all alive
        // views (otherwise the answer prunes nothing).
        let mut by_attr: FxHashMap<String, Vec<ViewId>> = FxHashMap::default();
        for &vid in alive {
            if let Some(v) = self.view(vid) {
                let names: FxHashSet<String> = v
                    .attribute_names()
                    .into_iter()
                    .map(|n| n.to_lowercase())
                    .collect();
                for n in names {
                    by_attr.entry(n).or_default().push(vid);
                }
            }
        }
        let n = alive.len();
        let mut candidates: Vec<(String, Vec<ViewId>)> = by_attr
            .into_iter()
            .filter(|(_, vs)| !vs.is_empty() && vs.len() < n)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        // Max info gain = max(|with|, n − |with|); tie-break by the
        // attribute's distance from the query, then lexicographically.
        candidates.sort_by(|a, b| {
            let gain = |vs: &Vec<ViewId>| vs.len().max(n - vs.len());
            gain(&b.1).cmp(&gain(&a.1)).then_with(|| {
                let da = lexical_distance(&a.0, &self.query_text);
                let db = lexical_distance(&b.0, &self.query_text);
                da.partial_cmp(&db).expect("finite").then(a.0.cmp(&b.0))
            })
        });
        let (name, mut with) = candidates.swap_remove(0);
        with.sort_unstable();
        Some(Question::Attribute {
            name,
            with_attribute: with,
        })
    }

    fn pair_question(&self, alive: &[ViewId]) -> Option<Question> {
        let alive_set: FxHashSet<ViewId> = alive.iter().copied().collect();
        // Most discriminative live contradiction (4C signal).
        let mut best: Option<(usize, Vec<ViewId>, Vec<ViewId>)> = None;
        for c in &self.distill.contradictions {
            let live: Vec<Vec<ViewId>> = c
                .groups
                .iter()
                .map(|g| {
                    g.iter()
                        .copied()
                        .filter(|v| alive_set.contains(v))
                        .collect::<Vec<_>>()
                })
                .filter(|g: &Vec<ViewId>| !g.is_empty())
                .collect();
            if live.len() < 2 {
                continue;
            }
            let mut sorted = live;
            sorted.sort_by_key(|g| std::cmp::Reverse(g.len()));
            let gain = sorted[1].len().max(sorted[0].len());
            if best.as_ref().is_none_or(|(g, _, _)| gain > *g) {
                best = Some((gain, sorted[0].clone(), sorted[1].clone()));
            }
        }
        if let Some((_, ga, gb)) = best {
            return Some(Question::DatasetPair {
                a: ga[0],
                b: gb[0],
                agree_a: ga,
                agree_b: gb,
            });
        }
        // Fall back to a complementary pair (union candidates).
        for &(a, b, _) in &self.distill.complementary_pairs {
            if alive_set.contains(&a) && alive_set.contains(&b) {
                return Some(Question::DatasetPair {
                    a,
                    b,
                    agree_a: vec![a],
                    agree_b: vec![b],
                });
            }
        }
        None
    }

    fn summary_question(&self, alive: &[ViewId]) -> Option<Question> {
        if alive.len() < 2 {
            return None;
        }
        // Group alive views by schema signature; summarise the largest
        // strict-subset group (asking about all views prunes nothing).
        let mut groups: FxHashMap<String, Vec<ViewId>> = FxHashMap::default();
        for &vid in alive {
            if let Some(v) = self.view(vid) {
                groups.entry(v.schema_signature()).or_default().push(vid);
            }
        }
        let mut groups: Vec<Vec<ViewId>> = groups
            .into_values()
            .filter(|g| g.len() < alive.len())
            .collect();
        if groups.is_empty() {
            // Single schema: summarise half the views (split by id order).
            let mut sorted: Vec<ViewId> = alive.to_vec();
            sorted.sort_unstable();
            let half = sorted.len() / 2;
            if half == 0 {
                return None;
            }
            groups.push(sorted.into_iter().take(half).collect());
        }
        groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
        let mut group = groups.swap_remove(0);
        group.sort_unstable();
        let members: Vec<&View> = group.iter().filter_map(|&id| self.view(id)).collect();
        let terms = wordcloud_terms(&members, 8);
        Some(Question::Summary { terms, group })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_common::value::Value;
    use ver_distill::{distill, DistillConfig};
    use ver_engine::view::Provenance;
    use ver_store::table::TableBuilder;

    fn view(id: u32, cols: &[&str], rows: &[(&str, i64)]) -> View {
        let mut b = TableBuilder::new("v", cols);
        for (s, p) in rows {
            b.push_row(vec![Value::text(*s), Value::Int(*p)]).unwrap();
        }
        View::new(ViewId(id), b.build(), Provenance::default())
    }

    fn fixture() -> (Vec<View>, ExampleQuery) {
        let views = vec![
            view(0, &["state", "pop"], &[("IN", 1), ("GA", 2)]),
            view(1, &["state", "pop"], &[("IN", 9), ("GA", 2)]), // contradicts 0 on IN
            view(2, &["state", "births"], &[("IN", 5), ("TX", 6)]),
        ];
        let q = ExampleQuery::from_rows(&[vec!["IN", "1"], vec!["GA", "2"]]).unwrap();
        (views, q)
    }

    #[test]
    fn dataset_question_prefers_query_adjacent_views() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let f = QuestionFactory::new(&views, &d, &q);
        let alive: Vec<ViewId> = views.iter().map(|v| v.id).collect();
        let q = f.question(InterfaceKind::Dataset, &alive).unwrap();
        assert!(matches!(q, Question::Dataset { .. }));
    }

    #[test]
    fn attribute_question_splits_candidates() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let f = QuestionFactory::new(&views, &d, &q);
        let alive: Vec<ViewId> = views.iter().map(|v| v.id).collect();
        let Question::Attribute {
            name,
            with_attribute,
        } = f.question(InterfaceKind::Attribute, &alive).unwrap()
        else {
            panic!("expected attribute question");
        };
        // "pop" (2/3 views) or "births" (1/3): both gain 2; names differ.
        assert!(name == "pop" || name == "births");
        assert!(!with_attribute.is_empty() && with_attribute.len() < 3);
    }

    #[test]
    fn attribute_question_none_when_all_schemas_equal() {
        let views = vec![
            view(0, &["state", "pop"], &[("IN", 1)]),
            view(1, &["state", "pop"], &[("GA", 2)]),
        ];
        let q = ExampleQuery::from_rows(&[vec!["IN", "1"]]).unwrap();
        let d = distill(&views, &DistillConfig::default());
        let f = QuestionFactory::new(&views, &d, &q);
        let alive: Vec<ViewId> = views.iter().map(|v| v.id).collect();
        assert!(f.question(InterfaceKind::Attribute, &alive).is_none());
    }

    #[test]
    fn pair_question_uses_contradictions() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        assert!(!d.contradictions.is_empty(), "fixture has a contradiction");
        let f = QuestionFactory::new(&views, &d, &q);
        let alive: Vec<ViewId> = views.iter().map(|v| v.id).collect();
        let Question::DatasetPair { a, b, .. } =
            f.question(InterfaceKind::DatasetPair, &alive).unwrap()
        else {
            panic!("expected pair question");
        };
        assert_ne!(a, b);
        assert!([a, b].contains(&ViewId(0)) && [a, b].contains(&ViewId(1)));
    }

    #[test]
    fn summary_question_covers_a_strict_subset() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let f = QuestionFactory::new(&views, &d, &q);
        let alive: Vec<ViewId> = views.iter().map(|v| v.id).collect();
        let Question::Summary { terms, group } =
            f.question(InterfaceKind::Summary, &alive).unwrap()
        else {
            panic!("expected summary question");
        };
        assert!(!terms.is_empty());
        assert!(!group.is_empty() && group.len() < alive.len());
    }

    #[test]
    fn questions_respect_alive_subset() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let f = QuestionFactory::new(&views, &d, &q);
        // Only view 2 alive: no pair question possible.
        assert!(f
            .question(InterfaceKind::DatasetPair, &[ViewId(2)])
            .is_none());
        let dq = f.question(InterfaceKind::Dataset, &[ViewId(2)]).unwrap();
        assert_eq!(dq, Question::Dataset { view: ViewId(2) });
    }

    #[test]
    fn empty_alive_set_yields_no_questions() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let f = QuestionFactory::new(&views, &d, &q);
        for kind in InterfaceKind::all() {
            assert!(f.question(kind, &[]).is_none(), "{kind:?}");
        }
    }
}
