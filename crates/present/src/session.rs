//! Algorithm 2: the VIEW-PRESENTATION interaction loop.
//!
//! Per iteration: estimate each interface's selection probability from
//! `r(I) · χ(I)` (lines 3–7), draw an interface (line 8), ask its best
//! question (line 9), update `r` (line 10), and on a non-skip answer prune
//! irrelevant views and update the ranking (lines 11–12). The loop ends
//! when the user confirms a dataset, one candidate remains, `T` iterations
//! pass, or no interface can produce a question.

use crate::bandit::{Bandit, BanditConfig};
use crate::infogain::info_gain;
use crate::interface::{Answer, InterfaceKind, Question, QuestionFactory};
use crate::ranking::{rank_views, AnsweredQuestion};
use crate::user::SimulatedUser;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use ver_common::fxhash::FxHashMap;
use ver_common::ids::ViewId;
use ver_distill::DistillOutput;
use ver_engine::view::View;
use ver_qbe::ExampleQuery;

/// Session tunables.
#[derive(Debug, Clone)]
pub struct PresentationConfig {
    /// Bandit parameters (γ, bootstrap quota).
    pub bandit: BanditConfig,
    /// Maximum interactions `T`.
    pub max_iterations: usize,
    /// RNG seed for arm draws.
    pub seed: u64,
}

impl Default for PresentationConfig {
    fn default() -> Self {
        PresentationConfig {
            bandit: BanditConfig::default(),
            max_iterations: 50,
            seed: 0xBAD1,
        }
    }
}

/// How a session ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionOutcome {
    /// The user confirmed a view (dataset-question Yes), or exactly one
    /// candidate remained.
    Found {
        /// The selected view.
        view: ViewId,
        /// Questions asked (including skipped ones).
        interactions: usize,
    },
    /// Iterations exhausted (or no questions left); ranked candidates
    /// remain.
    Exhausted {
        /// Views still alive, best-ranked first.
        ranked: Vec<ViewId>,
        /// Questions asked.
        interactions: usize,
    },
}

impl SessionOutcome {
    /// Interactions used.
    pub fn interactions(&self) -> usize {
        match self {
            SessionOutcome::Found { interactions, .. }
            | SessionOutcome::Exhausted { interactions, .. } => *interactions,
        }
    }

    /// The found view, if any.
    pub fn found_view(&self) -> Option<ViewId> {
        match self {
            SessionOutcome::Found { view, .. } => Some(*view),
            SessionOutcome::Exhausted { .. } => None,
        }
    }
}

/// A live presentation session over a set of candidate views.
pub struct PresentationSession<'a> {
    views: &'a [View],
    factory: QuestionFactory<'a>,
    bandit: Bandit,
    alive: Vec<ViewId>,
    history: Vec<AnsweredQuestion>,
    rng: StdRng,
    config: PresentationConfig,
    base_scores: FxHashMap<ViewId, f64>,
}

impl<'a> PresentationSession<'a> {
    /// Create a session over the distilled candidate views.
    pub fn new(
        views: &'a [View],
        distill: &'a DistillOutput,
        query: &ExampleQuery,
        config: PresentationConfig,
    ) -> Self {
        let alive: Vec<ViewId> = distill.survivors_c2.clone();
        let factory = QuestionFactory::new(views, distill, query);
        let bandit = Bandit::new(InterfaceKind::all().to_vec(), config.bandit.clone());
        let base_scores = views
            .iter()
            .map(|v| (v.id, v.provenance.join_score))
            .collect();
        let rng = StdRng::seed_from_u64(config.seed);
        PresentationSession {
            views,
            factory,
            bandit,
            alive,
            history: Vec::new(),
            rng,
            config,
            base_scores,
        }
    }

    /// Candidate views still alive.
    pub fn alive(&self) -> &[ViewId] {
        &self.alive
    }

    /// Current ranking (Section IV-B), best first.
    pub fn ranking(&self) -> Vec<(ViewId, f64)> {
        rank_views(&self.alive, &self.history, |v| {
            self.base_scores.get(&v).copied().unwrap_or(0.0)
        })
    }

    /// Run the loop against a (simulated) user.
    pub fn run(&mut self, user: &mut dyn SimulatedUser) -> SessionOutcome {
        let mut interactions = 0usize;
        for _ in 0..self.config.max_iterations {
            if self.alive.len() <= 1 {
                break;
            }
            // Lines 3-7: per-arm expected gains.
            let arms = InterfaceKind::all();
            let questions: Vec<Option<Question>> = arms
                .iter()
                .map(|&k| self.factory.question(k, &self.alive))
                .collect();
            let gains: Vec<f64> = questions
                .iter()
                .map(|q| {
                    q.as_ref()
                        .map(|q| info_gain(q, self.alive.len()) as f64)
                        .unwrap_or(0.0)
                })
                .collect();
            if gains.iter().all(|&g| g <= 0.0) {
                break; // no informative question remains
            }

            // Line 8: draw an interface (re-draw onto an available one).
            let mut kind = self.bandit.choose(&gains, &mut self.rng);
            if questions[arm_index(kind)].is_none() {
                // Arm has no question; fall back to best available arm.
                let best = (0..arms.len())
                    .filter(|&i| questions[i].is_some())
                    .max_by(|&a, &b| gains[a].partial_cmp(&gains[b]).expect("finite"));
                match best {
                    Some(i) => kind = arms[i],
                    None => break,
                }
            }
            let question = questions[arm_index(kind)].clone().expect("checked above");

            // Line 9: ask.
            interactions += 1;
            let answer = user.answer(&question, self.views);

            // Line 10: update r(I).
            self.bandit.record(kind, answer != Answer::Skip);

            // Lines 11-12: apply the response.
            if answer == Answer::Skip {
                continue;
            }
            if let Some(found) = self.apply(&question, answer) {
                return SessionOutcome::Found {
                    view: found,
                    interactions,
                };
            }
        }

        if self.alive.len() == 1 {
            return SessionOutcome::Found {
                view: self.alive[0],
                interactions,
            };
        }
        SessionOutcome::Exhausted {
            ranked: self.ranking().into_iter().map(|(v, _)| v).collect(),
            interactions,
        }
    }

    /// Apply an answer: prune irrelevant views, record ranking evidence.
    /// Returns a view when the user confirmed it.
    fn apply(&mut self, question: &Question, answer: Answer) -> Option<ViewId> {
        let answer_prob = self.bandit.answer_rate(question.interface());
        let all: Vec<ViewId> = self.alive.clone();
        let mut approved: Vec<ViewId> = Vec::new();
        let mut rejected: Vec<ViewId> = Vec::new();

        match (question, answer) {
            (Question::Dataset { view }, Answer::Yes) => {
                return Some(*view);
            }
            (Question::Dataset { view }, Answer::No) => {
                rejected.push(*view);
            }
            (Question::Attribute { with_attribute, .. }, Answer::Yes) => {
                approved = with_attribute.clone();
                rejected = all
                    .iter()
                    .copied()
                    .filter(|v| !with_attribute.contains(v))
                    .collect();
            }
            (Question::Attribute { with_attribute, .. }, Answer::No) => {
                rejected = with_attribute.clone();
            }
            (
                Question::DatasetPair {
                    agree_a, agree_b, ..
                },
                Answer::PickFirst,
            ) => {
                approved = agree_a.clone();
                rejected = agree_b.clone();
            }
            (
                Question::DatasetPair {
                    agree_a, agree_b, ..
                },
                Answer::PickSecond,
            ) => {
                approved = agree_b.clone();
                rejected = agree_a.clone();
            }
            (Question::Summary { group, .. }, Answer::Yes) => {
                approved = group.clone();
                rejected = all.iter().copied().filter(|v| !group.contains(v)).collect();
            }
            (Question::Summary { group, .. }, Answer::No) => {
                rejected = group.clone();
            }
            // Pick answers on non-pair questions (or vice versa) are
            // treated as skips by construction; Skip handled by caller.
            _ => {}
        }

        self.alive.retain(|v| !rejected.contains(v));
        self.history.push(AnsweredQuestion {
            approved,
            rejected,
            answer_prob,
        });
        None
    }
}

fn arm_index(kind: InterfaceKind) -> usize {
    InterfaceKind::all()
        .iter()
        .position(|&k| k == kind)
        .expect("kind is one of the four arms")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::{OracleUser, PersonaUser};
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

    /// Six distinct views across two schemas, with one contradiction.
    fn fixture() -> (Vec<View>, ExampleQuery) {
        let views = vec![
            view(0, &["state", "pop"], &[("IN", 1), ("GA", 2)]),
            view(1, &["state", "pop"], &[("IN", 9), ("GA", 2)]),
            view(2, &["state", "pop"], &[("TX", 3), ("CA", 4)]),
            view(3, &["state", "births"], &[("IN", 5), ("TX", 6)]),
            view(4, &["state", "births"], &[("GA", 7), ("FL", 8)]),
            view(5, &["state", "births"], &[("WA", 9), ("OR", 10)]),
        ];
        let q = ExampleQuery::from_rows(&[vec!["IN", "1"], vec!["GA", "2"]]).unwrap();
        (views, q)
    }

    #[test]
    fn oracle_finds_target_quickly() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let mut session = PresentationSession::new(&views, &d, &q, PresentationConfig::default());
        let mut user = OracleUser::new(ViewId(0));
        let outcome = session.run(&mut user);
        assert_eq!(outcome.found_view(), Some(ViewId(0)));
        assert!(outcome.interactions() <= 10);
    }

    #[test]
    fn every_target_is_reachable() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        for target in 0..6u32 {
            let mut session =
                PresentationSession::new(&views, &d, &q, PresentationConfig::default());
            let mut user = OracleUser::new(ViewId(target));
            let outcome = session.run(&mut user);
            assert_eq!(
                outcome.found_view(),
                Some(ViewId(target)),
                "target {target} not found: {outcome:?}"
            );
        }
    }

    #[test]
    fn always_skipping_user_exhausts_without_pruning() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let config = PresentationConfig {
            max_iterations: 5,
            ..Default::default()
        };
        let mut session = PresentationSession::new(&views, &d, &q, config);
        let mut user = PersonaUser::uniform(ViewId(0), 0.0, 0.0, 3);
        let outcome = session.run(&mut user);
        match outcome {
            SessionOutcome::Exhausted {
                ranked,
                interactions,
            } => {
                assert_eq!(ranked.len(), 6, "skips must not prune (design principle)");
                assert_eq!(interactions, 5);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn ranking_reflects_answers() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let mut session = PresentationSession::new(
            &views,
            &d,
            &q,
            PresentationConfig {
                max_iterations: 3,
                ..Default::default()
            },
        );
        let mut user = OracleUser::new(ViewId(3));
        let _ = session.run(&mut user);
        let ranking = session.ranking();
        // All alive views are ranked, scores descending.
        assert!(ranking.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn deterministic_given_seed() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let run = |seed: u64| {
            let config = PresentationConfig {
                seed,
                ..Default::default()
            };
            let mut s = PresentationSession::new(&views, &d, &q, config);
            let mut u = OracleUser::new(ViewId(4));
            s.run(&mut u)
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn single_candidate_short_circuits() {
        let views = vec![view(0, &["state", "pop"], &[("IN", 1)])];
        let q = ExampleQuery::from_rows(&[vec!["IN", "1"]]).unwrap();
        let d = distill(&views, &DistillConfig::default());
        let mut session = PresentationSession::new(&views, &d, &q, PresentationConfig::default());
        let mut user = OracleUser::new(ViewId(0));
        let outcome = session.run(&mut user);
        assert_eq!(
            outcome,
            SessionOutcome::Found {
                view: ViewId(0),
                interactions: 0
            }
        );
    }

    #[test]
    fn erroneous_users_can_prune_the_target_but_session_terminates() {
        let (views, q) = fixture();
        let d = distill(&views, &DistillConfig::default());
        let mut session = PresentationSession::new(&views, &d, &q, PresentationConfig::default());
        let mut user = PersonaUser::uniform(ViewId(0), 1.0, 1.0, 5);
        let outcome = session.run(&mut user);
        // With 100% error the session still terminates in bounded steps.
        assert!(outcome.interactions() <= 50);
    }
}
