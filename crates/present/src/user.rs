//! Simulated users — the substitution for the paper's 18-participant IRB
//! user study (see the README's "Paper experiments").
//!
//! [`OracleUser`] answers every question correctly with respect to a known
//! target view (the paper's §VI-C1 "we simulated the user to answer
//! questions correctly"). [`PersonaUser`] adds the behaviours the real
//! study observed: users can answer only some interfaces (per-interface
//! answer probabilities → skips), and occasionally answer wrong.

use crate::interface::{Answer, InterfaceKind, Question};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use ver_common::fxhash::FxHashMap;
use ver_common::ids::ViewId;
use ver_engine::view::View;

/// A user that can be asked questions during a presentation session.
pub trait SimulatedUser {
    /// Answer (or skip) a question. `views` carries the full view list so
    /// the user can inspect what is being shown.
    fn answer(&mut self, question: &Question, views: &[View]) -> Answer;
}

/// A user that knows exactly which view they want and answers correctly.
#[derive(Debug, Clone)]
pub struct OracleUser {
    /// The view the user is looking for.
    pub target: ViewId,
}

impl OracleUser {
    /// Oracle for `target`.
    pub fn new(target: ViewId) -> Self {
        OracleUser { target }
    }

    fn correct_answer(&self, question: &Question, views: &[View]) -> Answer {
        match question {
            Question::Dataset { view } => {
                if *view == self.target {
                    Answer::Yes
                } else {
                    Answer::No
                }
            }
            Question::Attribute {
                with_attribute,
                name,
            } => {
                // The user wants the attribute iff their target view has it.
                let has = with_attribute.contains(&self.target)
                    || views.iter().any(|v| {
                        v.id == self.target
                            && v.attribute_names()
                                .iter()
                                .any(|n| n.eq_ignore_ascii_case(name))
                    });
                if has {
                    Answer::Yes
                } else {
                    Answer::No
                }
            }
            Question::DatasetPair {
                agree_a, agree_b, ..
            } => {
                if agree_a.contains(&self.target) {
                    Answer::PickFirst
                } else if agree_b.contains(&self.target) {
                    Answer::PickSecond
                } else {
                    // Neither side involves the target — unanswerable.
                    Answer::Skip
                }
            }
            Question::Summary { group, .. } => {
                if group.contains(&self.target) {
                    Answer::Yes
                } else {
                    Answer::No
                }
            }
        }
    }
}

impl SimulatedUser for OracleUser {
    fn answer(&mut self, question: &Question, views: &[View]) -> Answer {
        self.correct_answer(question, views)
    }
}

/// A stochastic persona: per-interface answer probabilities, an error rate,
/// and a seeded RNG. Models the paper's observation that "different users
/// preferred different interface designs".
#[derive(Debug, Clone)]
pub struct PersonaUser {
    oracle: OracleUser,
    /// Probability of answering (vs skipping) per interface.
    pub answer_prob: FxHashMap<InterfaceKind, f64>,
    /// Probability an answered question gets the wrong answer.
    pub error_rate: f64,
    rng: StdRng,
}

impl PersonaUser {
    /// Persona targeting `target` with uniform `answer_prob` per interface.
    pub fn uniform(target: ViewId, answer_prob: f64, error_rate: f64, seed: u64) -> Self {
        let probs = InterfaceKind::all()
            .into_iter()
            .map(|k| (k, answer_prob))
            .collect();
        PersonaUser {
            oracle: OracleUser::new(target),
            answer_prob: probs,
            error_rate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Persona with explicit per-interface probabilities.
    pub fn with_profile(
        target: ViewId,
        answer_prob: FxHashMap<InterfaceKind, f64>,
        error_rate: f64,
        seed: u64,
    ) -> Self {
        PersonaUser {
            oracle: OracleUser::new(target),
            answer_prob,
            error_rate,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn flip(answer: Answer) -> Answer {
        match answer {
            Answer::Yes => Answer::No,
            Answer::No => Answer::Yes,
            Answer::PickFirst => Answer::PickSecond,
            Answer::PickSecond => Answer::PickFirst,
            Answer::Skip => Answer::Skip,
        }
    }
}

impl SimulatedUser for PersonaUser {
    fn answer(&mut self, question: &Question, views: &[View]) -> Answer {
        let kind = question.interface();
        let p = self.answer_prob.get(&kind).copied().unwrap_or(1.0);
        if self.rng.gen::<f64>() >= p {
            return Answer::Skip;
        }
        let correct = self.oracle.correct_answer(question, views);
        if correct != Answer::Skip && self.rng.gen::<f64>() < self.error_rate {
            Self::flip(correct)
        } else {
            correct
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> ViewId {
        ViewId(i)
    }

    #[test]
    fn oracle_answers_dataset_correctly() {
        let mut u = OracleUser::new(v(3));
        assert_eq!(
            u.answer(&Question::Dataset { view: v(3) }, &[]),
            Answer::Yes
        );
        assert_eq!(u.answer(&Question::Dataset { view: v(1) }, &[]), Answer::No);
    }

    #[test]
    fn oracle_picks_its_side_of_a_pair() {
        let mut u = OracleUser::new(v(2));
        let q = Question::DatasetPair {
            a: v(0),
            b: v(1),
            agree_a: vec![v(0), v(2)],
            agree_b: vec![v(1)],
        };
        assert_eq!(u.answer(&q, &[]), Answer::PickFirst);
        let q = Question::DatasetPair {
            a: v(0),
            b: v(1),
            agree_a: vec![v(0)],
            agree_b: vec![v(1)],
        };
        assert_eq!(u.answer(&q, &[]), Answer::Skip, "target not involved");
    }

    #[test]
    fn oracle_answers_attribute_and_summary_by_membership() {
        let mut u = OracleUser::new(v(5));
        let q = Question::Attribute {
            name: "pop".into(),
            with_attribute: vec![v(5), v(6)],
        };
        assert_eq!(u.answer(&q, &[]), Answer::Yes);
        let q = Question::Summary {
            terms: vec![],
            group: vec![v(1)],
        };
        assert_eq!(u.answer(&q, &[]), Answer::No);
    }

    #[test]
    fn persona_with_zero_answer_prob_always_skips() {
        let mut u = PersonaUser::uniform(v(0), 0.0, 0.0, 42);
        for _ in 0..10 {
            assert_eq!(
                u.answer(&Question::Dataset { view: v(0) }, &[]),
                Answer::Skip
            );
        }
    }

    #[test]
    fn persona_with_full_error_rate_always_flips() {
        let mut u = PersonaUser::uniform(v(0), 1.0, 1.0, 42);
        assert_eq!(u.answer(&Question::Dataset { view: v(0) }, &[]), Answer::No);
        assert_eq!(
            u.answer(&Question::Dataset { view: v(9) }, &[]),
            Answer::Yes
        );
    }

    #[test]
    fn persona_is_deterministic_per_seed() {
        let q = Question::Dataset { view: v(0) };
        let run = |seed: u64| -> Vec<Answer> {
            let mut u = PersonaUser::uniform(v(0), 0.5, 0.1, seed);
            (0..20).map(|_| u.answer(&q, &[])).collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn per_interface_profiles_apply() {
        let mut probs = FxHashMap::default();
        probs.insert(InterfaceKind::Dataset, 1.0);
        probs.insert(InterfaceKind::Summary, 0.0);
        let mut u = PersonaUser::with_profile(v(0), probs, 0.0, 1);
        assert_eq!(
            u.answer(&Question::Dataset { view: v(0) }, &[]),
            Answer::Yes
        );
        assert_eq!(
            u.answer(
                &Question::Summary {
                    terms: vec![],
                    group: vec![v(0)]
                },
                &[]
            ),
            Answer::Skip
        );
    }
}
