//! The Exp3-flavoured interface chooser (Section IV-A).
//!
//! Each question interface is an arm. The probability of choosing arm `I`
//! is
//!
//! ```text
//! p(I) = (1 − γ) · w(I)/Σ_J w(J) + γ/|ℐ|
//! ```
//!
//! with `w(I) = r(I) · χ(I)`: `r(I)` the estimated likelihood the user
//! answers a question on that interface (a Laplace-smoothed answer rate —
//! the paper bootstraps it with `O(log |ℐ|)` questions per interface, which
//! a Chernoff bound shows suffices for an accurate estimate), and `χ(I)`
//! the information gain of the interface's best question.

use crate::interface::InterfaceKind;
use rand::rngs::StdRng;
use rand::Rng;
use ver_common::fxhash::FxHashMap;

/// Bandit configuration.
#[derive(Debug, Clone)]
pub struct BanditConfig {
    /// Exploration factor γ ∈ [0, 1]. γ=1 ⇒ uniform random arms;
    /// γ=0 ⇒ purely reward-driven.
    pub gamma: f64,
    /// Bootstrap questions per arm before switching to weighted draws
    /// (defaults to ⌈log₂ |ℐ|⌉ — the paper's `O(log |I|)`).
    pub bootstrap_per_arm: usize,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig {
            gamma: 0.1,
            // ⌈log₂ 4⌉ = 2 for the four interfaces.
            bootstrap_per_arm: 2,
        }
    }
}

/// Multi-arm bandit over question interfaces.
#[derive(Debug, Clone)]
pub struct Bandit {
    config: BanditConfig,
    arms: Vec<InterfaceKind>,
    asked: FxHashMap<InterfaceKind, usize>,
    answered: FxHashMap<InterfaceKind, usize>,
}

impl Bandit {
    /// Bandit over the given arms.
    pub fn new(arms: Vec<InterfaceKind>, config: BanditConfig) -> Self {
        assert!(!arms.is_empty(), "bandit needs at least one arm");
        Bandit {
            config,
            arms,
            asked: FxHashMap::default(),
            answered: FxHashMap::default(),
        }
    }

    /// r(I): Laplace-smoothed probability the user answers on `arm`.
    pub fn answer_rate(&self, arm: InterfaceKind) -> f64 {
        let asked = self.asked.get(&arm).copied().unwrap_or(0) as f64;
        let answered = self.answered.get(&arm).copied().unwrap_or(0) as f64;
        (answered + 1.0) / (asked + 2.0)
    }

    /// True while some arm still needs bootstrap questions.
    pub fn in_bootstrap(&self) -> bool {
        self.arms
            .iter()
            .any(|a| self.asked.get(a).copied().unwrap_or(0) < self.config.bootstrap_per_arm)
    }

    /// Current selection probabilities for arms with the given gains
    /// (`gains[i]` is χ of `arms[i]`; arms with zero gain — no question
    /// available — get zero weight but still receive the γ floor).
    pub fn probabilities(&self, gains: &[f64]) -> Vec<f64> {
        assert_eq!(gains.len(), self.arms.len());
        let weights: Vec<f64> = self
            .arms
            .iter()
            .zip(gains)
            .map(|(&a, &g)| self.answer_rate(a) * g.max(0.0))
            .collect();
        let total: f64 = weights.iter().sum();
        let n = self.arms.len() as f64;
        let gamma = self.config.gamma;
        weights
            .iter()
            .map(|w| {
                let exploit = if total > 0.0 { w / total } else { 1.0 / n };
                (1.0 - gamma) * exploit + gamma / n
            })
            .collect()
    }

    /// Choose an arm. During bootstrap the least-asked arm (with positive
    /// gain, if any) is chosen round-robin; afterwards, a weighted draw.
    pub fn choose(&self, gains: &[f64], rng: &mut StdRng) -> InterfaceKind {
        if self.in_bootstrap() {
            // Least-asked arm with an available question, else least-asked.
            let available: Vec<usize> = (0..self.arms.len()).filter(|&i| gains[i] > 0.0).collect();
            let pool: Vec<usize> = if available.is_empty() {
                (0..self.arms.len()).collect()
            } else {
                available
            };
            let &arm = pool
                .iter()
                .min_by_key(|&&i| self.asked.get(&self.arms[i]).copied().unwrap_or(0))
                .expect("non-empty pool");
            return self.arms[arm];
        }
        let p = self.probabilities(gains);
        let mut draw: f64 = rng.gen();
        for (i, &pi) in p.iter().enumerate() {
            if draw < pi {
                return self.arms[i];
            }
            draw -= pi;
        }
        *self.arms.last().expect("non-empty arms")
    }

    /// Record that a question on `arm` was asked and whether the user
    /// answered (vs. skipped) — updates r(I) (Algorithm 2 line 10).
    pub fn record(&mut self, arm: InterfaceKind, answered: bool) {
        *self.asked.entry(arm).or_insert(0) += 1;
        if answered {
            *self.answered.entry(arm).or_insert(0) += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn arms() -> Vec<InterfaceKind> {
        InterfaceKind::all().to_vec()
    }

    #[test]
    fn probabilities_sum_to_one() {
        let b = Bandit::new(arms(), BanditConfig::default());
        let p = b.probabilities(&[3.0, 1.0, 2.0, 0.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum = {sum}");
        // Zero-gain arm still gets the exploration floor.
        assert!(p[3] > 0.0);
        assert!((p[3] - 0.1 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn answer_rate_tracks_skips() {
        let mut b = Bandit::new(arms(), BanditConfig::default());
        assert!((b.answer_rate(InterfaceKind::Dataset) - 0.5).abs() < 1e-9);
        b.record(InterfaceKind::Dataset, true);
        b.record(InterfaceKind::Dataset, true);
        b.record(InterfaceKind::Attribute, false);
        assert!(b.answer_rate(InterfaceKind::Dataset) > 0.7);
        assert!(b.answer_rate(InterfaceKind::Attribute) < 0.5);
    }

    #[test]
    fn bootstrap_round_robins_until_quota() {
        let mut b = Bandit::new(
            arms(),
            BanditConfig {
                gamma: 0.0,
                bootstrap_per_arm: 1,
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        assert!(b.in_bootstrap());
        let gains = [1.0; 4];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let arm = b.choose(&gains, &mut rng);
            seen.insert(arm);
            b.record(arm, true);
        }
        assert_eq!(seen.len(), 4, "bootstrap must visit every arm");
        assert!(!b.in_bootstrap());
    }

    #[test]
    fn gamma_one_is_uniform() {
        let b = Bandit::new(
            arms(),
            BanditConfig {
                gamma: 1.0,
                bootstrap_per_arm: 0,
            },
        );
        let p = b.probabilities(&[100.0, 0.0, 0.0, 0.0]);
        for pi in p {
            assert!((pi - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn higher_reward_arm_is_chosen_more_often() {
        let mut b = Bandit::new(
            arms(),
            BanditConfig {
                gamma: 0.1,
                bootstrap_per_arm: 0,
            },
        );
        // Make Dataset answer-rate high, others low.
        for _ in 0..10 {
            b.record(InterfaceKind::Dataset, true);
            b.record(InterfaceKind::Attribute, false);
            b.record(InterfaceKind::DatasetPair, false);
            b.record(InterfaceKind::Summary, false);
        }
        let gains = [5.0, 5.0, 5.0, 5.0];
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts: FxHashMap<InterfaceKind, usize> = FxHashMap::default();
        for _ in 0..2000 {
            *counts.entry(b.choose(&gains, &mut rng)).or_insert(0) += 1;
        }
        let dataset = counts[&InterfaceKind::Dataset];
        for (&arm, &c) in &counts {
            if arm != InterfaceKind::Dataset {
                assert!(dataset > c, "dataset {dataset} should beat {arm:?} {c}");
            }
        }
    }

    #[test]
    fn all_zero_gains_fall_back_to_uniform() {
        let b = Bandit::new(
            arms(),
            BanditConfig {
                gamma: 0.0,
                bootstrap_per_arm: 0,
            },
        );
        let p = b.probabilities(&[0.0; 4]);
        for pi in p {
            assert!((pi - 0.25).abs() < 1e-9);
        }
    }
}
