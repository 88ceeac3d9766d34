//! VIEW-PRESENTATION — Ver's bandit-based human component (Section IV).
//!
//! After distillation there may still be hundreds of semantically ambiguous
//! candidate views ("home address" vs "work address"); only the user can
//! resolve that ambiguity. Ver asks *data questions* through four question
//! interfaces and learns which interface a given user can actually answer
//! with an Exp3-style multi-arm bandit whose reward is the question's
//! information gain (views pruned):
//!
//! * [`interface`] — the four question interfaces (dataset / attribute /
//!   dataset-pair / summary) and question generation;
//! * [`infogain`] — χ(I): the maximum candidate-set reduction a question
//!   can achieve;
//! * [`bandit`] — the Exp3-flavoured arm chooser with the paper's
//!   `p(I) = (1−γ)·w(I)/Σw + γ/|I|`, `w(I) = r(I)·χ(I)`, and the
//!   `O(log |I|)` bootstrap exploration phase;
//! * [`ranking`] — the expected-utility view ranking;
//! * [`session`] — Algorithm 2's interaction loop;
//! * [`user`] — simulated users (the substitution for the paper's 18-person
//!   IRB study; see the README's "Paper experiments");
//! * [`fasttopk`] — the FastTopK overlap-ranking baseline the user study
//!   compares against;
//! * [`wordcloud`] — term summaries for the summary interface.
//!
//! Layer 3 of the crate map in the repo-root `ARCHITECTURE.md`; the
//! serving layer re-drives [`session`] loops over shared query results.

pub mod bandit;
pub mod fasttopk;
pub mod infogain;
pub mod interface;
pub mod ranking;
pub mod session;
pub mod user;
pub mod wordcloud;

pub use bandit::{Bandit, BanditConfig};
pub use fasttopk::{fasttopk_rank, simulate_scan, ScanOutcome};
pub use interface::{Answer, InterfaceKind, Prioritization, Question};
pub use session::{PresentationConfig, PresentationSession, SessionOutcome};
pub use user::{OracleUser, PersonaUser, SimulatedUser};
