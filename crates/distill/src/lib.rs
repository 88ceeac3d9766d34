//! VIEW-DISTILLATION — the paper's 4C component (Section V, Algorithm 3).
//!
//! Candidate PJ-views produced by join-graph search are noisy: duplicates,
//! subsumed views, partial views that union into bigger ones, and views that
//! *disagree* on the same key. Distillation classifies view pairs into the
//! **4C categories** and prunes accordingly:
//!
//! | category       | definition (same schema)                     | action |
//! |----------------|----------------------------------------------|--------|
//! | Compatible     | identical row sets (Def. 5)                  | keep one |
//! | Contained      | `V2 ⊂ V1` (Def. 6)                           | keep the larger |
//! | Complementary  | same key, overlapping, neither above (Def. 8)| union  |
//! | Contradictory  | same key, key value → different rows (Def. 9)| surface to user |
//!
//! Module map: [`categories`] (labels + the view graph `G`), [`keys`]
//! (candidate-key discovery, Def. 7), [`hashes`] (each view's row hashes
//! and its row set behind the paper's cache), [`blocks`]
//! (SCHEMA-BASED-BLOCKS), [`algo`] (the two-phase Algorithm 3 with
//! per-phase timing for Fig. 4a), [`strategy`] (C1/C2/C3 pruning and the
//! Fig. 2 contradiction-step simulation). The row-set form and the set
//! relation all four C's use live in `ver_engine::rowhash` (`row_set`,
//! `relation`).
//!
//! Layer 3 of the crate map in the repo-root `ARCHITECTURE.md` — between
//! the MATERIALIZER and VIEW-PRESENTATION on the online path.

#![forbid(unsafe_code)]

pub mod algo;
pub mod blocks;
pub mod categories;
pub mod hashes;
pub mod keys;
pub mod strategy;

pub use algo::{distill, distill_budgeted, Contradiction, DistillConfig, DistillOutput};
pub use categories::{Category, ViewGraph};
pub use strategy::{contradiction_steps, union_complementary, CaseChoice, DistillCounts};
