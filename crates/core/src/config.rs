//! End-to-end configuration: one knob bundle per pipeline stage.

use ver_distill::DistillConfig;
use ver_index::IndexConfig;
use ver_present::PresentationConfig;
use ver_search::SearchConfig;
use ver_select::SelectionConfig;

/// Configuration of the whole pipeline.
#[derive(Debug, Clone, Default)]
pub struct VerConfig {
    /// Offline index construction.
    pub index: IndexConfig,
    /// COLUMN-SELECTION (θ, fuzziness, clustering threshold).
    pub selection: SelectionConfig,
    /// JOIN-GRAPH-SEARCH (ρ, k, combination cap).
    pub search: SearchConfig,
    /// VIEW-DISTILLATION (key discovery).
    pub distill: DistillConfig,
    /// VIEW-PRESENTATION (bandit, iteration budget).
    pub presentation: PresentationConfig,
    /// Round-trip materialized views through CSV files in a temp directory
    /// before distillation, reproducing the paper's "time to read views
    /// from disk" (the VD-IO bar of Fig. 3/4). Off by default.
    pub simulate_view_io: bool,
}

impl VerConfig {
    /// Configuration tuned for small corpora and unit tests: exact
    /// containment verification (no estimation error), single-threaded
    /// index build. The default configuration instead builds the index
    /// with `threads: 0` — the workspace-wide "auto" convention that uses
    /// one worker per available hardware thread (the built index is
    /// identical either way; see `ver_common::pool`).
    pub fn fast() -> Self {
        VerConfig {
            index: IndexConfig {
                threads: 1,
                verify_exact: true,
                ..IndexConfig::default()
            },
            ..VerConfig::default()
        }
    }

    /// Pin every parallel stage to `threads` workers at once: the offline
    /// index build, the online search fan-out (join-graph scoring + top-k
    /// materialization), and 4C distillation. `0` = auto (one worker per
    /// available hardware thread). Every stage guarantees bit-identical
    /// output across thread counts, so this is purely a resource knob.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.index.threads = threads;
        self.search.threads = threads;
        self.distill.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_vi() {
        let c = VerConfig::default();
        assert_eq!(c.search.rho, 2, "ρ = 2");
        assert_eq!(c.selection.theta, 1, "θ = 1");
        assert_eq!(c.search.k, usize::MAX, "materialise all join graphs");
        assert!((c.index.containment_threshold - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fast_config_verifies_exactly() {
        let c = VerConfig::fast();
        assert!(c.index.verify_exact);
        assert_eq!(c.index.threads, 1);
    }

    #[test]
    fn default_build_uses_auto_threads() {
        // `0` is the workspace-wide "one worker per hardware thread"
        // convention; resolution happens inside the pool at build time.
        let c = VerConfig::default();
        assert_eq!(c.index.threads, 0);
        assert_eq!(c.search.threads, 0);
        assert_eq!(c.distill.threads, 0);
        assert!(ver_common::pool::ThreadPool::new(c.index.threads).threads() >= 1);
    }

    #[test]
    fn with_threads_pins_every_stage() {
        let c = VerConfig::default().with_threads(3);
        assert_eq!(c.index.threads, 3);
        assert_eq!(c.search.threads, 3);
        assert_eq!(c.distill.threads, 3);
        let auto = VerConfig::default().with_threads(0);
        assert_eq!(auto.search.threads, 0);
    }
}
