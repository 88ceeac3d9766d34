//! Poison-tolerant synchronisation helpers.
//!
//! Every `Mutex` in this workspace guards data whose invariants hold at
//! each individual lock release: the caches mutate standard maps whose
//! memory safety is unconditional, and the session registry inserts or
//! removes whole entries. A panic inside a critical section therefore
//! cannot leave *logically* torn state behind — the worst a panicking
//! client can do is abandon an entry it was about to write. Propagating
//! the poison flag, on the other hand, turns one isolated panic into a
//! process-wide brick: every later `lock().expect("poisoned")` aborts.
//!
//! [`lock_unpoisoned`] encodes that policy in one place: take the lock,
//! and if a previous holder panicked, recover the guard and keep serving.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a previous holder panicked.
///
/// Use this instead of `m.lock().expect("poisoned")` for every mutex whose
/// protected data stays consistent at each lock release (all of them, in
/// this workspace — see the module docs). One panicked worker must degrade
/// to a per-item error, never to a poisoned-forever cache or registry.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn recovers_after_a_panicking_holder() {
        let m = Mutex::new(41);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _g = m.lock().unwrap();
            panic!("holder dies with the lock held");
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned(), "std marks the mutex poisoned");
        let mut g = lock_unpoisoned(&m);
        assert_eq!(*g, 41, "data written before the panic is intact");
        *g = 42;
        drop(g);
        assert_eq!(*lock_unpoisoned(&m), 42);
    }

    #[test]
    fn behaves_like_lock_when_unpoisoned() {
        let m = Mutex::new(vec![1, 2, 3]);
        lock_unpoisoned(&m).push(4);
        assert_eq!(*lock_unpoisoned(&m), vec![1, 2, 3, 4]);
    }

    /// Every non-test source of the workspace — `crates/*/src/**/*.rs`
    /// above each file's first `#[cfg(test)]`, comment lines dropped — as
    /// `(path, code)` with whitespace removed, so a call split across lines
    /// still matches a pattern.
    fn non_test_sources() -> Vec<(String, String)> {
        fn visit(dir: &std::path::Path, out: &mut Vec<(String, String)>) {
            for entry in std::fs::read_dir(dir).expect("readable source dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    visit(&path, out);
                } else if path.extension().is_some_and(|x| x == "rs") {
                    let source = std::fs::read_to_string(&path).expect("utf-8 source");
                    let code: String = source
                        .split("#[cfg(test)]")
                        .next()
                        .unwrap_or_default()
                        .lines()
                        .filter(|l| !l.trim_start().starts_with("//"))
                        .flat_map(|l| l.chars().filter(|c| !c.is_whitespace()))
                        .collect();
                    out.push((path.display().to_string(), code));
                }
            }
        }
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut sources = Vec::new();
        let mut scanned = 0;
        for krate in std::fs::read_dir(&crates).expect("crates dir") {
            let src = krate.expect("dir entry").path().join("src");
            if src.is_dir() {
                scanned += 1;
                visit(&src, &mut sources);
            }
        }
        assert!(scanned >= 10, "lint walked {scanned} crates — wrong root?");
        sources
    }

    /// Lint: no non-test source in the workspace takes a `Mutex` with
    /// `.lock().unwrap()` / `.lock().expect(..)` — every one goes through
    /// [`lock_unpoisoned`], or one panic under the lock bricks the process.
    #[test]
    fn no_raw_mutex_unwrap_outside_tests() {
        let offenders: Vec<String> = non_test_sources()
            .into_iter()
            .filter(|(_, code)| {
                code.contains(".lock().unwrap()") || code.contains(".lock().expect(")
            })
            .map(|(path, _)| path)
            .collect();
        assert!(
            offenders.is_empty(),
            "use ver_common::sync::lock_unpoisoned instead of .lock().unwrap()/.expect() in: {offenders:?}"
        );
    }

    /// Lint: forcing a view's gather is never an accident. A view's
    /// `.table` dereferences to its `Table` and copies every cell out of
    /// the base tables on first read, so in non-test source `.table` on a
    /// view means "I need cells" (each such site says why in a comment).
    /// Row count, schema and name go through `View::row_count`,
    /// `View::schema` and `View::name`, which never gather — spelled
    /// through `.table`, whether they do depends on method resolution the
    /// reader cannot see. `ver_engine::view` defines those accessors and is
    /// the one exempt file.
    #[test]
    fn no_view_metadata_read_through_the_table_outside_tests() {
        const FORBIDDEN: [&str; 4] = [
            ".table.row_count()",
            ".table.name()",
            ".table.column_count()",
            ".table.schema",
        ];
        let mut offenders = Vec::new();
        for (path, code) in non_test_sources() {
            if path.ends_with("engine/src/view.rs") {
                continue;
            }
            for pattern in FORBIDDEN {
                // `0..table.row_count()` is a range over a plain `Table`,
                // and `.table.schema()` is the accessor, not the field.
                let hit = code.match_indices(pattern).any(|(at, _)| {
                    !code[..at].ends_with('.') && !code[at + pattern.len()..].starts_with('(')
                });
                if hit {
                    offenders.push(format!("{path}: {pattern}"));
                }
            }
        }
        assert!(
            offenders.is_empty(),
            "read view metadata through View::row_count/schema/name, not through .table: {offenders:?}"
        );
    }

    /// Lint: the workspace is safe Rust outside `ver_common::simd`, whose
    /// target-feature kernels (`simd_multiversion!`) are the one place
    /// `unsafe` buys something safe code has no operation for.
    #[test]
    fn no_unsafe_outside_simd() {
        let offenders: Vec<String> = non_test_sources()
            .into_iter()
            .filter(|(path, code)| !path.ends_with("common/src/simd.rs") && code.contains("unsafe"))
            .map(|(path, _)| path)
            .collect();
        assert!(
            offenders.is_empty(),
            "unsafe outside ver_common::simd in: {offenders:?}"
        );
    }

    /// Lint: the reference executor (`ver-oracle`) stays test-only. Every
    /// other crate may name it under `[dev-dependencies]` and nowhere
    /// else, so no production build — the pinned benchmark's included —
    /// ever compiles it.
    #[test]
    fn oracle_is_only_a_dev_dependency() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut offenders = Vec::new();
        let mut scanned = 0;
        for krate in std::fs::read_dir(&crates).expect("crates dir") {
            let dir = krate.expect("dir entry").path();
            let manifest = dir.join("Cargo.toml");
            if dir.ends_with("oracle") || !manifest.is_file() {
                continue;
            }
            scanned += 1;
            let text = std::fs::read_to_string(&manifest).expect("utf-8 manifest");
            let mut section = "";
            for line in text.lines().map(str::trim) {
                if line.starts_with('[') {
                    section = line;
                } else if line.contains("ver-oracle") && section != "[dev-dependencies]" {
                    offenders.push(format!("{}: {section} {line}", manifest.display()));
                }
            }
        }
        assert!(scanned >= 10, "lint read {scanned} manifests — wrong root?");
        assert!(
            offenders.is_empty(),
            "ver-oracle outside [dev-dependencies]: {offenders:?}"
        );
    }
}
