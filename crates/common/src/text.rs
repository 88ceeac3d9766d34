//! Text utilities: Levenshtein distance (fuzzy keyword search), tokenisation,
//! and lexical distances used by question prioritisation.
//!
//! The paper uses pre-trained word2vec embeddings to compute question/query
//! distances; offline we substitute deterministic lexical distances (token
//! Jaccard + character-trigram cosine) that exercise the same prioritisation
//! machinery (see the README's "Paper experiments").

use crate::fxhash::FxHashMap;

/// The one capped-Levenshtein DP in this crate: distance between `key` and
/// the pre-decoded `needle`, capped at `cap + 1`, streaming `key`'s chars
/// and writing the single DP row into `row` (cleared and refilled; `row[j]`
/// = distance between the consumed prefix of `key` and `needle[..j]`).
/// Both [`levenshtein_capped`] and [`FuzzyMatcher`] call this, so the two
/// public surfaces cannot drift apart.
fn capped_row_distance(key: &str, needle: &[char], cap: usize, row: &mut Vec<usize>) -> usize {
    let m = needle.len();
    let n = key.chars().count();
    if n.abs_diff(m) > cap {
        return cap + 1;
    }
    if n == 0 || m == 0 {
        // One side empty: the distance is the other side's length.
        return n.max(m).min(cap + 1);
    }
    row.clear();
    row.extend(0..=m);
    for (i, ka) in key.chars().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        let mut row_min = row[0];
        for (j, &nb) in needle.iter().enumerate() {
            let cost = usize::from(ka != nb);
            let val = (prev_diag + cost).min(row[j + 1] + 1).min(row[j] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = val;
            row_min = row_min.min(val);
        }
        if row_min > cap {
            return cap + 1;
        }
    }
    row[m].min(cap + 1)
}

/// Levenshtein edit distance with an early-exit `cap`.
///
/// Returns `cap + 1` as soon as the distance provably exceeds `cap`, which
/// keeps fuzzy keyword search linear-ish for non-matches.
pub fn levenshtein_capped(a: &str, b: &str, cap: usize) -> usize {
    let needle: Vec<char> = b.chars().collect();
    let mut row = Vec::with_capacity(needle.len() + 1);
    capped_row_distance(a, &needle, cap, &mut row)
}

/// Plain Levenshtein distance (no cap).
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_capped(a, b, a.chars().count().max(b.chars().count()))
}

/// A reusable capped-Levenshtein matcher for one needle.
///
/// [`levenshtein_capped`] collects both strings into fresh `char` vectors
/// and allocates a DP row on every call — fine for one-off distances, but
/// fuzzy keyword search probes the needle against *every* posting key. This
/// matcher normalises that work up front: the needle is decoded once at
/// construction, the DP row is allocated once and reused, and each probe
/// streams the key's chars without collecting them.
///
/// `matches(key)` returns exactly `levenshtein_capped(key, needle, cap) <=
/// cap` (pinned by tests); only the allocation profile differs.
#[derive(Debug, Clone)]
pub struct FuzzyMatcher {
    needle: Vec<char>,
    cap: usize,
    row: Vec<usize>,
}

impl FuzzyMatcher {
    /// Matcher accepting keys within `cap` edits of `needle`.
    pub fn new(needle: &str, cap: usize) -> Self {
        let needle: Vec<char> = needle.chars().collect();
        let row = Vec::with_capacity(needle.len() + 1);
        FuzzyMatcher { needle, cap, row }
    }

    /// `true` when `key` is within the cap: `levenshtein(key, needle) <=
    /// cap`, with the same early exits as [`levenshtein_capped`] (the two
    /// share one DP implementation) and no per-call allocation.
    pub fn matches(&mut self, key: &str) -> bool {
        capped_row_distance(key, &self.needle, self.cap, &mut self.row) <= self.cap
    }
}

/// Lower-cased alphanumeric tokens; separators are any
/// non-alphanumeric characters (`home_address` → `["home", "address"]`).
pub fn tokenize(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Jaccard similarity of the token sets of two strings, in `[0, 1]`.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    let ta: std::collections::BTreeSet<String> = tokenize(a).into_iter().collect();
    let tb: std::collections::BTreeSet<String> = tokenize(b).into_iter().collect();
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let inter = ta.intersection(&tb).count();
    let union = ta.len() + tb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

fn trigram_counts(s: &str) -> FxHashMap<[char; 3], u32> {
    let padded: Vec<char> = std::iter::once('\u{2}')
        .chain(s.to_lowercase().chars())
        .chain(std::iter::once('\u{3}'))
        .collect();
    let mut counts: FxHashMap<[char; 3], u32> = FxHashMap::default();
    if padded.len() < 3 {
        return counts;
    }
    for w in padded.windows(3) {
        *counts.entry([w[0], w[1], w[2]]).or_insert(0) += 1;
    }
    counts
}

/// Cosine similarity of character-trigram count vectors, in `[0, 1]`.
/// Robust to small typos; the substitute for word2vec distance.
pub fn trigram_cosine(a: &str, b: &str) -> f64 {
    let ca = trigram_counts(a);
    let cb = trigram_counts(b);
    if ca.is_empty() || cb.is_empty() {
        return if a.to_lowercase() == b.to_lowercase() {
            1.0
        } else {
            0.0
        };
    }
    let mut dot = 0u64;
    for (g, &na) in &ca {
        if let Some(&nb) = cb.get(g) {
            dot += na as u64 * nb as u64;
        }
    }
    let norm = |c: &FxHashMap<[char; 3], u32>| {
        (c.values().map(|&v| v as u64 * v as u64).sum::<u64>() as f64).sqrt()
    };
    let denom = norm(&ca) * norm(&cb);
    if denom == 0.0 {
        0.0
    } else {
        dot as f64 / denom
    }
}

/// Combined lexical distance in `[0, 1]` (0 = identical): the complement of
/// a blend of token Jaccard and trigram cosine. This is the word2vec
/// substitute used by question prioritisation.
pub fn lexical_distance(a: &str, b: &str) -> f64 {
    let sim = 0.5 * token_jaccard(a, b) + 0.5 * trigram_cosine(a, b);
    (1.0 - sim).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basic() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_cap_early_exit() {
        assert_eq!(levenshtein_capped("aaaaaaaa", "bbbbbbbb", 2), 3);
        assert_eq!(levenshtein_capped("abcdef", "abcdxf", 2), 1);
        // Length gap alone exceeds cap.
        assert_eq!(levenshtein_capped("a", "abcdefg", 2), 3);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn fuzzy_matcher_agrees_with_levenshtein_capped() {
        let cases = [
            ("indiana", 1, "indianna"),
            ("indiana", 1, "georgia"),
            ("state", 5, "state_name"),
            ("", 2, "ab"),
            ("", 1, "ab"),
            ("abc", 0, "abc"),
            ("abc", 0, "abd"),
            ("café", 1, "cafe"),
            ("aaaaaaaa", 2, "bbbbbbbb"),
            ("a", 2, "abcdefg"),
        ];
        for (needle, cap, key) in cases {
            let mut m = FuzzyMatcher::new(needle, cap);
            let expected = levenshtein_capped(key, needle, cap) <= cap;
            assert_eq!(m.matches(key), expected, "needle={needle} key={key}");
            // Reuse across probes must not corrupt state.
            assert_eq!(m.matches(key), expected, "second probe of {key}");
        }
    }

    #[test]
    fn fuzzy_matcher_reuse_across_many_keys() {
        let mut m = FuzzyMatcher::new("population", 2);
        let keys = ["population", "populaton", "popullation", "iata", ""];
        for key in keys {
            assert_eq!(
                m.matches(key),
                levenshtein_capped(key, "population", 2) <= 2,
                "key={key}"
            );
        }
    }

    #[test]
    fn tokenize_splits_on_non_alnum() {
        assert_eq!(tokenize("home_address"), vec!["home", "address"]);
        assert_eq!(
            tokenize("IATA Code (airport)"),
            vec!["iata", "code", "airport"]
        );
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("a1-b2"), vec!["a1", "b2"]);
    }

    #[test]
    fn token_jaccard_behaviour() {
        assert!((token_jaccard("home address", "work address") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(token_jaccard("x", "x"), 1.0);
        assert_eq!(token_jaccard("x", "y"), 0.0);
        assert_eq!(token_jaccard("", ""), 1.0);
    }

    #[test]
    fn trigram_cosine_tolerates_typos() {
        let close = trigram_cosine("newspaper", "newspapers");
        let far = trigram_cosine("newspaper", "church");
        assert!(close > 0.7, "close = {close}");
        assert!(far < 0.2, "far = {far}");
        assert!((trigram_cosine("abc", "abc") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lexical_distance_orders_sensibly() {
        let d_same = lexical_distance("population", "population");
        let d_near = lexical_distance("population count", "population total");
        let d_far = lexical_distance("population", "iata code");
        assert!(d_same < 1e-12);
        assert!(d_near < d_far);
        assert!(d_far <= 1.0);
    }

    #[test]
    fn distances_are_symmetric() {
        for (a, b) in [
            ("alpha", "beta"),
            ("home address", "work address"),
            ("", "x"),
        ] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
            assert!((lexical_distance(a, b) - lexical_distance(b, a)).abs() < 1e-12);
        }
    }
}
