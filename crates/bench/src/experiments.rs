//! The paper's evaluation — Tables I–V, Figs. 2–8, §VI-C1 and §VI-D — one
//! function per artifact.
//!
//! Each function builds the corpora it needs, runs the experiment and
//! returns a [`Report`]: the tables the paper plots, the paper's
//! count-based shape claims computed from those rows ([`Check`]), and its
//! timing claims, which are printed but not checked (times vary from run
//! to run and from machine to machine). A check carries the verdict this
//! reproduction is pinned to — it agrees with the paper, or it is a
//! recorded divergence — so a change that moves a verdict fails the
//! `exp` binary (`exp <name>`, `exp all`) and `tests/paper_claims.rs`.
//! The README's "Paper experiments" tabulates the verdicts and numbers.

use crate::stats::{median, Summary};
use crate::{eval_search_config, run_strategy, setup_chembl, setup_opendata, setup_wdc};
use crate::{EvalSetup, Strategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::time::{Duration, Instant};
use ver_common::fxhash::FxHashMap;
use ver_core::{QueryResult, Ver, VerConfig};
use ver_datagen::workload::{find_ground_truth_view, generate_workload, materialize_ground_truth};
use ver_distill::strategy::{contradiction_steps, distill_counts, CaseChoice};
use ver_distill::{distill, DistillConfig};
use ver_present::{fasttopk_rank, simulate_scan, InterfaceKind, OracleUser, PersonaUser};
use ver_qbe::noise::{generate_noisy_query, NoiseLevel};
use ver_qbe::query::{ExampleQuery, QueryColumn};
use ver_qbe::{GroundTruth, ViewSpec};
use ver_search::{SearchConfig, SearchStats};
use ver_select::baselines::squid_alpha_db_rows;
use ver_select::{column_selection, AttributeCandidates, SelectionConfig};

/// Runs one artifact's experiment.
pub type Experiment = fn() -> Report;

/// Every artifact under the name `exp` takes, in the paper's order.
pub const ALL: [(&str, Experiment); 14] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("e2e_spec", e2e_spec),
    ("qs_squid", qs_squid),
];

/// One printed table: a title, its column names separated by `|`, and
/// rows of cells.
pub struct Table {
    pub title: String,
    pub header: &'static str,
    pub rows: Vec<Vec<String>>,
}

/// A count-based claim of the paper, checked against an experiment's rows.
pub struct Check {
    /// What the paper says, in one line.
    pub claim: &'static str,
    /// Whether this run's rows bear the claim out.
    pub holds: bool,
    /// The verdict this reproduction expects: `true` where it agrees with
    /// the paper, `false` for a recorded divergence.
    pub pinned: bool,
}

impl Check {
    /// A claim this reproduction agrees with.
    fn agrees(claim: &'static str, holds: bool) -> Check {
        Check {
            claim,
            holds,
            pinned: true,
        }
    }

    /// A claim this reproduction is recorded as not bearing out.
    fn diverges(claim: &'static str, holds: bool) -> Check {
        Check {
            claim,
            holds,
            pinned: false,
        }
    }
}

/// What one artifact's experiment produced: its tables in print order,
/// its count-based claims, and its claims about run times (printed, not
/// checked).
pub struct Report {
    pub tables: Vec<Table>,
    pub checks: Vec<Check>,
    pub timing: &'static [&'static str],
}

impl Report {
    /// Whether every verdict equals its pin.
    pub fn pins_hold(&self) -> bool {
        self.checks.iter().all(|c| c.holds == c.pinned)
    }
}

impl fmt::Display for Table {
    /// Pads each cell to its column's width (8 past the header's last
    /// column), two spaces apart, with a rule under the header.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.split('|').map(str::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &mut dyn Iterator<Item = &str>| {
            let padded: Vec<String> = (cells.enumerate())
                .map(|(i, c)| format!("{c:w$}", w = widths.get(i).copied().unwrap_or(8)))
                .collect();
            padded.join("  ")
        };
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
        let header = line(&mut self.header.split('|'));
        writeln!(f, "\n=== {} ===\n{header}\n{rule}", self.title)?;
        for row in &self.rows {
            writeln!(f, "{}", line(&mut row.iter().map(String::as_str)))?;
        }
        Ok(())
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for table in &self.tables {
            write!(f, "{table}")?;
        }
        writeln!(f)?;
        for c in &self.checks {
            let verdict = match (c.holds, c.pinned) {
                (true, true) => "holds",
                (false, false) => "fails (recorded divergence)",
                (true, false) => "HOLDS, but is pinned as a divergence",
                (false, true) => "FAILS, but is pinned to hold",
            };
            writeln!(f, "check: {} — {verdict}", c.claim)?;
        }
        for claim in self.timing {
            writeln!(f, "check: {claim} — timing, not checked")?;
        }
        Ok(())
    }
}

fn table(title: String, header: &'static str, rows: Vec<Vec<String>>) -> Table {
    Table {
        title,
        header,
        rows,
    }
}

/// A table row: `labels`, then `numbers`.
fn row(labels: &[&str], numbers: impl IntoIterator<Item = usize>) -> Vec<String> {
    let labels = labels.iter().map(|l| l.to_string());
    labels
        .chain(numbers.into_iter().map(|n| n.to_string()))
        .collect()
}

/// The size of a search space: joinable groups, join graphs, views.
fn space(s: &SearchStats) -> [usize; 3] {
    [s.joinable_groups, s.join_graphs, s.views]
}

/// Milliseconds with 2 decimals.
fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// `min/median/max` with `decimals` decimals, `-` for no samples.
fn spread(values: &[f64], decimals: usize) -> String {
    Summary::of(values)
        .map(|s| format!("{:.d$}/{:.d$}/{:.d$}", s.min, s.median, s.max, d = decimals))
        .unwrap_or_else(|| "-".into())
}

/// Whether `values` never rises or never falls.
fn monotone(values: &[usize]) -> bool {
    values.windows(2).all(|w| w[0] <= w[1]) || values.windows(2).all(|w| w[0] >= w[1])
}

/// Whether `values` rises at every step.
fn rising(values: &[usize]) -> bool {
    values.windows(2).all(|w| w[0] < w[1])
}

/// A three-row query for `gt` at each noise level; a level whose query
/// cannot be generated is skipped.
fn noisy_queries<'a>(
    ver: &'a Ver,
    gt: &'a GroundTruth,
    seed: u64,
) -> impl Iterator<Item = (NoiseLevel, ExampleQuery)> + 'a {
    NoiseLevel::all().into_iter().filter_map(move |level| {
        let query = generate_noisy_query(ver.catalog(), gt, level, 3, seed);
        query.ok().map(|q| (level, q))
    })
}

/// `setup`'s catalog and index under an edited online configuration; the
/// index is shared, not rebuilt.
fn reconfigured(setup: &EvalSetup, edit: impl FnOnce(&mut VerConfig)) -> Ver {
    let mut config = setup.ver.config().clone();
    edit(&mut config);
    Ver::from_parts(setup.ver.catalog_shared(), setup.ver.index_shared(), config)
        .expect("same catalog, same index")
}

/// Table I — characteristics of the (synthetic, scaled-down) datasets.
pub fn table1() -> Report {
    let setups = [setup_chembl(), setup_wdc(), setup_opendata(1.0)];
    let rows = setups
        .iter()
        .map(|s| {
            let (cat, pairs) = (s.ver.catalog(), s.ver.index().joinable_pairs());
            let counts = [
                cat.table_count(),
                cat.column_count(),
                pairs,
                cat.total_rows(),
            ];
            let mut cells = row(&[s.label], counts);
            cells.push(format!("{:.1} MB", cat.approx_bytes() as f64 / 1e6));
            cells
        })
        .collect();
    let (chembl, wdc) = (&setups[0].ver, &setups[1].ver);
    Report {
        tables: vec![table(
            "Table I: Characteristics of Datasets".into(),
            "Dataset|#Tables|#Columns|#Joinable Pairs|#Rows|Size",
            rows,
        )],
        checks: vec![
            Check::agrees(
                "WDC has more than 10× as many joinable pairs as tables",
                wdc.index().joinable_pairs() > 10 * wdc.catalog().table_count(),
            ),
            Check::agrees(
                "ChEMBL's joinable pairs are within 10× of its columns",
                chembl.index().joinable_pairs() < 10 * chembl.catalog().column_count(),
            ),
        ],
        timing: &[],
    }
}

/// Table II — the five user-study tasks and the views each system
/// generates: Ver before and after distillation against FastTopK's
/// SELECT-ALL universe.
pub fn table2() -> Report {
    let states = ["Indiana", "Georgia", "Virginia", "Illinois", "Connecticut"];
    let cities = ["San Diego", "Boston", "Philadelphia"];
    let countries = ["Philippines", "Vietnam", "Germany"];
    let tasks = [
        ("IATA code of airports in these states", &states[..]),
        ("churches in these states", &states[..]),
        ("newspaper companies in these cities", &cities[..]),
        ("population of these countries", &countries[..]),
        ("births per 1000 in these countries", &countries[..]),
    ];
    let setup = setup_wdc();
    let search = eval_search_config();
    let mut rows = Vec::new();
    let mut ordered = true;
    for (task, examples) in tasks {
        let examples: Vec<Vec<&str>> = examples.iter().map(|&e| vec![e]).collect();
        let query = ExampleQuery::from_rows(&examples).expect("valid study query");
        let ft = run_strategy(&setup.ver, &query, Strategy::SelectAll, &search).stats;
        let cs = run_strategy(&setup.ver, &query, Strategy::ColumnSelection, &search);
        let distilled = distill(&cs.views, &DistillConfig::default())
            .survivors_c2
            .len();
        ordered &= distilled <= cs.stats.views && cs.stats.views <= ft.views;
        rows.push(row(&[task], [cs.stats.views, distilled, ft.views]));
    }
    Report {
        tables: vec![table(
            "Table II: User-study tasks — #views per system".into(),
            "Task|Ver #Views|Ver distilled|FastTopK #Views",
            rows,
        )],
        checks: vec![Check::agrees(
            "Ver distilled ≤ Ver views ≤ FastTopK views for every task",
            ordered,
        )],
        timing: &[],
    }
}

/// Table III — the user study with 18 simulated participants, each
/// solving a task with Ver's bandit question loop and with FastTopK
/// (scanning the overlap-ranked list with a patience of 4 views).
///
/// Each participant wants a different C2 survivor of their task (semantic
/// ambiguity) and has their own per-interface answer rates and error rate.
/// The study's subjective survey rows (Q2–Q5) have no mechanical analogue.
pub fn table3() -> Report {
    const PARTICIPANTS: usize = 18;
    const SCAN_BUDGET: usize = 4;
    let setup = setup_wdc();
    let search = eval_search_config();
    let tasks = [
        vec![vec!["Philippines", "2644000"], vec!["Vietnam", "3055000"]],
        vec![vec!["Indiana"], vec!["Georgia"], vec!["Virginia"]],
    ];
    // Both systems' answers depend on the task only: compute each once.
    let answers: Vec<_> = tasks
        .iter()
        .map(|rows| {
            let task = ExampleQuery::from_rows(rows).expect("valid study query");
            let spec = ViewSpec::Qbe(task.clone());
            let result = setup.ver.run(&spec).expect("pipeline");
            let ft = run_strategy(&setup.ver, &task, Strategy::SelectAll, &search);
            let ranked = fasttopk_rank(&ft.views, &task);
            (spec, result, ft, ranked)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(1803);
    let (mut ver_found, mut ft_found) = (0, 0);
    let (mut ver_interactions, mut ft_inspected) = (Vec::new(), Vec::new());
    for p in 0..PARTICIPANTS {
        let (spec, result, ft, ranked) = &answers[p % tasks.len()];
        let survivors = &result.distill.survivors_c2;
        if survivors.is_empty() {
            continue;
        }
        let target = survivors[rng.gen_range(0..survivors.len())];
        let mut probs = FxHashMap::default();
        for k in InterfaceKind::all() {
            probs.insert(k, 0.35 + rng.gen::<f64>() * 0.6);
        }
        let error = rng.gen::<f64>() * 0.08;

        let mut user = PersonaUser::with_profile(target, probs, error, 7000 + p as u64);
        let outcome = setup.ver.present(spec, result, &mut user);
        if outcome.found_view() == Some(target) {
            ver_found += 1;
            ver_interactions.push(outcome.interactions() as f64);
        }

        // FastTopK's universe carries different view ids: the target is
        // the view with the same row set, if FastTopK has it at all.
        let target_rows = result.view(target).expect("target is a view").row_set();
        if let Some(t) = ft.views.iter().find(|v| v.row_set() == target_rows) {
            let scan = simulate_scan(ranked, t.id, SCAN_BUDGET);
            if scan.found {
                ft_found += 1;
                ft_inspected.push(scan.inspected as f64);
            }
        }
    }

    let med = |v: &[f64]| median(v).map_or_else(|| "-".into(), |m| format!("{m:.0}"));
    let not_found = [PARTICIPANTS - ver_found, PARTICIPANTS - ft_found];
    Report {
        tables: vec![
            table(
                "Table III (Q1): Does the user find a relevant view?".into(),
                "Outcome|Ver|FastTopK",
                vec![
                    row(&["Found"], [ver_found, ft_found]),
                    row(&["Not Found"], not_found),
                ],
            ),
            table(
                "Median effort".into(),
                "Metric|Ver|FastTopK",
                vec![vec![
                    "median interactions / inspections".into(),
                    med(&ver_interactions),
                    med(&ft_inspected),
                ]],
            ),
        ],
        checks: vec![Check::agrees(
            "Ver finds the target for more participants than FastTopK",
            ver_found > ft_found,
        )],
        timing: &[],
    }
}

/// Table IV — views left after each 4C signal: Original → C1 (compatible)
/// → C2 (contained) → C3 worst/best (complementary union under the worst
/// and best key), per query × noise level.
pub fn table4() -> Report {
    let search = eval_search_config();
    let mut rows = Vec::new();
    let (mut shrinking, mut wdc_tenfold) = (true, true);
    for setup in [setup_chembl(), setup_wdc()] {
        for gt in &setup.gts {
            for (level, query) in noisy_queries(&setup.ver, gt, 0x7AB4 ^ gt.name.len() as u64) {
                let out = run_strategy(&setup.ver, &query, Strategy::ColumnSelection, &search);
                let c = distill_counts(&out.views, &distill(&out.views, &DistillConfig::default()));
                let counts = [c.original, c.c1, c.c2, c.c3_worst, c.c3_best];
                shrinking &= counts.windows(2).all(|w| w[0] >= w[1]);
                if setup.label == "WDC" {
                    wdc_tenfold &= 10 * c.c2 <= c.original;
                }
                rows.push(row(&[&gt.name, level.label()], counts));
            }
        }
    }
    Report {
        tables: vec![table(
            "Table IV: Effect of view distillation (4C) on number of views".into(),
            "Query|Noise|Original|C1|C2|C3 worst|C3 best",
            rows,
        )],
        checks: vec![
            Check::agrees(
                "Original ≥ C1 ≥ C2 ≥ C3-worst ≥ C3-best on every row",
                shrinking,
            ),
            Check::agrees("C2 ≤ Original / 10 on every WDC row", wdc_tenfold),
        ],
        timing: &[],
    }
}

/// Table V — ground-truth hit ratio of SELECT-ALL (SA), SELECT-BEST (SB)
/// and COLUMN-SELECTION (CS) over the 150-query noisy workload, by noise
/// level.
pub fn table5() -> Report {
    let search = eval_search_config();
    let levels = NoiseLevel::all();
    // (hits, queries) per [level][strategy], strategies in `Strategy::all`
    // order: SA, SB, CS.
    let mut tally = [[(0usize, 0usize); 3]; 3];
    for setup in [setup_chembl(), setup_wdc()] {
        let EvalSetup { ver, gts, .. } = &setup;
        let workload =
            generate_workload(ver.catalog(), gts, 5, 3, 0x150).expect("workload generation");
        for wq in &workload {
            let Ok(gt_view) = materialize_ground_truth(ver.catalog(), ver.index(), &wq.gt, 2)
            else {
                continue;
            };
            let li = levels.iter().position(|&l| l == wq.level).expect("a level");
            for (si, strat) in Strategy::all().into_iter().enumerate() {
                let out = run_strategy(ver, &wq.query, strat, &search);
                let cell = &mut tally[li][si];
                cell.0 += usize::from(find_ground_truth_view(&out.views, &gt_view).is_some());
                cell.1 += 1;
            }
        }
    }
    let ratio = |(hits, n): (usize, usize)| (n > 0).then(|| hits as f64 / n as f64);
    let rows = levels
        .iter()
        .zip(&tally)
        .map(|(level, per_strategy)| {
            let ratios = per_strategy
                .iter()
                .map(|&c| ratio(c).map_or_else(|| "-".into(), |r| format!("{r:.2}")));
            std::iter::once(level.label().to_string())
                .chain(ratios)
                .collect()
        })
        .collect();
    let all_hit = |si: usize| tally.iter().all(|l| ratio(l[si]) == Some(1.0));
    Report {
        tables: vec![table(
            "Table V: Ground Truth Hit Ratio (150 noisy queries)".into(),
            "Noise|SA|SB|CS",
            rows,
        )],
        checks: vec![
            Check::agrees(
                "every strategy hits every ground truth at zero noise",
                tally[0].iter().all(|&c| ratio(c) == Some(1.0)),
            ),
            Check::agrees(
                "SA and CS hit every ground truth at every noise level",
                all_hit(0) && all_hit(2),
            ),
            Check::agrees(
                "SB's hit ratio is below CS's at Med and High noise",
                tally[1..].iter().all(|l| ratio(l[1]) < ratio(l[2])),
            ),
        ],
        timing: &[],
    }
}

/// Fig. 2 — views left at each contradiction-resolution step, best case
/// (the correct side is the smallest group) vs worst case (the largest),
/// per noise level, for a contradiction-light query (ChEMBL Q4) and a
/// contradiction-heavy one (WDC Q3).
pub fn fig2() -> Report {
    let search = eval_search_config();
    let (chembl, wdc) = (setup_chembl(), setup_wdc());
    let mut rows = Vec::new();
    let (mut best_first, mut chembl_by_one, mut wdc_by_many) = (true, true, false);
    for (setup, gt, label) in [(&chembl, 3, "ChEMBL Q4"), (&wdc, 2, "WDC Q3")] {
        for (level, query) in noisy_queries(&setup.ver, &setup.gts[gt], 0xF16) {
            let out = run_strategy(&setup.ver, &query, Strategy::ColumnSelection, &search);
            let d = distill(&out.views, &DistillConfig::default());
            let worst = contradiction_steps(&d, CaseChoice::Worst, 10);
            let best = contradiction_steps(&d, CaseChoice::Best, 10);
            // A finished series stays at its last count.
            let at = |s: &[usize], i: usize| s[i.min(s.len() - 1)];
            best_first &= (0..worst.len().max(best.len())).all(|i| at(&best, i) <= at(&worst, i));
            let mut drops = worst.windows(2).map(|w| w[0] - w[1]);
            if setup.label == "WDC" {
                wdc_by_many |= drops.any(|d| d > 1);
            } else {
                chembl_by_one &= drops.all(|d| d == 1);
            }
            for (case, steps) in [("worst", worst), ("best", best)] {
                let mut cells = row(&[label, level.label(), case], []);
                cells.push(format!("{steps:?}"));
                rows.push(cells);
            }
        }
    }
    Report {
        tables: vec![table(
            "Fig. 2: Views left per contradiction-resolution step".into(),
            "Query|Noise|Case|Views left per step",
            rows,
        )],
        checks: vec![
            Check::agrees(
                "the best case has at most as many views left as the worst at every step",
                best_first,
            ),
            Check::agrees(
                "WDC Q3's worst case prunes more than one view in some step",
                wdc_by_many,
            ),
            Check::agrees(
                "ChEMBL Q4's worst case prunes one view per step",
                chembl_by_one,
            ),
        ],
        timing: &[],
    }
}

/// Queries Figs. 3 and 4 run per corpus portion.
const VIEW_IO_QUERIES: usize = 20;

/// Figs. 3 and 4's runs: the open-data corpus at `portion`, with views
/// round-tripped through CSV on disk (VD-IO) and at most 1 000 views per
/// query, answering [`VIEW_IO_QUERIES`] random zero-noise queries drawn
/// with `seed`; `each` sees every result.
fn view_io_runs(portion: f64, seed: u64, mut each: impl FnMut(&QueryResult)) {
    let setup = setup_opendata(portion);
    let ver = reconfigured(&setup, |c| {
        c.simulate_view_io = true;
        c.search.k = 1_000; // bounds materialization: shape, not scale
    });
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..VIEW_IO_QUERIES {
        let gt = &setup.gts[rng.gen_range(0..setup.gts.len())];
        let Ok(q) = generate_noisy_query(ver.catalog(), gt, NoiseLevel::Zero, 3, rng.gen()) else {
            continue;
        };
        if let Ok(result) = ver.run(&ViewSpec::Qbe(q)) {
            each(&result);
        }
    }
}

/// Fig. 3 — VIEW-DISTILLATION scalability: total, get-views (VD-IO) and 4C
/// runtime, and the number of views, against the corpus sample portion.
/// The same queries run at every portion.
pub fn fig3() -> Report {
    let ms_of = |d: Duration| d.as_secs_f64() * 1e3;
    let mut rows = Vec::new();
    for portion in [0.25, 0.5, 0.75, 1.0] {
        let (mut totals, mut io, mut c4, mut views) = (vec![], vec![], vec![], vec![]);
        view_io_runs(portion, 0xF163, |r| {
            let (io_ms, c4_ms) = (ms_of(r.timer.get("vd_io")), ms_of(r.timer.get("4c")));
            io.push(io_ms);
            c4.push(c4_ms);
            totals.push(io_ms + c4_ms);
            views.push(r.views.len() as f64);
        });
        rows.push(vec![
            format!("{:.0}%", portion * 100.0),
            spread(&totals, 2),
            spread(&io, 2),
            spread(&c4, 2),
            median(&views).map_or_else(|| "-".into(), |m| format!("{m:.0}")),
        ]);
    }
    Report {
        tables: vec![table(
            format!(
                "Fig. 3: Distillation scalability by sample portion (times in ms, \
                 min/med/max over {VIEW_IO_QUERIES} queries)"
            ),
            "Portion|Total|Get Views (IO)|4C|median #Views",
            rows,
        )],
        checks: vec![],
        timing: &[
            "totals grow with portion (≈ linear in #views)",
            "the IO component dominates the 4C component",
        ],
    }
}

/// Fig. 4 — runtime breakdowns on the whole open-data corpus: (a) 4C's
/// phases, (b) the end-to-end stages.
pub fn fig4() -> Report {
    // Timer phase names, and the labels the paper gives them.
    let fourc = ["schema_partition", "hash_c1", "c2", "c3_c4"];
    let stages = ["cs", "jgs", "materialize", "vd_io", "4c"];
    let mut fourc_ms = vec![Vec::new(); fourc.len()];
    let mut stage_ms = vec![Vec::new(); stages.len()];
    view_io_runs(1.0, 0xF164, |r| {
        for (phase, samples) in fourc.iter().zip(&mut fourc_ms) {
            samples.push(r.distill.timer.get(phase).as_secs_f64() * 1e3);
        }
        for (phase, samples) in stages.iter().zip(&mut stage_ms) {
            samples.push(r.timer.get(phase).as_secs_f64() * 1e3);
        }
    });
    let rows = |labels: &[&str], samples: &[Vec<f64>]| {
        let cells = labels.iter().zip(samples);
        cells
            .map(|(label, v)| vec![label.to_string(), spread(v, 3)])
            .collect()
    };
    Report {
        tables: vec![
            table(
                "Fig. 4(a): 4C phase runtimes, 100% sample (ms, min/med/max)".into(),
                "Phase|Runtime",
                rows(&["SP", "Hash+C1", "C2", "C3+C4"], &fourc_ms),
            ),
            table(
                format!(
                    "Fig. 4(b): End-to-end stage runtimes over {VIEW_IO_QUERIES} queries \
                     (ms, min/med/max)"
                ),
                "Stage|Runtime",
                rows(&["CS", "JGS", "M", "VD-IO", "4C"], &stage_ms),
            ),
        ],
        checks: vec![],
        timing: &[
            "(a) hashing (Hash+C1) dominates 4C, SP ≈ 0",
            "(b) M and VD-IO dominate, CS and JGS are small",
        ],
    }
}

/// Fig. 5 — search-space sizes on ChEMBL: joinable groups, join graphs
/// and views per query × noise level × strategy.
pub fn fig5() -> Report {
    search_space(5, setup_chembl(), 0xF165)
}

/// Fig. 6 — Fig. 5 on WDC.
pub fn fig6() -> Report {
    search_space(6, setup_wdc(), 0xF166)
}

/// Figs. 5 and 6: for each ground truth, noise level and strategy, the
/// search-space size and whether the ground-truth view is among the views
/// (`-` when it cannot be materialized).
fn search_space(fig: u8, setup: EvalSetup, seed: u64) -> Report {
    let search = eval_search_config();
    let EvalSetup { label, ver, gts } = &setup;
    let mut rows = Vec::new();
    let (mut sa_widest, mut cs_hits, mut sb_misses) = (true, true, false);
    for gt in gts {
        let gt_view = materialize_ground_truth(ver.catalog(), ver.index(), gt, 2).ok();
        for (level, query) in noisy_queries(ver, gt, seed) {
            let mut sa_space = [0; 3];
            for strat in Strategy::all() {
                let out = run_strategy(ver, &query, strat, &search);
                let hit =
                    (gt_view.as_ref()).map(|g| find_ground_truth_view(&out.views, g).is_some());
                let counts = space(&out.stats);
                match strat {
                    Strategy::SelectAll => sa_space = counts,
                    Strategy::SelectBest => {
                        sb_misses |= level != NoiseLevel::Zero && hit == Some(false)
                    }
                    Strategy::ColumnSelection => {
                        sa_widest &= sa_space.iter().zip(&counts).all(|(sa, cs)| sa >= cs);
                        cs_hits &= hit == Some(true);
                    }
                }
                let mut cells = row(&[&gt.name, level.label(), strat.label()], counts);
                cells.push(hit.map_or("-", |h| if h { "1" } else { "0" }).to_string());
                rows.push(cells);
            }
        }
    }
    Report {
        tables: vec![table(
            format!("Fig. {fig}: #joinable groups / join graphs / views on {label}"),
            "Query|Noise|Strategy|JoinableGroups|JoinGraphs|Views|GT hit",
            rows,
        )],
        checks: vec![
            Check::agrees(
                "SA ≥ CS on joinable groups, join graphs and views on every row",
                sa_widest,
            ),
            Check::agrees("CS hits the ground truth on every row", cs_hits),
            Check::agrees("SB misses the ground truth on some Med/High row", sb_misses),
        ],
        timing: &[],
    }
}

/// Fig. 7 — COLUMN-SELECTION + JOIN-GRAPH-SEARCH + MATERIALIZER runtime
/// per query × noise level × strategy on ChEMBL and WDC.
pub fn fig7() -> Report {
    let search = eval_search_config();
    let mut rows = Vec::new();
    for setup in [setup_chembl(), setup_wdc()] {
        for gt in &setup.gts {
            for (level, query) in noisy_queries(&setup.ver, gt, 0xF167) {
                let mut cells = row(&[&gt.name, level.label()], []);
                for strat in Strategy::all() {
                    let start = Instant::now();
                    let views = run_strategy(&setup.ver, &query, strat, &search).stats.views;
                    cells.push(format!("{} ({views} views)", ms(start.elapsed())));
                }
                rows.push(cells);
            }
        }
    }
    Report {
        tables: vec![table(
            "Fig. 7: CS+JGS+M runtime per query (ms)".into(),
            "Query|Noise|SA|SB|CS",
            rows,
        )],
        checks: vec![],
        timing: &[
            "the SA column dominates the CS column, increasingly so for noisy queries \
                   with broad matches",
        ],
    }
}

/// Fig. 8 — the microbenchmarks of Appendix C: (a) the index's containment
/// threshold, (b) and (c) the number of example rows, (§C-3) the number of
/// query columns.
pub fn fig8() -> Report {
    let search = eval_search_config();
    let chembl = setup_chembl();

    // (a) Lower thresholds admit more (noisier) joinable pairs.
    let (mut rows_a, mut pairs, mut graphs) = (Vec::new(), Vec::new(), Vec::new());
    for t in [0.8, 0.7, 0.6, 0.5] {
        let mut config = chembl.ver.config().clone();
        config.index.containment_threshold = t;
        let ver = Ver::build(chembl.ver.catalog().clone(), config).expect("index build");
        let graphs_of = |gt| {
            let q = generate_noisy_query(ver.catalog(), gt, NoiseLevel::Zero, 3, 0xF168);
            let q = q.expect("query");
            run_strategy(&ver, &q, Strategy::ColumnSelection, &search)
                .stats
                .join_graphs
        };
        let total = chembl.gts.iter().map(graphs_of).sum();
        pairs.push(ver.index().joinable_pairs());
        graphs.push(total);
        rows_a.push(row(&[&format!("t={t}")], [pairs[pairs.len() - 1], total]));
    }

    // (b) + (c) on WDC airports (state, iata): its state/city/country
    // homonyms are what would let extra example rows pull in or rule out
    // whole clusters — the paper's non-monotone effect.
    let wdc = setup_wdc();
    let (mut rows_b, mut rows_c) = (Vec::new(), Vec::new());
    let (mut sizes, mut selected) = ([vec![], vec![], vec![]], Vec::new());
    for n in [2, 4, 6, 8, 10] {
        let q = generate_noisy_query(wdc.ver.catalog(), &wdc.gts[0], NoiseLevel::Zero, n, 0xF169)
            .expect("query");
        let sel = column_selection(wdc.ver.index(), &q, &SelectionConfig::default());
        let counts = space(&run_strategy(&wdc.ver, &q, Strategy::ColumnSelection, &search).stats);
        for (series, c) in sizes.iter_mut().zip(counts) {
            series.push(c);
        }
        let sum = |f: fn(&AttributeCandidates) -> usize| sel.per_attribute.iter().map(f).sum();
        selected.push(sum(|a| a.clusters_selected));
        let n = n.to_string();
        rows_b.push(row(&[&n], counts));
        rows_c.push(row(
            &[&n],
            [
                sum(|a| a.total_columns),
                sum(|a| a.num_clusters),
                sum(|a| a.clusters_selected),
                sel.total_selected(),
            ],
        ));
    }

    // (§C-3) Q2 (compound_name × standard_value) widened with attributes
    // of joined tables: compounds.mw, then activities.assay_id.
    let search_wide = SearchConfig {
        k: 3_000,
        max_combinations: 3_000,
        ..SearchConfig::default()
    };
    let cat = chembl.ver.catalog();
    let base = generate_noisy_query(cat, &chembl.gts[1], NoiseLevel::Zero, 3, 0xF16A);
    let base = base.expect("query");
    let (mut rows_d, mut views) = (Vec::new(), Vec::new());
    for arity in [2, 3, 4] {
        let mut columns: Vec<QueryColumn> = base.columns.clone();
        for (t, ordinal) in &[("compounds", 2), ("activities", 2)][..arity - 2] {
            let col = cat
                .table_by_name(t)
                .and_then(|t| t.column(*ordinal))
                .expect("column");
            columns.push(QueryColumn::of_values(
                col.non_null().take(3).cloned().collect(),
            ));
        }
        let q = ExampleQuery::new(columns).expect("valid query");
        let counts =
            space(&run_strategy(&chembl.ver, &q, Strategy::ColumnSelection, &search_wide).stats);
        views.push(counts[2]);
        rows_d.push(row(&[&arity.to_string()], counts));
    }

    Report {
        tables: vec![
            table(
                "Fig. 8(a): joinable pairs & join graphs vs containment threshold".into(),
                "Threshold|Joinable pairs|Σ join graphs (Q1-Q5)",
                rows_a,
            ),
            table(
                "Fig. 8(b): search space vs #example rows".into(),
                "Rows|JoinableGroups|JoinGraphs|Views",
                rows_b,
            ),
            table(
                "Fig. 8(c): column selection vs #example rows".into(),
                "Rows|TotalColumns|Clusters|ClustersSelected|ColumnsSelected",
                rows_c,
            ),
            table(
                "Appendix C-3: search space vs #query columns".into(),
                "Columns|JoinableGroups|JoinGraphs|Views",
                rows_d,
            ),
        ],
        checks: vec![
            Check::agrees(
                "(a) joinable pairs and Σ join graphs grow as the threshold falls",
                rising(&pairs) && rising(&graphs),
            ),
            Check::diverges(
                "(b) the search space is non-monotone in #example rows",
                sizes.iter().any(|s| !monotone(s)),
            ),
            Check::diverges(
                "(c) fewer clusters are selected as example rows grow",
                selected.last() < selected.first(),
            ),
            Check::agrees("(C-3) views grow with query columns", rising(&views)),
        ],
        timing: &[],
    }
}

/// §VI-C1 — the three VIEW-SPECIFICATION interfaces (QBE, keyword,
/// attribute) end to end on half the open-data corpus, plus the questions
/// a correctly answering simulated user needs to reach the top survivor.
pub fn e2e_spec() -> Report {
    let setup = setup_opendata(0.5);
    // Keyword and attribute specs retrieve far broader column sets than
    // QBE (the paper's point); the caps keep the comparison in harness time
    // and apply to all three interfaces alike.
    let ver = reconfigured(&setup, |c| {
        c.search.k = 500;
        c.search.max_combinations = 2_000;
    });
    let mut rows = Vec::new();
    let mut few_questions = true;
    for gt in setup.gts.iter().take(10) {
        let qbe =
            generate_noisy_query(ver.catalog(), gt, NoiseLevel::Zero, 3, 0xE2E).expect("query");
        let keywords = (qbe.columns.iter())
            .filter_map(|c| c.non_null().next().map(|v| v.normalized()))
            .collect();
        let attributes = (gt.columns.iter())
            .map(|cref| {
                let t = ver.catalog().table(cref.table).expect("table");
                t.schema.columns[cref.ordinal as usize].display_name(cref.ordinal as usize)
            })
            .collect();
        let specs = [
            ViewSpec::Qbe(qbe),
            ViewSpec::Keyword(keywords),
            ViewSpec::Attribute(attributes),
        ];
        for spec in specs {
            let start = Instant::now();
            let Ok(result) = ver.run(&spec) else { continue };
            let pipeline_ms = ms(start.elapsed());
            let survivors = &result.distill.survivors_c2;
            let mut cells = row(&[&gt.name, spec.interface_name()], [survivors.len()]);
            cells.push(pipeline_ms);
            cells.push(match survivors.first() {
                Some(&top) => {
                    let outcome = ver.present(&spec, &result, &mut OracleUser::new(top));
                    few_questions &=
                        survivors.len() < 2 || outcome.interactions() < survivors.len();
                    outcome.interactions().to_string()
                }
                None => "-".into(),
            });
            rows.push(cells);
        }
    }
    Report {
        tables: vec![table(
            "§VI-C1: view-specification implementations, end to end".into(),
            "Query|Interface|#Views|Pipeline ms|Questions to target",
            rows,
        )],
        checks: vec![Check::agrees(
            "the simulated user needs fewer questions than there are views",
            few_questions,
        )],
        timing: &["QBE pipelines are the fastest per view"],
    }
}

/// §VI-D — why SQuID-style abduction does not scale to pathless
/// collections: the modelled size of its precomputed abduction-ready
/// database (αDB) next to the raw data (paper: a 5.9M-row ChEMBL table
/// yields an 8.1M-row αDB).
pub fn qs_squid() -> Report {
    let mut rows = Vec::new();
    let mut blows_up = true;
    for setup in [setup_chembl(), setup_wdc(), setup_opendata(1.0)] {
        let raw = setup.ver.catalog().total_rows();
        let alpha = squid_alpha_db_rows(setup.ver.catalog());
        blows_up &= alpha >= raw;
        let mut cells = row(&[setup.label], [raw, alpha]);
        cells.push(format!("{:.2}x", alpha as f64 / raw.max(1) as f64));
        rows.push(cells);
    }
    Report {
        tables: vec![table(
            "§VI-D: modelled SQuID αDB blow-up".into(),
            "Dataset|Raw rows|αDB rows|Blow-up",
            rows,
        )],
        checks: vec![Check::agrees(
            "the αDB has at least as many rows as the raw data on every corpus",
            blows_up,
        )],
        timing: &[],
    }
}
