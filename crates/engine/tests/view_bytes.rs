//! A view's byte charge is a bound on what it holds, before and after its
//! gather.
//!
//! The view LRU charges each view [`View::byte_bound`] once, at insert,
//! while the view is still a handle on source rows; 4C and the ranking
//! gather some of those views later. The charge is only a bound if it
//! already covers the gathered state. This binary counts every live heap
//! byte through its global allocator and checks, for views the shared
//! sub-join DAG builds, that the charge computed before the gather is at
//! least the bytes the view holds once gathered. It holds one test, so no
//! other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use ver_common::budget::QueryBudget;
use ver_common::ids::{ColumnRef, TableId};
use ver_common::pool::ThreadPool;
use ver_common::value::Value;
use ver_engine::{materialize_batch, JoinStep, PjPlan, View};
use ver_store::catalog::TableCatalog;
use ver_store::table::TableBuilder;

/// Live heap bytes of the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::SeqCst);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::SeqCst)
}

fn cref(t: u32, o: u16) -> ColumnRef {
    ColumnRef {
        table: TableId(t),
        ordinal: o,
    }
}

fn step(left: (u32, u16), right: (u32, u16)) -> JoinStep {
    JoinStep {
        left: cref(left.0, left.1),
        right: cref(right.0, right.1),
    }
}

/// airports (many rows per state) ⋈ states ⋈ regions (many regions per
/// state): many-to-many joins, duplicate rows for dedup to drop, text and
/// integer cells.
fn catalog() -> TableCatalog {
    let states = ["Indiana", "Georgia", "Texas", "Ohio", "Iowa"];
    let mut cat = TableCatalog::new();
    let mut b = TableBuilder::new("airports", &["iata", "state", "runways"]);
    for i in 0..60i64 {
        let state = states[(i % 5) as usize];
        b.push_row(vec![
            format!("A{:02}", i % 40).into(),
            state.into(),
            Value::Int(i % 3),
        ])
        .unwrap();
    }
    cat.add_table(b.build()).unwrap();
    let mut b = TableBuilder::new("states", &["name", "pop"]);
    for (i, s) in states.iter().enumerate() {
        b.push_row(vec![(*s).into(), Value::Int(1_000 * i as i64)])
            .unwrap();
    }
    cat.add_table(b.build()).unwrap();
    let mut b = TableBuilder::new("regions", &["state", "region"]);
    for i in 0..12usize {
        b.push_row(vec![states[i % 5].into(), format!("R{}", i % 4).into()])
            .unwrap();
    }
    cat.add_table(b.build()).unwrap();
    cat
}

fn plans() -> Vec<PjPlan> {
    vec![
        // One table, two columns sharing one row vector.
        PjPlan {
            base: TableId(0),
            joins: vec![],
            projection: vec![cref(0, 0), cref(0, 1)],
        },
        // One hop, columns from both sides.
        PjPlan {
            base: TableId(0),
            joins: vec![step((0, 1), (1, 0))],
            projection: vec![cref(0, 0), cref(0, 2), cref(1, 1)],
        },
        // Two hops, many-to-many, one column per table.
        PjPlan {
            base: TableId(0),
            joins: vec![step((0, 1), (1, 0)), step((1, 0), (2, 0))],
            projection: vec![cref(0, 0), cref(1, 1), cref(2, 1)],
        },
    ]
}

/// Build the view `plan` names on its own, as the DAG does for a miss.
fn build(cat: &TableCatalog, plan: &PjPlan) -> View {
    let (mut views, _stats) = materialize_batch(
        cat,
        &[(plan.clone(), 0.5)],
        ThreadPool::new(1),
        &QueryBudget::none(),
    );
    views
        .pop()
        .expect("one candidate")
        .expect("the plan is valid")
}

#[test]
fn the_charge_taken_before_the_gather_bounds_the_gathered_view() {
    let cat = catalog();
    for plan in plans() {
        // A first build sizes the thread's dedup scratch and anything else
        // that outlives a batch, so the counted build below nets only the
        // view.
        drop(build(&cat, &plan));
        let before = live();
        let view = build(&cat, &plan);
        let charge = view.byte_bound();
        assert!(!view.table.is_gathered(), "{}", view.name());
        let built = live() - before;
        view.table.gather();
        assert!(view.table.is_gathered());
        let held = (live() - before) as usize;
        assert!(view.row_count() > 1, "{}", view.name());
        assert!(held > built as usize, "the gather copied no cell");
        assert!(
            charge >= held,
            "{}: charged {charge} bytes before the gather, holds {held} after ({built} before)",
            view.name(),
        );
        // The charge counts what the view holds, not a blanket guess.
        assert!(
            charge <= 2 * held,
            "{}: charged {charge} bytes for a view holding {held}",
            view.name(),
        );
    }
}
