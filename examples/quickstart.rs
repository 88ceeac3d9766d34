//! Quickstart: build a tiny pathless collection, index it, and discover a
//! project-join view by example.
//!
//! ```text
//! cargo run -p ver-core --example quickstart
//! ```

use ver_core::{Ver, VerConfig};
use ver_qbe::{ExampleQuery, ViewSpec};
use ver_store::catalog::TableCatalog;
use ver_store::table::TableBuilder;

fn main() -> ver_common::error::Result<()> {
    // A pathless table collection: no PK/FK information anywhere.
    let mut catalog = TableCatalog::new();

    let mut airports = TableBuilder::new("airports", &["iata", "state"]);
    for (code, state) in [
        ("IND", "Indiana"),
        ("ATL", "Georgia"),
        ("ORD", "Illinois"),
        ("BDL", "Connecticut"),
        ("RIC", "Virginia"),
    ] {
        airports.push_row(vec![code.into(), state.into()])?;
    }
    catalog.add_table(airports.build())?;

    let mut populations = TableBuilder::new("state_population", &["state", "population"]);
    for (state, pop) in [
        ("Indiana", 6_800_000i64),
        ("Georgia", 10_700_000),
        ("Illinois", 12_600_000),
        ("Connecticut", 3_600_000),
        ("Virginia", 8_600_000),
    ] {
        populations.push_row(vec![state.into(), pop.into()])?;
    }
    catalog.add_table(populations.build())?;

    // Offline: profile columns, sketch MinHash signatures, infer the join
    // hypergraph. Online: ask by example — two columns, two example rows.
    let ver = Ver::build(catalog, VerConfig::fast())?;
    let query = ExampleQuery::from_rows(&[vec!["IND", "6800000"], vec!["ATL", "10700000"]])?;
    let result = ver.run(&ViewSpec::Qbe(query))?;

    println!("candidate views: {}", result.views.len());
    println!("after distillation: {}", result.distill.survivors_c2.len());
    for (view_id, score) in &result.ranked {
        let view = result.view(*view_id).expect("ranked view");
        println!(
            "\n#{view_id} (overlap {score}) — attributes {:?}, {} rows, {} join hop(s)",
            view.attribute_names(),
            view.row_count(),
            view.provenance.hops(),
        );
        for row in view.table.iter_rows().take(3) {
            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
            println!("   {}", cells.join(" | "));
        }
    }
    Ok(())
}
