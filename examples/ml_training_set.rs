//! ML-engineer scenario from the paper's introduction: assemble a training
//! table by joining measurement labels with compound features scattered
//! across a bio-assay database — without any join-path metadata.
//!
//! ```text
//! cargo run -p ver-core --example ml_training_set
//! ```

use ver_core::{Ver, VerConfig};
use ver_datagen::chembl::{generate_chembl, ChemblConfig};
use ver_qbe::{ExampleQuery, ViewSpec};

fn main() -> ver_common::error::Result<()> {
    // A ChEMBL-like corpus: 24 relational tables, keys unlabelled.
    let catalog = generate_chembl(&ChemblConfig {
        n_compounds: 120,
        n_tables: 24,
        seed: 2024,
    })?;
    println!(
        "corpus: {} tables / {} columns / {} rows (no PK-FK metadata)",
        catalog.table_count(),
        catalog.column_count(),
        catalog.total_rows()
    );

    let ver = Ver::build(catalog, VerConfig::fast())?;

    // The engineer knows a couple of compounds and a plausible label value;
    // they want (compound_name, standard_value) training pairs.
    let c0 = ver
        .catalog()
        .table_by_name("compounds")
        .expect("generator emits compounds")
        .cell(0, 1)
        .expect("cell exists")
        .to_string();
    let c1 = ver
        .catalog()
        .table_by_name("compounds")
        .expect("generator emits compounds")
        .cell(1, 1)
        .expect("cell exists")
        .to_string();
    println!("\nexample compounds: {c0}, {c1}");

    let query = ExampleQuery::from_rows(&[vec![c0.as_str()], vec![c1.as_str()]])?;
    // Add the label column by attribute hint — the engineer has no example
    // activity value memorised.
    let mut columns = query.columns;
    columns.push(
        ver_qbe::QueryColumn::of_values(vec![ver_common::value::Value::Null])
            .named("standard_value"),
    );
    let query = ExampleQuery::new(columns)?;

    let result = ver.run(&ViewSpec::Qbe(query))?;
    println!(
        "\ncandidates: {} views → {} after distillation",
        result.views.len(),
        result.distill.survivors_c2.len()
    );

    match result.ranked.first() {
        Some((view_id, _)) => {
            let view = result.view(*view_id).expect("ranked view exists");
            println!(
                "top view: {:?} with {} training rows via {} join hop(s)",
                view.attribute_names(),
                view.row_count(),
                view.provenance.hops()
            );
            for row in view.table.iter_rows().take(5) {
                let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
                println!("   {}", cells.join(" | "));
            }
        }
        None => println!("no view satisfied the query — try more examples"),
    }
    Ok(())
}
