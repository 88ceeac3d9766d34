//! Interactive view presentation: the bandit asks questions through four
//! interfaces, adapts to a user who can only answer some of them, and
//! narrows hundreds of candidates to the one the user wants.
//!
//! The "user" here is a simulated persona (the paper's study had 18 human
//! participants; see the README's "Paper experiments" for the substitution).
//!
//! ```text
//! cargo run -p ver-core --example interactive_session
//! ```

use ver_common::fxhash::FxHashMap;
use ver_core::{Ver, VerConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_present::{InterfaceKind, OracleUser, PersonaUser, SessionOutcome};
use ver_qbe::{ExampleQuery, ViewSpec};

fn main() -> ver_common::error::Result<()> {
    let catalog = generate_wdc(&WdcConfig {
        n_tables: 70,
        ..Default::default()
    })?;
    let ver = Ver::build(catalog, VerConfig::fast())?;

    let spec = ViewSpec::Qbe(ExampleQuery::from_rows(&[
        vec!["Philippines", "2644000"],
        vec!["Vietnam", "3055000"],
    ])?);

    // Run the technical pipeline once to see what the user faces.
    let result = ver.run(&spec)?;
    println!(
        "{} candidate views survive distillation — too many to eyeball",
        result.distill.survivors_c2.len()
    );
    let target = *result
        .distill
        .survivors_c2
        .last()
        .expect("population query yields candidates");
    println!("(the simulated user secretly wants view {target})");

    // User A: answers anything (oracle).
    let mut oracle = OracleUser::new(target);
    let (_, outcome) = ver.run_interactive(&spec, &mut oracle)?;
    report("oracle user", &outcome);

    // User B: can answer dataset and pair questions, never summaries.
    let mut probs = FxHashMap::default();
    probs.insert(InterfaceKind::Dataset, 0.9);
    probs.insert(InterfaceKind::Attribute, 0.5);
    probs.insert(InterfaceKind::DatasetPair, 0.9);
    probs.insert(InterfaceKind::Summary, 0.05);
    let mut persona = PersonaUser::with_profile(target, probs, 0.02, 7);
    let (_, outcome) = ver.run_interactive(&spec, &mut persona)?;
    report("selective persona", &outcome);

    // User C: barely engages — the session must degrade gracefully.
    let mut shy = PersonaUser::uniform(target, 0.15, 0.0, 11);
    let (_, outcome) = ver.run_interactive(&spec, &mut shy)?;
    report("shy persona", &outcome);
    Ok(())
}

fn report(label: &str, outcome: &SessionOutcome) {
    match outcome {
        SessionOutcome::Found { view, interactions } => {
            println!("{label}: found {view} after {interactions} interaction(s)");
        }
        SessionOutcome::Exhausted {
            ranked,
            interactions,
        } => {
            println!(
                "{label}: gave up after {interactions} interaction(s); \
                 top-ranked candidates: {:?}",
                &ranked[..ranked.len().min(3)]
            );
        }
    }
}
