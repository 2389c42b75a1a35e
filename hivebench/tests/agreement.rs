//! Oracle-vs-engine agreement for each workload at a tiny scale: every
//! statement of a short run, untraced and traced (decomposed path plus
//! `execute`), must match the workload's oracle.

use hivebench::churn::Churn;
use hivebench::lookup::Lookup;
use hivebench::olap::Olap;
use hivebench::run::{run, Outcome};
use hivebench::workload::Workload;

fn check(w: &mut dyn Workload, traced: bool) -> Outcome {
    let out = run(w, 0.5, traced, 11).expect("run completes");
    assert_eq!(out.failed, 0, "wrong answers: {:#?}", out.notes);
    assert!(out.attempted > w.classes().len() as u64);
    assert_eq!(out.overfull_statements, 0);
    for m in &out.end_to_end {
        assert!(
            !m.value.is_nan() || m.name.ends_with("tail_ms"),
            "{} is NaN",
            m.name
        );
    }
    out
}

#[test]
fn olap_scan_matches_its_oracle() {
    check(&mut Olap::new(11, 0.002), false);
    let out = check(&mut Olap::new(12, 0.002), true);
    assert!(out.spans.iter().any(|s| s.name == "mapreduce.run_dag"));
    assert_eq!(out.per_layer.len(), 29);
}

#[test]
fn interactive_lookup_matches_its_closed_form() {
    check(&mut Lookup::new(11, 2_000, 2), false);
    check(&mut Lookup::new(12, 2_000, 2), true);
}

#[test]
fn acid_churn_matches_its_model() {
    check(&mut Churn::new(11, 500), false);
    let out = check(&mut Churn::new(12, 500), true);
    let writes = out.spans.iter().filter(|s| s.name == "core.update").count();
    assert!(writes > 0, "the traced run must time updates");
}
