//! Determinism self-test: two runs on one seed give identical answers and
//! identical per-layer counts, so count-based claims rest on counts that
//! repeat exactly. Run with `cargo test --release` from this directory.

use perfbench::workload::Workload;
use perfbench::{run, Options, RunReport, DEFAULT_DATA_SEED};

fn one_pass(workload: Workload, seed: u64) -> RunReport {
    let report = run(&Options {
        workload,
        seed,
        data_seed: DEFAULT_DATA_SEED,
        seconds: 0.0,
        trace: false,
        max_passes: Some(1),
    })
    .expect("run");
    assert!(report.correct(), "{workload:?}: {:?}", report.errors);
    report
}

fn assert_repeats(workload: Workload) {
    let a = one_pass(workload, 5);
    let b = one_pass(workload, 5);
    assert_eq!(a.counts, b.counts, "{workload:?}: per-layer counts differ");
    assert!(a.counts.ops > 0);
    assert_eq!(a.answers.len(), b.answers.len());
    for ((na, x), (nb, y)) in a.answers.iter().zip(&b.answers) {
        assert_eq!(na, nb);
        assert!(x.same_as(y), "{workload:?} {na}: {x:?} != {y:?}");
    }
}

#[test]
fn search_conc_repeats_exactly() {
    assert_repeats(Workload::SearchConc);
}

#[test]
fn search_reveng_repeats_exactly() {
    assert_repeats(Workload::SearchReveng);
}

#[test]
fn churn_refresh_repeats_exactly() {
    assert_repeats(Workload::ChurnRefresh);
}

#[test]
fn answers_and_counts_do_not_depend_on_the_order_seed() {
    for workload in [Workload::SearchConc, Workload::ChurnRefresh] {
        let a = one_pass(workload, 1);
        let b = one_pass(workload, 2);
        assert_eq!(a.counts, b.counts, "{workload:?}");
        assert_eq!(a.answers.len(), b.answers.len());
        for ((na, x), (nb, y)) in a.answers.iter().zip(&b.answers) {
            assert_eq!(na, nb);
            assert!(x.same_as(y), "{workload:?} {na}: {x:?} != {y:?}");
        }
    }
}
