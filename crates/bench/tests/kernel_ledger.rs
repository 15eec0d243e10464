//! The kernel ledger is one table: `vcoord_bench::kernel_rows` is what
//! `bench-baseline` times, and the committed `BENCH_smoke.json` is the
//! record `obs-diff` (and the reconcile tooling after it) reads by row
//! name. A row added, renamed or dropped without a re-record fails here.

use std::collections::BTreeSet;
use std::path::Path;
use vcoord::obs::json::parse_json;

#[test]
fn kernel_rows_are_unique_runnable_and_the_committed_record_has_exactly_them() {
    let mut names = BTreeSet::new();
    for mut row in vcoord_bench::kernel_rows() {
        assert!(
            names.insert(row.name),
            "row `{}` is defined twice",
            row.name
        );
        assert!(
            row.divisor.is_finite() && row.divisor > 0.0,
            "row `{}` divides its samples by {}",
            row.name,
            row.divisor
        );
        (row.sample)();
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_smoke.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_smoke.json is readable");
    let record = parse_json(&text).expect("BENCH_smoke.json parses");
    let recorded: BTreeSet<&str> = record
        .get("kernels")
        .and_then(|k| k.as_obj())
        .expect("the record has a \"kernels\" object")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(
        names, recorded,
        "kernel_rows() and the \"kernels\" keys of BENCH_smoke.json differ: re-record it \
         (VCOORD_THREADS=2 bench-baseline --smoke)"
    );
}
