//! Smoke-size runs of every workload: the traced rep must not change the
//! simulation, seeds must matter and repeat, and the result object must
//! carry exactly the metric names `BENCHMARK.json` lists.

use std::collections::BTreeSet;

use rolpbench::report::{end_to_end, per_layer, result_json};
use rolpbench::trace::Tracer;
use rolpbench::workloads::{run_rep, Pooled, Size, WorkloadId};

fn untraced(id: WorkloadId, seed: u64) -> u64 {
    let rep = run_rep(id, seed, Size::Smoke, true, None);
    assert!(rep.failures.is_empty(), "{}: {:?}", id.name(), rep.failures);
    rep.fingerprint
}

#[test]
fn decorated_rep_matches_undecorated() {
    for id in WorkloadId::ALL {
        let tracer = Tracer::new(0.0);
        let traced = run_rep(id, 7, Size::Smoke, true, Some(&tracer));
        assert!(traced.failures.is_empty(), "{}: {:?}", id.name(), traced.failures);
        assert_eq!(
            traced.fingerprint,
            untraced(id, 7),
            "{}: decorators changed the run",
            id.name()
        );
        let times = tracer.times();
        assert!(times.tick.calls > 0 && times.cycles > 0, "{}: nothing traced", id.name());
        // Decisions must have been published, or a decorator that breaks
        // pretenuring would go unnoticed.
        let rolp = id != WorkloadId::CassandraWiG1;
        assert_eq!(times.epoch.calls > 0, rolp, "{}: inference epochs", id.name());
    }
}

#[test]
fn seeds_change_the_run_and_repeat() {
    for id in WorkloadId::ALL {
        let a = untraced(id, 1);
        assert_eq!(a, untraced(id, 1), "{}: seed 1 does not repeat", id.name());
        assert_ne!(a, untraced(id, 2), "{}: seeds 1 and 2 give the same run", id.name());
    }
}

/// The `"name"` values of one metric list in `BENCHMARK.json`.
fn listed_names(json: &str, list: &str) -> BTreeSet<String> {
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..];
    let body = &body[body.find('[').expect("list opens")..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

/// The metric names of a result object.
fn result_names(json: &str) -> BTreeSet<String> {
    let is_name = |s: &&str| {
        !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
    };
    json.split("\": {\"value\"")
        .filter_map(|s| s.rsplit('"').next())
        .filter(is_name)
        .map(str::to_string)
        .collect()
}

#[test]
fn result_names_match_benchmark_json() {
    let listed = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    for id in [WorkloadId::CassandraWiG1, WorkloadId::ServedFlipRolp] {
        let reps = [run_rep(id, 3, Size::Smoke, false, None)];
        let e2e = end_to_end(&Pooled::of(id, &[&reps[0].sim]), &reps, &[reps[0].setup_s]);
        let tracer = Tracer::new(0.0);
        let traced = run_rep(id, 3, Size::Smoke, false, Some(&tracer));
        let layers = per_layer(id, &reps, &traced, &tracer.times(), 0.0);
        for (list, metrics) in [("end_to_end", &e2e), ("per_layer", &layers)] {
            let json = result_json(true, 1, 0, &[(id, metrics)], false);
            assert_eq!(result_names(&json), listed_names(&listed, list), "{}: {list}", id.name());
            assert_eq!(metrics.len(), result_names(&json).len(), "{}: duplicate names", id.name());
        }
    }
}
