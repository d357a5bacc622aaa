//! Self-test of the benchmark on shrunken workloads. Run it optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::bench::{self, Config, END_TO_END, PER_LAYER};
use perfbench::workloads::{run_rep, Sizes, Workload, RUN};

const SEED: u64 = 7;

fn config(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: SEED,
        seconds: 0.0,
        trace,
        sizes: Sizes::SMALL,
        threads: 2,
        golden: None,
    }
}

/// Every named metric appears once, in order, with its unit and a finite
/// value; and the result line carries exactly the four keys.
fn assert_emits(out: &bench::Outcome, names: &[(&str, &str)]) {
    assert!(out.correct(), "failures: {:?}", out.failures);
    assert!(out.attempted >= 1);
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
    assert_eq!(got, names);
    for (name, value, _) in &out.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    let json = out.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    for (name, unit) in names {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(
            json.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for w in Workload::ALL {
        let mut setup = || bench::setup_median(w, &Sizes::SMALL, SEED);
        assert_emits(&bench::run(&config(w, false), &mut setup), &END_TO_END);
        let traced = bench::run(&config(w, true), &mut setup);
        assert_emits(&traced, &PER_LAYER);
        for (name, _, _) in &traced.metrics {
            if name.ends_with("_s") && !name.starts_with("reactive.") {
                assert!(
                    traced.metric(name).unwrap() > 0.0,
                    "{} on {}: a layer time of zero",
                    name,
                    w.name()
                );
            }
        }
    }
}

#[test]
fn digests_do_not_depend_on_the_thread_count() {
    for w in Workload::ALL {
        let one = run_rep(w, &Sizes::SMALL, SEED, 1, false);
        let two = run_rep(w, &Sizes::SMALL, SEED, 2, false);
        assert!(one.failures.is_empty(), "{:?}", one.failures);
        assert_eq!(one.outputs(), two.outputs(), "{}", w.name());
    }
}

#[test]
fn tracing_changes_no_simulated_count() {
    for w in Workload::ALL {
        let plain = run_rep(w, &Sizes::SMALL, SEED, 2, false);
        let traced = run_rep(w, &Sizes::SMALL, SEED, 2, true);
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(plain.outputs(), traced.outputs(), "{}", w.name());
        assert_eq!(plain.units, traced.units, "{}", w.name());
        let t = traced.traced.expect("a traced rep records spans");
        assert_eq!(t.monitors.observe.calls, traced.frames, "{}", w.name());
        assert!(plain.traced.is_none());
    }
}

#[test]
fn seeds_change_the_inputs() {
    for w in Workload::ALL {
        let a = run_rep(w, &Sizes::SMALL, 1, 2, false);
        let b = run_rep(w, &Sizes::SMALL, 2, 2, false);
        assert_ne!(a.digest, b.digest, "{}", w.name());
    }
}

#[test]
fn a_failed_run_check_fails_every_unit_of_the_rep() {
    let mut rep = run_rep(Workload::DagLockstep, &Sizes::SMALL, SEED, 2, false);
    assert_eq!(rep.failed_units(), 0);
    rep.fail("machine #0", "one shard".into());
    assert_eq!(rep.failed_units(), 1);
    rep.fail(RUN, "wrong digest".into());
    assert_eq!(rep.failed_units(), rep.units);
}
