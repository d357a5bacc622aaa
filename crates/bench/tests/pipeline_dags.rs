//! Property harness for dependency-driven scenario DAGs: hundreds of
//! seeded [`random_dag`] scripts driven through the live stack, each
//! checked for the three core invariants of the trigger engine:
//!
//! * **exact firing** — every dependent stage starts *exactly* `delay`
//!   after its dependency exits (the generator keeps delays above the
//!   scheduler epoch, so the ≥ of the general contract tightens to ==);
//! * **no orphans** — every declared stage spawns and runs to completion;
//! * **insertion-order shuffle invariance** — re-declaring the dependency
//!   edges in a different order produces the identical execution, stage
//!   for stage, instant for instant (whenever the baseline run has no
//!   same-instant spawns, where declaration order is the documented
//!   tie-break).
//!
//! The bulk of the sweep runs single-machine sessions (the Session's
//! native resolution); a second, smaller sweep drives three-machine
//! clusters through the round driver and checks the same exactness
//! cross-machine.

use tiptop_bench::experiments::pipelines::cluster_for;
use tiptop_core::scenario::Scenario;
use tiptop_kernel::kernel::ExitRecord;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::config::MachineConfig;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_workloads::pipelines::{random_dag, PipelineScript, Stage};

const USER: Uid = Uid(1004);

/// Build a single-machine scenario from a script, declaring the dependency
/// edges in the order given by `edge_order` (indices into `stages`; roots
/// are always declared first, in script order).
fn single_machine(script: &PipelineScript, seed: u64, edge_order: &[usize]) -> Scenario {
    let mut sc = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(seed)
        .user(USER, "grid");
    for st in script.stages.iter().filter(|st| st.dep.is_none()) {
        sc = sc.spawn_at(
            SimTime::ZERO + st.start,
            &st.tag,
            SpawnSpec::new(&st.tag, USER, st.program.clone()).seed(st.seed),
        );
    }
    for &i in edge_order {
        let st: &Stage = &script.stages[i];
        let (dep, delay) = st
            .dep
            .as_ref()
            .expect("edge_order indexes dependent stages");
        sc = sc.spawn_after(
            dep,
            *delay,
            &st.tag,
            SpawnSpec::new(&st.tag, USER, st.program.clone()).seed(st.seed),
        );
    }
    sc
}

/// Run a single-machine scenario to quiescence and return every stage's
/// exit record, in script order.
fn drive(script: &PipelineScript, seed: u64, edge_order: &[usize]) -> Vec<ExitRecord> {
    let mut session = single_machine(script, seed, edge_order)
        .build()
        .expect("random DAGs validate at build");
    // Roots start within 300 ms, chains are ≤ 6 stages of ≤ 225 ms delay
    // plus ≤ ~30 ms of work each: 4 s drains everything.
    session
        .advance_to(SimTime::from_secs(4))
        .expect("advance to quiescence");
    script
        .stages
        .iter()
        .map(|st| {
            let pid = session
                .pid(&st.tag)
                .unwrap_or_else(|| panic!("orphan: '{}' never spawned", st.tag));
            session
                .kernel()
                .exit_record(pid)
                .unwrap_or_else(|| panic!("orphan: '{}' never exited", st.tag))
                .clone()
        })
        .collect()
}

/// Check the exact-firing invariant of one run against its script.
fn assert_exact_firing(script: &PipelineScript, records: &[ExitRecord]) {
    for (i, st) in script.stages.iter().enumerate() {
        let Some((dep, delay)) = &st.dep else {
            assert_eq!(
                records[i].start_time,
                SimTime::ZERO + st.start,
                "root '{}' must start at its scripted instant",
                st.tag
            );
            continue;
        };
        let d = script
            .stages
            .iter()
            .position(|s| &s.tag == dep)
            .expect("dependencies point at script stages");
        // The general contract is start >= exit + delay; with every delay
        // above the scheduler epoch it is exact.
        assert_eq!(
            records[i].start_time,
            records[d].end_time + *delay,
            "'{}' must start exactly {delay:?} after '{dep}' exits",
            st.tag
        );
    }
}

#[test]
fn random_dags_fire_exactly_with_no_orphans_across_200_seeds() {
    for seed in 0..200u64 {
        let script = random_dag(seed, 6, 1);
        let edge_order: Vec<usize> = (0..script.stages.len())
            .filter(|&i| script.stages[i].dep.is_some())
            .collect();
        let records = drive(&script, 1000 + seed, &edge_order);
        assert_exact_firing(&script, &records);
    }
}

#[test]
fn random_dag_execution_is_invariant_under_edge_declaration_shuffles() {
    let mut checked = 0usize;
    for seed in 0..120u64 {
        let script = random_dag(seed, 6, 1);
        let edges: Vec<usize> = (0..script.stages.len())
            .filter(|&i| script.stages[i].dep.is_some())
            .collect();
        if edges.len() < 2 {
            continue;
        }
        let baseline = drive(&script, 1000 + seed, &edges);
        // Declaration order is the documented tie-break for same-instant
        // events; only runs with all-distinct spawn instants promise
        // shuffle invariance.
        let mut starts: Vec<SimTime> = baseline.iter().map(|r| r.start_time).collect();
        starts.sort();
        starts.dedup();
        if starts.len() != baseline.len() {
            continue;
        }
        checked += 1;
        // Two deterministic shuffles: reversed, and rotated by one.
        let reversed: Vec<usize> = edges.iter().rev().copied().collect();
        let mut rotated = edges.clone();
        rotated.rotate_left(1);
        for (label, order) in [("reversed", &reversed), ("rotated", &rotated)] {
            let shuffled = drive(&script, 1000 + seed, order);
            for (a, b) in baseline.iter().zip(&shuffled) {
                assert_eq!(
                    (a.start_time, a.end_time, a.total_instructions),
                    (b.start_time, b.end_time, b.total_instructions),
                    "seed {seed}: {label} edge order changed '{}'",
                    a.comm
                );
            }
        }
    }
    assert!(
        checked >= 60,
        "the sweep must actually exercise the invariant ({checked} seeds checked)"
    );
}

#[test]
fn random_dag_clusters_fire_exactly_through_the_lockstep_driver() {
    use tiptop_core::app::{Tiptop, TiptopOptions};
    use tiptop_core::cluster::ClusterCollectSink;
    use tiptop_core::config::ScreenConfig;

    for seed in 0..12u64 {
        let script = random_dag(10_000 + seed, 8, 3);
        let mut session = cluster_for(&script, 1000 + seed)
            .build()
            .expect("random DAGs validate at cluster build");
        let tool = || {
            Tiptop::new(
                TiptopOptions::default()
                    .observer(Uid::ROOT)
                    .delay(SimDuration::from_secs_f64(0.5)),
                ScreenConfig::default_screen(),
            )
        };
        session
            .run(
                2,
                10,
                |_| vec![(Box::new(tool()), None)],
                &mut [],
                &mut ClusterCollectSink::new(),
            )
            .expect("cluster run");
        let records: Vec<ExitRecord> = script
            .stages
            .iter()
            .map(|st| {
                let shard = session
                    .session(&format!("node-{}", st.machine))
                    .expect("shard survived");
                let pid = shard
                    .pid(&st.tag)
                    .unwrap_or_else(|| panic!("orphan: '{}' never spawned", st.tag));
                shard
                    .kernel()
                    .exit_record(pid)
                    .unwrap_or_else(|| panic!("orphan: '{}' never exited", st.tag))
                    .clone()
            })
            .collect();
        assert_exact_firing(&script, &records);
    }
}
