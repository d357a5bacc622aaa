//! Checkpoint/restore contract tests: a resume-mode migration chain
//! conserves the job's retired instruction count no matter how the hops
//! are arranged — onward moves, round trips (`A→B→A`), random chains —
//! and per-machine incarnation addressing never lets two live
//! incarnations of one tag coexist.

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{ClusterCollectSink, ClusterFrame, ClusterScenario};
use tiptop_core::config::ScreenConfig;
use tiptop_core::scenario::{Scenario, SessionError};
use tiptop_kernel::program::Program;
use tiptop_kernel::sched::CpuSet;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::access::MemoryBehavior;
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_machine::topology::PuId;

/// Exactly 20e9 instructions: ~5.3s of work on the W3550, so hops at
/// 1..=4s land while the job is still running.
const JOB_INSNS: u64 = 20_000_000_000;

fn job() -> Program {
    Program::single(
        ExecProfile::builder("job")
            .base_cpi(0.8)
            .branches(0.18, 0.0)
            .memory(MemoryBehavior::uniform(16 * 1024))
            .build(),
        JOB_INSNS,
    )
}

fn node(seed: u64) -> Scenario {
    Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(seed)
        .user(Uid(1), "u1")
}

fn tool(delay_s: u64) -> Box<Tiptop> {
    Box::new(Tiptop::new(
        TiptopOptions::default()
            .observer(Uid::ROOT)
            .delay(SimDuration::from_secs(delay_s)),
        ScreenConfig::default_screen(),
    ))
}

fn rendered(frames: &[ClusterFrame]) -> String {
    frames
        .iter()
        .map(|cf| {
            format!(
                "[{} #{} {}]\n{}",
                cf.machine,
                cf.seq,
                cf.source,
                cf.frame.render()
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// What an unmigrated run retires: the whole program, by construction.
fn baseline_total() -> u64 {
    let mut session = node(1)
        .spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(5))
        .build()
        .unwrap();
    let mut tool = Tiptop::new(
        TiptopOptions::default()
            .observer(Uid::ROOT)
            .delay(SimDuration::from_secs(1)),
        ScreenConfig::default_screen(),
    );
    let _ = session.run(&mut tool, 7).unwrap();
    let rec = session
        .kernel()
        .exit_record(session.pid("job").unwrap())
        .expect("unmigrated job finishes within 7s");
    rec.total_instructions
}

#[test]
fn resume_round_trip_conserves_instructions_and_is_byte_identical() {
    // A→B→A: the job leaves home at 2s, comes back at 4s, and still
    // finishes as one program — the second incarnation on node-a reports
    // the whole job's totals.
    let run_at = |threads: usize| {
        let mut session = ClusterScenario::new()
            .machine(
                "node-a",
                node(1).spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(5)),
            )
            .machine("node-b", node(2))
            .resume_at(SimTime::from_secs(2), "job", "node-a", "node-b")
            .resume_at(SimTime::from_secs(4), "job", "node-b", "node-a")
            .build()
            .unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(threads, 7, |_| vec![(tool(1), None)], &mut [], &mut sink)
            .unwrap();
        let frames = sink.into_frames();
        (rendered(&frames), session)
    };
    let (golden, session) = run_at(1);

    let a = session.session("node-a").unwrap();
    let b = session.session("node-b").unwrap();
    assert_eq!(
        a.incarnations("job").len(),
        2,
        "home hosts two incarnations"
    );
    assert_eq!(b.incarnations("job").len(), 1);

    // The first two incarnations end exactly at their hop instants; the
    // last one retires the *whole job's* instruction count — conservation.
    let first = a.kernel().exit_record(a.incarnations("job")[0]).unwrap();
    assert_eq!(first.end_time, SimTime::from_secs(2));
    let middle = b.kernel().exit_record(b.incarnations("job")[0]).unwrap();
    assert_eq!(middle.start_time, SimTime::from_secs(2));
    assert_eq!(middle.end_time, SimTime::from_secs(4));
    let last = a.kernel().exit_record(a.incarnations("job")[1]).unwrap();
    assert_eq!(last.start_time, SimTime::from_secs(4));
    assert_eq!(last.total_instructions, JOB_INSNS);
    assert_eq!(last.total_instructions, baseline_total());
    assert!(last.end_time < SimTime::from_secs(7), "finished mid-run");

    assert_eq!(session.handovers().len(), 2);

    // Byte-identical merged streams at 1/2/8 worker threads.
    for threads in [2, 8] {
        let (stream, _) = run_at(threads);
        assert_eq!(golden, stream, "{threads} workers must not change one byte");
    }
}

#[test]
fn random_resume_chains_conserve_instructions_and_never_alias_live_tasks() {
    // Deterministic LCG: random chained-hop scripts over three machines,
    // including round trips, all sharing one invariant pair — the final
    // incarnation retires exactly the unmigrated total, and at no instant
    // do two incarnations of the tag live at once.
    let machines = ["node-a", "node-b", "node-c"];
    let expected = baseline_total();
    let mut state: u64 = 0x5eed_cafe_f00d_1234;
    let mut next = |m: u64| -> u64 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % m
    };
    for script in 0..5 {
        let hops = 1 + next(4) as usize; // 1..=4 hops at 1s, 2s, ...
        let mut cluster = ClusterScenario::new()
            .machine(
                machines[0],
                node(1).spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(5)),
            )
            .machine(machines[1], node(2))
            .machine(machines[2], node(3));
        let mut at_home = 0usize;
        let mut path = vec![at_home];
        for hop in 0..hops {
            let to = {
                let step = 1 + next(machines.len() as u64 - 1) as usize;
                (at_home + step) % machines.len()
            };
            cluster = cluster.resume_at(
                SimTime::from_secs(1 + hop as u64),
                "job",
                machines[at_home],
                machines[to],
            );
            at_home = to;
            path.push(to);
        }
        let mut session = cluster
            .build()
            .unwrap_or_else(|e| panic!("script {script} path {path:?}: {e:?}"));
        session
            .run(
                2,
                7,
                |_| vec![(tool(1), None)],
                &mut [],
                &mut ClusterCollectSink::new(),
            )
            .unwrap_or_else(|e| panic!("script {script} path {path:?}: {e:?}"));

        // Conservation: the final incarnation's exit record equals the
        // unmigrated run's retired total.
        let home = session.session(machines[at_home]).unwrap();
        let pid = *home.incarnations("job").last().unwrap();
        let exit = home
            .kernel()
            .exit_record(pid)
            .unwrap_or_else(|| panic!("script {script} path {path:?}: job unfinished"));
        assert_eq!(exit.total_instructions, expected, "path {path:?}");

        // No aliasing: collect every incarnation's [start, end) lifetime
        // across all machines; sorted, they must tile without overlap.
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for m in machines {
            let s = session.session(m).unwrap();
            for &pid in s.incarnations("job") {
                let rec = s.kernel().exit_record(pid).unwrap();
                spans.push((rec.start_time.as_nanos(), rec.end_time.as_nanos()));
            }
        }
        assert_eq!(spans.len(), hops + 1, "one incarnation per hop + origin");
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "path {path:?}: incarnations {pair:?} alias — two live at once"
            );
        }
    }
}

#[test]
fn incarnation_addressing_rejects_aliasing_and_dead_sources_at_build() {
    let base = || {
        ClusterScenario::new()
            .machine(
                "node-a",
                node(1).spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(5)),
            )
            .machine(
                "node-b",
                node(2).spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(6)),
            )
    };

    // Destination already carries a live incarnation of the tag: the hop
    // would alias two live tasks under one address — rejected by the
    // destination's own schedule walk.
    let err = base()
        .resume_at(SimTime::from_secs(2), "job", "node-a", "node-b")
        .build()
        .unwrap_err();
    match err {
        SessionError::Shard { machine, error } => {
            assert_eq!(machine, "node-b");
            let msg = error.to_string();
            assert!(msg.contains("duplicate spawn tag 'job'"), "{msg}")
        }
        other => panic!("expected a node-b Shard error, got {other:?}"),
    }

    // After node-b's own incarnation dies, the same hop validates: the
    // address is free again.
    ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(5)),
        )
        .machine(
            "node-b",
            node(2)
                .spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(6))
                .kill_at(SimTime::from_secs(1), "job"),
        )
        .resume_at(SimTime::from_secs(2), "job", "node-a", "node-b")
        .build()
        .expect("dead incarnation frees the address");

    // A hop out of a machine whose incarnation is already gone names a
    // dead source — rejected by the source's walk, with the kill instant.
    let err = ClusterScenario::new()
        .machine(
            "node-a",
            node(1)
                .spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(5))
                .kill_at(SimTime::from_secs(1), "job"),
        )
        .machine("node-b", node(2))
        .resume_at(SimTime::from_secs(2), "job", "node-a", "node-b")
        .build()
        .unwrap_err();
    match err {
        SessionError::Shard { machine, error } => {
            assert_eq!(machine, "node-a");
            let msg = error.to_string();
            assert!(msg.contains("follows its kill at"), "{msg}")
        }
        other => panic!("expected a node-a Shard error, got {other:?}"),
    }

    // Two resume hops of one tag cannot share an instant: both would key
    // the same checkpoint slot on the handoff board.
    let err = ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(5)),
        )
        .machine("node-b", node(2))
        .machine("node-c", node(3))
        .resume_at(SimTime::from_secs(2), "job", "node-a", "node-b")
        .resume_at(SimTime::from_secs(2), "job", "node-b", "node-c")
        .build()
        .unwrap_err();
    match err {
        SessionError::InvalidScenario(msg) => {
            assert!(msg.contains("shares this instant"), "{msg}")
        }
        other => panic!("expected InvalidScenario, got {other:?}"),
    }
}

#[test]
fn a_scripted_resume_onto_a_machine_without_the_pinned_pu_builds_and_runs() {
    // The job is pinned to PU 6, which node-b (SMT off: 4 PUs) lacks.
    // Resuming relaxes a pin the destination cannot honour, so the hop
    // builds, and the resumed job finishes on node-b with the whole job's
    // instructions.
    let pinned = SpawnSpec::new("job", Uid(1), job())
        .seed(5)
        .affinity(CpuSet::single(PuId(6)));
    let small = Scenario::new(MachineConfig::nehalem_w3550().without_smt().noiseless())
        .seed(2)
        .user(Uid(1), "u1");
    let mut session = ClusterScenario::new()
        .machine("node-a", node(1).spawn("job", pinned))
        .machine("node-b", small)
        .resume_at(SimTime::from_secs(2), "job", "node-a", "node-b")
        .build()
        .expect("a resume relaxes a pin the destination lacks");
    let mut sink = ClusterCollectSink::new();
    session
        .run(1, 8, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap();
    let b = session.session("node-b").unwrap();
    let exit = b
        .kernel()
        .exit_record(b.pid("job").unwrap())
        .expect("the resumed job finishes on node-b");
    assert_eq!(exit.start_time, SimTime::from_secs(2));
    assert_eq!(exit.total_instructions, JOB_INSNS);
}

#[test]
fn scripted_resume_stream_is_identical_at_1_and_2_threads_under_a_slow_producer() {
    // The producer is expensive to simulate (twelve jobs touching 64 MiB
    // each at random) and the consumer cheap, so at 2 workers the consumer
    // reaches the 2s handoff long before the producer has published. The
    // merged stream must still equal the 1-thread stream, byte for byte:
    // the round driver publishes every checkpoint before its consumer
    // crosses the handoff instant, and advances every machine only to
    // instants where splitting an advance changes nothing.
    let endless = |name: &str, memory: Option<MemoryBehavior>| {
        let profile = ExecProfile::builder(name).base_cpi(0.9).branches(0.18, 0.0);
        let profile = match memory {
            Some(memory) => profile.memory(memory),
            None => profile,
        };
        Program::endless(profile.build())
    };
    let run_at = |threads: usize| {
        let mut producer = node(1).spawn("job", SpawnSpec::new("job", Uid(1), job()).seed(5));
        for i in 0..12u64 {
            let tag = format!("heavy-{i}");
            let program = endless(&tag, Some(MemoryBehavior::uniform(64 * 1024 * 1024)));
            producer = producer.spawn(&tag, SpawnSpec::new(&tag, Uid(1), program).seed(10 + i));
        }
        let mut consumer = node(2);
        for i in 0..11u64 {
            let tag = format!("light-{i}");
            let program = endless(&tag, None);
            consumer = consumer.spawn(&tag, SpawnSpec::new(&tag, Uid(1), program).seed(30 + i));
        }
        let mut session = ClusterScenario::new()
            .machine("node-a", producer)
            .machine("node-b", consumer)
            .resume_at(SimTime::from_secs(2), "job", "node-a", "node-b")
            .build()
            .unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(threads, 5, |_| vec![(tool(1), None)], &mut [], &mut sink)
            .unwrap();
        let frames = sink.into_frames();
        rendered(&frames)
    };
    let golden = run_at(1);
    for attempt in 0..10 {
        assert_eq!(
            golden,
            run_at(2),
            "attempt {attempt}: 2 workers must not change one byte"
        );
    }
}

#[test]
fn same_instant_resume_cycle_is_rejected_at_build() {
    // Two jobs swap machines at one instant: each side would need the
    // other's checkpoint before it could publish its own.
    let err = ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job-a", SpawnSpec::new("job-a", Uid(1), job()).seed(5)),
        )
        .machine(
            "node-b",
            node(2).spawn("job-b", SpawnSpec::new("job-b", Uid(1), job()).seed(6)),
        )
        .resume_at(SimTime::from_secs(2), "job-a", "node-a", "node-b")
        .resume_at(SimTime::from_secs(2), "job-b", "node-b", "node-a")
        .build()
        .unwrap_err();
    match err {
        SessionError::InvalidScenario(msg) => {
            assert!(msg.contains("form a machine cycle"), "{msg}")
        }
        other => panic!("expected InvalidScenario, got {other:?}"),
    }

    // The same swap staggered across two instants is a chain, not a cycle.
    ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job-a", SpawnSpec::new("job-a", Uid(1), job()).seed(5)),
        )
        .machine(
            "node-b",
            node(2).spawn("job-b", SpawnSpec::new("job-b", Uid(1), job()).seed(6)),
        )
        .resume_at(SimTime::from_secs(2), "job-a", "node-a", "node-b")
        .resume_at(SimTime::from_secs(3), "job-b", "node-b", "node-a")
        .build()
        .expect("staggered hops validate");
}

#[test]
fn same_instant_resume_chain_publishes_in_topological_order() {
    // At 2s job-b leaves node-b for node-c while job-a arrives on node-b
    // from node-a. node-b must take job-a's checkpoint only after node-a
    // published it, whatever order the hops were declared in.
    let run_at = |threads: usize| {
        let mut session = ClusterScenario::new()
            .machine(
                "node-a",
                node(1).spawn("job-a", SpawnSpec::new("job-a", Uid(1), job()).seed(5)),
            )
            .machine(
                "node-b",
                node(2).spawn("job-b", SpawnSpec::new("job-b", Uid(1), job()).seed(6)),
            )
            .machine("node-c", node(3))
            .resume_at(SimTime::from_secs(2), "job-b", "node-b", "node-c")
            .resume_at(SimTime::from_secs(2), "job-a", "node-a", "node-b")
            .build()
            .unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(threads, 7, |_| vec![(tool(1), None)], &mut [], &mut sink)
            .unwrap();
        let frames = sink.into_frames();
        (rendered(&frames), session)
    };
    let (golden, session) = run_at(1);
    for (tag, home) in [("job-a", "node-b"), ("job-b", "node-c")] {
        let s = session.session(home).unwrap();
        let rec = s.kernel().exit_record(s.pid(tag).unwrap()).unwrap();
        assert_eq!(rec.start_time, SimTime::from_secs(2), "{tag} resumed at 2s");
        assert_eq!(
            rec.total_instructions, JOB_INSNS,
            "{tag} retired the whole job"
        );
    }
    for threads in [2, 8] {
        assert_eq!(
            golden,
            run_at(threads).0,
            "{threads} workers must not change one byte"
        );
    }
}
