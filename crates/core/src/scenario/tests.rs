use super::*;
use crate::app::{Tiptop, TiptopOptions};
use crate::config::ScreenConfig;
use tiptop_kernel::errno::Errno;
use tiptop_kernel::program::Program;
use tiptop_kernel::sched::CpuSet;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::access::MemoryBehavior;
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_machine::topology::PuId;

fn spin() -> Program {
    Program::endless(
        ExecProfile::builder("spin")
            .base_cpi(0.8)
            .branches(0.18, 0.0)
            .memory(MemoryBehavior::uniform(16 * 1024))
            .build(),
    )
}

/// A program that retires `insns` instructions and exits.
fn burst(insns: u64) -> Program {
    Program::single(
        ExecProfile::builder("burst")
            .base_cpi(0.8)
            .memory(MemoryBehavior::uniform(16 * 1024))
            .build(),
        insns,
    )
}

fn base() -> Scenario {
    Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(9)
        .user(Uid(1), "u1")
}

fn tool(delay_s: u64) -> Tiptop {
    Tiptop::new(
        TiptopOptions::default().delay(SimDuration::from_secs(delay_s)),
        ScreenConfig::default_screen(),
    )
}

#[test]
fn build_resolves_t0_spawns_immediately() {
    let session = base()
        .spawn("a", SpawnSpec::new("a", Uid(1), spin()))
        .spawn_at(
            SimTime::from_secs(2),
            "late",
            SpawnSpec::new("late", Uid(1), spin()),
        )
        .build()
        .unwrap();
    assert!(session.pid("a").is_some());
    assert!(session.pid("late").is_none(), "not yet spawned");
    assert_eq!(session.pending_events(), 1);
}

#[test]
fn duplicate_tags_rejected() {
    let err = base()
        .spawn("x", SpawnSpec::new("x", Uid(1), spin()))
        .spawn("x", SpawnSpec::new("x2", Uid(1), spin()))
        .build()
        .unwrap_err();
    assert!(matches!(err, SessionError::InvalidScenario(_)));
    assert!(err.to_string().contains("duplicate"));
}

#[test]
fn unknown_and_premature_events_rejected() {
    let err = base()
        .kill_at(SimTime::from_secs(1), "ghost")
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("unknown tag"));

    let err = base()
        .spawn_at(
            SimTime::from_secs(5),
            "late",
            SpawnSpec::new("late", Uid(1), spin()),
        )
        .kill_at(SimTime::from_secs(1), "late")
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("precedes its spawn"));

    // Same instant, but the kill is declared before the spawn: the
    // stable sort would apply it first, so build() must reject it too.
    let err = base()
        .kill_at(SimTime::from_secs(5), "x")
        .spawn_at(
            SimTime::from_secs(5),
            "x",
            SpawnSpec::new("x", Uid(1), spin()),
        )
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("precedes its spawn"), "got {err}");

    // Declared spawn-then-kill at the same instant is fine.
    assert!(base()
        .spawn_at(
            SimTime::from_secs(5),
            "y",
            SpawnSpec::new("y", Uid(1), spin())
        )
        .kill_at(SimTime::from_secs(5), "y")
        .build()
        .is_ok());
}

#[test]
fn spawn_at_takes_effect_at_the_instant() {
    let mut session = base()
        .spawn_at(
            SimTime::from_secs(3),
            "late",
            SpawnSpec::new("late", Uid(1), spin()),
        )
        .build()
        .unwrap();
    session.advance_to(SimTime::from_secs(2)).unwrap();
    assert!(session.pid("late").is_none());
    session.advance_to(SimTime::from_secs(3)).unwrap();
    let pid = session.pid("late").expect("spawned exactly at t=3");
    // It must not have run before t=3: lifetime CPU ≤ elapsed-since-3.
    session.advance_to(SimTime::from_secs(4)).unwrap();
    let st = session.kernel().stat(pid).unwrap();
    assert_eq!(st.start_time, SimTime::from_secs(3));
    assert!(st.cpu_time().as_secs_f64() <= 1.0 + 1e-9);
}

#[test]
fn kill_of_already_exited_task_is_typed_error() {
    let mut session = base()
        .spawn(
            "short",
            SpawnSpec::new(
                "short",
                Uid(1),
                Program::single(ExecProfile::builder("s").base_cpi(0.8).build(), 1_000_000),
            ),
        )
        .kill_at(SimTime::from_secs(5), "short")
        .build()
        .unwrap();
    // The program retires 1M instructions in well under a second; the
    // kill at t=5 hits a tombstone.
    let err = session.advance_to(SimTime::from_secs(6)).unwrap_err();
    assert!(
        matches!(
            err,
            SessionError::Syscall {
                call: "kill",
                errno: Errno::ESRCH,
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn run_matches_manual_loop_shape() {
    let mut session = base()
        .spawn("spin", SpawnSpec::new("spin", Uid(1), spin()))
        .build()
        .unwrap();
    let mut t = tool(1);
    let frames = session.run(&mut t, 3).unwrap();
    assert_eq!(frames.len(), 3);
    assert_eq!(frames[0].time.as_secs_f64(), 1.0);
    assert_eq!(frames[2].time.as_secs_f64(), 3.0);
    session.teardown(&mut t);
    assert_eq!(
        session.kernel().open_fds(Uid::ROOT),
        0,
        "teardown closes fds"
    );
}

#[test]
fn run_until_stops_on_predicate() {
    let mut session = base()
        .spawn("spin", SpawnSpec::new("spin", Uid(1), spin()))
        .build()
        .unwrap();
    let frames = session
        .run_until(&mut tool(1), 100, |f| f.time.as_secs_f64() >= 2.0)
        .unwrap();
    assert_eq!(frames.len(), 2);
}

#[test]
fn monitors_with_different_intervals_interleave() {
    let mut session = base()
        .spawn("spin", SpawnSpec::new("spin", Uid(1), spin()))
        .build()
        .unwrap();
    let mut fast = tool(1);
    let mut slow = tool(3);
    let mut times: Vec<(String, f64)> = Vec::new();
    let mut sink = |source: &str, frame: crate::render::Frame| {
        times.push((source.to_string(), frame.time.as_secs_f64()));
    };
    session
        .run_all(&mut [&mut fast, &mut slow], 3, &mut sink)
        .unwrap();
    // fast at 1,2,3; slow at 3,6,9 — same-instant order follows slices.
    let expect = [
        ("tiptop", 1.0),
        ("tiptop", 2.0),
        ("tiptop", 3.0),
        ("tiptop", 3.0),
        ("tiptop", 6.0),
        ("tiptop", 9.0),
    ];
    assert_eq!(times.len(), expect.len());
    for ((_, got), (_, want)) in times.iter().zip(expect.iter()) {
        assert_eq!(got, want);
    }
}

#[test]
fn zero_interval_monitor_rejected() {
    let mut session = base()
        .spawn("spin", SpawnSpec::new("spin", Uid(1), spin()))
        .build()
        .unwrap();
    let err = session.run(&mut tool(0), 1).unwrap_err();
    assert!(matches!(err, SessionError::InvalidScenario(_)));
}

// ---------------------------------------------------------------------
// Dependency triggers
// ---------------------------------------------------------------------

#[test]
fn spawn_after_fires_at_exit_plus_delay() {
    let mut session = base()
        .spawn("a", SpawnSpec::new("a", Uid(1), burst(50_000_000)))
        .spawn_after(
            "a",
            SimDuration::from_millis(100),
            "b",
            SpawnSpec::new("b", Uid(1), spin()),
        )
        .build()
        .unwrap();
    assert_eq!(session.deferred_events(), 1);
    session.advance_to(SimTime::from_secs(10)).unwrap();
    let a = session.pid("a").unwrap();
    let b = session.pid("b").expect("b spawned after a's exit");
    let exit = session.kernel().exit_record(a).expect("a exited").end_time;
    let spawn = session.kernel().stat(b).unwrap().start_time;
    let want = exit + SimDuration::from_millis(100);
    assert!(
        spawn >= want,
        "b spawned at {spawn:?}, before a's exit {exit:?} + 100ms"
    );
    // The 100ms delay spans several 20ms epochs, so the fire instant is
    // exact, not just a lower bound.
    assert_eq!(spawn, want, "delay >= one epoch resolves exactly");
    assert_eq!(session.deferred_events(), 0);
}

#[test]
fn kill_after_ends_dependent_when_dep_exits() {
    let mut session = base()
        .spawn("a", SpawnSpec::new("a", Uid(1), burst(50_000_000)))
        .spawn("victim", SpawnSpec::new("victim", Uid(1), spin()))
        .kill_after("a", SimDuration::from_millis(40), "victim")
        .build()
        .unwrap();
    session.advance_to(SimTime::from_secs(10)).unwrap();
    let a = session.pid("a").unwrap();
    let victim = session.pid("victim").unwrap();
    assert!(!session.kernel().is_alive(victim), "killed by a's exit");
    let exit = session.kernel().exit_record(a).unwrap().end_time;
    let end = session.kernel().exit_record(victim).unwrap().end_time;
    assert_eq!(end, exit + SimDuration::from_millis(40));
}

#[test]
fn chained_dependencies_fire_in_order() {
    let mut session = base()
        .spawn("s1", SpawnSpec::new("s1", Uid(1), burst(30_000_000)))
        .spawn_after(
            "s1",
            SimDuration::ZERO,
            "s2",
            SpawnSpec::new("s2", Uid(1), burst(30_000_000)),
        )
        .spawn_after(
            "s2",
            SimDuration::ZERO,
            "s3",
            SpawnSpec::new("s3", Uid(1), burst(30_000_000)),
        )
        .build()
        .unwrap();
    session.advance_to(SimTime::from_secs(20)).unwrap();
    // All three stages ran to completion; their records carry exact
    // lifetimes.
    let records: Vec<_> = ["s1", "s2", "s3"]
        .iter()
        .map(|t| {
            let pid = session.pid(t).unwrap_or_else(|| panic!("{t} spawned"));
            session
                .kernel()
                .exit_record(pid)
                .unwrap_or_else(|| panic!("{t} exited"))
                .clone()
        })
        .collect();
    let starts: Vec<SimTime> = records.iter().map(|r| r.start_time).collect();
    assert!(starts[0] < starts[1] && starts[1] < starts[2], "{starts:?}");
    // Every stage waits for the previous stage's exit.
    for w in records.windows(2) {
        assert!(
            w[1].start_time >= w[0].end_time,
            "{} spawned before {} exited",
            w[1].comm,
            w[0].comm
        );
    }
}

#[test]
fn dependency_on_killed_dep_fires_at_kill_instant() {
    // A plain SIGKILL is a completion: the kill instant is exact, so a
    // zero-epoch delay resolves exactly even mid-epoch.
    let kill_at = SimTime::ZERO + SimDuration::from_millis(1_234);
    let mut session = base()
        .spawn("a", SpawnSpec::new("a", Uid(1), spin()))
        .kill_at(kill_at, "a")
        .spawn_after(
            "a",
            SimDuration::from_millis(5),
            "b",
            SpawnSpec::new("b", Uid(1), spin()),
        )
        .build()
        .unwrap();
    session.advance_to(SimTime::from_secs(3)).unwrap();
    let b = session.pid("b").expect("spawned after the kill");
    assert_eq!(
        session.kernel().stat(b).unwrap().start_time,
        kill_at + SimDuration::from_millis(5)
    );
}

#[test]
fn cycle_rejected_with_typed_error() {
    let err = base()
        .spawn_after(
            "b",
            SimDuration::ZERO,
            "a",
            SpawnSpec::new("a", Uid(1), spin()),
        )
        .spawn_after(
            "a",
            SimDuration::ZERO,
            "b",
            SpawnSpec::new("b", Uid(1), spin()),
        )
        .build()
        .unwrap_err();
    match err {
        SessionError::InvalidDag(DagError::Cycle { tags }) => {
            assert_eq!(tags, vec!["a".to_string(), "b".to_string()]);
        }
        other => panic!("expected Cycle, got {other:?}"),
    }
}

#[test]
fn unknown_dependency_rejected_with_typed_error() {
    let err = base()
        .spawn_after(
            "ghost",
            SimDuration::ZERO,
            "b",
            SpawnSpec::new("b", Uid(1), spin()),
        )
        .build()
        .unwrap_err();
    match err {
        SessionError::InvalidDag(DagError::UnknownDependency {
            event_tag,
            dependency,
        }) => {
            assert_eq!(event_tag, "b");
            assert_eq!(dependency, "ghost");
        }
        other => panic!("expected UnknownDependency, got {other:?}"),
    }
}

#[test]
fn dependency_on_checkpoint_killed_tag_rejected() {
    // 'a' is checkpoint-killed (migrated away) and never resumed here: its
    // exit never lands, so after-exit edges on it are dead on arrival.
    let mut scenario = base().spawn("a", SpawnSpec::new("a", Uid(1), spin()));
    scenario = scenario.spawn_after(
        "a",
        SimDuration::ZERO,
        "b",
        SpawnSpec::new("b", Uid(1), spin()),
    );
    scenario.schedule(
        SimTime::from_secs(1),
        WorkloadEvent::CheckpointKill { tag: "a".into() },
    );
    let err = scenario.build().unwrap_err();
    match err {
        SessionError::InvalidDag(DagError::DependencyOnKilled { dependency }) => {
            assert_eq!(dependency, "a");
        }
        other => panic!("expected DependencyOnKilled, got {other:?}"),
    }
}

#[test]
fn timed_event_on_dependent_tag_rejected() {
    let err = base()
        .spawn("a", SpawnSpec::new("a", Uid(1), burst(1_000_000)))
        .spawn_after(
            "a",
            SimDuration::ZERO,
            "b",
            SpawnSpec::new("b", Uid(1), spin()),
        )
        .kill_at(SimTime::from_secs(5), "b")
        .build()
        .unwrap_err();
    assert!(
        matches!(
            err,
            SessionError::InvalidDag(DagError::TimedEventOnDependentTag { .. })
        ),
        "got {err:?}"
    );
}

#[test]
fn same_instant_timed_events_apply_before_resolved_dependents() {
    // 'dep' is killed at exactly t=1s; a same-instant timed spawn of 'c'
    // and a zero-delay dependent 'b' both land at t=1s — the timed event
    // applies first, the resolved dependent after (declaration order of
    // the dependency edges thereafter).
    let kill_at = SimTime::from_secs(1);
    let mut session = base()
        .spawn("dep", SpawnSpec::new("dep", Uid(1), spin()))
        .kill_at(kill_at, "dep")
        .spawn_at(kill_at, "c", SpawnSpec::new("c", Uid(1), spin()))
        .spawn_after(
            "dep",
            SimDuration::ZERO,
            "b",
            SpawnSpec::new("b", Uid(1), spin()),
        )
        .build()
        .unwrap();
    session.advance_to(SimTime::from_secs(2)).unwrap();
    let c = session.pid("c").unwrap();
    let b = session.pid("b").unwrap();
    assert_eq!(session.kernel().stat(c).unwrap().start_time, kill_at);
    assert_eq!(session.kernel().stat(b).unwrap().start_time, kill_at);
    // Same instant, but the timed spawn got the lower pid: it applied
    // first.
    assert!(c.0 < b.0, "timed event applies before resolved dependent");
}

#[test]
fn affinity_allowing_no_pu_is_rejected_for_timed_and_triggered_events() {
    // The Nehalem W3550 has 8 PUs; PU 20 is none of them.
    let outside = CpuSet::single(PuId(20));
    let at = SimTime::from_secs(1);
    let timed = base()
        .spawn("a", SpawnSpec::new("a", Uid(1), burst(1_000_000)))
        .pin_at(at, "a", outside)
        .build()
        .unwrap_err();
    assert_eq!(
        timed,
        SessionError::InvalidScenario(format!(
            "pin for 'a' at {at:?} allows none of the machine's 8 PUs"
        ))
    );
    let triggered = base()
        .spawn("a", SpawnSpec::new("a", Uid(1), burst(1_000_000)))
        .spawn("b", SpawnSpec::new("b", Uid(1), spin()))
        .pin_after("a", SimDuration::ZERO, "b", outside)
        .build()
        .unwrap_err();
    assert_eq!(
        triggered,
        SessionError::InvalidScenario(
            "pin for 'b' (triggered after 'a' exits) allows none of the machine's 8 PUs".into()
        )
    );
}
