//! Cluster-session contract tests: the merged frame stream is
//! deterministic at any worker-thread count, shard failures surface as
//! typed errors without poisoning the pool, per-machine stop predicates
//! behave like `Session::run_until`, cross-machine migrations hand a job
//! over at one exact instant, per-machine monitor sets interleave
//! deterministically, the window sink bounds buffered frames, and a
//! windowed run delivers exactly the stream of one round per instant.

use tiptop_core::app::{Tiptop, TiptopOptions};
use tiptop_core::cluster::{
    ClusterCollectSink, ClusterFrame, ClusterScenario, ClusterSession, ClusterWindow,
    ClusterWindowSink, MachineRef, Until,
};
use tiptop_core::config::{ColumnSpec, NumFormat, ScreenConfig};
use tiptop_core::monitor::Monitor;
use tiptop_core::reactive::{MigrationDecision, MigrationMode, SchedulerPolicy};
use tiptop_core::render::Frame;
use tiptop_core::scenario::{DagError, Scenario, SessionError};
use tiptop_core::symbols::{self, Label};
use tiptop_kernel::kernel::Kernel;
use tiptop_kernel::program::Program;
use tiptop_kernel::sched::CpuSet;
use tiptop_kernel::task::{SpawnSpec, Uid};
use tiptop_machine::access::MemoryBehavior;
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::time::{SimDuration, SimTime};
use tiptop_machine::topology::PuId;
use tiptop_workloads::pipelines::{random_dag, PIPELINE_USER};

fn spin(cpi: f64) -> Program {
    Program::endless(
        ExecProfile::builder("spin")
            .base_cpi(cpi)
            .branches(0.18, 0.0)
            .memory(MemoryBehavior::uniform(16 * 1024))
            .build(),
    )
}

/// A small heterogeneous cluster: three Nehalem nodes with different seeds
/// and workloads, plus one PPC970 node.
fn cluster() -> ClusterScenario {
    let nehalem = |seed: u64, cpi: f64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
            .spawn("spin", SpawnSpec::new("spin", Uid(1), spin(cpi)).seed(seed))
    };
    let ppc = Scenario::new(MachineConfig::ppc970_machine().noiseless())
        .seed(77)
        .user(Uid(1), "u1")
        .spawn("spin", SpawnSpec::new("spin", Uid(1), spin(1.1)).seed(77));
    ClusterScenario::new()
        .machine("node-0", nehalem(1, 0.8))
        .machine("node-1", nehalem(2, 0.9))
        .machine("node-2", nehalem(3, 1.0))
        .machine("ppc", ppc)
}

fn tool(delay_s: u64) -> Box<Tiptop> {
    Box::new(Tiptop::new(
        TiptopOptions::default()
            .observer(Uid::ROOT)
            .delay(SimDuration::from_secs(delay_s)),
        ScreenConfig::default_screen(),
    ))
}

/// `top`: the tool on a screen that reads no counters.
fn top(delay: SimDuration) -> Box<Tiptop> {
    Box::new(Tiptop::new(
        TiptopOptions::default().delay(delay),
        ScreenConfig::top_screen(),
    ))
}

/// Render the merged stream to bytes: the byte-identity artifact.
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

#[test]
fn merged_stream_is_byte_identical_at_1_2_8_and_16_threads() {
    let run_at = |threads: usize| {
        let mut session = cluster().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(
                threads,
                5,
                |m: MachineRef<'_>| {
                    // Different refresh rates per machine exercise the merge.
                    vec![(tool(if m.index.is_multiple_of(2) { 1 } else { 2 }), None)]
                },
                &mut [],
                &mut sink,
            )
            .unwrap();
        rendered(sink.frames())
    };
    let single = run_at(1);
    assert_eq!(single, run_at(2), "2 workers must not change one byte");
    assert_eq!(single, run_at(8), "8 workers must not change one byte");
    // 16 threads for a 4-machine cluster: more threads than shards, so
    // the pool is clamped to the fleet without stalling or reordering the
    // merge.
    assert_eq!(single, run_at(16), "16 workers must not change one byte");
    assert!(single.contains("[ppc #4 tiptop]"), "every machine finished");
}

#[test]
fn merge_orders_frames_by_time_then_machine_index() {
    let mut session = cluster().build().unwrap();
    let mut sink = ClusterCollectSink::new();
    session
        .run(3, 4, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap();
    let frames = sink.into_frames();
    assert_eq!(frames.len(), 16);
    for w in frames.windows(2) {
        let a = (w[0].frame.time, w[0].machine_index);
        let b = (w[1].frame.time, w[1].machine_index);
        assert!(a <= b, "merge key must be non-decreasing: {a:?} vs {b:?}");
    }
    // Same-instant frames (all monitors tick at 1 s) follow machine order.
    let first_second: Vec<usize> = frames
        .iter()
        .filter(|f| f.frame.time == SimTime::from_secs(1))
        .map(|f| f.machine_index)
        .collect();
    assert_eq!(first_second, vec![0, 1, 2, 3]);
}

#[test]
fn per_machine_until_stops_that_machine_only() {
    let mut session = cluster().build().unwrap();
    let mut sink = ClusterCollectSink::new();
    session
        .run(
            2,
            6,
            |m: MachineRef<'_>| {
                // node-1 stops after its second frame; everyone else runs out
                // the refresh budget.
                let stop_early = m.id == "node-1";
                let mut seen = 0usize;
                let until: Until = Box::new(move |_f: &Frame| {
                    seen += 1;
                    stop_early && seen >= 2
                });
                vec![(tool(1), Some(until))]
            },
            &mut [],
            &mut sink,
        )
        .unwrap();
    let count = |id: &str| sink.frames().iter().filter(|f| f.machine == id).count();
    assert_eq!(count("node-1"), 2, "stopping frame is still delivered");
    assert_eq!(count("node-0"), 6);
    assert_eq!(count("ppc"), 6);
}

/// A monitor that panics on its n-th observation.
struct PanicMonitor {
    inner: Tiptop,
    observations: usize,
    panic_on: usize,
}

impl Monitor for PanicMonitor {
    fn name(&self) -> &str {
        "panic-monitor"
    }

    fn interval(&self) -> SimDuration {
        Monitor::interval(&self.inner)
    }

    fn prime(&mut self, k: &mut Kernel) {
        self.inner.prime(k);
    }

    fn observe(&mut self, k: &mut Kernel) -> Frame {
        self.observations += 1;
        if self.observations == self.panic_on {
            panic!("injected shard failure");
        }
        Monitor::observe(&mut self.inner, k)
    }
}

#[test]
fn panicking_shard_surfaces_as_typed_error_without_poisoning_the_pool() {
    let mut session = cluster().build().unwrap();
    let mut sink = ClusterCollectSink::new();
    let err = session
        .run(
            2,
            4,
            |m: MachineRef<'_>| {
                let monitor: Box<dyn Monitor + Send> = if m.id == "node-1" {
                    Box::new(PanicMonitor {
                        inner: *tool(1),
                        observations: 0,
                        panic_on: 2,
                    })
                } else {
                    tool(1)
                };
                vec![(monitor, None)]
            },
            &mut [],
            &mut sink,
        )
        .unwrap_err();
    match &err {
        SessionError::ShardPanicked { machine, message } => {
            assert_eq!(machine, "node-1");
            assert!(message.contains("injected shard failure"), "{message}");
        }
        other => panic!("expected ShardPanicked, got {other:?}"),
    }
    // The pool survived: every other machine delivered all four frames, and
    // node-1's pre-panic frame still reached the sink.
    let count = |id: &str| sink.frames().iter().filter(|f| f.machine == id).count();
    assert_eq!(count("node-0"), 4);
    assert_eq!(count("node-2"), 4);
    assert_eq!(count("ppc"), 4);
    assert_eq!(
        count("node-1"),
        1,
        "frames observed before the panic stream"
    );
    // The torn shard's session is withheld; the healthy ones are back.
    assert!(session.session("node-1").is_none());
    assert!(session.session("node-0").is_some());
}

#[test]
fn shard_session_error_is_labelled_with_its_machine() {
    // node-1 schedules a kill of a task that exits on its own first: the
    // ESRCH surfaces as Shard{machine: node-1, Syscall}.
    let healthy = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(1)
        .user(Uid(1), "u1")
        .spawn("spin", SpawnSpec::new("spin", Uid(1), spin(0.8)));
    let doomed = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(2)
        .user(Uid(1), "u1")
        .spawn(
            "short",
            SpawnSpec::new(
                "short",
                Uid(1),
                Program::single(ExecProfile::builder("s").base_cpi(0.8).build(), 1_000_000),
            ),
        )
        .kill_at(SimTime::from_secs(2), "short");
    let mut session = ClusterScenario::new()
        .machine("ok", healthy)
        .machine("doomed", doomed)
        .build()
        .unwrap();
    let mut sink = ClusterCollectSink::new();
    let err = session
        .run(2, 4, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap_err();
    match &err {
        SessionError::Shard { machine, error } => {
            assert_eq!(machine, "doomed");
            assert!(
                matches!(**error, SessionError::Syscall { call: "kill", .. }),
                "{error:?}"
            );
        }
        other => panic!("expected Shard, got {other:?}"),
    }
    // A clean SessionError (no panic) hands the session back.
    assert!(session.session("doomed").is_some());
    assert_eq!(
        sink.frames().iter().filter(|f| f.machine == "ok").count(),
        4,
        "healthy machine unaffected"
    );
}

#[test]
fn zero_interval_monitor_is_rejected_without_losing_any_shard() {
    let mut session = cluster().build().unwrap();
    let mut sink = ClusterCollectSink::new();
    // node-2's monitor has a zero refresh interval; the error must leave
    // every shard in place (nothing taken, nothing lost).
    let err = session
        .run(
            2,
            3,
            |m: MachineRef<'_>| vec![(tool(if m.id == "node-2" { 0 } else { 1 }), None)],
            &mut [],
            &mut sink,
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("zero refresh interval"),
        "got {err}"
    );
    assert!(sink.frames().is_empty(), "nothing ran");
    for id in ["node-0", "node-1", "node-2", "ppc"] {
        assert!(session.session(id).is_some(), "{id} must survive the error");
    }
    // And the cluster is still fully runnable afterwards.
    let mut sink = ClusterCollectSink::new();
    session
        .run(2, 2, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap();
    let frames = sink.into_frames();
    assert_eq!(frames.len(), 8);
}

/// A three-node cluster with one migrating job: `job` starts on node-a,
/// the grid scheduler moves it to node-b at t=3 and onward to node-c at
/// t=6.
fn migration_cluster() -> ClusterScenario {
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8)).seed(5)),
        )
        .machine("node-b", node(2))
        .machine("node-c", node(3))
        .migrate_at(SimTime::from_secs(3), "job", "node-a", "node-b")
        .migrate_at(SimTime::from_secs(6), "job", "node-b", "node-c")
}

#[test]
fn migration_hands_over_at_one_instant_and_is_byte_identical_at_1_2_and_8_threads() {
    let run_at = |threads: usize| {
        let mut session = migration_cluster().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(threads, 8, |_| vec![(tool(1), None)], &mut [], &mut sink)
            .unwrap();
        let frames = sink.into_frames();
        (rendered(&frames), frames, session)
    };
    let (golden, frames, session) = run_at(1);

    // Where the job is visible, refresh by refresh: on the source right up
    // to the handover frame (its final row — it ran until the kill), on
    // the destination from the handover frame on.
    let on = |t: u64, machine: &str| {
        frames
            .iter()
            .find(|cf| cf.machine == machine && cf.frame.time == SimTime::from_secs(t))
            .expect("frame exists")
            .frame
            .row_for_comm("job")
            .is_some()
    };
    for t in 1..=8 {
        assert_eq!(on(t, "node-a"), t <= 3, "node-a at t={t}");
        assert_eq!(on(t, "node-b"), (3..=6).contains(&t), "node-b at t={t}");
        assert_eq!(on(t, "node-c"), t >= 6, "node-c at t={t}");
    }

    // Kernel-level: each hop's exit on the source and spawn on the
    // destination carry the same sim-time.
    let a = session.session("node-a").unwrap();
    let b = session.session("node-b").unwrap();
    let c = session.session("node-c").unwrap();
    let exit_a = a
        .kernel()
        .exit_record(a.pid("job").expect("spawned on a"))
        .expect("killed by the migration")
        .clone();
    let exit_b = b
        .kernel()
        .exit_record(b.pid("job").expect("respawned on b"))
        .expect("killed by the second hop")
        .clone();
    let live_c = c
        .kernel()
        .stat(c.pid("job").expect("respawned on c"))
        .expect("still running on c");
    assert_eq!(exit_a.end_time, SimTime::from_secs(3));
    assert_eq!(exit_b.start_time, SimTime::from_secs(3), "same instant");
    assert_eq!(exit_b.end_time, SimTime::from_secs(6));
    assert_eq!(live_c.start_time, SimTime::from_secs(6), "same instant");

    // The golden artifact: byte-identical at any worker-thread count.
    assert_eq!(golden, run_at(2).0, "2 workers must not change one byte");
    assert_eq!(golden, run_at(8).0, "8 workers must not change one byte");
}

#[test]
fn migrate_at_is_validated_across_machines_at_build_time() {
    let err = |sc: ClusterScenario| sc.build().unwrap_err().to_string();

    let base = || {
        let node = |seed: u64| {
            Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .seed(seed)
                .user(Uid(1), "u1")
        };
        ClusterScenario::new()
            .machine(
                "a",
                node(1).spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8))),
            )
            .machine(
                "b",
                node(2).spawn("resident", SpawnSpec::new("resident", Uid(1), spin(0.9))),
            )
    };
    let at = SimTime::from_secs(2);

    let e = err(base().migrate_at(at, "job", "a", "a"));
    assert!(e.contains("same machine"), "{e}");

    let e = err(base().migrate_at(at, "job", "a", "ghost"));
    assert!(e.contains("unknown machine 'ghost'"), "{e}");

    let e = err(base().migrate_at(at, "nosuch", "a", "b"));
    assert!(
        e.contains("machine 'a': invalid scenario: event against unknown tag 'nosuch'"),
        "{e}"
    );

    // The tag exists — on a different machine than the named source.
    let e = err(base().migrate_at(at, "job", "b", "a"));
    assert!(
        e.contains("machine 'b': invalid scenario: event against unknown tag 'job'"),
        "{e}"
    );

    // Migrating before the job exists, or after it was killed.
    let early = base()
        .machine(
            "c",
            Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .user(Uid(1), "u1")
                .spawn_at(
                    SimTime::from_secs(5),
                    "late",
                    SpawnSpec::new("late", Uid(1), spin(1.0)),
                ),
        )
        .migrate_at(at, "late", "c", "b");
    let e = err(early);
    assert!(
        e.contains("machine 'c': invalid scenario: event against 'late' at t+2.000000s precedes its spawn at t+5.000000s"),
        "{e}"
    );

    let killed = ClusterScenario::new()
        .machine(
            "a",
            Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .user(Uid(1), "u1")
                .spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8)))
                .kill_at(SimTime::from_secs(1), "job"),
        )
        .machine(
            "b",
            Scenario::new(MachineConfig::nehalem_w3550().noiseless()).user(Uid(1), "u1"),
        )
        .migrate_at(at, "job", "a", "b");
    let e = err(killed);
    assert!(
        e.contains("machine 'a': invalid scenario: event against 'job' at t+2.000000s follows its kill at t+1.000000s"),
        "{e}"
    );

    // Destination already carries the tag (two machines legitimately run
    // jobs under the same tag until a migration tries to collide them).
    let onto_occupied = base()
        .machine(
            "c",
            Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .user(Uid(1), "u1")
                .spawn("job", SpawnSpec::new("job", Uid(1), spin(1.0))),
        )
        .migrate_at(at, "job", "a", "c");
    let e = err(onto_occupied);
    assert!(
        e.contains("machine 'c': invalid scenario: duplicate spawn tag 'job'")
            && e.contains("still live at t+2.000000s"),
        "{e}"
    );

    // Round trips validate: a tag resolves to a (machine, incarnation)
    // pair, so after a->b the job can come back to a as a fresh
    // incarnation — but only once its previous stay on a is over, which
    // the chronological walk checks per hop.
    assert!(base()
        .migrate_at(at, "job", "a", "b")
        .migrate_at(SimTime::from_secs(4), "job", "b", "a")
        .build()
        .is_ok());

    // The incarnation-aware walk still rejects a hop whose source stay is
    // already over: after a->b->a the job is gone from b (and live on a,
    // whose walk, the first machine's, reports the clash).
    let e = err(base()
        .migrate_at(at, "job", "a", "b")
        .migrate_at(SimTime::from_secs(4), "job", "b", "a")
        .migrate_at(SimTime::from_secs(6), "job", "b", "a"));
    assert!(
        e.contains("machine 'a': invalid scenario: duplicate spawn tag 'job'")
            && e.contains("still live at t+6.000000s"),
        "{e}"
    );

    // And a well-formed migration builds.
    assert!(base().migrate_at(at, "job", "a", "b").build().is_ok());
}

#[test]
fn cluster_run_all_interleaves_monitor_sets_deterministically() {
    let run_at = |threads: usize| {
        let mut session = cluster().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(
                threads,
                4,
                |_: MachineRef<'_>| {
                    vec![
                        (tool(1) as Box<dyn Monitor + Send>, None),
                        (top(SimDuration::from_secs(2)), None),
                    ]
                },
                &mut [],
                &mut sink,
            )
            .unwrap();
        (rendered(sink.frames()), sink.into_frames())
    };
    let (golden, frames) = run_at(1);

    // Every machine contributes both monitors' streams: 4 frames each.
    for m in ["node-0", "node-1", "node-2", "ppc"] {
        for source in ["tiptop", "top"] {
            let n = frames
                .iter()
                .filter(|f| f.machine == m && f.source == source)
                .count();
            assert_eq!(n, 4, "{m}/{source} must deliver its 4 refreshes");
        }
    }
    // Merge order: (time, machine_index), and within one machine's
    // same-instant frames the monitor-set order (tiptop before top at t=2).
    for w in frames.windows(2) {
        let a = (w[0].frame.time, w[0].machine_index);
        let b = (w[1].frame.time, w[1].machine_index);
        assert!(a <= b, "merge key must be non-decreasing: {a:?} vs {b:?}");
    }
    let node0_at_2: Vec<&str> = frames
        .iter()
        .filter(|f| f.machine == "node-0" && f.frame.time == SimTime::from_secs(2))
        .map(|f| f.source.as_str())
        .collect();
    assert_eq!(
        node0_at_2,
        vec!["tiptop", "top"],
        "set order at one instant"
    );

    // Distinct intervals: tiptop observed t=1..=4, top t=2,4,6,8.
    let times = |m: &str, source: &str| -> Vec<u64> {
        frames
            .iter()
            .filter(|f| f.machine == m && f.source == source)
            .map(|f| f.frame.time.as_secs_f64() as u64)
            .collect()
    };
    assert_eq!(times("node-0", "tiptop"), vec![1, 2, 3, 4]);
    assert_eq!(times("node-0", "top"), vec![2, 4, 6, 8]);

    assert_eq!(golden, run_at(2).0, "2 workers must not change one byte");
    assert_eq!(golden, run_at(8).0, "8 workers must not change one byte");
}

#[test]
fn window_sink_bounds_buffered_frames_on_a_10k_frame_run() {
    // Two machines x 5000 refreshes at 100 ms = 10_000 merged frames.
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
            .spawn("spin", SpawnSpec::new("spin", Uid(1), spin(0.8)).seed(seed))
    };
    let mut session = ClusterScenario::new()
        .machine("m0", node(1))
        .machine("m1", node(2))
        .build()
        .unwrap();
    const WINDOW: usize = 64;
    let mut sink = ClusterWindowSink::new(WINDOW);
    session
        .run(
            2,
            5000,
            |_| {
                let tool = Tiptop::new(
                    TiptopOptions::default()
                        .observer(Uid::ROOT)
                        .delay(SimDuration::from_millis(100)),
                    ScreenConfig::default_screen(),
                );
                vec![(Box::new(tool), None)]
            },
            &mut [],
            &mut sink,
        )
        .unwrap();

    // The memory bound: never more than one window of frames buffered.
    assert!(
        sink.peak_buffered() <= WINDOW,
        "peak {} must stay within the window {WINDOW}",
        sink.peak_buffered()
    );
    let windows = sink.finish();
    assert_eq!(
        windows.iter().map(|w| w.frames).sum::<usize>(),
        10_000,
        "every frame is aggregated exactly once"
    );
    assert_eq!(windows.len(), 10_000usize.div_ceil(WINDOW));
    // Windows tile the run in time order and carry usable aggregates.
    for w in windows.windows(2) {
        assert!(w[0].end <= w[1].start, "windows must tile in time order");
    }
    for w in &windows {
        for m in ["m0", "m1"] {
            let stats = w
                .sources
                .get(&(Label::from(m), Label::from("tiptop")))
                .expect("both machines in every window");
            let ipc = stats.mean("IPC").expect("IPC aggregated");
            assert!(ipc > 0.5, "healthy spin IPC, got {ipc}");
        }
    }
}

#[test]
fn multi_shard_failure_delivers_healthy_frames_then_lowest_index_error() {
    // node-1 panics on its 3rd observation, node-2 on its 1st: node-2
    // fails *earlier in sim-time*, but the contract returns the first
    // failure by machine index — node-1 — at any thread count.
    let run_at = |threads: usize| {
        let mut session = cluster().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        let err = session
            .run(
                threads,
                4,
                |m: MachineRef<'_>| {
                    let panic_on = match m.id {
                        "node-1" => 3,
                        "node-2" => 1,
                        _ => usize::MAX,
                    };
                    let monitor = PanicMonitor {
                        inner: *tool(1),
                        observations: 0,
                        panic_on,
                    };
                    vec![(Box::new(monitor), None)]
                },
                &mut [],
                &mut sink,
            )
            .unwrap_err();
        (err, sink.into_frames())
    };
    let (err, frames) = run_at(2);
    match &err {
        SessionError::ShardPanicked { machine, .. } => assert_eq!(machine, "node-1"),
        other => panic!("expected ShardPanicked, got {other:?}"),
    }

    // Deliver-then-error: the healthy machines' *full* runs reached the
    // sink — including frames after both failures' sim-times.
    let count = |id: &str| frames.iter().filter(|f| f.machine == id).count();
    assert_eq!(count("node-0"), 4);
    assert_eq!(count("ppc"), 4);
    // The failed shards' pre-failure frames are all there...
    assert_eq!(count("node-1"), 2, "two frames before the 3rd observation");
    assert_eq!(count("node-2"), 0, "panicked before its first frame");
    // ...and merged at their proper (time, machine) position.
    for w in frames.windows(2) {
        let a = (w[0].frame.time, w[0].machine_index);
        let b = (w[1].frame.time, w[1].machine_index);
        assert!(a <= b, "failure must not reorder the stream: {a:?} {b:?}");
    }

    // The whole outcome — frames and error — is thread-count independent.
    let (err1, frames1) = run_at(1);
    let (err8, frames8) = run_at(8);
    assert_eq!(rendered(&frames), rendered(&frames1));
    assert_eq!(rendered(&frames), rendered(&frames8));
    for e in [&err1, &err8] {
        assert!(
            matches!(e, SessionError::ShardPanicked { machine, .. } if machine == "node-1"),
            "got {e:?}"
        );
    }
}

#[test]
fn run_collect_preserves_the_partial_stream_on_shard_failure() {
    let healthy = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(1)
        .user(Uid(1), "u1")
        .spawn("spin", SpawnSpec::new("spin", Uid(1), spin(0.8)));
    let doomed = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(2)
        .user(Uid(1), "u1")
        .spawn(
            "short",
            SpawnSpec::new(
                "short",
                Uid(1),
                Program::single(ExecProfile::builder("s").base_cpi(0.8).build(), 1_000_000),
            ),
        )
        .kill_at(SimTime::from_secs(2), "short");
    let mut session = ClusterScenario::new()
        .machine("ok", healthy)
        .machine("doomed", doomed)
        .build()
        .unwrap();
    let mut sink = ClusterCollectSink::new();
    let error = session
        .run(2, 4, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap_err();
    let partial = sink.into_frames();
    assert!(
        matches!(&error, SessionError::Shard { machine, .. } if machine == "doomed"),
        "got {:?}",
        error
    );
    // The two-hour-run-not-lost guarantee: the healthy machine's full
    // stream (and the failed one's pre-failure frames) survive the error.
    assert_eq!(
        partial.iter().filter(|f| f.machine == "ok").count(),
        4,
        "healthy machine's frames preserved"
    );
    assert!(
        partial.iter().filter(|f| f.machine == "doomed").count() >= 1,
        "pre-failure frames preserved"
    );
}

#[test]
fn run_all_rejects_an_empty_monitor_set() {
    // An unobserved machine would stay frozen at its current sim-time (its
    // events never applying), so an empty set is a typed error — and the
    // error leaves every shard intact and the cluster re-runnable.
    let mut session = cluster().build().unwrap();
    let mut sink = ClusterCollectSink::new();
    let err = session
        .run(
            2,
            3,
            |m: MachineRef<'_>| {
                if m.id == "node-2" {
                    Vec::new()
                } else {
                    vec![(tool(1) as Box<dyn Monitor + Send>, None)]
                }
            },
            &mut [],
            &mut sink,
        )
        .unwrap_err();
    assert!(
        matches!(&err, SessionError::InvalidScenario(msg) if msg.contains("empty monitor set")),
        "got {err:?}"
    );
    assert!(sink.frames().is_empty(), "nothing ran");
    for id in ["node-0", "node-1", "node-2", "ppc"] {
        assert!(session.session(id).is_some(), "{id} must survive the error");
    }
    let mut sink = ClusterCollectSink::new();
    session
        .run(2, 2, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap();
    let frames = sink.into_frames();
    assert_eq!(frames.len(), 8, "cluster still fully runnable");
}

#[test]
fn window_sink_dedupes_registered_handover_rows_from_the_aggregates() {
    // The raw stream keeps both handover rows (source's final row,
    // destination's first) — that is the observable migration artifact. A
    // fleet-wide aggregate must not double-count the job at those instants:
    // registering the session's handovers excludes the destination-side
    // row and reports it in WindowStats::handover_rows instead.
    let raw = {
        let mut session = migration_cluster().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(2, 8, |_| vec![(tool(1), None)], &mut [], &mut sink)
            .unwrap();
        sink.into_frames()
    };
    let job_rows_at = |t: u64| {
        raw.iter()
            .filter(|cf| cf.frame.time == SimTime::from_secs(t))
            .filter(|cf| cf.frame.row_for_comm("job").is_some())
            .count()
    };
    assert_eq!(job_rows_at(3), 2, "handover frame shows the job twice");
    assert_eq!(job_rows_at(6), 2, "second hop too");
    let raw_rows: usize = raw.iter().map(|cf| cf.frame.rows.len()).sum();

    let mut session = migration_cluster().build().unwrap();
    let handovers: Vec<_> = session.handovers().to_vec();
    assert_eq!(handovers.len(), 2);
    assert_eq!(handovers[0].at, SimTime::from_secs(3));
    assert_eq!(handovers[0].comm, "job");
    assert_eq!(handovers[1].to, "node-c");
    let mut sink = ClusterWindowSink::new(1000).dedupe_handovers(handovers);
    session
        .run(2, 8, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap();
    let windows = sink.finish();
    let aggregated: usize = windows
        .iter()
        .flat_map(|w| w.sources.values())
        .map(|s| s.rows)
        .sum();
    let deduped: usize = windows
        .iter()
        .flat_map(|w| w.sources.values())
        .map(|s| s.handover_rows)
        .sum();
    assert_eq!(deduped, 2, "one destination row per hop is excluded");
    assert_eq!(
        aggregated,
        raw_rows - 2,
        "aggregates count the migrating job once per instant"
    );
    // The excluded rows are attributed to the destinations.
    let stats_for = |machine: &str| {
        windows
            .iter()
            .flat_map(|w| w.sources.iter())
            .filter(|((m, _), _)| m == machine)
            .map(|(_, s)| s.handover_rows)
            .sum::<usize>()
    };
    assert_eq!(stats_for("node-a"), 0);
    assert_eq!(stats_for("node-b"), 1);
    assert_eq!(stats_for("node-c"), 1);
}

/// Window summaries as text: per window its span and frame count, per
/// source its counts and each column's mean, bit for bit. `run` (a tag in
/// one column's header) is masked so runs with different tags compare.
fn window_summary(windows: &[ClusterWindow], run: &str) -> String {
    let mut out = String::new();
    for w in windows {
        out += &format!(
            "window {} {:?}..{:?} frames {}\n",
            w.index, w.start, w.end, w.frames
        );
        for ((machine, source), st) in &w.sources {
            out += &format!(
                "  {machine}/{source}: frames {} rows {} handover {}",
                st.frames, st.rows, st.handover_rows
            );
            for col in st.columns() {
                let mean = st.mean(&col).expect("listed columns have samples");
                out += &format!(" {}={:016x}", col.replace(run, "RUN"), mean.to_bits());
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn window_summaries_are_identical_at_1_2_and_8_threads_whatever_the_id_order() {
    // Symbol ids are assigned in interning order, which on a fleet depends
    // on which thread reaches a name first. Every run below uses names no
    // earlier run saw: user names (the uids have no registered name, so a
    // worker builds the number when it builds the row), job commands, some
    // spawned mid-run, and two screen columns. The columns are interned in
    // an order that differs between runs, so a summary that followed id
    // order rather than text would differ too.
    let run_at = |threads: usize| {
        let run = format!("r{threads}x");
        let machines = 6;
        let mut cluster = ClusterScenario::new();
        for i in 0..machines {
            let uid = Uid(9_000 + 100 * threads as u32 + i as u32);
            let job = |name: &str| format!("win-{run}-m{i}-{name}");
            let mut sc = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .seed(i as u64)
                .spawn(
                    format!("base-{i}"),
                    SpawnSpec::new(job("base"), uid, spin(0.8 + 0.1 * i as f64)).seed(i as u64),
                );
            for k in 0..3u64 {
                let profile = ExecProfile::builder("late").base_cpi(0.7).build();
                sc = sc.spawn_at(
                    SimTime::ZERO + SimDuration::from_millis(1_500 + 1_000 * k + 100 * i as u64),
                    format!("late-{k}"),
                    SpawnSpec::new(
                        job(&format!("late{k}")),
                        uid,
                        Program::single(profile, 2_000_000_000),
                    )
                    .seed(k),
                );
            }
            cluster = cluster.machine(format!("m{i}"), sc);
        }
        let mut session = cluster
            .migrate_at(SimTime::from_secs(3), "base-0", "m0", "m1")
            .build()
            .unwrap();
        let (a, b) = (format!("A-{run}"), format!("B-{run}"));
        if threads == 2 {
            symbols::intern(&a);
            symbols::intern(&b);
        } else {
            symbols::intern(&b);
            symbols::intern(&a);
        }
        let mut screen = ScreenConfig::default_screen();
        for (header, expr) in [(a, "INSTRUCTIONS / CYCLES"), (b, "CYCLES / INSTRUCTIONS")] {
            screen
                .columns
                .push(ColumnSpec::metric(header, 6, NumFormat::Float(2), expr).unwrap());
        }
        let mut sink = ClusterWindowSink::new(5).dedupe_handovers(session.handovers().to_vec());
        session
            .run(
                threads,
                8,
                |_| {
                    let tool = Tiptop::new(
                        TiptopOptions::default().delay(SimDuration::from_secs(1)),
                        screen.clone(),
                    );
                    vec![(Box::new(tool), None)]
                },
                &mut [],
                &mut sink,
            )
            .unwrap();
        window_summary(&sink.finish(), &run)
    };
    let single = run_at(1);
    assert_eq!(single, run_at(2), "2 workers must not change a summary");
    assert_eq!(single, run_at(8), "8 workers must not change a summary");
    assert!(single.matches("window ").count() > 1, "{single}");
    assert!(
        single.contains("handover 1"),
        "the migration is deduped: {single}"
    );
    assert!(
        single.contains("A-RUN=") && single.contains("B-RUN="),
        "the per-run columns are aggregated"
    );
}

#[test]
fn window_sink_keeps_the_final_partial_window_on_the_deliver_then_error_path() {
    // One shard fails mid-run; the deliver-then-error contract still
    // streams the healthy machine's whole run into the sink, and finish()
    // must fold the buffered tail — including post-failure frames — into a
    // final partial window instead of dropping it.
    let build = || {
        let healthy = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(1)
            .user(Uid(1), "u1")
            .spawn("spin", SpawnSpec::new("spin", Uid(1), spin(0.8)));
        let doomed = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(2)
            .user(Uid(1), "u1")
            .spawn(
                "short",
                SpawnSpec::new(
                    "short",
                    Uid(1),
                    Program::single(ExecProfile::builder("s").base_cpi(0.8).build(), 1_000_000),
                ),
            )
            .kill_at(SimTime::from_secs(2), "short");
        ClusterScenario::new()
            .machine("ok", healthy)
            .machine("doomed", doomed)
            .build()
            .unwrap()
    };

    // Reference: how many frames does the deliver-then-error path stream?
    let mut reference = build();
    let mut collected = ClusterCollectSink::new();
    let error = reference
        .run(2, 4, |_| vec![(tool(1), None)], &mut [], &mut collected)
        .unwrap_err();
    let delivered = collected.frames().len();
    assert!(
        matches!(&error, SessionError::Shard { machine, .. } if machine == "doomed"),
        "got {:?}",
        error
    );
    assert_eq!(
        delivered, 5,
        "healthy 4 frames + doomed's pre-failure frame"
    );

    // Same run into a window sink whose window does not divide the stream:
    // the tail must survive as a partial window.
    let mut session = build();
    let mut sink = ClusterWindowSink::new(3);
    let err = session
        .run(2, 4, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap_err();
    assert!(matches!(err, SessionError::Shard { .. }));
    let windows = sink.finish();
    assert_eq!(
        windows.iter().map(|w| w.frames).sum::<usize>(),
        delivered,
        "every delivered frame is aggregated exactly once"
    );
    let tail = windows.last().expect("at least one window");
    assert_eq!(
        tail.frames,
        delivered % 3,
        "final window is the partial one"
    );
    assert_eq!(
        tail.end,
        SimTime::from_secs(4),
        "the tail window covers the healthy machine's post-failure frames"
    );
}

/// A test policy: on the `on_seq`-th tiptop frame of one machine, migrate
/// a fixed tag — the minimal deterministic closed loop.
struct MigrateOnSeq {
    machine: &'static str,
    on_seq: usize,
    decision: MigrationDecision,
    fired: bool,
}

impl SchedulerPolicy for MigrateOnSeq {
    fn name(&self) -> &str {
        "migrate-on-seq"
    }

    fn observe(&mut self, cf: &ClusterFrame) -> Vec<MigrationDecision> {
        if !self.fired && cf.machine == self.machine && cf.seq == self.on_seq {
            self.fired = true;
            vec![self.decision.clone()]
        } else {
            Vec::new()
        }
    }
}

fn reactive_pair() -> ClusterScenario {
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8)).seed(5)),
        )
        .machine("node-b", node(2))
}

#[test]
fn reactive_migration_is_byte_identical_at_1_2_and_8_threads() {
    let run_at = |threads: usize| {
        let mut session = reactive_pair().build().unwrap();
        let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
            machine: "node-a",
            on_seq: 2,
            decision: MigrationDecision {
                tag: "job".to_string(),
                from: "node-a".to_string(),
                to: "node-b".to_string(),
                mode: MigrationMode::Restart,
            },
            fired: false,
        })];
        let mut sink = ClusterCollectSink::new();
        let applied = session
            .run(
                threads,
                8,
                |_| vec![(tool(1), None)],
                &mut policies,
                &mut sink,
            )
            .unwrap();
        (
            rendered(sink.frames()),
            sink.into_frames(),
            applied,
            session,
        )
    };
    let (golden, frames, applied, session) = run_at(1);

    // The decision fired on node-a's third frame (t=3) and applied at the
    // next 20 ms epoch boundary — strictly between observation instants,
    // so reactive streams have no double-visibility handover frame.
    assert_eq!(applied.len(), 1);
    let d = &applied[0];
    assert_eq!(
        (d.policy.as_str(), d.tag.as_str()),
        ("migrate-on-seq", "job")
    );
    assert_eq!(d.decided_at, SimTime::from_secs(3));
    assert_eq!(
        d.applied_at.as_nanos(),
        3_020_000_000,
        "next epoch boundary"
    );
    // The session records the live handover like a scripted one.
    assert_eq!(session.handovers().len(), 1);
    assert_eq!(session.handovers()[0].at, d.applied_at);
    assert_eq!(session.handovers()[0].comm, "job");

    let on = |t: u64, machine: &str| {
        frames
            .iter()
            .find(|cf| cf.machine == machine && cf.frame.time == SimTime::from_secs(t))
            .expect("frame exists")
            .frame
            .row_for_comm("job")
            .is_some()
    };
    for t in 1..=8 {
        assert_eq!(on(t, "node-a"), t <= 3, "node-a at t={t}");
        assert_eq!(on(t, "node-b"), t >= 4, "node-b at t={t}");
    }

    // Kernel-level handover: the exit on the source and the spawn on the
    // destination carry the same sim-time, the applied instant.
    let a = session.session("node-a").unwrap();
    let b = session.session("node-b").unwrap();
    let exit_a = a
        .kernel()
        .exit_record(a.pid("job").expect("spawned on a"))
        .expect("killed by the live migration");
    let live_b = b
        .kernel()
        .stat(b.pid("job").expect("respawned on b"))
        .expect("still running on b");
    assert_eq!(exit_a.end_time, d.applied_at);
    assert_eq!(live_b.start_time, d.applied_at, "same instant");

    // The whole outcome — stream, decisions, instants — is thread-count
    // independent.
    for threads in [2, 8] {
        let (stream, _, applied_n, _) = run_at(threads);
        assert_eq!(golden, stream, "{threads} workers must not change one byte");
        assert_eq!(applied_n.len(), 1);
        assert_eq!(applied_n[0].decided_at, d.decided_at);
        assert_eq!(applied_n[0].applied_at, d.applied_at);
    }
}

#[test]
fn infeasible_live_decisions_are_typed_errors_and_leave_the_cluster_runnable() {
    let attempt = |decision: MigrationDecision| {
        let node = |seed: u64| {
            Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .seed(seed)
                .user(Uid(1), "u1")
        };
        // "short" retires 1M instructions in well under the first refresh:
        // by the time any policy can see a frame, it has already exited.
        let mut session = ClusterScenario::new()
            .machine(
                "node-a",
                node(1)
                    .spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8)))
                    .spawn(
                        "short",
                        SpawnSpec::new(
                            "short",
                            Uid(1),
                            Program::single(
                                ExecProfile::builder("s").base_cpi(0.8).build(),
                                1_000_000,
                            ),
                        ),
                    ),
            )
            .machine("node-b", node(2))
            .build()
            .unwrap();
        let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
            machine: "node-a",
            on_seq: 0,
            decision,
            fired: false,
        })];
        let mut sink = ClusterCollectSink::new();
        let err = session
            .run(2, 4, |_| vec![(tool(1), None)], &mut policies, &mut sink)
            .unwrap_err();
        // The halt is clean: every session is handed back and runnable.
        assert!(session.session("node-a").is_some());
        assert!(session.session("node-b").is_some());
        let mut sink = ClusterCollectSink::new();
        assert!(session
            .run(2, 1, |_| vec![(tool(1), None)], &mut [], &mut sink)
            .is_ok());
        err
    };
    // The headline case: migrating a tag that just exited.
    let err = attempt(restart("short", "node-a", "node-b"));
    assert!(
        matches!(&err, SessionError::InvalidDecision(msg) if msg.contains("already exited")),
        "got {err:?}"
    );
    assert!(err.to_string().contains("migrate-on-seq"), "{err}");

    // Even on the halt-with-error path the monitors were torn down: the
    // handed-back sessions carry no leaked counter fds.
    {
        let node = |seed: u64| {
            Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .seed(seed)
                .user(Uid(1), "u1")
        };
        let mut session = ClusterScenario::new()
            .machine(
                "node-a",
                node(1).spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8))),
            )
            .machine("node-b", node(2))
            .build()
            .unwrap();
        let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
            machine: "node-a",
            on_seq: 0,
            decision: restart("ghost", "node-a", "node-b"),
            fired: false,
        })];
        let mut sink = ClusterCollectSink::new();
        session
            .run(2, 4, |_| vec![(tool(1), None)], &mut policies, &mut sink)
            .unwrap_err();
        for id in ["node-a", "node-b"] {
            assert_eq!(
                session.session(id).unwrap().kernel().open_fds(Uid::ROOT),
                0,
                "{id}: teardown must close counter fds on the error path too"
            );
        }
    }

    let err = attempt(restart("ghost", "node-a", "node-b"));
    assert!(
        matches!(&err, SessionError::InvalidDecision(msg) if msg.contains("no task tagged")),
        "got {err:?}"
    );

    let err = attempt(restart("job", "node-a", "nowhere"));
    assert!(
        matches!(&err, SessionError::InvalidDecision(msg) if msg.contains("unknown machine")),
        "got {err:?}"
    );

    let err = attempt(restart("job", "node-a", "node-a"));
    assert!(
        matches!(&err, SessionError::InvalidDecision(msg) if msg.contains("same machine")),
        "got {err:?}"
    );

    // A feasible decision on the same cast goes through: migrating the
    // live job works and its frames land on node-b.
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let mut session = ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8))),
        )
        .machine("node-b", node(2))
        .build()
        .unwrap();
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
        machine: "node-a",
        on_seq: 0,
        decision: restart("job", "node-a", "node-b"),
        fired: false,
    })];
    let mut sink = ClusterCollectSink::new();
    let applied = session
        .run(2, 3, |_| vec![(tool(1), None)], &mut policies, &mut sink)
        .unwrap();
    assert_eq!(applied.len(), 1);
    assert!(sink
        .frames()
        .iter()
        .any(|cf| cf.machine == "node-b" && cf.frame.row_for_comm("job").is_some()));
}

/// Run `fleet` at one-second refreshes with one policy that issues
/// `decision` on node-a's frame `on_seq`; the run's error.
fn live_decision_error(
    fleet: ClusterScenario,
    on_seq: usize,
    decision: MigrationDecision,
) -> SessionError {
    let mut session = fleet.build().unwrap();
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
        machine: "node-a",
        on_seq,
        decision,
        fired: false,
    })];
    let mut sink = ClusterCollectSink::new();
    session
        .run(1, 4, |_| vec![(tool(1), None)], &mut policies, &mut sink)
        .unwrap_err()
}

fn restart(tag: &str, from: &str, to: &str) -> MigrationDecision {
    MigrationDecision {
        tag: tag.to_string(),
        from: from.to_string(),
        to: to.to_string(),
        mode: MigrationMode::Restart,
    }
}

#[test]
fn scripted_and_live_migrations_are_refused_by_one_checker() {
    // Each infeasible move in its scripted form (`migrate_at`, refused by
    // a machine's build walk) and its live form (a decision, refused by
    // the live session's check): one condition found both ways, phrased
    // for build time and for run time.
    fn node(seed: u64) -> Scenario {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    }
    fn job() -> SpawnSpec {
        SpawnSpec::new("job", Uid(1), spin(0.8))
    }
    fn pair(a: Scenario, b: Scenario) -> ClusterScenario {
        ClusterScenario::new()
            .machine("node-a", a)
            .machine("node-b", b)
    }
    type Fleet = fn() -> ClusterScenario;
    let cases: [(&str, Fleet, &str, &str, &str); 3] = [
        (
            "dead source",
            || {
                pair(
                    node(1)
                        .spawn("job", job())
                        .kill_at(SimTime::from_secs(1), "job"),
                    node(2),
                )
            },
            "job",
            "machine 'node-a': invalid scenario: event against 'job' at t+2.000000s \
             follows its kill at t+1.000000s",
            "'job' already exited",
        ),
        (
            "occupied destination",
            || pair(node(1).spawn("job", job()), node(2).spawn("job", job())),
            "job",
            "machine 'node-b': invalid scenario: duplicate spawn tag 'job': the previous \
             incarnation is still live at t+2.000000s",
            "tag 'job' already names a live task on this machine",
        ),
        (
            "unknown tag",
            || pair(node(1).spawn("job", job()), node(2)),
            "ghost",
            "machine 'node-a': invalid scenario: event against unknown tag 'ghost'",
            "no task tagged 'ghost' on this machine",
        ),
    ];
    for (case, fleet, tag, scripted, live) in cases {
        let err = fleet()
            .migrate_at(SimTime::from_secs(2), tag, "node-a", "node-b")
            .build()
            .unwrap_err();
        assert!(err.to_string().contains(scripted), "{case}: {err}");

        // Decided on node-a's 2 s frame, long after the kill at 1 s.
        let err = live_decision_error(fleet(), 1, restart(tag, "node-a", "node-b"));
        assert!(
            matches!(&err, SessionError::InvalidDecision(msg) if msg.contains(live)),
            "{case}: {err:?}"
        );
    }
}

#[test]
fn a_live_decision_migrates_an_incarnation_whose_spawn_is_still_pending() {
    // The decision comes on node-a's first frame (1 s) and applies at the
    // next epoch boundary (1.02 s). "late" spawns on node-a at 1.01 s, so
    // its spawn is still pending when the decision is checked; the
    // decision's kill lands after it, and that incarnation moves.
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let mut session = ClusterScenario::new()
        .machine(
            "node-a",
            node(1)
                .spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8)))
                .spawn_at(
                    SimTime::ZERO + SimDuration::from_millis(1010),
                    "late",
                    SpawnSpec::new("late", Uid(1), spin(0.9)),
                ),
        )
        .machine("node-b", node(2))
        .build()
        .unwrap();
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
        machine: "node-a",
        on_seq: 0,
        decision: restart("late", "node-a", "node-b"),
        fired: false,
    })];
    let mut sink = ClusterCollectSink::new();
    let applied = session
        .run(1, 3, |_| vec![(tool(1), None)], &mut policies, &mut sink)
        .unwrap();
    assert_eq!(applied.len(), 1);
    let at = applied[0].applied_at;
    assert_eq!(at, SimTime::ZERO + SimDuration::from_millis(1020));

    let a = session.session("node-a").unwrap();
    assert_eq!(a.incarnations("late").len(), 1);
    let gone = a.kernel().exit_record(a.pid("late").unwrap()).unwrap();
    assert_eq!(
        gone.start_time,
        SimTime::ZERO + SimDuration::from_millis(1010)
    );
    assert_eq!(gone.end_time, at);
    let b = session.session("node-b").unwrap();
    assert!(b.kernel().is_alive(b.pid("late").unwrap()));
    assert!(sink
        .frames()
        .iter()
        .any(|cf| cf.machine == "node-b" && cf.frame.row_for_comm("late").is_some()));
}

#[test]
fn a_live_restart_onto_a_machine_without_the_pinned_pu_is_refused() {
    // "job" is pinned to PU 6 of a W3550; node-b has SMT off, so 4 PUs.
    // Restarted there, the clone would stay runnable on no PU for the rest
    // of the run: the destination's check refuses the spawn instead.
    let fleet = ClusterScenario::new()
        .machine(
            "node-a",
            Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .seed(1)
                .user(Uid(1), "u1")
                .spawn(
                    "job",
                    SpawnSpec::new("job", Uid(1), spin(0.8)).affinity(CpuSet::single(PuId(6))),
                ),
        )
        .machine(
            "node-b",
            Scenario::new(MachineConfig::nehalem_w3550().without_smt().noiseless())
                .seed(2)
                .user(Uid(1), "u1"),
        );
    let err = live_decision_error(fleet, 0, restart("job", "node-a", "node-b"));
    assert!(
        matches!(&err, SessionError::InvalidDecision(msg)
            if msg.contains("spawn affinity for 'job' allows none of the machine's 4 PUs")),
        "got {err:?}"
    );
}

#[test]
fn conflicting_same_round_decisions_cannot_both_claim_one_job() {
    // Two policies fire on the same frame, migrating the same tag to two
    // different destinations. The first claim wins; the second must be a
    // typed error — otherwise the job would be cloned onto both machines.
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let mut session = ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8))),
        )
        .machine("node-b", node(2))
        .machine("node-c", node(3))
        .build()
        .unwrap();
    let claim = |to: &str| {
        Box::new(MigrateOnSeq {
            machine: "node-a",
            on_seq: 0,
            decision: MigrationDecision {
                tag: "job".to_string(),
                from: "node-a".to_string(),
                to: to.to_string(),
                mode: MigrationMode::Restart,
            },
            fired: false,
        }) as Box<dyn SchedulerPolicy>
    };
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![claim("node-b"), claim("node-c")];
    let mut sink = ClusterCollectSink::new();
    let err = session
        .run(2, 4, |_| vec![(tool(1), None)], &mut policies, &mut sink)
        .unwrap_err();
    assert!(
        matches!(&err, SessionError::InvalidDecision(msg) if msg.contains("already claimed")),
        "got {err:?}"
    );
    // The rejected claim left no stray spawn behind on its destination —
    // and the *accepted* claim, whose kill/spawn never got to apply before
    // the halt, was rolled back too: no handed-back session carries a
    // pending event that would silently migrate the job on a later run.
    for id in ["node-a", "node-b", "node-c"] {
        assert_eq!(
            session.session(id).unwrap().pending_events(),
            0,
            "{id}: no stray decision events after the halt"
        );
    }
    assert!(session.session("node-b").unwrap().pid("job").is_none());
    assert!(session.handovers().is_empty(), "nothing migrated");
    // The job still runs, untouched, on its original machine...
    let a = session.session("node-a").unwrap();
    let pid = a.pid("job").unwrap();
    assert!(a.kernel().is_alive(pid));
    // ...and a re-run does not resurrect the cancelled migration.
    let mut sink = ClusterCollectSink::new();
    session
        .run(2, 2, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap();
    let frames = sink.into_frames();
    assert!(frames
        .iter()
        .all(|cf| cf.machine != "node-b" || cf.frame.row_for_comm("job").is_none()));
}

#[test]
fn decision_on_the_final_round_still_applies() {
    // The policy fires on the very last frame; the kill/spawn land past
    // the final observation, so the driver must flush them before
    // returning — every reported AppliedDecision really happened.
    let mut session = reactive_pair().build().unwrap();
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
        machine: "node-a",
        on_seq: 3,
        decision: MigrationDecision {
            tag: "job".to_string(),
            from: "node-a".to_string(),
            to: "node-b".to_string(),
            mode: MigrationMode::Restart,
        },
        fired: false,
    })];
    let mut sink = ClusterCollectSink::new();
    let applied = session
        .run(2, 4, |_| vec![(tool(1), None)], &mut policies, &mut sink)
        .unwrap();
    assert_eq!(applied.len(), 1);
    let d = &applied[0];
    assert_eq!(
        d.decided_at,
        SimTime::from_secs(4),
        "fired on the last frame"
    );
    assert_eq!(d.applied_at.as_nanos(), 4_020_000_000);
    // No frame ever observed the handover — but it happened: the job
    // exited on the source and lives on the destination, both at the
    // applied instant.
    let a = session.session("node-a").unwrap();
    let b = session.session("node-b").unwrap();
    let exit_a = a
        .kernel()
        .exit_record(a.pid("job").expect("spawned on a"))
        .expect("killed by the flushed migration");
    assert_eq!(exit_a.end_time, d.applied_at);
    let live_b = b
        .kernel()
        .stat(b.pid("job").expect("respawned on b"))
        .expect("alive on b after the run");
    assert_eq!(live_b.start_time, d.applied_at);
    assert_eq!(session.handovers().len(), 1);
    assert!(
        sink.frames()
            .iter()
            .all(|cf| cf.machine != "node-b" || cf.frame.row_for_comm("job").is_none()),
        "the stream ended before the handover could be observed"
    );
}

#[test]
fn half_applied_decision_on_error_is_completed_and_recorded() {
    // node-a observes every 10 ms and node-b every second; the policy
    // fires on node-a's first frame (t=10ms), scheduling the kill/spawn at
    // the 20 ms epoch boundary. node-c's monitor panics in the t=20ms
    // round — node-a applies its kill that round while node-b (still at
    // t=0) has not applied the spawn yet. The driver must not leave that
    // half-migration dangling: the lagging side is completed before the
    // error returns, so the fleet is consistent, the handover is recorded,
    // and no pending event can fire silently on a later run.
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let mut session = ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8))),
        )
        .machine("node-b", node(2))
        .machine("node-c", node(3))
        .build()
        .unwrap();
    let fast = || {
        Tiptop::new(
            TiptopOptions::default()
                .observer(Uid::ROOT)
                .delay(SimDuration::from_millis(10)),
            ScreenConfig::default_screen(),
        )
    };
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
        machine: "node-a",
        on_seq: 0,
        decision: MigrationDecision {
            tag: "job".to_string(),
            from: "node-a".to_string(),
            to: "node-b".to_string(),
            mode: MigrationMode::Restart,
        },
        fired: false,
    })];
    let mut sink = ClusterCollectSink::new();
    let err = session
        .run(
            2,
            5,
            |m: MachineRef<'_>| match m.id {
                "node-b" => vec![(tool(1), None)],
                "node-c" => {
                    let monitor = PanicMonitor {
                        inner: fast(),
                        observations: 0,
                        panic_on: 2,
                    };
                    vec![(Box::new(monitor), None)]
                }
                _ => vec![(Box::new(fast()), None)],
            },
            &mut policies,
            &mut sink,
        )
        .unwrap_err();
    assert!(
        matches!(&err, SessionError::ShardPanicked { machine, .. } if machine == "node-c"),
        "got {err:?}"
    );
    // The half-applied migration was completed: the job really moved, at
    // the decision's application instant, and the handover is recorded.
    let at = SimTime(20_000_000);
    assert_eq!(session.handovers().len(), 1);
    assert_eq!(session.handovers()[0].at, at);
    let a = session.session("node-a").unwrap();
    let b = session.session("node-b").unwrap();
    let exited = a
        .kernel()
        .exit_record(a.pid("job").unwrap())
        .expect("kill applied and reaped");
    assert_eq!(exited.end_time, at);
    let live = b
        .kernel()
        .stat(b.pid("job").expect("spawn completed on the lagging side"))
        .expect("job lives on node-b");
    assert_eq!(live.start_time, at);
    // Nothing is left pending: a later run performs no silent migration.
    assert_eq!(a.pending_events(), 0);
    assert_eq!(b.pending_events(), 0);
}

#[test]
fn misfired_kill_racing_a_natural_exit_reverts_the_destination_clone() {
    // A 500 ms scheduler epoch widens the decision-to-boundary window: the
    // policy fires at t=1s (the job is alive), scheduling kill+spawn at
    // the 1.5s boundary — but the job retires its last instruction at
    // ~1.14s and is reaped, so the kill hits a tombstone (Syscall/ESRCH)
    // and the run errors. The spawn on node-b applies regardless; the
    // driver must revert that clone: a job that finished on its own must
    // not be silently restarted elsewhere, and no handover recorded.
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .epoch(SimDuration::from_millis(500))
            .user(Uid(1), "u1")
    };
    // 1e9 instructions retire at ≈ 1.14 s on the W3550 — inside the
    // decision→boundary window.
    let near_done = Program::single(
        ExecProfile::builder("spin")
            .base_cpi(0.8)
            .branches(0.18, 0.0)
            .memory(MemoryBehavior::uniform(16 * 1024))
            .build(),
        1_000_000_000,
    );
    let mut session = ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), near_done)),
        )
        .machine("node-b", node(2))
        .build()
        .unwrap();
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
        machine: "node-a",
        on_seq: 0,
        decision: MigrationDecision {
            tag: "job".to_string(),
            from: "node-a".to_string(),
            to: "node-b".to_string(),
            mode: MigrationMode::Restart,
        },
        fired: false,
    })];
    let mut sink = ClusterCollectSink::new();
    let err = session
        .run(2, 4, |_| vec![(tool(1), None)], &mut policies, &mut sink)
        .unwrap_err();
    assert!(
        matches!(&err, SessionError::Shard { machine, error }
            if machine == "node-a" && matches!(**error, SessionError::Syscall { call: "kill", .. })),
        "got {err:?}"
    );
    // The job finished on its own, before the boundary.
    let a = session.session("node-a").unwrap();
    let exited = a.kernel().exit_record(a.pid("job").unwrap()).unwrap();
    assert!(exited.end_time < SimTime(1_500_000_000), "natural exit");
    // The decision did not happen: no record, and the destination carries
    // no running clone of the finished job.
    assert!(session.handovers().is_empty());
    let b = session.session("node-b").unwrap();
    if let Some(pid) = b.pid("job") {
        assert!(
            !b.kernel().is_alive(pid)
                || b.kernel()
                    .stat(pid)
                    .is_some_and(|st| st.state.code() == 'Z'),
            "the restarted clone must be reverted"
        );
    }
    // A later run shows no resurrected job anywhere.
    let mut sink = ClusterCollectSink::new();
    session
        .run(2, 2, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap();
    let frames = sink.into_frames();
    assert!(frames
        .iter()
        .all(|cf| cf.frame.row_for_comm("job").is_none()));
}

#[test]
fn misfired_resume_kill_is_a_typed_invalid_decision_and_reverts_the_clone() {
    // The resume-mode twin of the misfired-kill race above: the policy
    // fires at t=1s while the job is alive, scheduling CheckpointKill +
    // ResumeSpawn at the 1.5s boundary — but the job retires its last
    // instruction at ~1.14s, so there is nothing left to checkpoint. That
    // must surface as a *typed* InvalidDecision (not a zombie ESRCH, and
    // never a zero-length resumed clone on the destination).
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .epoch(SimDuration::from_millis(500))
            .user(Uid(1), "u1")
    };
    let near_done = Program::single(
        ExecProfile::builder("spin")
            .base_cpi(0.8)
            .branches(0.18, 0.0)
            .memory(MemoryBehavior::uniform(16 * 1024))
            .build(),
        1_000_000_000,
    );
    let mut session = ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), near_done)),
        )
        .machine("node-b", node(2))
        .build()
        .unwrap();
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
        machine: "node-a",
        on_seq: 0,
        decision: MigrationDecision {
            tag: "job".to_string(),
            from: "node-a".to_string(),
            to: "node-b".to_string(),
            mode: MigrationMode::Resume,
        },
        fired: false,
    })];
    let mut sink = ClusterCollectSink::new();
    let err = session
        .run(2, 4, |_| vec![(tool(1), None)], &mut policies, &mut sink)
        .unwrap_err();
    assert!(
        matches!(&err, SessionError::InvalidDecision(msg)
            if msg.contains("already ran to completion")),
        "got {err:?}"
    );
    // The job finished on its own, before the boundary; no handover is
    // recorded and the destination carries no resumed clone.
    let a = session.session("node-a").unwrap();
    let exited = a.kernel().exit_record(a.pid("job").unwrap()).unwrap();
    assert!(exited.end_time < SimTime(1_500_000_000), "natural exit");
    assert!(session.handovers().is_empty());
    let b = session.session("node-b").unwrap();
    if let Some(pid) = b.pid("job") {
        assert!(
            !b.kernel().is_alive(pid),
            "a zero-length resumed clone must never appear"
        );
    }
    // A later run shows no resurrected job anywhere.
    let mut sink = ClusterCollectSink::new();
    session
        .run(2, 2, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap();
    let frames = sink.into_frames();
    assert!(frames
        .iter()
        .all(|cf| cf.frame.row_for_comm("job").is_none()));
}

#[test]
fn reactive_resume_migration_conserves_instructions_and_is_byte_identical() {
    // A finite 20e9-instruction job: unmigrated it retires its last
    // instruction at ~5.3s on the W3550. A resume-mode decision fires on
    // node-a's third frame (t=3s) and applies at the 3.02s boundary; the
    // job continues *mid-program* on node-b and must end with exactly the
    // whole job's totals — restart-from-zero would never finish inside
    // this run.
    let finite = || {
        Program::single(
            ExecProfile::builder("job")
                .base_cpi(0.8)
                .branches(0.18, 0.0)
                .memory(MemoryBehavior::uniform(16 * 1024))
                .build(),
            20_000_000_000,
        )
    };
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let run_at = |threads: usize| {
        let mut session = ClusterScenario::new()
            .machine(
                "node-a",
                node(1).spawn("job", SpawnSpec::new("job", Uid(1), finite()).seed(5)),
            )
            .machine("node-b", node(2))
            .build()
            .unwrap();
        let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
            machine: "node-a",
            on_seq: 2,
            decision: MigrationDecision {
                tag: "job".to_string(),
                from: "node-a".to_string(),
                to: "node-b".to_string(),
                mode: MigrationMode::Resume,
            },
            fired: false,
        })];
        let mut sink = ClusterCollectSink::new();
        let applied = session
            .run(
                threads,
                8,
                |_| vec![(tool(1), None)],
                &mut policies,
                &mut sink,
            )
            .unwrap();
        (rendered(sink.frames()), applied, session)
    };
    let (golden, applied, session) = run_at(1);

    assert_eq!(applied.len(), 1);
    assert_eq!(applied[0].mode, MigrationMode::Resume);
    assert_eq!(applied[0].applied_at.as_nanos(), 3_020_000_000);
    assert_eq!(session.handovers().len(), 1);
    assert_eq!(session.handovers()[0].mode, MigrationMode::Resume);

    // Conservation: the resumed incarnation's exit record reports the
    // *whole job's* retired instructions, and node-b only ran the
    // remainder (well under the from-zero ~6.9s).
    let b = session.session("node-b").unwrap();
    let exit = b
        .kernel()
        .exit_record(b.pid("job").expect("resumed on b"))
        .expect("finished on b inside the run");
    assert_eq!(exit.total_instructions, 20_000_000_000);
    assert_eq!(exit.start_time, applied[0].applied_at);
    assert!(
        exit.end_time.as_nanos() - exit.start_time.as_nanos() < 5_000_000_000,
        "resumed mid-program, not restarted: ran {}ns on b",
        exit.end_time.as_nanos() - exit.start_time.as_nanos()
    );
    // The source incarnation was checkpoint-killed exactly at the handover.
    let a = session.session("node-a").unwrap();
    let cut = a.kernel().exit_record(a.pid("job").unwrap()).unwrap();
    assert_eq!(cut.end_time, applied[0].applied_at);

    // Byte-identical merged streams at 1/2/8 worker threads.
    for threads in [2, 8] {
        let (stream, applied_n, _) = run_at(threads);
        assert_eq!(golden, stream, "{threads} workers must not change one byte");
        assert_eq!(applied_n.len(), 1);
        assert_eq!(applied_n[0].applied_at, applied[0].applied_at);
    }
}

#[test]
fn build_rejects_duplicate_ids_and_labels_scenario_errors() {
    let sc = || {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .user(Uid(1), "u1")
            .spawn("a", SpawnSpec::new("a", Uid(1), spin(0.8)))
    };
    let err = ClusterScenario::new()
        .machine("x", sc())
        .machine("x", sc())
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("duplicate machine id"));

    let bad = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .kill_at(SimTime::from_secs(1), "ghost");
    let err = ClusterScenario::new()
        .machine("ok", sc())
        .machine("broken", bad)
        .build()
        .unwrap_err();
    match err {
        SessionError::Shard { machine, error } => {
            assert_eq!(machine, "broken");
            assert!(error.to_string().contains("unknown tag"));
        }
        other => panic!("expected Shard, got {other:?}"),
    }

    assert!(ClusterScenario::new().build().is_err(), "empty cluster");
}

#[test]
fn batched_run_coalesces_sends_and_reports_its_frames() {
    // `run` delivers a round at a time: fewer deliveries than frames, and
    // every frame accounted for in the run statistics. Thread-count
    // identity of the stream is pinned by
    // `merged_stream_is_byte_identical_at_1_2_8_and_16_threads`.
    let mut session = cluster().build().unwrap();
    let mut sink = ClusterCollectSink::new();
    let monitor = |m: MachineRef<'_>| -> ToolSet {
        vec![(tool(if m.index.is_multiple_of(2) { 1 } else { 2 }), None)]
    };
    session.run(1, 5, monitor, &mut [], &mut sink).unwrap();
    let stats = session.last_run_stats();
    assert_eq!(stats.frames, sink.frames().len(), "every frame counted");
    assert_eq!(stats.frames, session.len() * 5, "5 frames per machine");
    assert!(
        stats.batches < stats.frames,
        "batched path must coalesce sends: {} messages for {} frames",
        stats.batches,
        stats.frames
    );
}

#[test]
fn shards_share_immutable_state_across_the_fleet() {
    use std::sync::Arc;

    // A fleet of identical machines built from one shared config: every
    // shard's kernel must point at the *same* allocation, not a copy —
    // the per-machine memory diet at 1000 machines depends on it.
    let cfg = Arc::new(MachineConfig::nehalem_w3550().noiseless());
    let mut cluster = ClusterScenario::new();
    for i in 0..6u64 {
        cluster = cluster.machine(
            format!("m{i}"),
            Scenario::new(Arc::clone(&cfg))
                .seed(i + 1)
                .user(Uid(1), "u1")
                .spawn(
                    "spin",
                    SpawnSpec::new("spin", Uid(1), spin(0.9)).seed(i + 1),
                ),
        );
    }
    let mut session = cluster.build().unwrap();
    session
        .run(
            2,
            1,
            |_| vec![(tool(1), None)],
            &mut [],
            &mut ClusterCollectSink::new(),
        )
        .unwrap();
    let ids: Vec<String> = session.machines().map(|m| m.id.to_string()).collect();
    assert_eq!(ids.len(), 6);
    for id in &ids {
        let shard = session.session(id).expect("shard session exists");
        assert!(
            Arc::ptr_eq(&cfg, &shard.kernel().machine().shared_config()),
            "shard '{id}' must share the fleet's config allocation"
        );
    }

    // Cloning a program (a spawn spec fanned out, a checkpoint taken) is a
    // refcount bump on the shared phase list, not a deep copy.
    let program = spin(0.9);
    let cloned = program.clone();
    assert!(
        std::ptr::eq(program.phases().as_ptr(), cloned.phases().as_ptr()),
        "cloned programs must share one phase allocation"
    );

    // Two monitors on the same screen share one compiled cell plan.
    let a = Tiptop::new(TiptopOptions::default(), ScreenConfig::default_screen());
    let b = Tiptop::new(TiptopOptions::default(), ScreenConfig::default_screen());
    assert!(
        Arc::ptr_eq(&a.cell_plan(), &b.cell_plan()),
        "identical screens must share one plan allocation"
    );
}

#[test]
fn window_sink_stays_bounded_on_a_hundred_machine_run() {
    // The scaling property: peak buffered frames in the window sink is
    // bounded by the window size even when 100 machines feed the merge.
    let mut cluster = ClusterScenario::new();
    for i in 0..100u64 {
        cluster = cluster.machine(
            format!("m{i:03}"),
            Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                .seed(i + 1)
                .user(Uid(1), "u1")
                .spawn(
                    "spin",
                    SpawnSpec::new("spin", Uid(1), spin(0.9)).seed(i + 1),
                ),
        );
    }
    let mut session = cluster.build().unwrap();
    const WINDOW: usize = 256;
    const REFRESHES: usize = 6;
    let mut sink = ClusterWindowSink::new(WINDOW);
    session
        .run(4, REFRESHES, |_| vec![(tool(1), None)], &mut [], &mut sink)
        .unwrap();

    assert!(
        sink.peak_buffered() <= WINDOW,
        "peak {} must stay within the window {WINDOW}",
        sink.peak_buffered()
    );
    let stats = session.last_run_stats();
    assert_eq!(stats.frames, 100 * REFRESHES, "every frame delivered");
    assert!(
        stats.batches < stats.frames,
        "100-machine run must batch: {} messages for {} frames",
        stats.batches,
        stats.frames
    );
    let windows = sink.finish();
    assert_eq!(
        windows.iter().map(|w| w.frames).sum::<usize>(),
        100 * REFRESHES,
        "every frame aggregated exactly once"
    );
}

#[test]
fn handover_dedupe_entries_are_pruned_as_the_stream_advances() {
    use tiptop_core::cluster::{ClusterFrameSink, HandoverRecord};
    // Regression: the dedupe map used to keep every registered instant for
    // the life of the sink. Entries must drop once the merged stream
    // advances past their instant.
    let handovers = (1..=5u64).map(|s| HandoverRecord {
        at: SimTime::from_secs(s),
        tag: format!("job-{s}"),
        comm: format!("job-{s}"),
        from: "a".into(),
        to: "b".into(),
        mode: MigrationMode::Restart,
    });
    let mut sink = ClusterWindowSink::new(4).dedupe_handovers(handovers);
    assert_eq!(sink.pending_dedupe_instants(), 5);
    let frame_at = |t: u64| ClusterFrame {
        machine: "b".into(),
        machine_index: 0,
        source: "tiptop".into(),
        seq: 0,
        frame: Frame {
            time: SimTime::from_secs(t),
            headers: Vec::new().into(),
            rows: Vec::new(),
            unobservable: 0,
        },
    };
    sink.on_frame(frame_at(1));
    assert_eq!(
        sink.pending_dedupe_instants(),
        5,
        "entries at or ahead of the stream stay live"
    );
    sink.on_frame(frame_at(3));
    assert_eq!(
        sink.pending_dedupe_instants(),
        3,
        "instants strictly behind the stream are pruned"
    );
    sink.on_frame(frame_at(100));
    assert_eq!(sink.pending_dedupe_instants(), 0, "map drains completely");
}

/// Satellite goldens for the pluggable in-kernel scheduler: the default
/// selection reproduces the explicit CFS-like stream byte-for-byte (the
/// pre-refactor behaviour), and each alternative planner is deterministic
/// at any worker-thread count.
#[test]
fn scheduler_selection_default_matches_cfs_and_alternatives_are_deterministic() {
    use tiptop_kernel::sched::SchedulerSelect;

    // Two nodes, one of them oversubscribed (ten runnables on eight PUs)
    // so the planners genuinely disagree about who runs each epoch.
    let run_with = |scheduler: Option<SchedulerSelect>, threads: usize| {
        let mut busy = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(11)
            .user(Uid(1), "u1");
        for i in 0..10u64 {
            busy = busy.spawn(
                format!("spin-{i}"),
                SpawnSpec::new(format!("spin-{i}"), Uid(1), spin(0.8 + 0.03 * i as f64))
                    .seed(100 + i),
            );
        }
        let calm = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(12)
            .user(Uid(1), "u1")
            .spawn("spin", SpawnSpec::new("spin", Uid(1), spin(0.9)).seed(12));
        let mut cluster = ClusterScenario::new()
            .machine("busy", busy)
            .machine("calm", calm);
        if let Some(scheduler) = scheduler {
            cluster = cluster.scheduler(scheduler);
        }
        let mut session = cluster.build().unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(threads, 4, |_| vec![(tool(1), None)], &mut [], &mut sink)
            .unwrap();
        rendered(sink.frames())
    };

    // Byte-identity golden: leaving the knob alone is exactly CFS-like —
    // the pre-refactor stream — at 1, 2 and 8 workers.
    let default_stream = run_with(None, 1);
    for threads in [1usize, 2, 8] {
        assert_eq!(
            default_stream,
            run_with(None, threads),
            "default scheduler: {threads} workers must not change one byte"
        );
        assert_eq!(
            default_stream,
            run_with(Some(SchedulerSelect::cfs_like()), threads),
            "explicit cfs_like at {threads} workers must reproduce the default stream"
        );
    }

    // Each alternative planner: deterministic across worker-thread counts.
    let fifo = run_with(Some(SchedulerSelect::fifo()), 1);
    let round_robin = run_with(Some(SchedulerSelect::round_robin()), 1);
    for threads in [2usize, 8] {
        assert_eq!(
            fifo,
            run_with(Some(SchedulerSelect::fifo()), threads),
            "fifo: {threads} workers must not change one byte"
        );
        assert_eq!(
            round_robin,
            run_with(Some(SchedulerSelect::round_robin()), threads),
            "round-robin: {threads} workers must not change one byte"
        );
    }

    // And the knob is real: under oversubscription the three planners
    // produce three different streams.
    assert_ne!(default_stream, fifo, "fifo must differ from cfs");
    assert_ne!(
        default_stream, round_robin,
        "round-robin must differ from cfs"
    );
    assert_ne!(fifo, round_robin, "fifo must differ from round-robin");
}

// ---------------------------------------------------------------------------
// Cross-machine dependency edges: a machine's scenario keys events on tags
// that complete on other machines; the round driver resolves them with
// exact firing instants and a byte-identical merged stream.

fn work(comm: &str, cpi: f64, insns: u64, seed: u64) -> SpawnSpec {
    SpawnSpec::new(
        comm,
        Uid(1),
        Program::single(
            ExecProfile::builder(comm)
                .base_cpi(cpi)
                .branches(0.18, 0.0)
                .memory(MemoryBehavior::uniform(16 * 1024))
                .build(),
            insns,
        ),
    )
    .seed(seed)
}

/// A three-machine pipeline wired entirely by dependency edges: `extract`
/// on node-0 fans out to `map-a` (node-1) and `map-b` (node-2), which fan
/// back in as `sort-a`/`sort-b` on node-0.
fn pipeline_cluster() -> ClusterScenario {
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    ClusterScenario::new()
        .machine(
            "node-0",
            node(11)
                .spawn("extract", work("extract", 0.8, 1_500_000_000, 1))
                .spawn_after(
                    "map-a",
                    SimDuration::from_millis(60),
                    "sort-a",
                    work("sort-a", 0.9, 800_000_000, 4),
                )
                .spawn_after(
                    "map-b",
                    SimDuration::from_millis(80),
                    "sort-b",
                    work("sort-b", 0.9, 800_000_000, 5),
                ),
        )
        .machine(
            "node-1",
            node(22).spawn_after(
                "extract",
                SimDuration::from_millis(100),
                "map-a",
                work("map-a", 1.0, 1_000_000_000, 2),
            ),
        )
        .machine(
            "node-2",
            node(33).spawn_after(
                "extract",
                SimDuration::from_millis(250),
                "map-b",
                work("map-b", 1.0, 1_000_000_000, 3),
            ),
        )
}

#[test]
fn cross_machine_fan_out_fan_in_is_byte_identical_at_1_2_and_8_threads() {
    let run_at = |threads: usize| {
        let mut session = pipeline_cluster().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(threads, 5, |_| vec![(tool(1), None)], &mut [], &mut sink)
            .unwrap();
        let frames = sink.into_frames();
        (rendered(&frames), session)
    };
    let (golden, session) = run_at(1);
    assert_eq!(golden, run_at(2).0, "2 workers must not change one byte");
    assert_eq!(golden, run_at(8).0, "8 workers must not change one byte");

    // Every stage ran and exited on its machine.
    let exit = |machine: &str, tag: &str| {
        let s = session.session(machine).unwrap();
        let pid = s.pid(tag).unwrap_or_else(|| panic!("{tag} never spawned"));
        s.kernel()
            .exit_record(pid)
            .unwrap_or_else(|| panic!("{tag} never exited"))
            .clone()
    };
    let extract = exit("node-0", "extract");
    let map_a = exit("node-1", "map-a");
    let map_b = exit("node-2", "map-b");
    let sort_a = exit("node-0", "sort-a");
    let sort_b = exit("node-0", "sort-b");

    // Fan-out: each map stage starts exactly `delay` after extract's exit
    // — on a different machine than the one extract ran on.
    assert_eq!(
        map_a.start_time,
        extract.end_time + SimDuration::from_millis(100),
        "map-a must start exactly 100ms after extract exits"
    );
    assert_eq!(
        map_b.start_time,
        extract.end_time + SimDuration::from_millis(250),
        "map-b must start exactly 250ms after extract exits"
    );
    // Fan-in: the sort stages land back on node-0, keyed on the remote
    // map exits.
    assert_eq!(
        sort_a.start_time,
        map_a.end_time + SimDuration::from_millis(60),
        "sort-a must start exactly 60ms after map-a exits"
    );
    assert_eq!(
        sort_b.start_time,
        map_b.end_time + SimDuration::from_millis(80),
        "sort-b must start exactly 80ms after map-b exits"
    );
}

#[test]
fn cross_machine_kill_after_lands_exactly() {
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let mut session = ClusterScenario::new()
        .machine(
            "node-0",
            node(1)
                .spawn(
                    "victim",
                    SpawnSpec::new("victim", Uid(1), spin(0.9)).seed(9),
                )
                .kill_after("trigger", SimDuration::from_millis(120), "victim"),
        )
        .machine(
            "node-1",
            node(2).spawn("trigger", work("trigger", 0.8, 1_200_000_000, 7)),
        )
        .machine(
            "node-2",
            node(3).spawn("spin", SpawnSpec::new("spin", Uid(1), spin(1.0)).seed(5)),
        )
        .build()
        .unwrap();
    session
        .run(
            2,
            4,
            |_| vec![(tool(1), None)],
            &mut [],
            &mut ClusterCollectSink::new(),
        )
        .expect("run must succeed");
    let trigger = {
        let s = session.session("node-1").unwrap();
        let pid = s.pid("trigger").unwrap();
        s.kernel().exit_record(pid).unwrap().clone()
    };
    let victim = {
        let s = session.session("node-0").unwrap();
        let pid = s.pid("victim").unwrap();
        s.kernel().exit_record(pid).unwrap().clone()
    };
    assert_eq!(
        victim.end_time,
        trigger.end_time + SimDuration::from_millis(120),
        "the cross-machine kill must land exactly 120ms after the trigger exits"
    );
}

#[test]
fn resume_handoff_in_a_dependency_cluster_publishes_before_its_consumer_crosses_it() {
    // node-4 consumes an edge keyed on `sort-b`, so it marches in passes
    // capped 50 ms behind node-0; node-3 has no edges and could reach each
    // round's instant in one pass. The 1.5s resume hop node-4 → node-3
    // must still publish its checkpoint before node-3 crosses 1.5s: the
    // consumer holds until the source's pass reaches the handoff.
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let handoff = SimTime(1_500_000_000);
    let run_at = |threads: usize| {
        let mut session = pipeline_cluster()
            .machine("node-3", node(44))
            .machine(
                "node-4",
                node(55)
                    .spawn("batch", work("batch", 0.8, 8_000_000_000, 9))
                    .spawn_after(
                        "sort-b",
                        SimDuration::from_millis(50),
                        "tail",
                        work("tail", 1.0, 100_000_000, 10),
                    ),
            )
            .resume_at(handoff, "batch", "node-4", "node-3")
            .build()
            .unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(threads, 5, |_| vec![(tool(1), None)], &mut [], &mut sink)
            .unwrap();
        let frames = sink.into_frames();
        (rendered(&frames), session)
    };
    let (golden, session) = run_at(1);
    let exit = |machine: &str, tag: &str| {
        let s = session.session(machine).unwrap();
        let pid = *s.incarnations(tag).last().unwrap();
        s.kernel().exit_record(pid).unwrap().clone()
    };
    let left = exit("node-4", "batch");
    let resumed = exit("node-3", "batch");
    assert_eq!(left.end_time, handoff);
    assert_eq!(resumed.start_time, handoff);
    assert_eq!(
        resumed.total_instructions, 8_000_000_000,
        "the resumed incarnation retires the whole job"
    );
    assert_eq!(
        exit("node-4", "tail").start_time,
        exit("node-0", "sort-b").end_time + SimDuration::from_millis(50),
        "the edge still fires exactly"
    );
    for threads in [2, 8] {
        assert_eq!(
            golden,
            run_at(threads).0,
            "{threads} workers must not change one byte"
        );
    }
}

#[test]
fn cluster_dependency_cycle_is_a_typed_error() {
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let err = ClusterScenario::new()
        .machine(
            "node-a",
            node(1)
                .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                .spawn_after("x", SimDuration::ZERO, "y", work("y", 1.0, 1_000_000, 2)),
        )
        .machine(
            "node-b",
            node(2).spawn_after("y", SimDuration::ZERO, "x", work("x", 1.0, 1_000_000, 3)),
        )
        .build()
        .unwrap_err();
    match err {
        SessionError::InvalidDag(DagError::Cycle { tags }) => {
            assert_eq!(tags, vec!["x".to_string(), "y".to_string()]);
        }
        other => panic!("expected a typed cross-machine cycle error, got: {other}"),
    }
}

#[test]
fn cluster_unknown_dependency_is_a_typed_error() {
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let err = ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("seed", work("seed", 0.8, 100_000_000, 1)),
        )
        .machine(
            "node-b",
            node(2).spawn_after(
                "ghost",
                SimDuration::ZERO,
                "y",
                work("y", 1.0, 1_000_000, 2),
            ),
        )
        .build()
        .unwrap_err();
    match err {
        SessionError::InvalidDag(DagError::UnknownDependency {
            event_tag,
            dependency,
        }) => {
            assert_eq!(event_tag, "y");
            assert_eq!(dependency, "ghost");
        }
        other => panic!("expected a typed unknown-dependency error, got: {other}"),
    }
}

/// One build-time rejection of a fleet's dependency edges: the machines'
/// scenarios (named `node-a`, `node-b`, ... in order) and the error
/// `ClusterScenario::build` reports.
struct DagRejection {
    name: &'static str,
    machines: fn() -> Vec<Scenario>,
    error: SessionError,
}

fn dag_node(seed: u64) -> Scenario {
    Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(seed)
        .user(Uid(1), "u1")
}

fn dag_rejections() -> Vec<DagRejection> {
    let scenario = |msg: &str| SessionError::InvalidScenario(msg.to_string());
    let scripted_and_edge = scenario(
        "duplicate spawn tag 'x': spawned both at a scripted instant and by a dependency \
         edge (incarnations of one tag must not overlap)",
    );
    let two_edges = scenario(
        "duplicate spawn tag 'x': two dependency-triggered spawns (incarnations of one tag \
         must not overlap)",
    );
    let timed_on_dependent = SessionError::InvalidDag(DagError::TimedEventOnDependentTag {
        tag: "x".into(),
        at: SimTime::from_secs(2),
    });
    let cycle = SessionError::InvalidDag(DagError::Cycle {
        tags: vec!["x".into(), "y".into()],
    });
    let unknown_dependency = SessionError::InvalidDag(DagError::UnknownDependency {
        event_tag: "y".into(),
        dependency: "ghost".into(),
    });
    let unknown_target = |machine: &str| SessionError::Shard {
        machine: machine.into(),
        error: Box::new(scenario("event against unknown tag 't'")),
    };
    vec![
        DagRejection {
            name: "a tag spawned at a scripted instant on one machine and by an edge on another",
            machines: || {
                vec![
                    dag_node(1)
                        .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                        .spawn("x", work("x", 1.0, 1_000_000, 2)),
                    dag_node(2).spawn_after(
                        "seed",
                        SimDuration::ZERO,
                        "x",
                        work("x", 1.0, 1_000_000, 3),
                    ),
                ]
            },
            error: scripted_and_edge.clone(),
        },
        DagRejection {
            name: "one machine: a tag spawned at a scripted instant and by an edge",
            machines: || {
                vec![dag_node(1)
                    .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                    .spawn("x", work("x", 1.0, 1_000_000, 2))
                    .spawn_after("seed", SimDuration::ZERO, "x", work("x", 1.0, 1_000_000, 3))]
            },
            error: scripted_and_edge,
        },
        DagRejection {
            name: "two edges on different machines spawn the same tag",
            machines: || {
                vec![
                    dag_node(1)
                        .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                        .spawn_after("seed", SimDuration::ZERO, "x", work("x", 1.0, 1_000_000, 2)),
                    dag_node(2).spawn_after(
                        "seed",
                        SimDuration::ZERO,
                        "x",
                        work("x", 1.0, 1_000_000, 3),
                    ),
                ]
            },
            error: two_edges.clone(),
        },
        DagRejection {
            name: "one machine: two edges spawn the same tag",
            machines: || {
                vec![dag_node(1)
                    .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                    .spawn_after("seed", SimDuration::ZERO, "x", work("x", 1.0, 1_000_000, 2))
                    .spawn_after("seed", SimDuration::ZERO, "x", work("x", 1.0, 1_000_000, 3))]
            },
            error: two_edges,
        },
        DagRejection {
            name: "a scripted event on one machine against a tag another machine spawns by an edge",
            machines: || {
                vec![
                    dag_node(1)
                        .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                        .spawn_after("seed", SimDuration::ZERO, "x", work("x", 1.0, 1_000_000, 2)),
                    dag_node(2).renice_at(SimTime::from_secs(2), "x", 5),
                ]
            },
            error: timed_on_dependent.clone(),
        },
        DagRejection {
            name: "one machine: a scripted event against a tag an edge spawns",
            machines: || {
                vec![dag_node(1)
                    .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                    .spawn_after("seed", SimDuration::ZERO, "x", work("x", 1.0, 1_000_000, 2))
                    .renice_at(SimTime::from_secs(2), "x", 5)]
            },
            error: timed_on_dependent,
        },
        DagRejection {
            name: "a dependency whose final incarnation two machines spawn at the same instant",
            machines: || {
                let at = SimTime::from_secs(1);
                vec![
                    dag_node(1)
                        .spawn_at(at, "d", work("d", 0.8, 1_000_000, 1))
                        .spawn_after("d", SimDuration::ZERO, "y", work("y", 1.0, 1_000_000, 2)),
                    dag_node(2).spawn_at(at, "d", work("d", 0.8, 1_000_000, 3)),
                ]
            },
            error: scenario(
                "dependency 'd' is ambiguous: two machines spawn its final incarnation at \
                 the same instant",
            ),
        },
        DagRejection {
            name: "a kill_after whose target lives on another machine",
            machines: || {
                vec![
                    dag_node(1)
                        .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                        .spawn("t", work("t", 1.0, 100_000_000, 2)),
                    dag_node(2).kill_after("seed", SimDuration::ZERO, "t"),
                ]
            },
            error: unknown_target("node-b"),
        },
        DagRejection {
            name: "one machine: a kill_after whose target is never spawned",
            machines: || {
                vec![dag_node(1)
                    .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                    .kill_after("seed", SimDuration::ZERO, "t")]
            },
            error: unknown_target("node-a"),
        },
        DagRejection {
            name: "spawn-after edges on two machines form a cycle",
            machines: || {
                vec![
                    dag_node(1)
                        .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                        .spawn_after("x", SimDuration::ZERO, "y", work("y", 1.0, 1_000_000, 2)),
                    dag_node(2).spawn_after(
                        "y",
                        SimDuration::ZERO,
                        "x",
                        work("x", 1.0, 1_000_000, 3),
                    ),
                ]
            },
            error: cycle.clone(),
        },
        DagRejection {
            name: "one machine: spawn-after edges form a cycle",
            machines: || {
                vec![dag_node(1)
                    .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                    .spawn_after("x", SimDuration::ZERO, "y", work("y", 1.0, 1_000_000, 2))
                    .spawn_after("y", SimDuration::ZERO, "x", work("x", 1.0, 1_000_000, 3))]
            },
            error: cycle,
        },
        DagRejection {
            name: "an edge keyed on a tag no machine spawns",
            machines: || {
                vec![
                    dag_node(1).spawn("seed", work("seed", 0.8, 100_000_000, 1)),
                    dag_node(2).spawn_after(
                        "ghost",
                        SimDuration::ZERO,
                        "y",
                        work("y", 1.0, 1_000_000, 2),
                    ),
                ]
            },
            error: unknown_dependency.clone(),
        },
        DagRejection {
            name: "one machine: an edge keyed on a tag nothing spawns",
            machines: || {
                vec![dag_node(1)
                    .spawn("seed", work("seed", 0.8, 100_000_000, 1))
                    .spawn_after(
                        "ghost",
                        SimDuration::ZERO,
                        "y",
                        work("y", 1.0, 1_000_000, 2),
                    )]
            },
            error: unknown_dependency,
        },
    ]
}

#[test]
fn dag_rejections_are_typed_and_one_machine_fleets_match_scenario_build() {
    for row in dag_rejections() {
        let machines = (row.machines)();
        let single = machines.len() == 1;
        let mut cluster = ClusterScenario::new();
        for (id, scenario) in ["node-a", "node-b"].into_iter().zip(machines) {
            cluster = cluster.machine(id, scenario);
        }
        let err = cluster.build().unwrap_err();
        assert_eq!(err, row.error, "{}", row.name);
        if single {
            // Scenario::build reports the same error, without the
            // machine label the fleet puts on consumer-scoped errors.
            let bare = (row.machines)().pop().unwrap().build().unwrap_err();
            let unscoped = match err {
                SessionError::Shard { machine, error } if machine == "node-a" => *error,
                other => other,
            };
            assert_eq!(bare, unscoped, "{}", row.name);
        }
    }
}

/// [`pipeline_cluster`] plus a spare machine running a background job and
/// a fourth node, which hosts a `probe` stage submitted `delay` after
/// `extract` exits when `probe` is set.
fn reactive_pipeline(probe: Option<SimDuration>) -> ClusterScenario {
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let node3 = match probe {
        None => node(44),
        Some(delay) => node(44).spawn_after(
            "extract",
            delay,
            "probe",
            work("probe", 1.0, 1_000_000_000, 8),
        ),
    };
    pipeline_cluster().machine("node-3", node3).machine(
        "spare",
        node(55).spawn("bg", SpawnSpec::new("bg", Uid(1), spin(0.9)).seed(6)),
    )
}

/// Run [`reactive_pipeline`] with a policy that moves `bg` from the spare
/// to `to` on the spare's second frame (t=2s).
fn run_reactive_pipeline(
    probe: Option<SimDuration>,
    to: &str,
    threads: usize,
) -> (
    String,
    Vec<tiptop_core::reactive::AppliedDecision>,
    tiptop_core::cluster::ClusterSession,
) {
    let mut session = reactive_pipeline(probe).build().unwrap();
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
        machine: "spare",
        on_seq: 1,
        decision: MigrationDecision {
            tag: "bg".to_string(),
            from: "spare".to_string(),
            to: to.to_string(),
            mode: MigrationMode::Restart,
        },
        fired: false,
    })];
    let mut sink = ClusterCollectSink::new();
    let applied = session
        .run(
            threads,
            5,
            |_| vec![(tool(1), None)],
            &mut policies,
            &mut sink,
        )
        .unwrap();
    (rendered(sink.frames()), applied, session)
}

#[test]
fn run_reactive_resolves_cross_machine_edges_exactly_and_is_byte_identical() {
    let (golden, applied, session) = run_reactive_pipeline(None, "node-1", 1);
    let exit = |machine: &str, tag: &str| {
        let s = session.session(machine).unwrap();
        let pid = s.pid(tag).unwrap_or_else(|| panic!("{tag} never spawned"));
        s.kernel()
            .exit_record(pid)
            .unwrap_or_else(|| panic!("{tag} never exited"))
            .clone()
    };
    let extract = exit("node-0", "extract");
    let map_a = exit("node-1", "map-a");
    let map_b = exit("node-2", "map-b");
    let sort_a = exit("node-0", "sort-a");
    let sort_b = exit("node-0", "sort-b");
    // Every edge fires exactly `delay` after its dependency exits, even
    // with a policy watching the stream and moving work mid-run.
    assert_eq!(
        map_a.start_time,
        extract.end_time + SimDuration::from_millis(100)
    );
    assert_eq!(
        map_b.start_time,
        extract.end_time + SimDuration::from_millis(250)
    );
    assert_eq!(
        sort_a.start_time,
        map_a.end_time + SimDuration::from_millis(60)
    );
    assert_eq!(
        sort_b.start_time,
        map_b.end_time + SimDuration::from_millis(80)
    );

    // The decision fired on the spare's t=2s frame and landed on node-1 at
    // the next 20 ms epoch boundary.
    assert_eq!(applied.len(), 1);
    assert_eq!(applied[0].decided_at, SimTime::from_secs(2));
    assert_eq!(applied[0].applied_at.as_nanos(), 2_020_000_000);
    let bg = {
        let s = session.session("node-1").unwrap();
        s.kernel()
            .stat(s.pid("bg").expect("bg moved to node-1"))
            .unwrap()
    };
    assert_eq!(bg.start_time, applied[0].applied_at);

    for threads in [2, 8] {
        let (stream, applied_n, _) = run_reactive_pipeline(None, "node-1", threads);
        assert_eq!(golden, stream, "{threads} workers must not change one byte");
        assert_eq!(applied_n[0].applied_at, applied[0].applied_at);
    }
}

#[test]
fn same_instant_dependency_and_decision_events_apply_in_scheduling_order() {
    // Land a dependency-fired spawn and a decision's spawn on one machine
    // at one instant: `probe` fires `delay` after `extract` exits, with
    // `delay` chosen so the firing instant is the decision's boundary.
    let (_, applied, session) = run_reactive_pipeline(None, "node-3", 1);
    let extract_end = {
        let s = session.session("node-0").unwrap();
        s.kernel()
            .exit_record(s.pid("extract").unwrap())
            .unwrap()
            .end_time
    };
    let at = applied[0].applied_at;
    assert!(extract_end < applied[0].decided_at, "extract exits first");
    let delay = SimDuration::from_nanos(at.as_nanos() - extract_end.as_nanos());

    let (golden, applied, session) = run_reactive_pipeline(Some(delay), "node-3", 1);
    assert_eq!(applied[0].applied_at, at, "the decision lands where it did");
    let node3 = session.session("node-3").unwrap();
    let (probe, bg) = (node3.pid("probe").unwrap(), node3.pid("bg").unwrap());
    let start = |pid| {
        let k = node3.kernel();
        k.exit_record(pid)
            .map(|rec| rec.start_time)
            .or_else(|| k.stat(pid).map(|st| st.start_time))
            .unwrap()
    };
    assert_eq!(start(probe), at, "the edge fires exactly");
    assert_eq!(start(bg), at, "the decision applies at the same instant");
    // The edge was scheduled when `extract` exited, before the deciding
    // round; the decision after its round. Same-instant events apply in
    // scheduling order, so the dependency-fired spawn applies first and
    // takes the lower pid.
    assert!(
        probe < bg,
        "dependency-fired event applies before the decision"
    );
    for threads in [2, 8] {
        let (stream, _, _) = run_reactive_pipeline(Some(delay), "node-3", threads);
        assert_eq!(golden, stream, "{threads} workers must not change one byte");
    }
}

#[test]
fn last_run_stats_reports_the_reactive_run() {
    let mut session = reactive_pair().build().unwrap();
    session
        .run(
            2,
            3,
            |_| vec![(tool(1), None)],
            &mut [],
            &mut ClusterCollectSink::new(),
        )
        .unwrap();
    assert_eq!(session.last_run_stats().frames, 6);

    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(MigrateOnSeq {
        machine: "node-a",
        on_seq: 1,
        decision: MigrationDecision {
            tag: "job".to_string(),
            from: "node-a".to_string(),
            to: "node-b".to_string(),
            mode: MigrationMode::Restart,
        },
        fired: false,
    })];
    let mut sink = ClusterCollectSink::new();
    session
        .run(2, 5, |_| vec![(tool(1), None)], &mut policies, &mut sink)
        .unwrap();
    let stats = session.last_run_stats();
    assert_eq!(sink.frames().len(), 10);
    assert_eq!(
        stats.frames,
        sink.frames().len(),
        "stats must describe the reactive run, not the previous one"
    );
    assert_eq!(stats.batches, 5, "one merge delivery per round");
    assert_eq!(stats.peak_buffered_frames, 2, "one frame per machine");
}

/// A [`Tiptop`] that records the thread each of its observations runs on.
struct ThreadProbe {
    inner: Tiptop,
    seen: std::sync::Arc<std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>>,
}

impl Monitor for ThreadProbe {
    fn name(&self) -> &str {
        "thread-probe"
    }

    fn interval(&self) -> SimDuration {
        Monitor::interval(&self.inner)
    }

    fn prime(&mut self, k: &mut Kernel) {
        self.inner.prime(k);
    }

    fn observe(&mut self, k: &mut Kernel) -> Frame {
        self.seen
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        Monitor::observe(&mut self.inner, k)
    }
}

#[test]
fn worker_pool_is_spawned_once_per_run() {
    // A scripted resume handoff couples the two machines, and neither is
    // at the round instant before its observation, so every round hands
    // its machines to the pool. Over 24 rounds at 2 threads the
    // observations must run on the calling thread and the run's one
    // worker only — never on a thread spawned for a round.
    let node = |seed: u64| {
        Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .seed(seed)
            .user(Uid(1), "u1")
    };
    let mut session = ClusterScenario::new()
        .machine(
            "node-a",
            node(1).spawn("job", SpawnSpec::new("job", Uid(1), spin(0.8)).seed(5)),
        )
        .machine("node-b", node(2))
        .resume_at(SimTime::from_secs(3), "job", "node-a", "node-b")
        .build()
        .unwrap();
    let seen = std::sync::Arc::new(std::sync::Mutex::new(std::collections::HashSet::new()));
    let mut sink = ClusterCollectSink::new();
    session
        .run(
            2,
            24,
            |_| {
                let probe = ThreadProbe {
                    inner: *tool(1),
                    seen: seen.clone(),
                };
                vec![(Box::new(probe), None)]
            },
            &mut [],
            &mut sink,
        )
        .unwrap();
    let frames = sink.into_frames();
    assert_eq!(frames.len(), 48, "24 refreshes on each machine");
    assert_eq!(session.handovers().len(), 1, "the resume handoff ran");
    let threads = seen.lock().unwrap().len();
    assert!(
        threads <= 2,
        "observations ran on {threads} threads; a 2-thread run owns 2"
    );
}

// ---------------------------------------------------------------------------
// Windowed rounds: once no policy, dependency edge or resume handoff can act
// between two instants, each machine takes a window of observations in one
// task. The oracle is the same run held to one round per instant: under a
// policy that never decides, or with a cross-machine edge that never fires.

/// Watches every frame and never decides; its presence alone holds every
/// round of a run to one instant.
struct NeverDecides;

impl SchedulerPolicy for NeverDecides {
    fn name(&self) -> &str {
        "never-decides"
    }

    fn observe(&mut self, _: &ClusterFrame) -> Vec<MigrationDecision> {
        Vec::new()
    }
}

fn tool_ms(ms: u64) -> Box<Tiptop> {
    Box::new(Tiptop::new(
        TiptopOptions::default()
            .observer(Uid::ROOT)
            .delay(SimDuration::from_millis(ms)),
        ScreenConfig::default_screen(),
    ))
}

/// Every machine's handed-back state after a run: its clock and its exit
/// records.
fn handed_back(session: &ClusterSession) -> String {
    session
        .machines()
        .map(|m| {
            let s = session
                .session(m.id)
                .expect("a healthy shard is handed back");
            let exits: Vec<String> = s
                .kernel()
                .exit_records()
                .map(|r| format!("{r:?}"))
                .collect();
            format!("{} now={:?} exits={exits:?}", m.id, s.now())
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// One machine's monitors, each with its stop rule.
type ToolSet = Vec<(Box<dyn Monitor + Send>, Option<Until>)>;

/// A per-machine monitor-set factory.
type MonitorSets = dyn Fn(MachineRef<'_>) -> ToolSet;

/// Two monitors per machine at intervals that differ across the fleet, so
/// instants interleave and machines finish at different times.
fn mixed_sets(m: MachineRef<'_>) -> ToolSet {
    let (a, b) = [(50, 80), (70, 50), (60, 90), (50, 50)][m.index];
    vec![
        (tool_ms(a) as Box<dyn Monitor + Send>, None),
        (top(SimDuration::from_millis(b)), None),
    ]
}

#[test]
fn windowed_run_all_matches_one_round_per_instant_at_1_2_and_8_threads() {
    let (refreshes, monitors) = (40, 4 * 2);
    let mut reference = cluster().build().unwrap();
    let mut sink = ClusterCollectSink::new();
    let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(NeverDecides)];
    reference
        .run(1, refreshes, mixed_sets, &mut policies, &mut sink)
        .unwrap();
    let (golden, golden_state) = (rendered(sink.frames()), handed_back(&reference));
    let rounds = reference.last_run_stats().rounds;

    for threads in [1, 2, 8] {
        let mut session = cluster().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(threads, refreshes, mixed_sets, &mut [], &mut sink)
            .unwrap();
        assert_eq!(golden, rendered(sink.frames()), "{threads} threads: stream");
        assert_eq!(
            golden_state,
            handed_back(&session),
            "{threads} threads: state"
        );
        let stats = session.last_run_stats();
        assert_eq!(stats.frames, monitors * refreshes);
        assert!(
            stats.rounds < rounds,
            "a scripted run takes windows: {} steps against {rounds} rounds",
            stats.rounds
        );
        assert!(
            stats.peak_buffered_frames <= 256.max(8 * monitors),
            "a window buffers at most 256 frames, got {}",
            stats.peak_buffered_frames
        );
    }
}

/// A seeded random DAG over four machines. `node-2` also runs a long job
/// that outlives the DAG, and at 4.51 s — off every 40 ms observation
/// instant — starts a short one, so how its clock is marched after its
/// monitor stops shows in both jobs' exit records. `node-3` runs an
/// endless job. With `pin`, `node-0` holds one more cross-machine edge,
/// on the endless job and an hour late: it never fires, it never holds a
/// marching pass short of its instant, and — never firing — it keeps every
/// round of the run at one instant.
fn dag_cluster(pin: bool) -> ClusterScenario {
    let script = random_dag(5, 40, 4);
    let machine_of = |tag: &str| {
        script
            .stages
            .iter()
            .find(|st| st.tag == tag)
            .unwrap()
            .machine
    };
    assert!(
        script.stages.iter().any(|st| st
            .dep
            .as_ref()
            .is_some_and(|(dep, _)| machine_of(dep) != st.machine)),
        "the DAG must cross machines, so the run marches"
    );
    let mut nodes: Vec<Option<Scenario>> = (0..4)
        .map(|i| {
            Some(
                Scenario::new(MachineConfig::nehalem_w3550().noiseless())
                    .seed(100 + i)
                    .user(PIPELINE_USER, "grid"),
            )
        })
        .collect();
    let mut add = |i: usize, f: &dyn Fn(Scenario) -> Scenario| {
        nodes[i] = nodes[i].take().map(f);
    };
    for st in &script.stages {
        let spec = SpawnSpec::new(&st.tag, PIPELINE_USER, st.program.clone()).seed(st.seed);
        add(st.machine, &|node| match &st.dep {
            None => node.spawn_at(SimTime::ZERO + st.start, &st.tag, spec.clone()),
            Some((dep, delay)) => node.spawn_after(dep, *delay, &st.tag, spec.clone()),
        });
    }
    let long = work("long", 0.9, 15_000_000_000, 9);
    add(2, &|node| node.spawn("long", long.clone()));
    let tail = work("tail", 1.0, 400_000_000, 12);
    let at = SimTime::ZERO + SimDuration::from_millis(4_510);
    add(2, &|node| node.spawn_at(at, "tail", tail.clone()));
    let endless = SpawnSpec::new("endless", PIPELINE_USER, spin(1.1)).seed(11);
    add(3, &|node| node.spawn("endless", endless.clone()));
    if pin {
        let late = work("late", 0.9, 1_000_000, 10);
        add(0, &|node| {
            node.spawn_after(
                "endless",
                SimDuration::from_secs(3600),
                "late",
                late.clone(),
            )
        });
    }
    nodes
        .into_iter()
        .enumerate()
        .fold(ClusterScenario::new(), |c, (i, node)| {
            c.machine(format!("node-{i}"), node.unwrap())
        })
}

#[test]
fn windowed_dag_run_matches_one_round_per_instant_with_a_machine_stopped_early() {
    let refreshes = 150;
    let interval = 40;
    let stop = SimTime::ZERO + SimDuration::from_millis(4_000);
    let run = |pin: bool, threads: usize| {
        let mut session = dag_cluster(pin).build().unwrap();
        let mut sink = ClusterCollectSink::new();
        session
            .run(
                threads,
                refreshes,
                |m| {
                    let stops = m.id == "node-2";
                    let until: Until = Box::new(move |f: &Frame| stops && f.time >= stop);
                    vec![(tool_ms(interval), Some(until))]
                },
                &mut [],
                &mut sink,
            )
            .unwrap();
        let stats = session.last_run_stats();
        (
            rendered(sink.frames()),
            handed_back(&session),
            stats,
            session,
        )
    };
    let (golden, golden_state, held, reference) = run(true, 1);
    assert_eq!(
        held.rounds, refreshes,
        "the pinned run takes one round per instant"
    );
    // The catch-up is exercised: node-2 stopped mid-run, its long job still
    // ran on, and every machine ended at the run's last instant.
    let node2 = reference.session("node-2").unwrap();
    let long = node2.kernel().exit_record(node2.pid("long").unwrap());
    assert!(
        long.is_some_and(|r| r.end_time > stop),
        "the long job must exit after node-2 stops observing: {long:?}"
    );
    let end = SimTime::ZERO + SimDuration::from_millis(interval * refreshes as u64);
    assert_eq!(
        node2.now(),
        end,
        "the march carries a stopped machine along"
    );

    for threads in [1, 2, 8] {
        let (stream, state, stats, _) = run(false, threads);
        assert_eq!(golden, stream, "{threads} threads: stream");
        assert_eq!(golden_state, state, "{threads} threads: state");
        assert!(
            stats.rounds < held.rounds,
            "windows once the DAG's edges fired: {} steps",
            stats.rounds
        );
        assert!(stats.peak_buffered_frames <= 256);
    }
}

#[test]
fn windowed_dag_run_all_matches_one_round_per_instant() {
    // The DAG under a policy that never decides. With one interval fleet
    // wide the scripted run takes windows once the edges fired. With mixed
    // intervals a marching window would skip instants the rounds march
    // every machine through, so it stays a round until the machines still
    // observing share their instants again.
    let uniform = |_: MachineRef<'_>| vec![(tool_ms(40) as Box<dyn Monitor + Send>, None)];
    let sets: [&MonitorSets; 2] = [&uniform, &mixed_sets];
    for (k, monitors) in sets.into_iter().enumerate() {
        let mut reference = dag_cluster(false).build().unwrap();
        let mut sink = ClusterCollectSink::new();
        let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(NeverDecides)];
        reference
            .run(2, 60, monitors, &mut policies, &mut sink)
            .unwrap();
        let mut session = dag_cluster(false).build().unwrap();
        let mut windowed = ClusterCollectSink::new();
        session
            .run(2, 60, monitors, &mut [], &mut windowed)
            .unwrap();
        assert_eq!(rendered(sink.frames()), rendered(windowed.frames()));
        assert_eq!(handed_back(&reference), handed_back(&session));
        let (steps, rounds) = (
            session.last_run_stats().rounds,
            reference.last_run_stats().rounds,
        );
        assert!(steps <= rounds);
        if k == 0 {
            assert!(steps < rounds, "windows: {steps} steps, {rounds} rounds");
        }
    }
}

/// A fleet of `machines` light machines on one shared config: each runs
/// one fixed-CPI job with no loads or stores.
fn light_fleet(machines: usize) -> ClusterScenario {
    let cfg = std::sync::Arc::new(MachineConfig::nehalem_w3550().noiseless());
    (0..machines).fold(ClusterScenario::new(), |cluster, i| {
        let seed = i as u64 + 1;
        let light = ExecProfile::builder("light")
            .base_cpi(0.6 + 0.1 * (i % 8) as f64)
            .loads_per_insn(0.0)
            .stores_per_insn(0.0)
            .build();
        let spec = SpawnSpec::new("light", Uid(1), Program::endless(light)).seed(seed);
        cluster.machine(
            format!("m{i:04}"),
            Scenario::new(std::sync::Arc::clone(&cfg))
                .seed(seed)
                .user(Uid(1), "u1")
                .spawn("light", spec),
        )
    })
}

#[test]
fn large_fleets_take_windows_of_at_least_eight_instants() {
    let top_views = |_: MachineRef<'_>| -> ToolSet {
        (0..64)
            .map(|_| {
                (
                    top(SimDuration::from_millis(100)) as Box<dyn Monitor + Send>,
                    None,
                )
            })
            .collect()
    };
    let one_tiptop = |_: MachineRef<'_>| vec![(tool_ms(20) as Box<dyn Monitor + Send>, None)];
    // 4 machines x 64 monitors, and 1,000 machines x 1: both fleets hold
    // 256 or more monitors, so a window takes the floor of eight instants.
    let fleets: [(&dyn Fn() -> ClusterScenario, &MonitorSets, usize); 2] = [
        (&cluster, &top_views, 4 * 64),
        (&|| light_fleet(1_000), &one_tiptop, 1_000),
    ];
    let refreshes = 16;
    for (fleet, sets, monitors) in fleets {
        let mut reference = fleet().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        let mut policies: Vec<Box<dyn SchedulerPolicy>> = vec![Box::new(NeverDecides)];
        reference
            .run(1, refreshes, sets, &mut policies, &mut sink)
            .unwrap();
        let (golden, golden_state) = (rendered(sink.frames()), handed_back(&reference));
        let rounds = reference.last_run_stats().rounds;
        assert_eq!(
            rounds, refreshes,
            "{monitors} monitors: one round per instant"
        );

        for threads in [1, 2, 8] {
            let mut session = fleet().build().unwrap();
            let mut sink = ClusterCollectSink::new();
            session
                .run(threads, refreshes, sets, &mut [], &mut sink)
                .unwrap();
            let at = format!("{monitors} monitors, {threads} threads");
            assert_eq!(golden, rendered(sink.frames()), "{at}: stream");
            assert_eq!(golden_state, handed_back(&session), "{at}: state");
            let stats = session.last_run_stats();
            assert_eq!(stats.frames, monitors * refreshes, "{at}");
            assert!(
                stats.rounds < rounds,
                "{at}: a scripted run takes windows, {} steps against {rounds} rounds",
                stats.rounds
            );
            assert_eq!(stats.rounds, refreshes / 8, "{at}: eight instants a window");
            assert!(
                stats.peak_buffered_frames <= 256.max(8 * monitors),
                "{at}: a window buffers at most max(256, 8 x monitors) frames, got {}",
                stats.peak_buffered_frames
            );
        }
    }
}

/// One node of [`failing_fleet`], by index.
fn failing_node(i: usize) -> Scenario {
    Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(40 + i as u64)
        .user(Uid(1), "u1")
        .spawn(
            "spin",
            SpawnSpec::new("spin", Uid(1), spin(0.8 + 0.1 * i as f64)).seed(i as u64),
        )
}

/// node-1 panics on its 5th observation and node-2 on its 3rd, both inside
/// the window that covers the whole run.
fn failing_monitor(m: MachineRef<'_>) -> Box<dyn Monitor + Send> {
    let panic_on = match m.id {
        "node-1" => 5,
        "node-2" => 3,
        _ => usize::MAX,
    };
    Box::new(PanicMonitor {
        inner: *tool_ms(if m.index == 3 { 300 } else { 200 }),
        observations: 0,
        panic_on,
    })
}

#[test]
fn a_shard_failing_mid_window_delivers_healthy_frames_then_the_lowest_index_error() {
    let ids = ["node-0", "node-1", "node-2", "node-3"];
    // Nothing couples the machines, so each one alone streams exactly what
    // it contributes to the fleet; merged by (time, machine) they are the
    // expected stream.
    let mut expected: Vec<ClusterFrame> = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        let mut solo = ClusterScenario::new()
            .machine(*id, failing_node(i))
            .build()
            .unwrap();
        let mut sink = ClusterCollectSink::new();
        let monitor =
            |_: MachineRef<'_>| vec![(failing_monitor(MachineRef { id, index: i }), None)];
        let _ = solo.run(1, 8, monitor, &mut [], &mut sink);
        expected.extend(sink.into_frames());
    }
    expected.sort_by_key(|f| f.frame.time);

    for threads in [1, 2, 8] {
        let mut fleet = ids
            .iter()
            .enumerate()
            .fold(ClusterScenario::new(), |c, (i, id)| {
                c.machine(*id, failing_node(i))
            })
            .build()
            .unwrap();
        let mut sink = ClusterCollectSink::new();
        let err = fleet
            .run(
                threads,
                8,
                |m| vec![(failing_monitor(m), None)],
                &mut [],
                &mut sink,
            )
            .unwrap_err();
        assert!(
            matches!(&err, SessionError::ShardPanicked { machine, .. } if machine == "node-1"),
            "{threads} threads: the lowest index wins, got {err:?}"
        );
        assert_eq!(
            fleet.last_run_stats().rounds,
            1,
            "one window covers the run"
        );
        let frames = sink.into_frames();
        let count = |id: &str| frames.iter().filter(|f| f.machine == id).count();
        assert_eq!(
            (count("node-0"), count("node-3")),
            (8, 8),
            "healthy runs whole"
        );
        assert_eq!(
            (count("node-1"), count("node-2")),
            (4, 2),
            "pre-failure frames"
        );
        let key = |f: &ClusterFrame| (f.frame.time, f.machine_index);
        assert!(frames.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
        // The solo streams label every machine index 0; compare by id.
        assert_eq!(rendered(&expected), rendered(&frames), "{threads} threads");
    }
}

/// One machine with timed spawn, renice and kill events, at instants that
/// differ per machine and fall between and on observation instants.
fn evented_node(i: u64) -> Scenario {
    let at_ms = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
    Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(60 + i)
        .user(Uid(1), "u1")
        .spawn("base", SpawnSpec::new("base", Uid(1), spin(0.8)).seed(i))
        .spawn_at(
            at_ms(1500 + 1000 * i),
            "late",
            SpawnSpec::new("late", Uid(1), spin(1.2)).seed(10 + i),
        )
        .renice_at(SimTime::from_secs(3 + i), "base", 5)
        .kill_at(at_ms(5250 + 500 * i), "late")
}

fn evented_cluster() -> ClusterScenario {
    (0..3).fold(ClusterScenario::new(), |c, i| {
        c.machine(format!("node-{i}"), evented_node(i))
    })
}

/// tiptop every second next to top every two seconds.
fn tiptop_and_top() -> Vec<Box<dyn Monitor + Send>> {
    vec![tool(1), top(SimDuration::from_secs(2))]
}

/// The frames of machine `index`, rendered, in merge order.
fn sub_stream(frames: &[ClusterFrame], index: usize) -> Vec<String> {
    frames
        .iter()
        .filter(|f| f.machine_index == index)
        .map(|f| format!("[{}]\n{}", f.source, f.frame.render()))
        .collect()
}

/// A machine's clock and exit records.
fn clock_and_exits(session: &tiptop_core::scenario::Session) -> String {
    let exits: Vec<String> = session
        .kernel()
        .exit_records()
        .map(|r| format!("{r:?}"))
        .collect();
    format!("now={:?} exits={exits:?}", session.now())
}

#[test]
fn a_machine_of_the_fleet_observes_exactly_as_a_lone_session() {
    let refreshes = 8;
    // A monitor set: each machine's sub-stream is what `Session::run_all`
    // streams over the same scenario.
    let solo: Vec<(Vec<String>, String)> = (0..3)
        .map(|i| {
            let mut session = evented_node(i).build().unwrap();
            let mut monitors = tiptop_and_top();
            let mut refs: Vec<&mut dyn Monitor> = monitors
                .iter_mut()
                .map(|m| m.as_mut() as &mut dyn Monitor)
                .collect();
            let mut out = Vec::new();
            let mut sink = |source: &str, frame: Frame| {
                out.push(format!("[{source}]\n{}", frame.render()));
            };
            session.run_all(&mut refs, refreshes, &mut sink).unwrap();
            (out, clock_and_exits(&session))
        })
        .collect();
    for threads in [1, 2] {
        let mut fleet = evented_cluster().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        let sets = |_: MachineRef<'_>| tiptop_and_top().into_iter().map(|m| (m, None)).collect();
        fleet
            .run(threads, refreshes, sets, &mut [], &mut sink)
            .unwrap();
        for (i, (frames, state)) in solo.iter().enumerate() {
            assert_eq!(
                *frames,
                sub_stream(sink.frames(), i),
                "{threads} threads: node-{i}'s frames"
            );
            let handed_back = fleet.session(&format!("node-{i}")).unwrap();
            assert_eq!(
                *state,
                clock_and_exits(handed_back),
                "{threads} threads: node-{i}'s state"
            );
        }
    }

    // A monitor with an `until`: each machine's sub-stream is what
    // `Session::run_until` returns. node-0 stops at 3 s, node-1 at 6 s and
    // node-2 never (its instant lies past the budget).
    let stop_at = |i: usize| SimTime::from_secs(3 + 3 * i as u64);
    let solo: Vec<Vec<String>> = (0..3)
        .map(|i| {
            let mut session = evented_node(i as u64).build().unwrap();
            let mut monitor = tool(1);
            session
                .run_until(monitor.as_mut(), refreshes, |f| f.time == stop_at(i))
                .unwrap()
                .iter()
                .map(|f| format!("[tiptop]\n{}", f.render()))
                .collect()
        })
        .collect();
    for threads in [1, 2] {
        let mut fleet = evented_cluster().build().unwrap();
        let mut sink = ClusterCollectSink::new();
        fleet
            .run(
                threads,
                refreshes,
                |m| {
                    let at = stop_at(m.index);
                    let until: Until = Box::new(move |f: &Frame| f.time == at);
                    vec![(tool(1), Some(until))]
                },
                &mut [],
                &mut sink,
            )
            .unwrap();
        for (i, frames) in solo.iter().enumerate() {
            assert_eq!(
                *frames,
                sub_stream(sink.frames(), i),
                "{threads} threads: node-{i}'s frames"
            );
        }
    }
    assert_eq!(solo.iter().map(Vec::len).collect::<Vec<_>>(), [3, 6, 8]);
}
