//! Integration tests for the unified `Scenario`/`Monitor` session API:
//!
//! 1. Tiptop and `top` driven side-by-side through one `Scenario` agree on
//!    `%CPU` per pid (the Fig 1 cross-check — same scheduler deltas seen
//!    through two different tools).
//! 2. Timed kill/renice/pin events take effect at the scheduled instant.
//! 3. A `FrameSink` receives exactly the frames a hand-driven
//!    prime/advance/observe loop produces for an identical world.
//! 4. Property-style edge cases of `Scenario::build` (events after a kill,
//!    tag scoping across machines, zero-duration scenarios).

use tiptop_core::prelude::*;
use tiptop_kernel::prelude::*;
use tiptop_machine::access::MemoryBehavior;
use tiptop_machine::config::MachineConfig;
use tiptop_machine::exec::ExecProfile;
use tiptop_machine::topology::PuId;

fn spin(name: &str) -> Program {
    Program::endless(
        ExecProfile::builder(name)
            .base_cpi(0.8)
            .branches(0.18, 0.0)
            .memory(MemoryBehavior::uniform(16 * 1024))
            .build(),
    )
}

/// Half-busy task: ~10 ms of work then 10 ms of sleep.
fn duty_cycle(name: &str) -> Program {
    Program::looping(vec![
        Phase::compute(
            ExecProfile::builder(name)
                .base_cpi(0.8)
                .branches(0.18, 0.0)
                .memory(MemoryBehavior::uniform(16 * 1024))
                .build(),
            38_375_000,
        ),
        Phase::sleep(SimDuration::from_millis(10)),
    ])
}

fn tiptop_1s() -> Tiptop {
    Tiptop::new(
        TiptopOptions::default().delay(SimDuration::from_secs(1)),
        ScreenConfig::default_screen(),
    )
}

#[test]
fn tiptop_and_top_agree_on_cpu_pct_side_by_side() {
    let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(4)
        .user(Uid(1), "user1")
        .spawn("busy", SpawnSpec::new("busy", Uid(1), spin("busy")))
        .spawn("half", SpawnSpec::new("half", Uid(1), duty_cycle("half")))
        .build()
        .unwrap();
    let busy = session.pid("busy").unwrap();
    let half = session.pid("half").unwrap();

    let mut tip = tiptop_1s();
    let mut top = Tiptop::new(
        TiptopOptions::default().delay(SimDuration::from_secs(1)),
        ScreenConfig::top_screen(),
    );

    let mut tip_frames: Vec<Frame> = Vec::new();
    let mut top_frames: Vec<Frame> = Vec::new();
    {
        let mut sink = |source: &str, frame: Frame| match source {
            "tiptop" => tip_frames.push(frame),
            "top" => top_frames.push(frame),
            other => panic!("unexpected source {other}"),
        };
        session
            .run_all(&mut [&mut tip, &mut top], 4, &mut sink)
            .unwrap();
    }

    assert_eq!(tip_frames.len(), 4);
    assert_eq!(top_frames.len(), 4);
    for (tf, of) in tip_frames.iter().zip(&top_frames) {
        assert_eq!(tf.time, of.time, "observed at the same instants");
        for pid in [busy, half] {
            let a = tf.row_for(pid).unwrap().value("%CPU").unwrap();
            let b = of.row_for(pid).unwrap().value("%CPU").unwrap();
            assert!(
                (a - b).abs() < 1e-9,
                "pid {} at t={}: tiptop {a} vs top {b}",
                pid.0,
                tf.time.as_secs_f64()
            );
        }
    }
    // Sanity: the two tasks are actually different loads.
    let last = tip_frames.last().unwrap();
    assert!(last.row_for(busy).unwrap().cpu_pct > 99.0);
    let h = last.row_for(half).unwrap().cpu_pct;
    assert!((35.0..65.0).contains(&h), "duty-cycled task ~50%, got {h}");
}

#[test]
fn timed_kill_takes_effect_at_the_scheduled_instant() {
    let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(5)
        .user(Uid(1), "user1")
        .spawn("victim", SpawnSpec::new("victim", Uid(1), spin("victim")))
        .kill_at(SimTime::from_secs(3), "victim")
        .build()
        .unwrap();
    let victim = session.pid("victim").unwrap();

    session.advance_to(SimTime::from_secs(2)).unwrap();
    assert!(session.kernel().is_alive(victim), "alive before the kill");

    session.advance_to(SimTime::from_secs(5)).unwrap();
    assert!(!session.kernel().is_alive(victim));
    let rec = session.kernel().exit_record(victim).expect("tombstone");
    assert_eq!(rec.end_time, SimTime::from_secs(3), "died exactly at t=3");
    // It computed for exactly the 3 seconds it lived.
    assert!((rec.utime.as_secs_f64() - 3.0).abs() < 0.05);
}

#[test]
fn timed_renice_takes_effect_at_the_scheduled_instant() {
    // Two CPU-bound tasks pinned to one PU share it 50/50 until t=4, when
    // one is reniced to +19 and the other starts winning ~nine tenths.
    let pin = CpuSet::single(PuId(0));
    let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(6)
        .user(Uid(1), "user1")
        .spawn("a", SpawnSpec::new("a", Uid(1), spin("a")).affinity(pin))
        .spawn("b", SpawnSpec::new("b", Uid(1), spin("b")).affinity(pin))
        .renice_at(SimTime::from_secs(4), "b", 19)
        .build()
        .unwrap();
    let a = session.pid("a").unwrap();
    let b = session.pid("b").unwrap();

    session.advance_to(SimTime::from_secs(4)).unwrap();
    let a_before = session.kernel().stat(a).unwrap().cpu_time().as_secs_f64();
    let b_before = session.kernel().stat(b).unwrap().cpu_time().as_secs_f64();
    assert!(
        (a_before / 4.0 - 0.5).abs() < 0.1,
        "fair share before: {a_before}"
    );
    assert_eq!(
        session.kernel().stat(b).unwrap().nice,
        19,
        "renice applied at t=4"
    );

    session.advance_to(SimTime::from_secs(10)).unwrap();
    let a_after = session.kernel().stat(a).unwrap().cpu_time().as_secs_f64() - a_before;
    let b_after = session.kernel().stat(b).unwrap().cpu_time().as_secs_f64() - b_before;
    assert!(
        a_after > b_after * 3.0,
        "nice 0 vs +19 after t=4 should be a lopsided split: {a_after} vs {b_after}"
    );
}

#[test]
fn frame_sink_receives_exactly_the_manually_driven_frames() {
    // Identical worlds: one driven by hand on a bare kernel through the
    // raw `Monitor` contract (prime, advance one interval, observe — the
    // loop the session API promises to reproduce), one through a Session
    // with a streaming sink. An independent oracle, not run_all vs itself.
    let mut k = Kernel::new(KernelConfig::new(MachineConfig::nehalem_w3550().noiseless()).seed(11));
    k.add_user(Uid(1), "user1");
    k.spawn(SpawnSpec::new("spin", Uid(1), spin("spin")).seed(2));
    let mut manual_tool = tiptop_1s();
    manual_tool.prime(&mut k);
    let mut manual: Vec<Frame> = Vec::new();
    for _ in 0..5 {
        k.advance(SimDuration::from_secs(1));
        manual.push(manual_tool.observe(&mut k));
    }

    let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(11)
        .user(Uid(1), "user1")
        .spawn("spin", SpawnSpec::new("spin", Uid(1), spin("spin")).seed(2))
        .build()
        .unwrap();
    let mut tool = tiptop_1s();
    let mut sink = CollectSink::new();
    session.run_all(&mut [&mut tool], 5, &mut sink).unwrap();
    let streamed = sink.into_frames();

    assert_eq!(manual.len(), streamed.len());
    for (i, (l, s)) in manual.iter().zip(&streamed).enumerate() {
        assert_eq!(l.time, SimTime::from_secs(i as u64 + 1), "one per interval");
        assert_eq!(l.time, s.time);
        assert_eq!(l.headers, s.headers);
        assert_eq!(l.rows.len(), s.rows.len());
        for (lr, sr) in l.rows.iter().zip(&s.rows) {
            assert_eq!(lr.pid, sr.pid);
            assert_eq!(lr.cells(), sr.cells(), "identical rendered cells");
            assert_eq!(lr.cpu_pct, sr.cpu_pct);
        }
    }
}

// ---------------------------------------------------------------------
// Property-style edge cases of `Scenario::build` and the event schedule.
// ---------------------------------------------------------------------

#[test]
fn events_after_a_kill_are_rejected_at_build_time() {
    // A renice scheduled after its target's scripted kill is statically
    // contradictory — build() must reject it, whatever the declaration
    // order of the events.
    let declare_orders: [&dyn Fn(Scenario) -> Scenario; 2] = [
        &|s: Scenario| {
            s.kill_at(SimTime::from_secs(2), "x")
                .renice_at(SimTime::from_secs(5), "x", 10)
        },
        &|s: Scenario| {
            s.renice_at(SimTime::from_secs(5), "x", 10)
                .kill_at(SimTime::from_secs(2), "x")
        },
    ];
    for order in declare_orders {
        let base = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
            .user(Uid(1), "u")
            .spawn("x", SpawnSpec::new("x", Uid(1), spin("x")));
        let err = order(base).build().unwrap_err();
        assert!(matches!(err, SessionError::InvalidScenario(_)));
        assert!(err.to_string().contains("follows its kill"), "got {err}");
    }

    // Same-instant kill-then-renice is rejected too (apply order would run
    // the renice against a zombie)...
    let err = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .user(Uid(1), "u")
        .spawn("x", SpawnSpec::new("x", Uid(1), spin("x")))
        .kill_at(SimTime::from_secs(2), "x")
        .renice_at(SimTime::from_secs(2), "x", 10)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("follows its kill"), "got {err}");

    // ...while renice-then-kill at the same instant is fine.
    assert!(Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .user(Uid(1), "u")
        .spawn("x", SpawnSpec::new("x", Uid(1), spin("x")))
        .renice_at(SimTime::from_secs(2), "x", 10)
        .kill_at(SimTime::from_secs(2), "x")
        .build()
        .is_ok());
}

#[test]
fn same_tags_on_different_machines_are_independent() {
    // Tags are scoped to their scenario: two sessions on different machines
    // may reuse the same tag and resolve it independently.
    let build = |machine: MachineConfig, seed: u64| {
        Scenario::new(machine.noiseless())
            .seed(seed)
            .user(Uid(1), "u")
            .spawn("worker", SpawnSpec::new("worker", Uid(1), spin("worker")))
            .kill_at(SimTime::from_secs(2), "worker")
            .build()
            .unwrap()
    };
    let mut a = build(MachineConfig::nehalem_w3550(), 1);
    let mut b = build(MachineConfig::ppc970_machine(), 2);
    let (pa, pb) = (a.pid("worker").unwrap(), b.pid("worker").unwrap());
    a.advance_to(SimTime::from_secs(3)).unwrap();
    assert!(!a.kernel().is_alive(pa), "killed in session a");
    assert!(
        b.kernel().is_alive(pb),
        "session b's 'worker' is untouched by a's schedule"
    );
    b.advance_to(SimTime::from_secs(3)).unwrap();
    assert!(!b.kernel().is_alive(pb));
}

#[test]
fn zero_duration_scenarios_are_valid() {
    // All events at t=0, never advanced: everything applies at build time.
    let session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .user(Uid(1), "u")
        .spawn("a", SpawnSpec::new("a", Uid(1), spin("a")))
        .renice_at(SimTime::ZERO, "a", 5)
        .build()
        .unwrap();
    assert_eq!(session.now(), SimTime::ZERO);
    assert_eq!(session.pending_events(), 0, "t=0 events applied at build");
    let pid = session.pid("a").unwrap();
    assert_eq!(session.kernel().stat(pid).unwrap().nice, 5);
    let st = session.kernel().stat(pid).unwrap();
    assert_eq!(st.cpu_time(), SimDuration::ZERO, "no time has passed");

    // Advancing to the current instant is a no-op, and running a monitor
    // for zero refreshes yields zero frames without advancing the clock.
    let mut session = session;
    session.advance_to(SimTime::ZERO).unwrap();
    let frames = session.run(&mut tiptop_1s(), 0).unwrap();
    assert!(frames.is_empty());
    assert_eq!(session.now(), SimTime::ZERO);

    // An empty scenario (no users, no events) builds too.
    let empty = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .build()
        .unwrap();
    assert_eq!(empty.kernel().num_alive(), 0);
}

#[test]
fn timed_pin_takes_effect_at_the_scheduled_instant() {
    // Two tasks start as SMT siblings on core 0 (PU0/PU4); at t=4 one is
    // re-pinned to core 1 and both speed up (no more pipeline sharing).
    let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(7)
        .user(Uid(1), "user1")
        .spawn(
            "a",
            SpawnSpec::new("a", Uid(1), spin("a")).affinity(CpuSet::single(PuId(0))),
        )
        .spawn(
            "b",
            SpawnSpec::new("b", Uid(1), spin("b")).affinity(CpuSet::single(PuId(4))),
        )
        .pin_at(SimTime::from_secs(4), "b", CpuSet::single(PuId(1)))
        .build()
        .unwrap();
    let a = session.pid("a").unwrap();

    let mut tool = tiptop_1s();
    let frames = session.run(&mut tool, 8).unwrap();
    let ipc = series_for_pid(&frames, a, "IPC");
    let shared = mean(&ipc[1..3]);
    let alone = mean(&ipc[5..8]);
    assert!(
        alone > shared * 1.3,
        "losing the SMT sibling must raise IPC: {shared} -> {alone}"
    );

    // Pinning to a PU the machine does not have is a typed scenario error,
    // caught at build time rather than as a mid-run sched_setaffinity
    // EINVAL. (CpuSet::single(PuId(63)) itself is a legal 64-PU mask — the
    // mismatch is against *this machine's* 8 PUs.)
    let err = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .user(Uid(1), "user1")
        .spawn("a", SpawnSpec::new("a", Uid(1), spin("a")))
        .pin_at(SimTime::from_secs(1), "a", CpuSet::single(PuId(63)))
        .build()
        .unwrap_err();
    assert!(
        matches!(&err, SessionError::InvalidScenario(msg) if msg.contains("pin for 'a'")),
        "got {err:?}"
    );

    // Same for a spawn affinity off the machine; masks beyond the 64-PU
    // limit never panic when built through the fallible constructors.
    assert!(CpuSet::try_single(PuId(64)).is_none());
    let off_machine = CpuSet::try_of(&[PuId(32), PuId(63)]).unwrap();
    let err = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .user(Uid(1), "user1")
        .spawn(
            "a",
            SpawnSpec::new("a", Uid(1), spin("a")).affinity(off_machine),
        )
        .build()
        .unwrap_err();
    assert!(
        matches!(&err, SessionError::InvalidScenario(msg) if msg.contains("spawn affinity")),
        "got {err:?}"
    );
}

#[test]
fn pin_monitor_cross_checks_tiptop_counts() {
    // §2.4 in session form: tiptop's sampled instruction counts and Pin's
    // exact counts, observed side-by-side, agree to well under 1%.
    let mut session = Scenario::new(MachineConfig::nehalem_w3550().noiseless())
        .seed(8)
        .user(Uid(1), "user1")
        .spawn("work", SpawnSpec::new("work", Uid(1), spin("work")))
        .build()
        .unwrap();
    let work = session.pid("work").unwrap();

    let mut tip = tiptop_1s();
    let mut pin = PinInscount::default(); // samples every 1 s
    let mut tip_insns = 0.0;
    let mut pin_last = 0.0;
    {
        let mut sink = |source: &str, frame: Frame| {
            let row = frame.row_for(work).expect("work visible");
            match source {
                // "Minst" renders in millions but its typed value is the
                // raw INSTRUCTIONS delta of the interval.
                "tiptop" => tip_insns += row.value("Minst").unwrap(),
                "pin-inscount" => pin_last = row.value("INSN").unwrap(),
                other => panic!("unexpected source {other}"),
            }
        };
        session
            .run_all(&mut [&mut tip, &mut pin], 4, &mut sink)
            .unwrap();
    }
    assert!(pin_last > 0.0);
    let rel = (tip_insns - pin_last).abs() / pin_last;
    assert!(
        rel < 0.01,
        "tiptop {tip_insns:.0} vs pin exact {pin_last:.0}: off by {:.3}%",
        rel * 100.0
    );
}
